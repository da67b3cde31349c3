// dockmine_perfbench — the repository benchmark.
//
//   dockmine_perfbench --workload crawl_analyze|serve_read|serve_ingest
//                      --seed N --seconds S --trace 0|1 --work-dir DIR
//                      [--trace-out FILE] [--smoke] [--expect-digest HEX]
//
// Prints an environment line, then, as the last line of stdout, one JSON
// object {"correct","attempted","failed","metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones from
// the traced run. Exits non-zero only when the workload cannot run at all.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.h"
#include "dockmine/obs/obs.h"

namespace {

bool parse_args(int argc, char** argv, perfbench::Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "perfbench: " << flag << " needs a value\n";
      return false;
    }
    const std::string value = argv[++i];
    const auto u64 = [&value] { return std::strtoull(value.c_str(), nullptr, 10); };
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = u64();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value != "0";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--expect-digest") {
      args.expect_digest = value;
    } else {
      std::cerr << "perfbench: unknown flag " << flag << "\n";
      return false;
    }
  }
  if (args.work_dir.empty()) {
    std::cerr << "perfbench: --work-dir is required\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!parse_args(argc, argv, args)) return 2;
  if (args.workload != "crawl_analyze" && args.workload != "serve_read" &&
      args.workload != "serve_ingest") {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::cerr << "perfbench: cannot create " << args.work_dir << "\n";
    return 2;
  }

  // Untraced runs measure the program as users run it: obs off.
  dockmine::obs::set_enabled(false);
  const perfbench::CpuTimes cpu_start = perfbench::read_cpu_times();
  perfbench::Metrics metrics;
  perfbench::Checks checks;
  perfbench::SpanLog spans;
  perfbench::SpanLog* span_log = args.trace ? &spans : nullptr;
  const int status =
      args.workload == "crawl_analyze"
          ? perfbench::run_crawl_analyze(args, metrics, checks, span_log)
          : perfbench::run_serve(args, args.workload == "serve_ingest", metrics,
                                 checks, span_log);
  std::filesystem::remove_all(args.work_dir, ec);
  if (status != 0) return status;
  if (checks.attempted() == 0) {
    std::cerr << "perfbench: no operation completed\n";
    return 3;
  }

  perfbench::Metrics env;
  perfbench::record_environment(env, cpu_start);
  if (args.trace) {
    perfbench::record_environment(metrics, cpu_start);
    metrics.set("check.error_rate", checks.error_rate(), "fraction");
    metrics.set("trace.spans", static_cast<double>(spans.spans().size()), "count");
    if (!args.trace_out.empty() && !spans.write(args.trace_out)) {
      std::cerr << "perfbench: cannot write " << args.trace_out << "\n";
    }
  }
  auto environment = env.to_json();
  std::cout << "environment " << environment.dump() << "\n";
  std::cout << "error_rate " << checks.error_rate() << "\n";

  auto result = dockmine::json::Value::object();
  result.set("correct", checks.failed() == 0);
  result.set("attempted", checks.attempted());
  result.set("failed", checks.failed());
  result.set("metrics", metrics.to_json());
  std::cout << result.dump() << std::endl;
  return 0;
}
