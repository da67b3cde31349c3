// Quickstart: the whole library in one sitting.
//
// Builds a small synthetic Docker Hub snapshot, publishes it as a real
// registry (gzip'd tar layers, schema-v2 manifests), then runs the paper's
// measurement pipeline against it: crawl -> download -> analyze -> dedup.
//
//   $ ./examples/quickstart [repositories]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "dockmine/core/pipeline.h"
#include "dockmine/core/report.h"
#include "dockmine/dedup/by_type.h"
#include "dockmine/util/bytes.h"

int main(int argc, char** argv) {
  using namespace dockmine;

  core::PipelineOptions options;
  options.calibration = synth::Calibration::light();
  options.scale.repositories =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200;
  options.download_workers = 4;
  options.analyze_workers = 2;

  std::cout << "dockmine quickstart: crawling a synthetic Docker Hub of "
            << options.scale.repositories << " repositories...\n";

  auto run = core::run_end_to_end(options);
  if (!run.ok()) {
    std::cerr << "pipeline failed: " << run.error().to_string() << "\n";
    return 1;
  }
  const auto& r = run.value();

  std::cout << "\ncrawler:    " << r.crawl.raw_hits << " raw hits -> "
            << r.crawl.repositories.size() << " distinct repositories ("
            << r.crawl.pages_fetched << " pages)\n";
  std::cout << "downloader: " << r.download.succeeded << " images ok, "
            << r.download.failed_auth << " needed auth, "
            << r.download.failed_no_tag << " had no 'latest' tag; "
            << util::format_bytes(r.download.bytes_downloaded)
            << " transferred, " << r.download.layers_deduped
            << " duplicate layer fetches avoided\n";
  std::cout << "analyzer:   " << r.layer_profiles.size()
            << " unique layers profiled across " << r.images.size()
            << " images\n";

  const dedup::DedupTotals& totals = r.shard_dedup->totals;
  std::cout << "dedup:      " << util::format_count(totals.total_files)
            << " files, " << util::format_count(totals.unique_files)
            << " unique (" << util::format_percent(totals.unique_file_fraction())
            << "); capacity " << util::format_bytes(totals.total_bytes)
            << " -> " << util::format_bytes(totals.unique_bytes) << " ("
            << core::fmt_ratio(totals.capacity_ratio()) << ")\n";
  std::cout << "sharing:    layer sharing saves "
            << core::fmt_ratio(r.sharing.sharing_ratio()) << " ("
            << util::format_bytes(r.sharing.logical_bytes()) << " logical vs "
            << util::format_bytes(r.sharing.physical_bytes())
            << " stored)\n";

  const dedup::TypeBreakdown& breakdown = r.shard_dedup->by_type;
  std::cout << "\nfile types (count / capacity):\n";
  for (std::size_t g = 0; g < filetype::kGroupCount; ++g) {
    const auto group = static_cast<filetype::Group>(g);
    std::printf("  %-5s %6s / %s\n",
                std::string(filetype::to_string(group)).c_str(),
                util::format_percent(breakdown.count_share(group)).c_str(),
                util::format_percent(breakdown.capacity_share(group)).c_str());
  }
  std::cout << "\nNext: run the figure benches in build/bench/ to reproduce "
               "the paper's evaluation.\n";
  return 0;
}
