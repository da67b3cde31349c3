// Ablation: transport cost — the same crawl+pull workload against the
// in-process Service vs the real HTTP gateway on loopback, across worker
// counts. Quantifies what the wire costs and how parallelism hides it.
#include <cstdio>

#include "common.h"
#include "dockmine/crawler/crawler.h"
#include "dockmine/downloader/downloader.h"
#include "dockmine/registry/http_gateway.h"
#include "dockmine/synth/materialize.h"
#include "dockmine/util/stopwatch.h"

int main() {
  using namespace dockmine;
  const synth::Scale scale = core::scale_from_env(synth::Scale{250, 20170530});
  std::cout << "snapshot: " << scale.repositories
            << " repositories (light calibration, bytes mode)\n";
  synth::HubModel hub(synth::Calibration::light(), scale);
  registry::Service service;
  synth::Materializer materializer(hub, 1);
  if (auto pushed = materializer.populate(service); !pushed.ok()) {
    std::fprintf(stderr, "%s\n", pushed.error().to_string().c_str());
    return 1;
  }
  registry::SearchIndex search(service);
  crawler::Crawler crawler(search);
  const auto crawl = crawler.crawl_all();

  registry::HttpGateway gateway(service, &search);
  auto server = gateway.serve();
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.error().to_string().c_str());
    return 1;
  }

  std::cout << "\n=== Ablation: in-process vs HTTP transport ===\n\n";
  std::cout << "  transport   workers  wall(s)  images/s  MB/s\n";
  auto run_one = [&](const char* name, registry::Source& source,
                     std::size_t workers) {
    downloader::Options options;
    options.workers = workers;
    downloader::Downloader downloader(source, options);
    util::Stopwatch clock;
    const auto stats = downloader.run(crawl.repositories, nullptr);
    const double wall = clock.seconds();
    std::printf("  %-10s  %-7zu  %-7.2f  %-8.0f  %.1f\n", name, workers, wall,
                static_cast<double>(stats.succeeded) / wall,
                static_cast<double>(stats.bytes_downloaded) / 1e6 / wall);
  };
  for (std::size_t workers : {1, 2, 4, 8}) {
    run_one("in-proc", service, workers);
  }
  registry::RemoteRegistry remote(server.value()->port());
  for (std::size_t workers : {1, 2, 4, 8}) {
    run_one("http", remote, workers);
  }
  std::cout << "\n  (HTTP rows include full request framing, socket copies\n"
               "  and the gateway's JSON error surface on misses.)\n";
  server.value()->stop();
  return 0;
}
