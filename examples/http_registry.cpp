// http_registry: serve a synthetic Docker Hub over real HTTP and measure a
// full crawl+pull against it — the closest dockmine gets to the paper's
// actual fieldwork (their downloader spoke this protocol to Docker Hub).
//
//   $ ./examples/http_registry [repositories] [workers]
#include <cstdlib>
#include <iostream>

#include "dockmine/crawler/crawler.h"
#include "dockmine/downloader/downloader.h"
#include "dockmine/registry/http_gateway.h"
#include "dockmine/synth/generator.h"
#include "dockmine/synth/materialize.h"
#include "dockmine/util/bytes.h"
#include "dockmine/util/stopwatch.h"

int main(int argc, char** argv) {
  using namespace dockmine;
  const std::uint64_t repos =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 150;
  const std::size_t workers =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 4;

  synth::HubModel hub(synth::Calibration::light(), synth::Scale{repos, 7});
  registry::Service service;
  synth::Materializer materializer(hub);
  if (auto pushed = materializer.populate(service); !pushed.ok()) {
    std::cerr << pushed.error().to_string() << "\n";
    return 1;
  }
  registry::SearchIndex search(service);
  registry::HttpGateway gateway(service, &search);
  auto server = gateway.serve();
  if (!server.ok()) {
    std::cerr << "serve: " << server.error().to_string() << "\n";
    return 1;
  }
  std::cout << "registry listening on 127.0.0.1:" << server.value()->port()
            << "  (try: curl http://127.0.0.1:" << server.value()->port()
            << "/v2/)\n";

  registry::RemoteRegistry remote(server.value()->port(), "demo-token");
  crawler::Crawler crawler(remote);
  util::Stopwatch clock;
  const auto crawl = crawler.crawl_all();
  std::cout << "crawl over HTTP: " << crawl.repositories.size()
            << " repositories from " << crawl.raw_hits << " hits across "
            << crawl.pages_fetched << " pages in " << clock.seconds()
            << "s\n";

  downloader::Options options;
  options.workers = workers;
  downloader::Downloader downloader(remote, options);
  clock.restart();
  const auto stats = downloader.run(crawl.repositories, nullptr);
  std::cout << "pull over HTTP:  " << stats.succeeded << " images, "
            << util::format_bytes(stats.bytes_downloaded) << " in "
            << clock.seconds() << "s with " << workers << " workers ("
            << stats.layers_fetched << " layer transfers, "
            << stats.layers_deduped << " avoided by unique-layer dedup; "
            << stats.failed_auth << " auth-gated, " << stats.failed_no_tag
            << " without latest)\n";
  std::cout << "server handled " << server.value()->requests_served()
            << " HTTP requests\n";
  server.value()->stop();
  return 0;
}
