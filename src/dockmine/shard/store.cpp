#include "dockmine/shard/store.h"

#include <algorithm>

namespace dockmine::shard {

void ShardStore::collect_sorted(std::vector<RunEntry>& out) const {
  const std::size_t first = out.size();
  out.reserve(first + size());
  map_.for_each([&](std::uint64_t key, const dedup::ContentEntry& entry) {
    out.push_back(RunEntry{key, entry});
  });
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
            [](const RunEntry& a, const RunEntry& b) { return a.key < b.key; });
}

}  // namespace dockmine::shard
