#include "heaven/prefetch.h"

#include <algorithm>

#include "heaven/bitmap_index.h"

namespace heaven {

std::vector<SuperTileId> ChoosePrefetchTargets(
    const SnapshotRegistryView& registry, MediumId medium,
    uint64_t last_end_offset, size_t max_count,
    const std::function<bool(SuperTileId)>& skip, Statistics* stats,
    bool consult_index) {
  struct Candidate {
    uint64_t offset;
    SuperTileId id;
  };
  std::vector<Candidate> candidates;
  registry.ForEach([&](SuperTileId id, const SuperTileMeta& meta) {
    if (meta.medium != medium) return;
    if (meta.offset < last_end_offset) return;
    if (skip(id)) return;
    if (consult_index && meta.index != nullptr && meta.index->all_zero()) {
      // The pruned read path never requests an all-zero container, so
      // speculatively staging it would only evict useful cache entries.
      if (stats != nullptr) stats->Record(Ticker::kPrefetchPruned);
      return;
    }
    candidates.push_back({meta.offset, id});
  });
  if (stats != nullptr && !candidates.empty()) {
    stats->Record(Ticker::kPrefetchCandidates, candidates.size());
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.offset < b.offset;
            });
  std::vector<SuperTileId> targets;
  for (const Candidate& c : candidates) {
    if (targets.size() >= max_count) break;
    targets.push_back(c.id);
  }
  return targets;
}

}  // namespace heaven
