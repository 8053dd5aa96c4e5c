#ifndef HEAVEN_HEAVEN_PREFETCH_H_
#define HEAVEN_HEAVEN_PREFETCH_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "heaven/db_snapshot.h"
#include "heaven/super_tile.h"
#include "tertiary/tape_library.h"

namespace heaven {

/// Prefetch policy: after a batch of super-tile fetches ended on `medium`
/// at byte `last_end_offset`, the cheapest additional reads are the
/// super-tiles physically next on that medium (the head is already there
/// and with clustered placement they are also the spatial neighbours, i.e.
/// the likeliest next requests of a sweeping query pattern).
///
/// Returns up to `max_count` super-tile ids from `registry` that start at
/// or after `last_end_offset` on `medium`, nearest first, skipping ids for
/// which `skip` holds (cached or already being fetched). When `stats` is
/// given, the number of candidates considered is counted under
/// Ticker::kPrefetchCandidates.
///
/// With `consult_index` set, candidates whose bitmap index proves the
/// whole container all-zero are skipped (counted under
/// Ticker::kPrefetchPruned): the zero-filled read path will never fetch
/// them, so prefetching them would only pollute the cache.
std::vector<SuperTileId> ChoosePrefetchTargets(
    const SnapshotRegistryView& registry, MediumId medium,
    uint64_t last_end_offset, size_t max_count,
    const std::function<bool(SuperTileId)>& skip,
    Statistics* stats = nullptr, bool consult_index = false);

}  // namespace heaven

#endif  // HEAVEN_HEAVEN_PREFETCH_H_
