#ifndef HEAVEN_HEAVEN_SCHEDULER_H_
#define HEAVEN_HEAVEN_SCHEDULER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "heaven/super_tile.h"
#include "tertiary/tape_library.h"

namespace heaven {

/// One outstanding super-tile fetch from tertiary storage.
struct SuperTileRequest {
  SuperTileId id = 0;
  MediumId medium = 0;
  uint64_t offset = 0;
  uint64_t size_bytes = 0;
  /// Expected container CRC32C from the registry; verified after the
  /// transfer (0 is an ordinary CRC value).
  uint32_t crc32c = 0;
};

/// Ordering policies for a batch of super-tile requests.
enum class SchedulePolicy {
  /// Serve requests in arrival order — the naive baseline; interleaved
  /// queries ping-pong media through the drives.
  kFifo,
  /// HEAVEN's query scheduling: group requests by medium — starting with
  /// media already sitting in drives — and sweep each medium in ascending
  /// offset order (tape elevator). One exchange per touched medium, and
  /// strictly forward seeks within a medium.
  kMediaElevator,
};

std::string SchedulePolicyName(SchedulePolicy policy);

/// Reorders `requests` according to `policy`. The library is consulted for
/// which media are currently loaded (they are served first to avoid
/// unnecessary exchanges).
std::vector<SuperTileRequest> ScheduleRequests(
    std::vector<SuperTileRequest> requests, const TapeLibrary& library,
    SchedulePolicy policy);

/// Lower bound on media exchanges for a request order: counts the medium
/// switches along the sequence. Exposed for tests and experiment reports.
uint32_t CountMediumSwitches(const std::vector<SuperTileRequest>& requests);

/// Cost-model estimate of the simulated seconds needed to serve `requests`
/// in the given (already scheduled) order: exchange + load per unloaded
/// medium, seek distance from the tracked head position and transfer time
/// per request, all priced by the library's drive profile. Reads only the
/// loaded-state and head positions — O(n), no tape state is touched, no
/// clock advances. Used by deadline pre-admission to fail a hopeless plan
/// before any robot motion.
double EstimatePlanSeconds(const std::vector<SuperTileRequest>& requests,
                           const TapeLibrary& library);

}  // namespace heaven

#endif  // HEAVEN_HEAVEN_SCHEDULER_H_
