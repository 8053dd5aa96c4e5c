#include "heaven/scheduler.h"

#include <algorithm>
#include <map>

#include "common/metrics.h"

namespace heaven {

std::string SchedulePolicyName(SchedulePolicy policy) {
  switch (policy) {
    case SchedulePolicy::kFifo:
      return "FIFO";
    case SchedulePolicy::kMediaElevator:
      return "media-elevator";
  }
  return "unknown";
}

std::vector<SuperTileRequest> ScheduleRequests(
    std::vector<SuperTileRequest> requests, const TapeLibrary& library,
    SchedulePolicy policy) {
  Statistics* stats = library.stats();
  ScopedSpan span(stats != nullptr ? stats->trace() : nullptr, "schedule",
                  ProfileStage::kSchedule);
  if (stats != nullptr && !requests.empty()) {
    stats->Record(Ticker::kSchedBatches);
    stats->Record(Ticker::kSchedRequests, requests.size());
  }
  if (policy == SchedulePolicy::kFifo || requests.size() <= 1) {
    return requests;
  }
  const uint32_t switches_before = CountMediumSwitches(requests);

  // Bucket by medium, preserving arrival order inside buckets for now.
  std::map<MediumId, std::vector<SuperTileRequest>> by_medium;
  std::vector<MediumId> first_seen;  // media in first-arrival order
  for (SuperTileRequest& request : requests) {
    auto [it, inserted] = by_medium.try_emplace(request.medium);
    if (inserted) first_seen.push_back(request.medium);
    it->second.push_back(std::move(request));
  }

  // Media already in drives go first (zero exchange cost), then the rest in
  // first-arrival order.
  std::stable_sort(first_seen.begin(), first_seen.end(),
                   [&library](MediumId a, MediumId b) {
                     return library.IsLoaded(a) && !library.IsLoaded(b);
                   });

  std::vector<SuperTileRequest> scheduled;
  scheduled.reserve(requests.size());
  for (MediumId medium : first_seen) {
    std::vector<SuperTileRequest>& bucket = by_medium[medium];
    // Tape elevator: ascending offsets — the head only moves forward.
    std::stable_sort(bucket.begin(), bucket.end(),
                     [](const SuperTileRequest& a, const SuperTileRequest& b) {
                       return a.offset < b.offset;
                     });
    for (SuperTileRequest& request : bucket) {
      scheduled.push_back(std::move(request));
    }
  }
  if (stats != nullptr) {
    const uint32_t switches_after = CountMediumSwitches(scheduled);
    if (switches_before > switches_after) {
      stats->Record(Ticker::kSchedSwitchesAvoided,
                    switches_before - switches_after);
    }
  }
  return scheduled;
}

double EstimatePlanSeconds(const std::vector<SuperTileRequest>& requests,
                           const TapeLibrary& library) {
  const TapeDriveProfile& profile = library.profile();
  double total_s = 0.0;
  bool have_medium = false;
  MediumId current_medium = 0;
  uint64_t head = 0;
  for (const SuperTileRequest& request : requests) {
    if (!have_medium || request.medium != current_medium) {
      if (library.IsLoaded(request.medium)) {
        // Already in a drive: start from its tracked head position.
        Result<uint64_t> pos = library.HeadPosition(request.medium);
        head = pos.ok() ? *pos : 0;
      } else {
        total_s += profile.robot_exchange_s + profile.load_s;
        head = 0;
      }
      have_medium = true;
      current_medium = request.medium;
    }
    const uint64_t distance = head > request.offset ? head - request.offset
                                                    : request.offset - head;
    if (distance > 0) total_s += profile.SeekSeconds(distance);
    total_s += profile.TransferSeconds(request.size_bytes);
    head = request.offset + request.size_bytes;
  }
  return total_s;
}

uint32_t CountMediumSwitches(const std::vector<SuperTileRequest>& requests) {
  if (requests.empty()) return 0;
  uint32_t switches = 0;
  for (size_t i = 1; i < requests.size(); ++i) {
    if (requests[i].medium != requests[i - 1].medium) ++switches;
  }
  return switches;
}

}  // namespace heaven
