// Layer probes: each times one layer's public functions on the data and
// access stream of the workload that just ran, from outside the program.
// They run after the measured phases, so they never perturb the
// end-to-end figures.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "heaven/cache.h"
#include "heaven/scheduler.h"
#include "heaven/star.h"
#include "heaven/super_tile.h"
#include "perfbench/perfbench.h"
#include "rasql/parser.h"

namespace perfbench {

namespace {

using heaven::Compression;
using heaven::HeavenDb;
using heaven::MdInterval;
using heaven::SuperTile;
using heaven::SuperTileId;

constexpr double kMinProbeSeconds = 0.15;

/// Wall seconds per call of `fn`, repeated for at least kMinProbeSeconds.
template <typename Fn>
double SecondsPerCall(Fn&& fn) {
  uint64_t calls = 0;
  const double start = WallNow();
  double now = start;
  do {
    fn();
    ++calls;
    now = WallNow();
  } while (now - start < kMinProbeSeconds);
  return (now - start) / static_cast<double>(calls);
}

double GBPerSecond(uint64_t bytes, double seconds) {
  return seconds > 0.0 ? static_cast<double>(bytes) / seconds / 1e9 : 0.0;
}

/// Super-tile ids each box needs, in box order (one fetch batch per box).
std::vector<std::vector<SuperTileId>> BatchesFor(
    const heaven::SnapshotObject& object,
    const std::vector<MdInterval>& boxes) {
  std::vector<std::vector<SuperTileId>> batches;
  for (const MdInterval& box : boxes) {
    std::vector<SuperTileId> ids;
    for (const heaven::TileDescriptor& tile : object.TilesIntersecting(box)) {
      if (tile.location == heaven::TileLocation::kTertiary &&
          std::find(ids.begin(), ids.end(), tile.super_tile) == ids.end()) {
        ids.push_back(tile.super_tile);
      }
    }
    batches.push_back(std::move(ids));
  }
  return batches;
}

/// Decoded super-tiles of the probe object, as the cache holds them.
std::vector<std::shared_ptr<const SuperTile>> SampleSuperTiles(
    HeavenDb* db, heaven::ObjectId object, size_t limit) {
  std::vector<std::shared_ptr<const SuperTile>> sample;
  for (int attempt = 0; attempt < 2 && sample.empty(); ++attempt) {
    if (attempt == 1 && !db->ReadObject(object).ok()) break;
    for (const heaven::SuperTileMeta& meta : db->RegistrySnapshot()) {
      if (meta.object_id != object) continue;
      if (auto st = db->cache()->Lookup(meta.id)) sample.push_back(st);
      if (sample.size() == limit) break;
    }
  }
  return sample;
}

/// ns per cache Lookup (Insert after a miss) while `threads` threads each
/// replay the id stream, starting at evenly spaced offsets.
double CacheLookupNs(const heaven::CacheOptions& options,
                     const std::vector<SuperTileId>& stream,
                     const std::map<SuperTileId, uint64_t>& sizes,
                     size_t threads) {
  heaven::Statistics stats;
  heaven::SuperTileCache cache(options, &stats);
  std::map<SuperTileId, std::shared_ptr<const SuperTile>> payloads;
  for (SuperTileId id : stream) {
    payloads.emplace(id, std::make_shared<const SuperTile>());
  }
  const size_t rounds = std::max<size_t>(1, 200000 / stream.size());
  const auto replay = [&](size_t offset) {
    for (size_t r = 0; r < rounds; ++r) {
      for (size_t i = 0; i < stream.size(); ++i) {
        const SuperTileId id = stream[(i + offset) % stream.size()];
        if (cache.Lookup(id) == nullptr) {
          cache.Insert(id, payloads.at(id), sizes.at(id));
        }
      }
    }
  };
  const double start = WallNow();
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back(replay, t * stream.size() / threads);
  }
  for (std::thread& worker : workers) worker.join();
  return (WallNow() - start) * 1e9 /
         static_cast<double>(rounds * stream.size());
}

}  // namespace

std::vector<Metric> RunLayerProbes(Workload* workload,
                                   std::vector<std::string>* problems) {
  HeavenDb* db = workload->db();
  const heaven::ObjectId object_id = workload->ProbeObject();
  const std::vector<MdInterval> boxes = workload->ProbeBoxes(32);
  const heaven::DbSnapshotPtr snap = db->AcquireReadSnapshot();
  const auto object = snap->GetObject(object_id);
  if (!object.ok()) {
    problems->push_back("probe object: " + object.status().ToString());
    return {};
  }
  const Compression codec = db->options().compression;
  std::vector<Metric> metrics;

  // common/coding CRC, heaven/super_tile, array/compression.
  const auto sample = SampleSuperTiles(db, object_id, 32);
  std::vector<std::string> containers_none;
  std::vector<std::string> containers_delta;
  std::vector<std::string> containers_codec;
  uint64_t payload = 0;
  uint64_t codec_bytes = 0;
  for (const auto& st : sample) {
    containers_none.push_back(st->Serialize(Compression::kNone));
    containers_delta.push_back(st->Serialize(Compression::kDeltaRle));
    containers_codec.push_back(st->Serialize(codec));
    payload += st->PayloadBytes();
    codec_bytes += containers_codec.back().size();
  }
  if (sample.empty()) problems->push_back("probe: no cached super-tiles");
  const double crc_s = SecondsPerCall([&] {
    for (const std::string& c : containers_codec) {
      benchmark::DoNotOptimize(heaven::Crc32c(c));
    }
  });
  metrics.push_back({"crc.gb_per_s", GBPerSecond(codec_bytes, crc_s), "GB/s"});
  const auto deserialize = [&](const std::vector<std::string>& containers) {
    return SecondsPerCall([&] {
      for (const std::string& c : containers) {
        auto st = SuperTile::Deserialize(c);
        if (!st.ok()) {
          problems->push_back("probe deserialize: " + st.status().ToString());
        }
        benchmark::DoNotOptimize(st);
      }
    });
  };
  metrics.push_back({"supertile.deserialize_gb_per_s.none",
                     GBPerSecond(payload, deserialize(containers_none)),
                     "GB/s"});
  metrics.push_back({"supertile.deserialize_gb_per_s.delta_rle",
                     GBPerSecond(payload, deserialize(containers_delta)),
                     "GB/s"});
  const double serialize_s = SecondsPerCall([&] {
    for (const auto& st : sample) {
      benchmark::DoNotOptimize(st->Serialize(codec));
    }
  });
  metrics.push_back({"supertile.serialize_gb_per_s",
                     GBPerSecond(payload, serialize_s), "GB/s"});

  std::vector<std::string> raw;
  std::vector<std::string> packed;
  uint64_t raw_bytes = 0;
  for (const auto& st : sample) {
    for (const heaven::Tile& tile : st->tiles()) {
      raw.push_back(tile.data());
      packed.push_back(heaven::Compress(Compression::kDeltaRle, tile.data(),
                                        tile.cell_size()));
      raw_bytes += tile.size_bytes();
    }
  }
  const size_t stride =
      sample.empty() ? 1 : sample.front()->tiles().front().cell_size();
  const double compress_s = SecondsPerCall([&] {
    for (const std::string& r : raw) {
      benchmark::DoNotOptimize(
          heaven::Compress(Compression::kDeltaRle, r, stride));
    }
  });
  const double decompress_s = SecondsPerCall([&] {
    for (size_t i = 0; i < packed.size(); ++i) {
      auto out = heaven::Decompress(Compression::kDeltaRle, packed[i],
                                    raw[i].size(), stride);
      if (!out.ok()) {
        problems->push_back("probe decompress: " + out.status().ToString());
      }
      benchmark::DoNotOptimize(out);
    }
  });
  metrics.push_back({"array.compress_gb_per_s",
                     GBPerSecond(raw_bytes, compress_s), "GB/s"});
  metrics.push_back({"array.decompress_gb_per_s",
                     GBPerSecond(raw_bytes, decompress_s), "GB/s"});

  // array/tile: Tile::CopyRegionFrom of each intersecting tile's overlap
  // into a result box, the scatter step of a read. Sources are the
  // object's tiles as read back through the database.
  uint64_t scatter_bytes = 0;
  double scatter_s = 0.0;
  const size_t scatter_boxes = std::min<size_t>(8, boxes.size());
  for (size_t b = 0; b < scatter_boxes; ++b) {
    const MdInterval& box = boxes[b];
    std::vector<heaven::Tile> sources;
    std::vector<MdInterval> overlaps;
    for (const heaven::TileDescriptor& tile :
         object.value()->TilesIntersecting(box)) {
      auto cells = db->ReadRegion(object_id, tile.domain);
      if (!cells.ok()) {
        problems->push_back("probe scatter read: " + cells.status().ToString());
        continue;
      }
      sources.push_back(cells.value().tile());
      overlaps.push_back(*tile.domain.Intersection(box));
    }
    heaven::Tile result(box, object.value()->descriptor().cell_type);
    scatter_s += SecondsPerCall([&] {
      for (size_t i = 0; i < sources.size(); ++i) {
        if (!result.CopyRegionFrom(sources[i], overlaps[i]).ok()) {
          problems->push_back("probe scatter copy failed");
        }
      }
      benchmark::DoNotOptimize(result.data().data());
      benchmark::ClobberMemory();
    });
    scatter_bytes += box.CellCount() * result.cell_size();
  }
  metrics.push_back({"array.scatter_gb_per_s",
                     GBPerSecond(scatter_bytes, scatter_s), "GB/s"});

  // heaven/cache: replay the boxes' super-tile id stream at 1 and 4
  // threads on a cache configured like the workload's.
  const auto batches = BatchesFor(*object.value(), boxes);
  std::map<SuperTileId, uint64_t> sizes;
  std::map<SuperTileId, heaven::SuperTileMeta> metas;
  for (const heaven::SuperTileMeta& meta : db->RegistrySnapshot()) {
    sizes[meta.id] = meta.size_bytes;
    metas[meta.id] = meta;
  }
  std::vector<SuperTileId> stream;
  for (const auto& batch : batches) {
    for (SuperTileId id : batch) {
      if (sizes.count(id) > 0) stream.push_back(id);
    }
  }
  double lookup_t1 = 0.0;
  double lookup_t4 = 0.0;
  if (!stream.empty()) {
    lookup_t1 = CacheLookupNs(db->cache()->options(), stream, sizes, 1);
    lookup_t4 = CacheLookupNs(db->cache()->options(), stream, sizes, 4);
  }
  metrics.push_back({"cache.lookup_ns.t1", lookup_t1, "ns"});
  metrics.push_back({"cache.lookup_ns.t4", lookup_t4, "ns"});

  // heaven/scheduler: the boxes' fetch batches built from the registry.
  std::vector<std::vector<heaven::SuperTileRequest>> requests;
  for (const auto& batch : batches) {
    std::vector<heaven::SuperTileRequest> batch_requests;
    for (SuperTileId id : batch) {
      const auto it = metas.find(id);
      if (it == metas.end()) continue;
      const heaven::SuperTileMeta& m = it->second;
      batch_requests.push_back(
          {m.id, m.medium, m.offset, m.size_bytes, m.crc32c});
    }
    if (!batch_requests.empty()) requests.push_back(std::move(batch_requests));
  }
  double switches = 0.0;
  const double schedule_s = SecondsPerCall([&] {
    switches = 0.0;
    for (const auto& batch : requests) {
      const auto ordered = heaven::ScheduleRequests(
          batch, *db->library(), db->options().schedule_policy);
      switches += heaven::CountMediumSwitches(ordered);
    }
  });
  const double nbatches = static_cast<double>(requests.size());
  metrics.push_back({"scheduler.schedule_us",
                     nbatches > 0 ? schedule_s * 1e6 / nbatches : 0.0, "us"});
  metrics.push_back({"scheduler.switches_per_batch",
                     nbatches > 0 ? switches / nbatches : 0.0, "count"});

  // rasql: parse the boxes as trim statements.
  std::vector<std::string> statements;
  for (const MdInterval& box : boxes) {
    statements.push_back(RasqlTrim(workload->ProbeObjectName(), box));
  }
  const double parse_s = SecondsPerCall([&] {
    for (const std::string& text : statements) {
      auto query = heaven::rasql::Parse(text);
      if (!query.ok()) {
        problems->push_back("probe parse: " + query.status().ToString());
      }
      benchmark::DoNotOptimize(query);
    }
  });
  metrics.push_back(
      {"rasql.parse_us",
       parse_s * 1e6 / static_cast<double>(statements.size()), "us"});

  // heaven/star: partition the probe object's tiles as export does.
  const heaven::ObjectDescriptor& descriptor = object.value()->descriptor();
  const double partition_s = SecondsPerCall([&] {
    auto groups = heaven::StarPartition(
        object.value()->tiles(), descriptor.domain, descriptor.tile_extents,
        db->options().supertile_bytes);
    if (!groups.ok()) {
      problems->push_back("probe partition: " + groups.status().ToString());
    }
    benchmark::DoNotOptimize(groups);
  });
  metrics.push_back(
      {"export.partition_ms_per_object", partition_s * 1e3, "ms"});
  return metrics;
}

}  // namespace perfbench
