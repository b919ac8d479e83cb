// Wire-format bench: old per-message encoding (absolute varint id + payload
// per record, the format the coalesced WireBatch frames replaced) against
// the batched delta-encoded frames, on the mirror-sync traffic of real BFS
// and PageRank runs.
//
// Methodology: run the algorithm on the simulated cluster to capture the
// measured (new-format) counters and modelled communication seconds, then
// reconstruct the per-(worker, destination) commit batches the mirror-sync
// barrier ships — BFS commits each level's frontier, PageRank commits every
// master each iteration; destinations come from the partition's mirror
// masks, ids ascending (the engine sorts its dirty lists before commit).
// Both formats are encoded and decoded from the same batches, so the byte
// and nanosecond comparison is exact for this path, not a model.
//
// Emits out/BENCH_wire_format.json. Knobs (env):
//   FLASH_BENCH_SCALE    RMAT scale (default 18, matching superstep_scaling;
//                        a fraction shrinks it)
//   FLASH_BENCH_WORKERS  simulated workers (default 4)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
#include "bench/harness/harness.h"
#include "common/logging.h"
#include "common/serialize.h"
#include "flashware/cost_model.h"
#include "graph/generators.h"
#include "graph/partition.h"

namespace {

using flash::BufferReader;
using flash::BufferWriter;
using flash::EncodeWireFrame;
using flash::ReadWireFrame;
using flash::VertexId;
using flash::WireFramePart;
using flash::WireId;

double Now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

// One mirror-sync batch: the sorted master ids one worker ships to one
// destination at one barrier.
struct Batch {
  std::vector<WireId> ids;
};

// The commit batches of one superstep: for every committed vertex v, one
// record to every worker in MirrorMask(v).
std::vector<Batch> CommitBatches(const std::vector<VertexId>& committed,
                                 const flash::Partition& partition) {
  const int nw = partition.num_workers();
  std::vector<Batch> batches(static_cast<size_t>(nw) * nw);
  for (VertexId v : committed) {
    const int w = partition.Owner(v);
    uint64_t mask = partition.MirrorMask(v);
    while (mask != 0) {
      const int dst = __builtin_ctzll(mask);
      mask &= mask - 1;
      batches[static_cast<size_t>(w) * nw + dst].ids.push_back(v);
    }
  }
  for (Batch& b : batches) std::sort(b.ids.begin(), b.ids.end());
  return batches;
}

struct FormatCost {
  uint64_t updates = 0;   // (vertex, destination) records shipped.
  uint64_t old_bytes = 0;
  uint64_t new_bytes = 0;
  double encode_old_seconds = 0;
  double encode_new_seconds = 0;
  double decode_old_seconds = 0;
  double decode_new_seconds = 0;
};

// Encodes and decodes every batch in both formats, accumulating exact byte
// counts and wall time. `payload_bytes` is the per-record serialized VData
// size (4 for both BFS's dis and PageRank's rank field); `num_vertices`
// bounds the decoded ids.
void MeasureBatches(const std::vector<std::vector<Batch>>& supersteps,
                    size_t payload_bytes, uint64_t num_vertices, int repeats,
                    FormatCost& cost) {
  std::vector<uint8_t> payload;
  std::vector<uint8_t> old_wire;
  BufferWriter new_wire;
  std::vector<WireId> decoded;
  uint64_t checksum = 0;

  for (int rep = 0; rep < repeats; ++rep) {
    const bool count_bytes = rep == 0;
    for (const auto& batches : supersteps) {
      for (const Batch& b : batches) {
        if (b.ids.empty()) continue;
        payload.resize(b.ids.size() * payload_bytes);

        // Old format: per record, absolute varint id + payload.
        double t0 = Now();
        old_wire.clear();
        {
          BufferWriter w;
          for (size_t i = 0; i < b.ids.size(); ++i) {
            w.WriteVarint(b.ids[i]);
            w.WriteRaw(payload.data() + i * payload_bytes, payload_bytes);
          }
          old_wire.assign(w.bytes().begin(), w.bytes().end());
        }
        double t1 = Now();
        new_wire.Clear();
        WireFramePart part{b.ids.data(), b.ids.size(), payload.data(),
                           payload.size()};
        EncodeWireFrame(new_wire, 0x1, &part, 1);
        double t2 = Now();

        // Old decode: walk varint ids, skipping payloads.
        {
          BufferReader r(old_wire.data(), old_wire.size());
          uint64_t id = 0;
          while (!r.AtEnd()) {
            if (!r.TryReadVarint(&id)) break;
            checksum += id;
            r.Skip(payload_bytes);
          }
        }
        double t3 = Now();
        {
          BufferReader r(new_wire.bytes());
          decoded.clear();
          FLASH_CHECK(ReadWireFrame(r, 0x1, num_vertices, &decoded).ok());
          checksum += decoded.size();
        }
        double t4 = Now();

        cost.encode_old_seconds += t1 - t0;
        cost.encode_new_seconds += t2 - t1;
        cost.decode_old_seconds += t3 - t2;
        cost.decode_new_seconds += t4 - t3;
        if (count_bytes) {
          cost.updates += b.ids.size();
          cost.old_bytes += old_wire.size();
          cost.new_bytes += new_wire.size();
        }
      }
    }
  }
  if (checksum == 0xDEADBEEF) std::fprintf(stderr, "unlikely\n");  // Keep it live.
}

double PerUpdateNs(double seconds, uint64_t updates, int repeats) {
  const double total = static_cast<double>(updates) * repeats;
  return total > 0 ? seconds * 1e9 / total : 0;
}

void EmitAlgo(flash::bench::BenchReport& report,
              const std::string& graph_name, const char* name,
              const flash::Metrics& metrics, double modeled_comm_seconds,
              const FormatCost& cost, int repeats) {
  const double old_bpu =
      cost.updates ? static_cast<double>(cost.old_bytes) / cost.updates : 0;
  const double new_bpu =
      cost.updates ? static_cast<double>(cost.new_bytes) / cost.updates : 0;
  const double reduction =
      old_bpu > 0 ? 100.0 * (old_bpu - new_bpu) / old_bpu : 0;
  std::fprintf(stderr,
               "%s: %llu updates  old %.3f B/update  new %.3f B/update  "
               "(-%.1f%%)  encode %.1f -> %.1f ns  decode %.1f -> %.1f ns\n",
               name, static_cast<unsigned long long>(cost.updates), old_bpu,
               new_bpu, reduction,
               PerUpdateNs(cost.encode_old_seconds, cost.updates, repeats),
               PerUpdateNs(cost.encode_new_seconds, cost.updates, repeats),
               PerUpdateNs(cost.decode_old_seconds, cost.updates, repeats),
               PerUpdateNs(cost.decode_new_seconds, cost.updates, repeats));
  report.Add(
      graph_name, {{"app", name}},
      {{"messages", static_cast<double>(metrics.messages)},
       {"wire_bytes", static_cast<double>(metrics.bytes)},
       {"bytes_per_message",
        metrics.messages
            ? static_cast<double>(metrics.bytes) / metrics.messages
            : 0.0},
       {"modeled_comm_seconds", modeled_comm_seconds},
       {"updates", static_cast<double>(cost.updates)},
       {"old_bytes", static_cast<double>(cost.old_bytes)},
       {"new_bytes", static_cast<double>(cost.new_bytes)},
       {"bytes_per_update_old", old_bpu},
       {"bytes_per_update_new", new_bpu},
       {"reduction_pct", reduction},
       {"encode_ns_per_update_old",
        PerUpdateNs(cost.encode_old_seconds, cost.updates, repeats)},
       {"encode_ns_per_update_new",
        PerUpdateNs(cost.encode_new_seconds, cost.updates, repeats)},
       {"decode_ns_per_update_old",
        PerUpdateNs(cost.decode_old_seconds, cost.updates, repeats)},
       {"decode_ns_per_update_new",
        PerUpdateNs(cost.decode_new_seconds, cost.updates, repeats)}});
}

}  // namespace

int main() {
  const int scale = flash::bench::RmatScaleFromEnv(18);
  const int workers = flash::bench::BenchWorkers();
  const int repeats = scale >= 16 ? 3 : 20;

  flash::RmatOptions rmat;
  rmat.scale = scale;
  auto graph_or = flash::GenerateRmat(rmat);
  FLASH_CHECK(graph_or.ok()) << graph_or.status().ToString();
  flash::GraphPtr graph = graph_or.value();
  auto partition_or = flash::Partition::Create(graph, workers);
  FLASH_CHECK(partition_or.ok());
  const flash::Partition& partition = partition_or.value();

  flash::RuntimeOptions options;
  options.num_workers = workers;
  flash::ClusterConfig cluster;
  cluster.nodes = workers;

  std::fprintf(stderr, "rmat scale=%d: %u vertices, %llu edges, %d workers\n",
               scale, graph->NumVertices(),
               static_cast<unsigned long long>(graph->NumEdges()), workers);

  // BFS: level d's frontier is the commit batch of superstep d.
  auto bfs = flash::algo::RunBfs(graph, 0, options);
  const double bfs_comm = flash::ModelTime(bfs.metrics, cluster).comm;
  std::vector<std::vector<Batch>> bfs_steps;
  {
    std::vector<std::vector<VertexId>> levels(bfs.rounds + 1);
    for (VertexId v = 0; v < graph->NumVertices(); ++v) {
      const uint32_t d = bfs.distance[v];
      if (d <= static_cast<uint32_t>(bfs.rounds)) levels[d].push_back(v);
    }
    for (const auto& level : levels) {
      if (!level.empty()) bfs_steps.push_back(CommitBatches(level, partition));
    }
  }
  FormatCost bfs_cost;
  MeasureBatches(bfs_steps, /*payload_bytes=*/4, graph->NumVertices(),
                 repeats, bfs_cost);

  // PageRank: every master commits each iteration; one iteration's batches
  // times the iteration count gives the whole run's mirror-sync traffic.
  const int pr_iters = 10;
  auto pr = flash::algo::RunPageRank(graph, pr_iters, options);
  const double pr_comm = flash::ModelTime(pr.metrics, cluster).comm;
  std::vector<VertexId> all(graph->NumVertices());
  for (VertexId v = 0; v < graph->NumVertices(); ++v) all[v] = v;
  std::vector<std::vector<Batch>> pr_steps{CommitBatches(all, partition)};
  FormatCost pr_cost;
  MeasureBatches(pr_steps, /*payload_bytes=*/4, graph->NumVertices(),
                 repeats, pr_cost);
  pr_cost.updates *= pr_iters;
  pr_cost.old_bytes *= pr_iters;
  pr_cost.new_bytes *= pr_iters;
  // Per-update times already normalize by updates; scale seconds to match.
  pr_cost.encode_old_seconds *= pr_iters;
  pr_cost.encode_new_seconds *= pr_iters;
  pr_cost.decode_old_seconds *= pr_iters;
  pr_cost.decode_new_seconds *= pr_iters;

  flash::bench::BenchReport report("wire_format");
  const std::string graph_name = "rmat-s" + std::to_string(scale);
  EmitAlgo(report, graph_name, "bfs", bfs.metrics, bfs_comm, bfs_cost,
           repeats);
  EmitAlgo(report, graph_name, "pagerank", pr.metrics, pr_comm, pr_cost,
           repeats);
  std::fprintf(stderr, "wrote %s\n", report.Write().c_str());
  return 0;
}
