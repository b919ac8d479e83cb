// Multi-Source BFS with bitmask frontiers.
//
// Traverses from up to 64 sources simultaneously: each vertex keeps a
// 64-bit visited mask and a per-round frontier mask; one EDGEMAP sweep per
// level advances every source's wavefront at once. The traversal itself is
// RunMultiSourceBfsCore — shared by closeness/harmonic centrality (below)
// and by the serving layer (src/serving/), which coalesces point queries
// onto one pass and consumes the per-level fresh lists. Each source's bit
// advances independently of the others, so per-source results never depend
// on which sources share the batch — the serving determinism contract.

#include <algorithm>
#include <map>

#include "algorithms/algorithms.h"
#include "common/logging.h"
#include "core/api.h"

namespace flash::algo {

namespace {
struct MsCoreData {
  uint64_t visited = 0;   // Bit s: reached by source s.
  uint64_t frontier = 0;  // Bit s: newly reached this round.
  FLASH_FIELDS(visited, frontier)
};
}  // namespace

int RunMultiSourceBfsCore(const GraphPtr& graph,
                          const std::vector<VertexId>& sources,
                          const RuntimeOptions& options,
                          const MsBfsCoreOptions& core, Metrics* metrics) {
  FLASH_CHECK_LE(sources.size(), 64u) << "at most 64 simultaneous sources";
  // A fresh GraphApi holds MsCoreData{} (empty masks) on every worker, so
  // the traversal starts without a reset map.
  GraphApi<MsCoreData> fl(graph, options);
  int rounds = 0;
  // Every source's bit: a vertex whose visited | frontier mask is full can
  // gain nothing more, so the pull's C skips it and stops scanning its
  // in-edges once it fills. Push needs no C — F already rejects it.
  const uint64_t full = sources.size() == 64
                            ? ~uint64_t{0}
                            : (uint64_t{1} << sources.size()) - 1;
  VertexSubset frontier = fl.None();
  for (size_t s = 0; s < sources.size(); ++s) frontier.Add(sources[s]);
  fl.VertexMap(frontier, CTrue, [&](MsCoreData& v, VertexId id) {
    for (size_t s = 0; s < sources.size(); ++s) {
      if (sources[s] == id) {
        v.visited |= uint64_t{1} << s;
        v.frontier |= uint64_t{1} << s;
      }
    }
  });
  bool keep_going = true;
  if (core.on_level) {
    // Level 0 is the seed set itself — assembled host-side (ascending by
    // id, duplicate sources folded into one mask), no gather needed.
    std::map<VertexId, uint64_t> seeds;
    for (size_t s = 0; s < sources.size(); ++s) {
      seeds[sources[s]] |= uint64_t{1} << s;
    }
    MsBfsLevel level0;
    for (const auto& [v, mask] : seeds) level0.fresh.push_back({v, mask});
    keep_going = core.on_level(level0);
  }
  for (uint32_t level = 1; keep_going && fl.Size(frontier) != 0; ++level) {
    frontier = fl.EdgeMap(
        frontier, fl.E(),
        [](const MsCoreData& s, const MsCoreData& d) {
          return (s.frontier & ~d.visited) != 0;
        },
        [](const MsCoreData& s, MsCoreData& d) {
          d.frontier |= s.frontier & ~d.visited;  // Committed below.
        },
        [full](const MsCoreData& d) {
          return (d.visited | d.frontier) != full;
        },
        [](const MsCoreData& t, MsCoreData& d) { d.frontier |= t.frontier; });
    // Commit the round: fold the newly reached sources into visited. After
    // this map, members of `frontier` carry exactly this level's fresh mask.
    frontier = fl.VertexMap(
        frontier,
        [](const MsCoreData& v) { return (v.frontier & ~v.visited) != 0; },
        [](MsCoreData& v) {
          uint64_t fresh = v.frontier & ~v.visited;
          v.visited |= fresh;
          v.frontier = fresh;
        });
    ++rounds;
    if (core.on_level && frontier.TotalSize() != 0) {
      // Collect this level's fresh (vertex, mask) pairs from the owners and
      // gather them to the driver — billed like any REDUCE-style gather.
      std::vector<std::vector<MsBfsArrival>> per_worker(
          static_cast<size_t>(options.num_workers));
      fl.ForEachWorker([&](int w) {
        per_worker[w].reserve(frontier.Owned(w).size());
        for (VertexId v : frontier.Owned(w)) {
          per_worker[w].push_back({v, fl.Read(v).frontier});
        }
      });
      MsBfsLevel out;
      out.level = level;
      out.fresh = fl.AllGather(per_worker);
      // The gather concatenates the workers' ascending runs in worker
      // order; merging each run into the ordered prefix sorts the level.
      auto run_end = out.fresh.begin();
      for (const auto& run : per_worker) {
        const auto run_begin = run_end;
        run_end += static_cast<std::ptrdiff_t>(run.size());
        std::inplace_merge(out.fresh.begin(), run_begin, run_end,
                           [](const MsBfsArrival& a, const MsBfsArrival& b) {
                             return a.vertex < b.vertex;
                           });
      }
      keep_going = core.on_level(out);
    }
  }
  if (metrics != nullptr) metrics->Absorb(fl.metrics());
  return rounds;
}

MsBfsResult RunMultiSourceBfs(const GraphPtr& graph,
                              const std::vector<VertexId>& sources,
                              const RuntimeOptions& options) {
  MsBfsResult result;
  result.distance_sum.assign(graph->NumVertices(), 0);
  result.harmonic.assign(graph->NumVertices(), 0.0);
  // LLOC-BEGIN
  MsBfsCoreOptions core;
  core.on_level = [&](const MsBfsLevel& lv) {
    if (lv.level == 0) return true;  // Sources are at distance 0 of selves.
    for (const auto& [v, mask] : lv.fresh) {
      int reached = __builtin_popcountll(mask);
      result.distance_sum[v] += lv.level * static_cast<uint32_t>(reached);
      result.harmonic[v] += static_cast<double>(reached) / lv.level;
    }
    return true;
  };
  result.rounds =
      RunMultiSourceBfsCore(graph, sources, options, core, &result.metrics);
  // LLOC-END
  return result;
}

}  // namespace flash::algo
