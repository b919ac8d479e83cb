// Single-Source Shortest Paths (frontier-based Bellman-Ford).
//
// The classic ISVP companion of BFS: each superstep relaxes the out-edges
// of vertices whose distance improved, with a min reduce. Async mode runs
// delta-stepping (sssp_delta.cc), whose buckets the async engine schedules.

#include "algorithms/algorithms.h"
#include "core/api.h"

namespace flash::algo {

namespace {
constexpr float kInfF = std::numeric_limits<float>::infinity();

struct SsspData {
  float dis = kInfF;
  FLASH_FIELDS(dis)
};
}  // namespace

SsspResult RunSssp(const GraphPtr& graph, VertexId root,
                   const RuntimeOptions& options) {
  if (options.execution_mode == ExecutionMode::kAsync) {
    return RunSsspDeltaStepping(graph, root, kDefaultSsspDelta, options);
  }
  GraphApi<SsspData> fl(graph, options);
  SsspResult result;
  // LLOC-BEGIN
  fl.VertexMap(fl.V(), CTrue, [&](SsspData& v, VertexId id) {
    v.dis = (id == root) ? 0.0f : kInfF;
  });
  VertexSubset frontier = fl.VertexMap(
      fl.V(), [&](const SsspData&, VertexId id) { return id == root; });
  while (fl.Size(frontier) != 0) {
    frontier = fl.EdgeMap(
        frontier, fl.E(),
        [](const SsspData& s, const SsspData& d, VertexId, VertexId, float w) {
          return s.dis + w < d.dis;
        },
        [](const SsspData& s, SsspData& d, VertexId, VertexId, float w) {
          d.dis = std::min(d.dis, s.dis + w);
        },
        CTrue,
        [](const SsspData& t, SsspData& d) { d.dis = std::min(d.dis, t.dis); });
    ++result.rounds;
  }
  // LLOC-END
  result.distance = fl.ExtractResults<float>(
      [](const SsspData& v, VertexId) { return v.dis; });
  result.metrics = fl.metrics();
  return result;
}

}  // namespace flash::algo
