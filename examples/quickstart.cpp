// Quickstart: breadth-first search in ~30 lines of FLASH.
//
// Builds a small social-network-like graph, runs the paper's Algorithm 2
// on a 4-worker simulated cluster, and prints the distance histogram plus
// the run's communication statistics.
//
//   $ ./examples/quickstart

#include <cstdio>
#include <map>

#include "core/api.h"
#include "graph/generators.h"

namespace {

struct BfsData {
  uint32_t dis = 0xFFFFFFFFu;
  FLASH_FIELDS(dis)
};

}  // namespace

int main() {
  using namespace flash;

  RmatOptions graph_options;
  graph_options.scale = 12;  // 4096 vertices.
  graph_options.avg_degree = 8;
  GraphPtr graph = GenerateRmat(graph_options).value();
  std::printf("graph: %u vertices, %llu edges\n", graph->NumVertices(),
              static_cast<unsigned long long>(graph->NumEdges()));

  RuntimeOptions options;
  options.num_workers = 4;         // Simulated cluster size (<= 64).
  options.threads_per_worker = 2;  // Logical shards per worker — fixes the
                                   // decomposition, not the host threads.
  options.host_threads = 0;  // Host pool sized to the hardware (default);
                             // 1 runs every worker task inline, in order.
  options.execution_mode = ExecutionMode::kBsp;  // kAsync for BFS/SSSP/CC.
  options.record_steps = true;  // Per-superstep samples for the cost model.
  GraphApi<BfsData> fl(graph, options);

  const VertexId root = 0;
  fl.VertexMap(fl.V(), CTrue, [&](BfsData& v, VertexId id) {
    v.dis = (id == root) ? 0 : 0xFFFFFFFFu;
  });
  VertexSubset frontier =
      fl.VertexMap(fl.V(), [&](const BfsData&, VertexId id) { return id == root; });
  int round = 0;
  while (fl.Size(frontier) != 0) {
    frontier = fl.EdgeMap(
        frontier, fl.E(), CTrue,
        [](const BfsData& s, BfsData& d) { d.dis = s.dis + 1; },
        [](const BfsData& d) { return d.dis == 0xFFFFFFFFu; },
        [](const BfsData& t, BfsData& d) { d = t; });
    std::printf("round %2d: frontier = %zu\n", ++round, frontier.TotalSize());
  }

  std::map<uint32_t, uint32_t> histogram;
  for (uint32_t d :
       fl.ExtractResults<uint32_t>([](const BfsData& v, VertexId) { return v.dis; })) {
    ++histogram[d];
  }
  std::printf("\ndistance histogram:\n");
  for (auto [dist, count] : histogram) {
    if (dist == 0xFFFFFFFFu) {
      std::printf("  unreachable: %u\n", count);
    } else {
      std::printf("  %u hops: %u vertices\n", dist, count);
    }
  }
  std::printf("\nruntime: %s\n", fl.metrics().ToString().c_str());
  return 0;
}
