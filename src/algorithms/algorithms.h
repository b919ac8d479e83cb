#ifndef FLASH_ALGORITHMS_ALGORITHMS_H_
#define FLASH_ALGORITHMS_ALGORITHMS_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "flashware/metrics.h"
#include "flashware/options.h"
#include "graph/graph.h"

namespace flash::algo {

/// The FLASH algorithm library: every application of the paper's evaluation
/// (Table IV) implemented against the public GraphApi, plus SSSP and
/// PageRank. Each Run* builds its own GraphApi<VData>, executes the
/// algorithm, and returns results together with the run's Metrics (work,
/// communication, superstep trace).
///
/// The .cc files mark their core logic with // LLOC-BEGIN / // LLOC-END;
/// the Table I benchmark counts logical lines inside those markers.

inline constexpr uint32_t kInf32 = 0xFFFFFFFFu;

struct BfsResult {
  std::vector<uint32_t> distance;  // Hops from root; kInf32 if unreachable.
  int rounds = 0;
  Metrics metrics;
};
BfsResult RunBfs(const GraphPtr& graph, VertexId root,
                 const RuntimeOptions& options = {});

struct CcResult {
  std::vector<VertexId> label;  // Component label (equal within a component).
  int rounds = 0;
  Metrics metrics;
};
/// ISVP label propagation (paper Algorithm 9).
CcResult RunCcBasic(const GraphPtr& graph, const RuntimeOptions& options = {});
/// Optimized forest/star algorithm with virtual parent-pointer edges
/// (paper Algorithm 10; converges in O(log n) rounds instead of O(diameter)).
CcResult RunCcOpt(const GraphPtr& graph, const RuntimeOptions& options = {});

struct BcResult {
  std::vector<double> num;         // #shortest paths from the root.
  std::vector<double> dependency;  // Brandes dependency scores.
  Metrics metrics;
};
BcResult RunBc(const GraphPtr& graph, VertexId root,
               const RuntimeOptions& options = {});

struct MisResult {
  std::vector<bool> in_set;
  int rounds = 0;
  Metrics metrics;
};
MisResult RunMis(const GraphPtr& graph, const RuntimeOptions& options = {});

struct MmResult {
  std::vector<VertexId> match;  // Partner id or kInvalidVertex.
  int rounds = 0;
  std::vector<uint64_t> active_per_round;  // Frontier sizes (Fig 4a).
  Metrics metrics;
};
MmResult RunMmBasic(const GraphPtr& graph, const RuntimeOptions& options = {});
/// Optimized matching that re-proposes only where a temporary match was
/// stolen (paper Algorithm 12; needs virtual edge sets).
MmResult RunMmOpt(const GraphPtr& graph, const RuntimeOptions& options = {});

struct KCoreResult {
  std::vector<uint32_t> core;  // Core number per vertex.
  Metrics metrics;
};
/// Peeling algorithm (paper Algorithm 16).
KCoreResult RunKCoreBasic(const GraphPtr& graph,
                          const RuntimeOptions& options = {});
/// Optimized local-convergence algorithm (paper Algorithm 17).
KCoreResult RunKCoreOpt(const GraphPtr& graph,
                        const RuntimeOptions& options = {});

struct CountResult {
  uint64_t count = 0;
  Metrics metrics;
};
CountResult RunTriangleCount(const GraphPtr& graph,
                             const RuntimeOptions& options = {});
CountResult RunRectangleCount(const GraphPtr& graph,
                              const RuntimeOptions& options = {});
CountResult RunKCliqueCount(const GraphPtr& graph, int k,
                            const RuntimeOptions& options = {});

struct GcResult {
  std::vector<uint32_t> color;
  int rounds = 0;
  Metrics metrics;
};
GcResult RunGraphColoring(const GraphPtr& graph,
                          const RuntimeOptions& options = {});

struct SccResult {
  std::vector<VertexId> label;  // SCC label (equal within a component).
  int rounds = 0;
  Metrics metrics;
};
SccResult RunScc(const GraphPtr& graph, const RuntimeOptions& options = {});

struct BccResult {
  /// Group label of each non-root vertex's parent tree edge; vertices whose
  /// parent edges share a biconnected component share a label.
  std::vector<uint32_t> label;
  uint64_t num_bcc = 0;
  Metrics metrics;
};
BccResult RunBcc(const GraphPtr& graph, const RuntimeOptions& options = {});

struct LpaResult {
  std::vector<VertexId> label;
  Metrics metrics;
};
LpaResult RunLpa(const GraphPtr& graph, int iterations,
                 const RuntimeOptions& options = {});

struct MsfResult {
  std::vector<Edge> edges;  // The forest's edges.
  double total_weight = 0;
  Metrics metrics;
};
MsfResult RunMsf(const GraphPtr& graph, const RuntimeOptions& options = {});

struct SsspResult {
  std::vector<float> distance;  // +inf when unreachable.
  int rounds = 0;
  Metrics metrics;
};
/// Frontier-based Bellman-Ford under BSP; in async mode, delta-stepping with
/// kDefaultSsspDelta (RunSsspDeltaStepping's async program).
SsspResult RunSssp(const GraphPtr& graph, VertexId root,
                   const RuntimeOptions& options = {});

/// Delta-stepping bucket width tuned for the generators' uniform (0, 1]
/// edge weights.
inline constexpr float kDefaultSsspDelta = 0.25f;

/// Delta-stepping SSSP (Meyer & Sanders): distance-range buckets, light
/// edges (w <= delta) relaxed to a fixpoint inside each bucket before heavy
/// edges fire once — the classic frontier-scheduling refinement that needs
/// FLASH's driver-side control flow and subset algebra. In async mode the
/// buckets are the async engine's priority buckets.
SsspResult RunSsspDeltaStepping(const GraphPtr& graph, VertexId root,
                                float delta,
                                const RuntimeOptions& options = {});

struct PageRankResult {
  std::vector<double> rank;
  Metrics metrics;
};
PageRankResult RunPageRank(const GraphPtr& graph, int iterations,
                           const RuntimeOptions& options = {});

struct ClusteringResult {
  std::vector<double> local;  // Local clustering coefficient per vertex.
  double average = 0;         // Mean over vertices with degree >= 2.
  Metrics metrics;
};
/// Local clustering coefficients via neighbour-list intersections (the
/// triangle machinery counted per vertex).
ClusteringResult RunClusteringCoefficient(const GraphPtr& graph,
                                          const RuntimeOptions& options = {});

struct HitsResult {
  std::vector<double> hub;
  std::vector<double> authority;
  Metrics metrics;
};
/// HITS (Kleinberg): alternating hub/authority updates with L2
/// normalisation through global reductions.
HitsResult RunHits(const GraphPtr& graph, int iterations,
                   const RuntimeOptions& options = {});

struct MsBfsResult {
  /// distance_sum[v] = sum of hop distances from the reached sources;
  /// harmonic[v] = sum over sources s of 1/dist(s, v).
  std::vector<uint32_t> distance_sum;
  std::vector<double> harmonic;
  int rounds = 0;
  Metrics metrics;
};
/// One vertex first reached at some traversal level, with the mask of
/// sources (bit i = sources[i]) whose wavefront arrived there that level.
/// Trivially copyable — the core gathers these across workers.
struct MsBfsArrival {
  VertexId vertex = 0;
  uint64_t mask = 0;
};

/// One committed level of the bit-parallel multi-source traversal: the
/// vertices first reached at `level`, each with the mask of sources that
/// arrived. Entries ascend by vertex id and every (vertex, source) pair
/// appears in exactly one level — that level is the source's exact hop
/// distance to the vertex.
struct MsBfsLevel {
  uint32_t level = 0;
  std::vector<MsBfsArrival> fresh;
};

/// Hooks into the reusable multi-source core (RunMultiSourceBfsCore).
struct MsBfsCoreOptions {
  /// When set, each committed level's fresh (vertex, mask) list is gathered
  /// (one billed AllGather per non-empty level; level 0 — the seeds
  /// themselves — costs nothing, the driver already knows them) and handed
  /// to the callback. Return false to stop the traversal early, e.g. once
  /// every point query riding the pass has been answered.
  std::function<bool(const MsBfsLevel&)> on_level;
};

/// The reusable bit-parallel multi-source traversal core: advances up to 64
/// sources' wavefronts together, one EDGEMAP sweep per level, reporting
/// committed levels through `core.on_level`. This is the shared engine pass
/// the serving layer (src/serving/) coalesces point queries onto;
/// RunMultiSourceBfs is a thin wrapper over it. Returns the number of
/// levels executed; the pass's engine counters are absorbed into *metrics
/// when non-null.
int RunMultiSourceBfsCore(const GraphPtr& graph,
                          const std::vector<VertexId>& sources,
                          const RuntimeOptions& options,
                          const MsBfsCoreOptions& core,
                          Metrics* metrics = nullptr);

/// Multi-source BFS: up to 64 sources traversed simultaneously with
/// bitmask frontiers (one graph pass for all sources) — the building block
/// of closeness/harmonic centrality estimation and of the serving layer's
/// batched BFS-distance / k-hop / landmark point queries.
MsBfsResult RunMultiSourceBfs(const GraphPtr& graph,
                              const std::vector<VertexId>& sources,
                              const RuntimeOptions& options = {});

struct DiameterResult {
  uint32_t lower_bound = 0;   // Double-sweep lower bound.
  VertexId periphery_a = 0;   // Endpoints realising the bound.
  VertexId periphery_b = 0;
  Metrics metrics;
};
/// Double-sweep diameter estimation: BFS from a seed, then BFS from the
/// farthest vertex found; exact on trees.
DiameterResult RunDiameterEstimate(const GraphPtr& graph, VertexId seed,
                                   const RuntimeOptions& options = {});

struct BipartiteResult {
  bool is_bipartite = false;
  std::vector<uint8_t> side;  // 0/1 partition sides (valid if bipartite).
  Metrics metrics;
};
/// Two-colouring by BFS parity; a same-side edge witnesses an odd cycle.
BipartiteResult RunBipartiteCheck(const GraphPtr& graph,
                                  const RuntimeOptions& options = {});

struct TopoResult {
  bool is_dag = false;
  /// Topological layer per vertex (kInf32 for vertices on/behind cycles).
  std::vector<uint32_t> layer;
  Metrics metrics;
};
/// Topological layering of a directed graph by repeated source peeling
/// (Kahn); detects cycles as unpeelable remainders.
TopoResult RunTopologicalLayers(const GraphPtr& graph,
                                const RuntimeOptions& options = {});

struct DensestResult {
  std::vector<bool> in_subgraph;  // The returned dense subgraph.
  double density = 0;             // |E(S)| / |S| of that subgraph.
  int rounds = 0;
  Metrics metrics;
};
/// Densest-subgraph 2(1+eps)-approximation (Bahmani et al. peeling):
/// repeatedly remove vertices of degree <= 2(1+eps) * current density and
/// keep the densest intermediate subgraph.
DensestResult RunDensestSubgraph(const GraphPtr& graph, double epsilon = 0.1,
                                 const RuntimeOptions& options = {});

/// Personalized PageRank: power iteration with teleport to `seed`.
PageRankResult RunPersonalizedPageRank(const GraphPtr& graph, VertexId seed,
                                       int iterations,
                                       const RuntimeOptions& options = {});

struct PprPushResult {
  std::vector<double> rank;      // Approximate PPR mass settled per vertex.
  std::vector<double> residual;  // Unsettled mass (< eps * outdeg each).
  int rounds = 0;
  Metrics metrics;
};
/// Personalized PageRank by residual push (Andersen-Chung-Lang forward
/// push): converges when every residual falls below eps * outdeg. Runs on
/// either execution backend; sum(rank) + sum(residual) == 1 exactly.
PprPushResult RunPprPush(const GraphPtr& graph, VertexId seed,
                         double alpha = 0.15, double eps = 1e-8,
                         const RuntimeOptions& options = {});

struct BetweennessResult {
  std::vector<double> score;  // Sum of dependency scores over the sources.
  Metrics metrics;
};
/// Sampled betweenness centrality: Brandes passes from the given source
/// set, accumulated (the standard approximation of full betweenness).
BetweennessResult RunApproxBetweenness(const GraphPtr& graph,
                                       const std::vector<VertexId>& sources,
                                       const RuntimeOptions& options = {});

struct CentralityResult {
  std::vector<double> harmonic;  // Sum over sources s of 1/dist(s, v).
  Metrics metrics;
};
/// Harmonic centrality from a source sample, batched 64-at-a-time through
/// the multi-source BFS (exact when sources = all vertices).
CentralityResult RunHarmonicCentrality(const GraphPtr& graph,
                                       const std::vector<VertexId>& sources,
                                       const RuntimeOptions& options = {});

struct KTrussResult {
  uint64_t edges_remaining = 0;  // Undirected edges in the k-truss.
  /// Surviving adjacency (sorted) per vertex; empty outside the truss.
  std::vector<std::vector<VertexId>> adjacency;
  int rounds = 0;
  Metrics metrics;
};
/// The k-truss: the maximal subgraph whose every edge closes >= k-2
/// triangles inside it. Synchronous support peeling over replicated
/// adjacency state — both endpoints of a doomed edge decide identically,
/// so no removal messages are needed.
KTrussResult RunKTruss(const GraphPtr& graph, uint32_t k,
                       const RuntimeOptions& options = {});

}  // namespace flash::algo

#endif  // FLASH_ALGORITHMS_ALGORITHMS_H_
