// Unit tests for the FLASH programming model itself (src/core) and the
// FLASHWARE runtime semantics (src/flashware): primitive semantics per the
// paper's Algorithms 1/5/6, subset algebra, edge-set algebra, BSP
// visibility, mirror synchronisation, critical-field masking (including the
// failure-injection test that a wrong mask breaks remote reads), and
// communication accounting.

#include <gtest/gtest.h>

#include "core/api.h"
#include "flashware/cost_model.h"
#include "flashware/message_bus.h"
#include "graph/generators.h"

namespace flash {
namespace {

struct Data {
  uint32_t value = 0;
  uint32_t aux = 0;
  FLASH_FIELDS(value, aux)
};

RuntimeOptions Workers(int n) {
  RuntimeOptions options;
  options.num_workers = n;
  return options;
}

// --- VertexSubset ------------------------------------------------------------

TEST(VertexSubset, AllAndSingleAndContains) {
  auto graph = MakePath(10).value();
  GraphApi<Data> fl(graph, Workers(3));
  VertexSubset all = fl.V();
  EXPECT_EQ(all.TotalSize(), 10u);
  EXPECT_TRUE(all.Contains(7));
  VertexSubset one = fl.Single(4);
  EXPECT_EQ(one.TotalSize(), 1u);
  EXPECT_TRUE(one.Contains(4));
  EXPECT_FALSE(one.Contains(5));
  EXPECT_EQ(fl.None().TotalSize(), 0u);
}

TEST(VertexSubset, Algebra) {
  auto graph = MakePath(10).value();
  GraphApi<Data> fl(graph, Workers(3));
  VertexSubset a = fl.Single(1);
  a.Add(2);
  a.Add(3);
  VertexSubset b = fl.Single(3);
  b.Add(4);
  EXPECT_EQ(fl.Union(a, b).TotalSize(), 4u);
  EXPECT_EQ(fl.Intersect(a, b).TotalSize(), 1u);
  VertexSubset diff = fl.Minus(a, b);
  EXPECT_EQ(diff.TotalSize(), 2u);
  EXPECT_TRUE(diff.Contains(1));
  EXPECT_FALSE(diff.Contains(3));
}

TEST(VertexSubset, AddIsIdempotent) {
  auto graph = MakePath(10).value();
  GraphApi<Data> fl(graph, Workers(2));
  VertexSubset s = fl.None();
  s.Add(5);
  s.Add(5);
  EXPECT_EQ(s.TotalSize(), 1u);
}

TEST(VertexSubset, DenseBitmapMatchesMembers) {
  auto graph = MakePath(64).value();
  GraphApi<Data> fl(graph, Workers(4));
  VertexSubset s = fl.None();
  for (VertexId v : {0u, 13u, 63u}) s.Add(v);
  const Bitset& bits = s.EnsureDense(64);
  EXPECT_EQ(bits.Count(), 3u);
  EXPECT_TRUE(bits.Test(13));
  EXPECT_FALSE(bits.Test(14));
}

TEST(VertexSubset, FlagOnlyAllMatchesTheCopiedLists) {
  // V() is a flag over the partition's owned lists; `copied` is the same
  // set built from copies of those lists, the old representation.
  auto graph = GenerateErdosRenyi(200, 800, true, 5).value();
  for (const PartitionScheme scheme :
       {PartitionScheme::kHash, PartitionScheme::kChunk}) {
    RuntimeOptions options = Workers(3);
    options.partition = scheme;
    GraphApi<Data> fl(graph, options);
    const VertexSubset all = fl.V();
    std::vector<std::vector<VertexId>> lists;
    for (int w = 0; w < 3; ++w) {
      lists.push_back(fl.partition().OwnedVertices(w));
      EXPECT_EQ(&all.Owned(w), &fl.partition().OwnedVertices(w))
          << "V() must read the partition's list in place";
    }
    const VertexSubset copied =
        VertexSubset::FromWorkerLists(&fl.partition(), lists);
    auto same = [](const VertexSubset& a, const VertexSubset& b) {
      if (a.TotalSize() != b.TotalSize()) return false;
      for (int w = 0; w < 3; ++w) {
        if (a.Owned(w) != b.Owned(w)) return false;
      }
      return true;
    };
    EXPECT_TRUE(same(all, copied));
    VertexSubset odd = fl.None();
    for (VertexId v = 1; v < 200; v += 7) odd.Add(v);
    const VertexSubset* others[] = {&odd, &copied};
    for (const VertexSubset* other : others) {
      EXPECT_TRUE(same(fl.Union(all, *other), fl.Union(copied, *other)));
      EXPECT_TRUE(same(fl.Union(*other, all), fl.Union(*other, copied)));
      EXPECT_TRUE(same(fl.Minus(all, *other), fl.Minus(copied, *other)));
      EXPECT_TRUE(same(fl.Minus(*other, all), fl.Minus(*other, copied)));
      EXPECT_TRUE(
          same(fl.Intersect(all, *other), fl.Intersect(copied, *other)));
    }
    for (VertexId v = 0; v < 200; ++v) {
      EXPECT_EQ(all.Contains(v), copied.Contains(v)) << v;
    }
    const Bitset& dense = all.EnsureDense(200);
    EXPECT_EQ(dense.Count(), 200u);
    for (VertexId v = 0; v < 200; ++v) {
      EXPECT_EQ(dense.Test(v), copied.EnsureDense(200).Test(v)) << v;
    }
    // Add on "all" is a no-op: every vertex is already a member.
    VertexSubset grown = fl.V();
    grown.Add(17);
    EXPECT_TRUE(same(grown, copied));
    std::vector<VertexId> visited;
    all.ForEach([&](VertexId v) { visited.push_back(v); });
    std::vector<VertexId> expected;
    copied.ForEach([&](VertexId v) { expected.push_back(v); });
    EXPECT_EQ(visited, expected);
  }
}

TEST(VertexSubset, SubsetsOutliveTheirEngineButNotTheGraph) {
  // The partition belongs to the graph, so a subset stays valid after the
  // GraphApi that made it is gone.
  auto graph = MakePath(12).value();
  VertexSubset all;
  {
    GraphApi<Data> fl(graph, Workers(4));
    all = fl.V();
  }
  EXPECT_EQ(all.TotalSize(), 12u);
  EXPECT_TRUE(all.Contains(11));
  EXPECT_EQ(all.Owned(3).size(), 3u);
}

// --- VERTEXMAP ---------------------------------------------------------------

TEST(VertexMap, FilterSemantics) {
  auto graph = MakePath(10).value();
  GraphApi<Data> fl(graph, Workers(3));
  VertexSubset even =
      fl.VertexMap(fl.V(), [](const Data&, VertexId id) { return id % 2 == 0; });
  EXPECT_EQ(even.TotalSize(), 5u);
  EXPECT_TRUE(even.Contains(8));
  EXPECT_FALSE(even.Contains(3));
}

TEST(VertexMap, MapMutatesOnlyPassingVertices) {
  auto graph = MakePath(10).value();
  GraphApi<Data> fl(graph, Workers(3));
  fl.VertexMap(fl.V(), [](const Data&, VertexId id) { return id < 5; },
               [](Data& v, VertexId id) { v.value = id + 100; });
  auto values =
      fl.ExtractResults<uint32_t>([](const Data& v, VertexId) { return v.value; });
  for (VertexId v = 0; v < 10; ++v) {
    EXPECT_EQ(values[v], v < 5 ? v + 100 : 0u) << v;
  }
}

TEST(VertexMap, UpdatesInvisibleWithinSuperstep) {
  // BSP: M sees the *current* state, not updates from the same superstep.
  auto graph = MakePath(4).value();
  GraphApi<Data> fl(graph, Workers(2));
  fl.VertexMap(fl.V(), CTrue, [](Data& v) { v.value = 1; });
  fl.VertexMap(fl.V(), CTrue, [&](Data& v, VertexId id) {
    // Read a *different* vertex mid-superstep: must still be the old state.
    v.aux = fl.Read((id + 1) % 4).value;
    v.value = 2;
  });
  auto aux =
      fl.ExtractResults<uint32_t>([](const Data& v, VertexId) { return v.aux; });
  for (auto a : aux) EXPECT_EQ(a, 1u);
}

// --- Fresh state -------------------------------------------------------------

struct Defaults {
  uint32_t dist = 7;
  double mass = 0.25;
  uint64_t mask = 0;
  FLASH_FIELDS(dist, mass, mask)
};

TEST(GraphApi, FreshValuesAreValueInitialised) {
  // A program needs no reset map: before any primitive, every worker's
  // replica of every vertex (master or mirror) equals VData{}. A scribbled
  // engine is destroyed first, so stores that reused its memory without
  // initialising it would show here.
  auto graph = GenerateErdosRenyi(80, 300, true, 9).value();
  for (int workers : {1, 3, 4}) {
    {
      GraphApi<Defaults> scribbled(graph, Workers(workers));
      scribbled.VertexMap(scribbled.V(), CTrue, [](Defaults& v) {
        v.dist = 99;
        v.mass = -1.0;
        v.mask = ~uint64_t{0};
      });
    }
    GraphApi<Defaults> fl(graph, Workers(workers));
    fl.ForEachWorker([&](int w) {
      for (VertexId v = 0; v < graph->NumVertices(); ++v) {
        const Defaults& d = fl.Read(v);
        EXPECT_EQ(d.dist, Defaults{}.dist) << "worker " << w << " v" << v;
        EXPECT_EQ(d.mass, Defaults{}.mass) << "worker " << w << " v" << v;
        EXPECT_EQ(d.mask, Defaults{}.mask) << "worker " << w << " v" << v;
      }
    });
    EXPECT_EQ(fl.metrics().supersteps, 0u);
  }
}

// --- EDGEMAP -----------------------------------------------------------------

/// Sums incoming source ids into each target, in both modes.
std::vector<uint32_t> SumSources(const GraphPtr& graph, RuntimeOptions options,
                                 EdgeMapMode mode) {
  options.edgemap_mode = mode;
  GraphApi<Data> fl(graph, options);
  fl.EdgeMap(
      fl.V(), fl.E(), CTrue,
      [](const Data&, Data& d, VertexId sid, VertexId) { d.value += sid + 1; },
      CTrue, [](const Data& t, Data& d) { d.value += t.value; });
  return fl.ExtractResults<uint32_t>(
      [](const Data& v, VertexId) { return v.value; });
}

TEST(EdgeMap, DenseAndSparseAgree) {
  auto graph = GenerateErdosRenyi(60, 240, true, 3).value();
  for (int workers : {1, 2, 5}) {
    auto push = SumSources(graph, Workers(workers), EdgeMapMode::kPush);
    auto pull = SumSources(graph, Workers(workers), EdgeMapMode::kPull);
    auto adaptive = SumSources(graph, Workers(workers), EdgeMapMode::kAdaptive);
    EXPECT_EQ(push, pull) << workers;
    EXPECT_EQ(push, adaptive) << workers;
  }
}

TEST(EdgeMap, ResultsIndependentOfWorkerCount) {
  auto graph = GenerateErdosRenyi(80, 400, true, 9).value();
  auto baseline = SumSources(graph, Workers(1), EdgeMapMode::kAdaptive);
  for (int workers : {2, 3, 8, 16}) {
    EXPECT_EQ(SumSources(graph, Workers(workers), EdgeMapMode::kAdaptive),
              baseline)
        << workers;
  }
}

TEST(EdgeMap, CondPrunesTargets) {
  auto graph = MakeStar(5).value();  // 0 <-> {1,2,3,4}.
  GraphApi<Data> fl(graph, Workers(2));
  fl.VertexMap(fl.V(), [](const Data&, VertexId id) { return id == 3; },
               [](Data& v) { v.aux = 1; });
  VertexSubset out = fl.EdgeMapSparse(
      fl.Single(0), fl.E(), CTrue,
      [](const Data&, Data& d) { d.value = 7; },
      [](const Data& d) { return d.aux == 0; },
      [](const Data& t, Data& d) { d = t; });
  EXPECT_EQ(out.TotalSize(), 3u);  // 1, 2, 4 — not 3.
  EXPECT_FALSE(out.Contains(3));
  EXPECT_EQ(fl.GatherMasters()[3].value, 0u);
}

TEST(EdgeMap, FrontierRestrictsSources) {
  auto graph = MakePath(6).value();
  GraphApi<Data> fl(graph, Workers(3));
  VertexSubset out = fl.EdgeMap(
      fl.Single(2), fl.E(), CTrue,
      [](const Data&, Data& d) { d.value += 1; }, CTrue,
      [](const Data& t, Data& d) { d.value += t.value; });
  EXPECT_EQ(out.TotalSize(), 2u);  // Neighbours 1 and 3 only.
  EXPECT_TRUE(out.Contains(1));
  EXPECT_TRUE(out.Contains(3));
}

TEST(EdgeMap, ReverseEdgesPullFromOutNeighbors) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  auto graph = builder.Build(BuildOptions{}).value();  // Directed chain.
  GraphApi<Data> fl(graph, Workers(2));
  // Push along reverse(E): messages flow 2 -> 1 -> ... from target side.
  VertexSubset out = fl.EdgeMap(
      fl.Single(2), fl.ReverseE(), CTrue,
      [](const Data&, Data& d) { d.value = 9; }, CTrue,
      [](const Data& t, Data& d) { d = t; });
  EXPECT_EQ(out.TotalSize(), 1u);
  EXPECT_TRUE(out.Contains(1));
}

TEST(EdgeMap, DenseStopsWhenCondFails) {
  // C returning false must stop folding further in-edges of that target.
  auto graph = MakeStar(6).value();
  GraphApi<Data> fl(graph, Workers(1));
  fl.EdgeMapDense(
      fl.V(), fl.E(), CTrue,
      [](const Data&, Data& d) { d.value += 1; },
      [](const Data& d) { return d.value < 2; });
  // The hub has 5 in-edges but C cuts the fold at value == 2.
  EXPECT_EQ(fl.GatherMasters()[0].value, 2u);
}

TEST(EdgeMap, WeightsReachCallbacks) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1, 2.5f);
  BuildOptions opt;
  opt.keep_weights = true;
  auto graph = builder.Build(opt).value();
  GraphApi<Data> fl(graph, Workers(2));
  fl.EdgeMap(
      fl.Single(0), fl.E(), CTrue,
      [](const Data&, Data& d, VertexId, VertexId, float w) {
        d.value = static_cast<uint32_t>(w * 10);
      },
      CTrue, [](const Data& t, Data& d) { d = t; });
  EXPECT_EQ(fl.GatherMasters()[1].value, 25u);
}

// --- Edge-set algebra ---------------------------------------------------------

TEST(EdgeSets, TwoHopDeduplicates) {
  // Square 0-1-2-3-0: two-hop of 0 is {2} twice via 1 and 3 — must count once.
  auto graph = MakeCycle(4).value();
  GraphApi<Data> fl(graph, Workers(1));
  fl.DeclareVirtualEdges();
  fl.EdgeMap(
      fl.Single(0), fl.TwoHop(), CTrue,
      [](const Data&, Data& d) { d.value += 1; }, CTrue,
      [](const Data& t, Data& d) { d.value += t.value; });
  auto values =
      fl.ExtractResults<uint32_t>([](const Data& v, VertexId) { return v.value; });
  EXPECT_EQ(values[2], 1u);
  EXPECT_EQ(values[0], 1u);  // 0 is its own two-hop neighbour here.
}

TEST(EdgeSets, JoinFiltersTargets) {
  auto graph = MakeStar(6).value();
  GraphApi<Data> fl(graph, Workers(2));
  VertexSubset allowed = fl.Single(2);
  allowed.Add(4);
  VertexSubset out = fl.EdgeMap(
      fl.Single(0), fl.Join(fl.E(), allowed), CTrue,
      [](const Data&, Data& d) { d.value = 1; }, CTrue,
      [](const Data& t, Data& d) { d = t; });
  EXPECT_EQ(out.TotalSize(), 2u);
  EXPECT_TRUE(out.Contains(2));
  EXPECT_TRUE(out.Contains(4));
}

TEST(EdgeSets, OutFnVirtualEdges) {
  auto graph = MakePath(8).value();
  GraphApi<Data> fl(graph, Workers(3));
  fl.DeclareVirtualEdges();
  // Every vertex sends to vertex (id * 2) % 8 — nothing like E.
  VertexSubset out = fl.EdgeMapSparse(
      fl.V(),
      fl.OutFn([](const Data&, VertexId id, const auto& emit) {
        emit((id * 2) % 8, 1.0f);
      }),
      CTrue, [](const Data&, Data& d) { d.value += 1; }, CTrue,
      [](const Data& t, Data& d) { d.value += t.value; });
  auto values =
      fl.ExtractResults<uint32_t>([](const Data& v, VertexId) { return v.value; });
  EXPECT_EQ(values[0], 2u);  // From 0 and 4.
  EXPECT_EQ(values[1], 0u);  // Odd targets unreachable.
  EXPECT_EQ(out.TotalSize(), 4u);
}

TEST(EdgeSets, InFnVirtualEdgesPull) {
  auto graph = MakePath(8).value();
  GraphApi<Data> fl(graph, Workers(3));
  fl.DeclareVirtualEdges();
  fl.VertexMap(fl.V(), CTrue, [](Data& v, VertexId id) { v.aux = id * 10; });
  // Every vertex pulls from its "parent" id/2.
  fl.EdgeMapDense(fl.V(),
                  fl.InFn([](const Data&, VertexId id, const auto& emit) {
                    emit(id / 2, 1.0f);
                  }),
                  CTrue, [](const Data& s, Data& d) { d.value = s.aux; },
                  CTrue);
  auto values =
      fl.ExtractResults<uint32_t>([](const Data& v, VertexId) { return v.value; });
  for (VertexId v = 0; v < 8; ++v) EXPECT_EQ(values[v], (v / 2) * 10) << v;
}

// --- Aggregation ----------------------------------------------------------------

TEST(Aggregate, ReduceSumsOverSubset) {
  auto graph = MakePath(10).value();
  GraphApi<Data> fl(graph, Workers(4));
  fl.VertexMap(fl.V(), CTrue, [](Data& v, VertexId id) { v.value = id; });
  VertexSubset some = fl.VertexMap(
      fl.V(), [](const Data&, VertexId id) { return id >= 5; });
  uint64_t sum = fl.Reduce<uint64_t>(
      some, 0, [](const Data& v, VertexId) { return v.value; },
      [](uint64_t a, uint64_t b) { return a + b; });
  EXPECT_EQ(sum, 5u + 6 + 7 + 8 + 9);
}

TEST(Aggregate, AllGatherConcatenates) {
  auto graph = MakePath(4).value();
  GraphApi<Data> fl(graph, Workers(3));
  std::vector<std::vector<int>> parts = {{1, 2}, {}, {3}};
  EXPECT_EQ(fl.AllGather(parts), (std::vector<int>{1, 2, 3}));
  EXPECT_GT(fl.metrics().bytes, 0u);
}

TEST(Aggregate, SizeBillsASuperstep) {
  auto graph = MakePath(4).value();
  GraphApi<Data> fl(graph, Workers(2));
  uint64_t steps_before = fl.metrics().supersteps;
  EXPECT_EQ(fl.Size(fl.V()), 4u);
  EXPECT_EQ(fl.metrics().supersteps, steps_before + 1);
}

// --- Distribution semantics ------------------------------------------------------

TEST(Sync, SingleWorkerSendsNothing) {
  auto graph = GenerateErdosRenyi(50, 200, true, 1).value();
  GraphApi<Data> fl(graph, Workers(1));
  fl.VertexMap(fl.V(), CTrue, [](Data& v, VertexId id) { v.value = id; });
  fl.EdgeMap(
      fl.V(), fl.E(), CTrue, [](const Data&, Data& d) { d.value += 1; }, CTrue,
      [](const Data& t, Data& d) { d.value += t.value; });
  EXPECT_EQ(fl.metrics().bytes, 0u);
  EXPECT_EQ(fl.metrics().messages, 0u);
}

TEST(Sync, MultiWorkerShipsBytes) {
  auto graph = GenerateErdosRenyi(50, 200, true, 1).value();
  GraphApi<Data> fl(graph, Workers(4));
  fl.VertexMap(fl.V(), CTrue, [](Data& v, VertexId id) { v.value = id; });
  EXPECT_GT(fl.metrics().bytes, 0u);
  EXPECT_GT(fl.metrics().messages, 0u);
}

TEST(Sync, NecessaryMirrorsOnlyReducesTraffic) {
  auto graph = GenerateErdosRenyi(200, 600, true, 5).value();
  RuntimeOptions on = Workers(8);
  RuntimeOptions off = Workers(8);
  off.necessary_mirrors_only = false;
  uint64_t bytes_on, bytes_off;
  {
    GraphApi<Data> fl(graph, on);
    fl.VertexMap(fl.V(), CTrue, [](Data& v, VertexId id) { v.value = id; });
    bytes_on = fl.metrics().bytes;
  }
  {
    GraphApi<Data> fl(graph, off);
    fl.VertexMap(fl.V(), CTrue, [](Data& v, VertexId id) { v.value = id; });
    bytes_off = fl.metrics().bytes;
  }
  EXPECT_LT(bytes_on, bytes_off);
}

TEST(Sync, CriticalOnlyShipsFewerBytesAndKeepsRemoteReadsCorrect) {
  auto graph = GenerateErdosRenyi(100, 400, true, 8).value();
  RuntimeOptions options = Workers(4);
  uint64_t bytes_all, bytes_critical;
  {
    GraphApi<Data> fl(graph, options);
    fl.VertexMap(fl.V(), CTrue,
                 [](Data& v, VertexId id) { v.value = id; v.aux = id; });
    bytes_all = fl.metrics().bytes;
  }
  {
    GraphApi<Data> fl(graph, options);
    fl.SetCriticalFields({0});  // Only `value` crosses workers.
    fl.VertexMap(fl.V(), CTrue,
                 [](Data& v, VertexId id) { v.value = id; v.aux = id; });
    bytes_critical = fl.metrics().bytes;
    // Remote reads of the critical field still work...
    fl.EdgeMap(
        fl.V(), fl.E(),
        [](const Data& s, const Data& d) { return s.value > d.value; },
        [](const Data& s, Data& d) { d.value = s.value; }, CTrue,
        [](const Data& t, Data& d) { d.value = std::max(d.value, t.value); });
    auto values = fl.ExtractResults<uint32_t>(
        [](const Data& v, VertexId) { return v.value; });
    for (VertexId v = 0; v < 100; ++v) {
      uint32_t max_nbr = v;
      for (VertexId u : graph->InNeighbors(v)) max_nbr = std::max(max_nbr, u);
      EXPECT_EQ(values[v], max_nbr) << v;
    }
  }
  EXPECT_LT(bytes_critical, bytes_all);
}

TEST(Sync, FailureInjectionWrongCriticalMaskBreaksRemoteReads) {
  // Declaring `value` non-critical leaves mirrors stale: a multi-worker run
  // must observe wrong remote values. This is the enforcement that the
  // Table II rules are real, not cosmetic.
  auto graph = MakePath(16).value();
  RuntimeOptions options = Workers(2);  // Path + hash: every edge crosses.
  GraphApi<Data> fl(graph, options);
  fl.SetCriticalFields({1});  // Wrong: algorithms below exchange `value`.
  fl.VertexMap(fl.V(), CTrue, [](Data& v, VertexId id) { v.value = id + 1; });
  fl.EdgeMap(
      fl.V(), fl.E(), CTrue,
      [](const Data& s, Data& d) { d.aux = s.value; }, CTrue,
      [](const Data& t, Data& d) { d.aux = std::max(d.aux, t.aux); });
  auto aux =
      fl.ExtractResults<uint32_t>([](const Data& v, VertexId) { return v.aux; });
  // Vertex 1 (worker 1) reads neighbours 0 and 2 (worker 0): their mirror
  // `value` was never shipped, so it reads the stale default 0.
  EXPECT_EQ(aux[1], 0u);
}

TEST(Sync, VirtualEdgeSetsRequireDeclaration) {
  auto graph = MakePath(8).value();
  GraphApi<Data> fl(graph, Workers(2));
  auto virtual_set = fl.OutFn(
      [](const Data&, VertexId id, const auto& emit) { emit(id, 1.0f); });
  EXPECT_DEATH(
      fl.EdgeMapSparse(fl.V(), virtual_set, CTrue,
                       [](const Data&, Data& d) { d.value = 1; }, CTrue,
                       [](const Data& t, Data& d) { d = t; }),
      "DeclareVirtualEdges");
}

// --- Metrics & cost model ---------------------------------------------------------

TEST(Metrics, TraceRecordsSteps) {
  auto graph = MakePath(10).value();
  GraphApi<Data> fl(graph, Workers(2));
  fl.VertexMap(fl.V(), CTrue, [](Data& v) { v.value = 1; });
  fl.EdgeMap(
      fl.V(), fl.E(), CTrue, [](const Data&, Data& d) { d.value += 1; }, CTrue,
      [](const Data& t, Data& d) { d.value += t.value; });
  const auto& trace = fl.metrics().steps;
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].kind, StepKind::kVertexMap);
  EXPECT_EQ(trace[0].frontier_in, 10u);
  EXPECT_GT(trace[1].edges_total, 0u);
  EXPECT_GE(trace[1].edges_total, trace[1].edges_max);
}

TEST(CostModel, MoreCoresIsFasterCompute) {
  auto graph = GenerateErdosRenyi(200, 2000, true, 2).value();
  GraphApi<Data> fl(graph, Workers(4));
  for (int i = 0; i < 5; ++i) {
    fl.EdgeMap(
        fl.V(), fl.E(), CTrue, [](const Data&, Data& d) { d.value += 1; },
        CTrue, [](const Data& t, Data& d) { d.value += t.value; });
  }
  ClusterConfig one;
  one.nodes = 4;
  one.cores_per_node = 1;
  ClusterConfig many = one;
  many.cores_per_node = 32;
  double t1 = ModelTime(fl.metrics(), one).total;
  double t32 = ModelTime(fl.metrics(), many).total;
  EXPECT_LT(t32, t1);
  EXPECT_LT(t1, 32 * t32);  // Sub-linear (serial fraction + comm).
}

TEST(CostModel, OverlapNeverSlower) {
  auto graph = GenerateErdosRenyi(100, 800, true, 4).value();
  GraphApi<Data> fl(graph, Workers(4));
  fl.VertexMap(fl.V(), CTrue, [](Data& v, VertexId id) { v.value = id; });
  ClusterConfig overlap;
  ClusterConfig serial = overlap;
  serial.overlap_comm_compute = false;
  EXPECT_LE(ModelTime(fl.metrics(), overlap).total,
            ModelTime(fl.metrics(), serial).total);
}

TEST(CostModel, SingleNodeHasNoCommTime) {
  auto graph = MakePath(20).value();
  GraphApi<Data> fl(graph, Workers(1));
  fl.VertexMap(fl.V(), CTrue, [](Data& v) { v.value = 1; });
  ClusterConfig config;
  config.nodes = 1;
  EXPECT_EQ(ModelTime(fl.metrics(), config).comm, 0.0);
}

// --- MessageBus --------------------------------------------------------------------

TEST(MessageBus, ExchangeMovesBytesAndCounts) {
  MessageBus bus(3);
  bus.Channel(0, 1).WritePod<uint32_t>(7);
  bus.Channel(2, 1).WritePod<uint64_t>(9);
  bus.CountMessages(0, 1);
  bus.CountMessages(2, 1);
  uint64_t moved = bus.Exchange();
  EXPECT_EQ(moved, 12u);
  EXPECT_EQ(bus.LastMessages(), 2u);
  EXPECT_EQ(bus.LastMaxWorkerBytes(), 12u);  // Worker 1 receives both.
  BufferReader r(bus.Incoming(1, 0));
  EXPECT_EQ(r.ReadPod<uint32_t>(), 7u);
  EXPECT_EQ(bus.Incoming(1, 2).size(), 8u);
  EXPECT_TRUE(bus.Incoming(0, 1).empty());
}

TEST(MessageBus, ExchangeClearsChannels) {
  MessageBus bus(2);
  bus.Channel(0, 1).WritePod<uint32_t>(1);
  bus.Exchange();
  bus.Exchange();
  EXPECT_TRUE(bus.Incoming(1, 0).empty());
  EXPECT_EQ(bus.TotalBytes(), 4u);
}

}  // namespace
}  // namespace flash
