// Serving-layer property suite (ISSUE 7).
//
// The load-bearing claim is the determinism contract from server.h: for a
// fixed (query log, num_workers, partition), per-query answers are
// bit-identical no matter how queries are grouped into batches and no
// matter how many host threads execute the passes. The suite checks that
// claim directly — a batch_window=1 server (every query its own engine
// pass) is the oracle, and batched servers at host_threads 1/4/8 must
// reproduce it bit for bit — plus admission control (overflow is a Status,
// never a silent drop), deadline-cut wait bounds, and per-tenant counter
// conservation.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/hash.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/paged_storage.h"
#include "obs/registry.h"
#include "reference/reference.h"
#include "serving/arrivals.h"
#include "serving/server.h"
#include "tests/test_util.h"

namespace flash::serving {
namespace {

RuntimeOptions Runtime(int host_threads) {
  RuntimeOptions options;
  options.num_workers = 4;
  options.host_threads = host_threads;
  return options;
}

/// Deterministic mixed workload cycling through all four kinds, two
/// tenants, and a spread of sources/targets (some s == t, some repeats so
/// batches fold duplicate sources into one frontier bit).
std::vector<Query> MixedQueries(const GraphPtr& graph, size_t count) {
  std::vector<Query> queries;
  const VertexId n = graph->NumVertices();
  for (size_t i = 0; i < count; ++i) {
    Query q;
    q.kind = static_cast<QueryKind>(i % 4);
    q.tenant = (i % 3 == 0) ? "analytics" : "app";
    q.source = static_cast<VertexId>((i * 37) % n);
    q.target = static_cast<VertexId>((i * 53 + 11) % n);
    if (i % 16 == 5) q.target = q.source;  // Self queries answer 0.
    q.k = 1 + static_cast<uint32_t>(i % 4);
    queries.push_back(q);
  }
  return queries;
}

/// Submits `queries` to `server` as one burst at t=0, drains, and returns
/// the answer values indexed by query id (== submission index when nothing
/// sheds). Every answer must report its own query's kind.
std::vector<double> Replay(Server& server, const std::vector<Query>& queries) {
  for (const Query& q : queries) {
    auto id = server.Submit(q, 0.0);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
  }
  server.Drain();
  EXPECT_EQ(server.answers().size(), queries.size());
  std::vector<double> values(queries.size(),
                             std::numeric_limits<double>::quiet_NaN());
  for (const Answer& a : server.answers()) {
    EXPECT_LT(a.query_id, values.size());
    if (a.query_id >= values.size()) continue;
    EXPECT_EQ(a.kind, queries[a.query_id].kind) << "query " << a.query_id;
    values[a.query_id] = a.value;
  }
  return values;
}

ServerOptions BurstOptions(const std::vector<Query>& queries,
                           int batch_window) {
  ServerOptions options;
  options.scheduler.batch_window = batch_window;
  options.scheduler.max_queue = queries.size() + 8;
  return options;
}

std::vector<double> RunValues(const GraphPtr& graph,
                              const std::vector<Query>& queries,
                              int batch_window, int host_threads) {
  Server server(graph, Runtime(host_threads),
                BurstOptions(queries, batch_window));
  return Replay(server, queries);
}

void ExpectConserved(const ServingStats& stats) {
  EXPECT_EQ(stats.submitted, stats.answered + stats.shed);
  EXPECT_EQ(stats.enqueued, stats.answered);
  uint64_t tenant_submitted = 0, tenant_answered = 0, tenant_shed = 0;
  for (const auto& [name, t] : stats.tenants) {
    EXPECT_EQ(t.submitted, t.answered + t.shed) << "tenant " << name;
    EXPECT_EQ(t.enqueued, t.answered) << "tenant " << name;
    tenant_submitted += t.submitted;
    tenant_answered += t.answered;
    tenant_shed += t.shed;
  }
  EXPECT_EQ(tenant_submitted, stats.submitted);
  EXPECT_EQ(tenant_answered, stats.answered);
  EXPECT_EQ(tenant_shed, stats.shed);
}

TEST(ServingDeterminism, BatchedMatchesPerQueryOracleAcrossHostThreads) {
  for (const auto& [name, graph] : testing::TestGraphs()) {
    // Keep the sweep affordable: the oracle runs one engine pass per query.
    if (name != "tree" && name != "er_medium" && name != "er_sparse") {
      continue;
    }
    std::vector<Query> queries = MixedQueries(graph, 48);
    std::vector<double> oracle =
        RunValues(graph, queries, /*batch_window=*/1, /*host_threads=*/1);
    for (int host_threads : {1, 4, 8}) {
      std::vector<double> batched =
          RunValues(graph, queries, /*batch_window=*/64, host_threads);
      ASSERT_EQ(batched.size(), oracle.size());
      for (size_t i = 0; i < oracle.size(); ++i) {
        // Bit-identical, not approximately equal: the same query must get
        // the same bits regardless of batch-mates and thread count.
        EXPECT_EQ(batched[i], oracle[i])
            << name << " query " << i << " at host_threads " << host_threads;
        EXPECT_FALSE(std::isnan(batched[i])) << name << " query " << i;
      }
    }
  }
}

TEST(ServingOracles, BfsAndKHopMatchReferenceDistances) {
  for (const auto& [name, graph] : testing::TestGraphs()) {
    if (name != "tree" && name != "er_sparse") continue;
    const VertexId n = graph->NumVertices();
    std::vector<Query> queries;
    for (size_t i = 0; i < 24; ++i) {
      Query q;
      q.kind = (i % 2 == 0) ? QueryKind::kBfsDistance : QueryKind::kKHop;
      q.source = static_cast<VertexId>((i * 29) % n);
      q.target = static_cast<VertexId>((i * 41 + 3) % n);
      q.k = static_cast<uint32_t>(i % 5);
      queries.push_back(q);
    }
    std::vector<double> values =
        RunValues(graph, queries, /*batch_window=*/64, /*host_threads=*/1);
    for (size_t i = 0; i < queries.size(); ++i) {
      const Query& q = queries[i];
      auto dist = reference::BfsDistances(*graph, q.source);
      if (q.kind == QueryKind::kBfsDistance) {
        double expected = dist[q.target] == reference::kUnreachable
                              ? kUnreachable
                              : static_cast<double>(dist[q.target]);
        EXPECT_EQ(values[i], expected) << name << " bfs query " << i;
      } else {
        uint64_t within = 0;
        for (VertexId v = 0; v < n; ++v) {
          if (dist[v] != reference::kUnreachable && dist[v] <= q.k) ++within;
        }
        EXPECT_EQ(values[i], static_cast<double>(within))
            << name << " khop query " << i;
      }
    }
  }
}

TEST(ServingOracles, LandmarkEstimateUpperBoundsTrueDistance) {
  for (const auto& [name, graph] : testing::TestGraphs()) {
    if (name != "er_medium") continue;
    const VertexId n = graph->NumVertices();
    std::vector<Query> queries;
    for (size_t i = 0; i < 16; ++i) {
      Query q;
      q.kind = QueryKind::kLandmark;
      q.source = static_cast<VertexId>((i * 17) % n);
      q.target = i == 7 ? q.source : static_cast<VertexId>((i * 31 + 5) % n);
      queries.push_back(q);
    }
    std::vector<double> values =
        RunValues(graph, queries, /*batch_window=*/64, /*host_threads=*/4);
    for (size_t i = 0; i < queries.size(); ++i) {
      const Query& q = queries[i];
      if (q.source == q.target) {
        EXPECT_EQ(values[i], 0.0) << name << " self query " << i;
        continue;
      }
      auto dist = reference::BfsDistances(*graph, q.source);
      if (dist[q.target] == reference::kUnreachable) continue;
      // Triangle inequality: d(l,s) + d(l,t) >= d(s,t) on a symmetric
      // graph, so the estimate never undershoots.
      EXPECT_GE(values[i], static_cast<double>(dist[q.target]))
          << name << " landmark query " << i;
    }
  }
}

TEST(ServingAdmission, OverflowShedsWithStatusAndConserves) {
  GraphPtr graph = testing::TestGraphs()[4].second;  // tree
  ServerOptions options;
  options.scheduler.batch_window = 64;  // Nothing cuts during the burst.
  options.scheduler.max_queue = 4;
  Server server(graph, Runtime(1), options);
  int admitted = 0, shed = 0;
  for (size_t i = 0; i < 10; ++i) {
    Query q;
    q.kind = QueryKind::kBfsDistance;
    q.tenant = (i % 2 == 0) ? "a" : "b";
    q.source = static_cast<VertexId>(i % graph->NumVertices());
    q.target = static_cast<VertexId>((i + 3) % graph->NumVertices());
    auto id = server.Submit(q, 0.0);
    if (id.ok()) {
      ++admitted;
    } else {
      // Overflow is always an explicit Status::OutOfRange, never silent.
      EXPECT_TRUE(id.status().IsOutOfRange()) << id.status().ToString();
      ++shed;
    }
  }
  EXPECT_EQ(admitted, 4);
  EXPECT_EQ(shed, 6);
  server.Drain();
  const ServingStats& stats = server.stats();
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(stats.enqueued, 4u);
  EXPECT_EQ(stats.answered, 4u);
  EXPECT_EQ(stats.shed, 6u);
  EXPECT_EQ(server.answers().size(), 4u);
  ExpectConserved(stats);

  // The exported registry series must agree with the in-memory ledger.
  obs::Registry registry;
  stats.ExportTo(registry);
  const obs::Metric* submitted =
      registry.Find("flash_serving_submitted_total");
  const obs::Metric* answered = registry.Find("flash_serving_answered_total");
  const obs::Metric* shed_total = registry.Find("flash_serving_shed_total");
  ASSERT_NE(submitted, nullptr);
  ASSERT_NE(answered, nullptr);
  ASSERT_NE(shed_total, nullptr);
  EXPECT_EQ(submitted->ivalue, answered->ivalue + shed_total->ivalue);
  const obs::Metric* tenant_a = registry.Find(
      "flash_serving_tenant_submitted_total", {{"tenant", "a"}});
  ASSERT_NE(tenant_a, nullptr);
  EXPECT_EQ(tenant_a->ivalue, 5u);
}

TEST(ServingCache, RepeatQueriesHitWithoutNewEnginePasses) {
  GraphPtr graph = testing::TestGraphs()[4].second;  // tree, 31 vertices
  ServerOptions options;
  options.scheduler.batch_window = 8;
  options.scheduler.max_queue = 64;
  Server server(graph, Runtime(4), options);
  // Eight cacheable queries with pairwise-distinct (source, target) keys:
  // four bfs-distance, four landmark.
  std::vector<Query> queries;
  for (size_t i = 0; i < 8; ++i) {
    Query q;
    q.kind = (i % 2 == 0) ? QueryKind::kBfsDistance : QueryKind::kLandmark;
    q.source = static_cast<VertexId>(i * 3);
    q.target = static_cast<VertexId>(i * 3 + 1);
    queries.push_back(q);
  }
  for (const Query& q : queries) {
    ASSERT_TRUE(server.Submit(q, 0.0).ok());
  }
  server.Drain();
  const uint64_t passes = server.stats().engine_passes;
  EXPECT_EQ(server.stats().cache_hits, 0u);
  EXPECT_EQ(server.stats().cache_misses, 8u);
  ASSERT_GT(passes, 0u);

  // The identical burst again: answered entirely from the result cache —
  // hit counters advance, the engine does not run at all.
  for (const Query& q : queries) {
    ASSERT_TRUE(server.Submit(q, server.now_s() + 1.0).ok());
  }
  server.Drain();
  EXPECT_EQ(server.stats().engine_passes, passes);
  EXPECT_EQ(server.stats().cache_hits, 8u);
  EXPECT_EQ(server.stats().cache_misses, 8u);

  // Cached answers are the exact bits the first round computed.
  ASSERT_EQ(server.answers().size(), 16u);
  std::vector<double> values(16, std::numeric_limits<double>::quiet_NaN());
  for (const Answer& a : server.answers()) values[a.query_id] = a.value;
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(values[i], values[i + 8]) << "query " << i;
    EXPECT_FALSE(std::isnan(values[i])) << "query " << i;
  }
  ExpectConserved(server.stats());
}

TEST(ServingCache, HitAndMissCountersConserveAcrossMixedKinds) {
  // Cache conservation on a workload spanning all four kinds: every
  // answered bfs-distance or landmark query is exactly one of {hit, miss},
  // so the two counters sum to the cacheable answered count — khop and ppr
  // never touch them.
  GraphPtr graph = testing::TestGraphs()[6].second;  // er_medium
  std::vector<Query> queries = MixedQueries(graph, 48);
  ServerOptions options;
  options.scheduler.batch_window = 16;
  options.scheduler.max_queue = queries.size() + 8;
  Server server(graph, Runtime(4), options);
  for (const Query& q : queries) {
    ASSERT_TRUE(server.Submit(q, 0.0).ok());
  }
  server.Drain();
  const ServingStats& stats = server.stats();
  uint64_t cacheable = 0;
  for (const Query& q : queries) {
    if (q.kind == QueryKind::kBfsDistance || q.kind == QueryKind::kLandmark) {
      ++cacheable;
    }
  }
  ASSERT_GT(cacheable, 0u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, cacheable);
  ExpectConserved(stats);

  // The exported series mirror the ledger.
  obs::Registry registry;
  stats.ExportTo(registry);
  const obs::Metric* hits = registry.Find("flash_serving_cache_hit_total");
  const obs::Metric* misses = registry.Find("flash_serving_cache_miss_total");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  EXPECT_EQ(hits->ivalue, stats.cache_hits);
  EXPECT_EQ(misses->ivalue, stats.cache_misses);
}

TEST(ServingDeadlines, CutBatchesNeverExceedConfiguredWait) {
  GraphPtr graph = testing::TestGraphs()[5].second;  // er_small
  const double kWait = 0.002;
  ServerOptions options;
  options.scheduler.batch_window = 64;
  options.scheduler.max_batch_wait_s = kWait;
  Server server(graph, Runtime(1), options);
  // Trickle queries in slowly so no batch fills; every cut is wait-forced.
  double t = 0;
  for (size_t i = 0; i < 12; ++i) {
    Query q;
    q.kind = (i % 2 == 0) ? QueryKind::kBfsDistance : QueryKind::kKHop;
    q.source = static_cast<VertexId>((i * 7) % graph->NumVertices());
    q.target = static_cast<VertexId>((i * 11 + 1) % graph->NumVertices());
    if (i == 8) q.deadline_s = kWait / 4;  // Tighter than the wait cap.
    auto id = server.Submit(q, t);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    t += 0.0008;
  }
  server.Drain();
  const ServingStats& stats = server.stats();
  ASSERT_GT(stats.batches, 1u);
  for (const BatchStat& b : stats.batch_log) {
    EXPECT_LE(b.oldest_wait_s, kWait + 1e-12)
        << QueueClassName(b.queue) << " batch cut at " << b.cut_s;
    EXPECT_GE(b.start_s, b.cut_s);
    EXPECT_EQ(b.complete_s, b.start_s + b.service_s);
  }
  EXPECT_EQ(stats.answered, 12u);
  ExpectConserved(stats);
}

TEST(ServingLog, ParseQueryLogRoundTrips) {
  auto parsed = ParseQueryLog(
      "# comment line\n"
      "bfs 3 9\n"
      "khop 4 2 analytics\n"
      "landmark 1 7 app 0.25\n"
      "ppr 5 6\n"
      "\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::vector<Query>& queries = *parsed;
  ASSERT_EQ(queries.size(), 4u);
  EXPECT_EQ(queries[0].kind, QueryKind::kBfsDistance);
  EXPECT_EQ(queries[0].source, 3u);
  EXPECT_EQ(queries[0].target, 9u);
  EXPECT_EQ(queries[1].kind, QueryKind::kKHop);
  EXPECT_EQ(queries[1].k, 2u);
  EXPECT_EQ(queries[1].tenant, "analytics");
  EXPECT_TRUE(std::isinf(queries[1].deadline_s));  // Absent = patient.
  EXPECT_EQ(queries[2].kind, QueryKind::kLandmark);
  EXPECT_EQ(queries[2].deadline_s, 0.25);
  EXPECT_EQ(queries[3].kind, QueryKind::kPpr);
  EXPECT_FALSE(ParseQueryLog("sssp 1 2\n").ok());
  // Numbers are whole unsigned 32-bit tokens, never truncated or split,
  // and nothing follows the deadline.
  for (const char* bad :
       {"bfs 4294967296 5", "khop 3 4294967298", "bfs 1 2x", "bfs -1 2",
        "ppr 1", "landmark 1 7 app 0.25s", "landmark 1 7 app 0.25 x"}) {
    auto rejected = ParseQueryLog(std::string("bfs 0 1\n") + bad + "\n");
    ASSERT_FALSE(rejected.ok()) << bad;
    EXPECT_TRUE(rejected.status().IsInvalidArgument()) << bad;
    EXPECT_NE(rejected.status().message().find("line 2"), std::string::npos)
        << rejected.status().ToString();
  }
  EXPECT_EQ(ParseQueryLog("bfs 4294967295 0\n").value()[0].source,
            4294967295u);
}

TEST(ServingArrivals, PoissonClockIsDeterministicAndMonotone) {
  const std::vector<double> a = PoissonArrivalTimes(5000, 2000.0, 42);
  const std::vector<double> b = PoissonArrivalTimes(5000, 2000.0, 42);
  EXPECT_EQ(a, b);  // Pure function of (seed, index): replays reproduce.
  const std::vector<double> c = PoissonArrivalTimes(5000, 2000.0, 43);
  EXPECT_NE(a, c);
  for (size_t i = 1; i < a.size(); ++i) {
    ASSERT_LE(a[i - 1], a[i]) << "arrival clock ran backwards at " << i;
  }
  // A prefix of a longer replay is the same clock: interarrival i is keyed
  // by i alone, not the log length.
  const std::vector<double> shorter = PoissonArrivalTimes(100, 2000.0, 42);
  for (size_t i = 0; i < shorter.size(); ++i) EXPECT_EQ(shorter[i], a[i]);
}

TEST(ServingArrivals, PoissonClockMatchesTheOfferedRate) {
  const double qps = 500.0;
  const size_t n = 40000;
  const std::vector<double> arrivals = PoissonArrivalTimes(n, qps, 7);
  // Mean interarrival within 3% of 1/qps (n draws put the standard error
  // of the mean near 0.5%), and exponential variance: squared CoV near 1.
  const double mean = arrivals.back() / static_cast<double>(n);
  EXPECT_NEAR(mean, 1.0 / qps, 0.03 / qps);
  double var = 0;
  double prev = 0;
  for (const double t : arrivals) {
    const double gap = t - prev;
    var += (gap - mean) * (gap - mean);
    prev = t;
  }
  var /= static_cast<double>(n);
  EXPECT_NEAR(var / (mean * mean), 1.0, 0.1);
}

TEST(ServingArrivals, BurstAndFixedClocks) {
  // qps <= 0 is burst mode in both clocks: everything lands at t=0.
  for (const double t : PoissonArrivalTimes(64, 0.0, 42)) EXPECT_EQ(t, 0.0);
  for (const double t : FixedArrivalTimes(64, 0.0)) EXPECT_EQ(t, 0.0);
  const std::vector<double> fixed = FixedArrivalTimes(10, 100.0);
  for (size_t i = 0; i < fixed.size(); ++i) {
    EXPECT_DOUBLE_EQ(fixed[i], static_cast<double>(i) * 0.01);
  }
}

// --- MsBfsGolden ------------------------------------------------------------
//
// Pins the multi-source BFS core bit for bit: one FNV-1a digest of
// RunMultiSourceBfs's distance_sum and harmonic per source-batch width, and
// one of a fixed serve replay's answers (bfs-distance, k-hop, landmark). A
// digest must come out the same in memory and paged (cache about 1/8 of the
// decoded adjacency, as perfbench's serve workload), at host_threads 1 and
// 4, and — for the replay — at batch windows 1, 21 and 64 (64 fills the
// whole source mask). A change to the traversal may move one only on
// purpose.

std::string Hex(uint64_t digest) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

GraphPtr GoldenRmat() {
  static GraphPtr graph = [] {
    RmatOptions options;
    options.scale = 12;
    options.avg_degree = 16;
    options.symmetrize = true;
    options.seed = 25;
    return GenerateRmat(options).value();
  }();
  return graph;
}

/// Vertices with at least one edge, ascending: sources that traverse.
std::vector<VertexId> ActiveVertices(const Graph& graph) {
  std::vector<VertexId> active;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    if (graph.OutDegree(v) > 0) active.push_back(v);
  }
  return active;
}

/// The golden graph in memory, or paged from a delta block file with an
/// LRU budget of 1/8 of its decoded adjacency; the file is deleted with
/// the fixture.
class GoldenBackends {
 public:
  GoldenBackends()
      : path_("/tmp/flash_serving_golden_" + std::to_string(::getpid()) +
              ".fblk") {
    BlockFileOptions options;
    options.block_payload_bytes = 4 << 10;
    const Status st = SaveBlockFile(*GoldenRmat(), path_, options);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  ~GoldenBackends() { std::remove(path_.c_str()); }

  GraphPtr Open(bool paged) const {
    if (!paged) return GoldenRmat();
    PagedOptions options;
    options.cache_bytes = GoldenRmat()->NumEdges() * 2 * sizeof(VertexId) / 8;
    return OpenPagedGraph(path_, options).value();
  }

 private:
  std::string path_;
};

uint64_t MsBfsDigest(const GraphPtr& graph, size_t width, int host_threads) {
  const std::vector<VertexId> active = ActiveVertices(*graph);
  std::vector<VertexId> sources;
  for (size_t i = 0; i < width; ++i) {
    sources.push_back(active[(i * 97 + 5) % active.size()]);
  }
  const algo::MsBfsResult result =
      algo::RunMultiSourceBfs(graph, sources, Runtime(host_threads));
  uint64_t h = Fnv1a64(result.distance_sum.data(),
                       result.distance_sum.size() * sizeof(uint32_t));
  h = Fnv1a64(result.harmonic.data(), result.harmonic.size() * sizeof(double),
              h);
  return Fnv1a64(&result.rounds, sizeof(result.rounds), h);
}

/// Submits a fixed 48-query bfs/khop/landmark log as one burst through a
/// server with `batch_window` and 64 landmarks; digests the answer values
/// in query-id order.
uint64_t ReplayDigest(const GraphPtr& graph, int batch_window,
                      int host_threads) {
  const std::vector<VertexId> active = ActiveVertices(*graph);
  std::vector<Query> queries;
  for (size_t i = 0; i < 48; ++i) {
    Query q;
    q.kind = static_cast<QueryKind>(i % 3);
    q.source = active[(i * 37 + 1) % active.size()];
    q.target = active[(i * 53 + 11) % active.size()];
    if (i % 16 == 5) q.target = q.source;
    q.k = 1 + static_cast<uint32_t>(i % 4);
    queries.push_back(q);
  }
  ServerOptions options = BurstOptions(queries, batch_window);
  options.num_landmarks = 64;
  Server server(graph, Runtime(host_threads), options);
  const std::vector<double> values = Replay(server, queries);
  for (const double v : values) EXPECT_FALSE(std::isnan(v));
  return Fnv1a64(values.data(), values.size() * sizeof(double));
}

TEST(MsBfsGolden, DistanceSumsAndHarmonicArePinned) {
  const GoldenBackends backends;
  const std::pair<size_t, uint64_t> cases[] = {{1, 0xcc12a2462c459a13},
                                               {21, 0x88807c479993d566},
                                               {64, 0x9b6aafe6f6379b5a}};
  for (bool paged : {false, true}) {
    for (int host_threads : {1, 4}) {
      for (const auto& [width, digest] : cases) {
        EXPECT_EQ(Hex(MsBfsDigest(backends.Open(paged), width, host_threads)),
                  Hex(digest))
            << "width " << width << (paged ? " paged" : " mem")
            << " host_threads " << host_threads;
      }
    }
  }
}

TEST(MsBfsGolden, ServeReplayAnswersArePinned) {
  const GoldenBackends backends;
  const uint64_t digest = 0x5757c9fcd0a2f70c;
  for (bool paged : {false, true}) {
    for (int host_threads : {1, 4}) {
      for (int batch_window : {1, 21, 64}) {
        EXPECT_EQ(Hex(ReplayDigest(backends.Open(paged), batch_window,
                                   host_threads)),
                  Hex(digest))
            << "batch_window " << batch_window << (paged ? " paged" : " mem")
            << " host_threads " << host_threads;
      }
    }
  }
}

// --- ServingFusion ----------------------------------------------------------
//
// bfs-distance, k-hop and landmark queries share one scheduler queue and one
// multi-source pass, each query riding its source's frontier bit under its
// own stop rule. The batch_window=1 server (one source per pass) is the
// oracle throughout.

/// `count` queries cycling bfs / k-hop / landmark over `distinct` sources;
/// targets span the whole graph, so some are unreachable and bfs riders
/// keep the pass running past every k.
std::vector<Query> TraversalBurst(const GraphPtr& graph, size_t count,
                                  size_t distinct) {
  const std::vector<VertexId> active = ActiveVertices(*graph);
  const VertexId n = graph->NumVertices();
  std::vector<Query> queries;
  for (size_t i = 0; i < count; ++i) {
    Query q;
    q.kind = static_cast<QueryKind>(i % 3);
    q.tenant = i % 4 == 0 ? "analytics" : "app";
    q.source = active[((i % distinct) * 31 + 7) % active.size()];
    q.target = static_cast<VertexId>((i * 53 + 11) % n);
    if (i % 16 == 5) q.target = q.source;
    q.k = static_cast<uint32_t>(i % 4);
    queries.push_back(q);
  }
  return queries;
}

void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& oracle, const std::string& what) {
  ASSERT_EQ(got.size(), oracle.size()) << what;
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(got[i], oracle[i]) << what << " query " << i;
    EXPECT_FALSE(std::isnan(got[i])) << what << " query " << i;
  }
}

TEST(ServingFusion, MixedBurstRunsOnePassAndMatchesOracle) {
  const GoldenBackends backends;
  const std::vector<Query> queries = TraversalBurst(GoldenRmat(), 60, 20);
  const std::vector<double> oracle =
      RunValues(GoldenRmat(), queries, /*batch_window=*/1, /*host_threads=*/1);
  for (bool paged : {false, true}) {
    for (int host_threads : {1, 4}) {
      Server server(backends.Open(paged), Runtime(host_threads),
                    BurstOptions(queries, 64));
      const std::string what = std::string(paged ? "paged" : "mem") +
                               " host_threads " +
                               std::to_string(host_threads);
      ExpectSameBits(Replay(server, queries), oracle, what);
      // 20 sources and 8 landmarks fit one 64-bit mask: one batch, one
      // pass, which also builds the landmark table.
      EXPECT_EQ(server.stats().batches, 1u) << what;
      EXPECT_EQ(server.stats().engine_passes, 1u) << what;
      ExpectConserved(server.stats());
    }
  }
}

TEST(ServingFusion, CutsNeverNeedMoreThanSixtyFourBits) {
  // Scheduler alone: 65 distinct sources queued without a cut in between.
  // The cut takes the longest prefix that fits 64 bits — a repeat of an
  // earlier source and a landmark query ride free — and leaves the rest.
  SchedulerOptions options;
  Scheduler scheduler(options);
  uint64_t id = 0;
  const auto enqueue = [&](QueryKind kind, VertexId source) {
    PendingQuery p;
    p.query.kind = kind;
    p.query.source = source;
    p.id = id++;
    ASSERT_TRUE(scheduler.Enqueue(p).ok());
  };
  for (VertexId s = 0; s < 64; ++s) {
    enqueue(s % 2 == 0 ? QueryKind::kBfsDistance : QueryKind::kKHop, s);
  }
  enqueue(QueryKind::kBfsDistance, 3);
  enqueue(QueryKind::kLandmark, 900);
  enqueue(QueryKind::kKHop, 64);
  enqueue(QueryKind::kBfsDistance, 5);
  const Batch first = scheduler.CutDue(0.0);
  EXPECT_EQ(first.queue, QueueClass::kTraversal);
  EXPECT_EQ(first.queries.size(), 66u);
  EXPECT_EQ(scheduler.PendingCount(), 2u);
  EXPECT_TRUE(scheduler.CutDue(0.0).queries.empty());  // Two bits: not full.
  const Batch second = scheduler.CutDue(options.max_batch_wait_s);
  ASSERT_EQ(second.queries.size(), 2u);
  EXPECT_EQ(second.queries[0].query.source, 64u);

  // Through the server: a 65-source burst cuts into batches of at most 64
  // distinct bfs / k-hop sources each, and still answers like the oracle.
  const std::vector<Query> queries = TraversalBurst(GoldenRmat(), 130, 65);
  Server server(GoldenRmat(), Runtime(4), BurstOptions(queries, 64));
  ExpectSameBits(Replay(server, queries),
                 RunValues(GoldenRmat(), queries, 1, 1), "65 sources");
  const ServingStats& stats = server.stats();
  ASSERT_GE(stats.batches, 2u);
  size_t a = 0;
  for (const BatchStat& b : stats.batch_log) {
    std::set<VertexId> bits;
    for (int k = 0; k < b.width; ++k, ++a) {
      const Query& q = queries[server.answers()[a].query_id];
      if (q.kind != QueryKind::kLandmark) bits.insert(q.source);
    }
    EXPECT_LE(bits.size(), 64u) << "batch cut at " << b.cut_s;
  }
  EXPECT_EQ(a, queries.size());
}

TEST(ServingFusion, SixtyFourLandmarksBesideBfsRidersMatchOracle) {
  // 64 landmarks cannot share a mask with the batch's sources, so the
  // landmark table is built first, in a pass of its own.
  const GoldenBackends backends;
  const std::vector<Query> queries = TraversalBurst(GoldenRmat(), 45, 12);
  ServerOptions oracle_options = BurstOptions(queries, 1);
  oracle_options.num_landmarks = 64;
  Server oracle_server(GoldenRmat(), Runtime(1), oracle_options);
  const std::vector<double> oracle = Replay(oracle_server, queries);
  for (bool paged : {false, true}) {
    ServerOptions options = BurstOptions(queries, 64);
    options.num_landmarks = 64;
    Server server(backends.Open(paged), Runtime(4), options);
    ExpectSameBits(Replay(server, queries), oracle,
                   paged ? "paged" : "mem");
    EXPECT_EQ(server.stats().batches, 1u);
    EXPECT_EQ(server.stats().engine_passes, 2u);
  }
}

TEST(ServingFusion, WithinBatchRepeatsRideOnceAsCacheHits) {
  GraphPtr graph = testing::TestGraphs()[6].second;  // er_medium
  std::vector<Query> queries;
  for (QueryKind kind : {QueryKind::kBfsDistance, QueryKind::kLandmark}) {
    for (int copy = 0; copy < 3; ++copy) {
      Query q;
      q.kind = kind;
      q.source = 2;
      q.target = 17;
      queries.push_back(q);
    }
  }
  Server server(graph, Runtime(1), BurstOptions(queries, 64));
  const std::vector<double> values = Replay(server, queries);
  // One miss per distinct (kind, source, target); the copies take its
  // answer and count as hits.
  EXPECT_EQ(server.stats().batches, 1u);
  EXPECT_EQ(server.stats().cache_misses, 2u);
  EXPECT_EQ(server.stats().cache_hits, 4u);
  for (size_t i : {1, 2}) EXPECT_EQ(values[i], values[0]);
  for (size_t i : {4, 5}) EXPECT_EQ(values[i], values[3]);
  ExpectSameBits(values, RunValues(graph, queries, 1, 1), "repeats");
}

}  // namespace
}  // namespace flash::serving
