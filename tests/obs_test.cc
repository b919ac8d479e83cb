// Tests for the obs/ observability subsystem: span tracer semantics, the
// deterministic fold order, the metric registry's exact-integer mapping,
// and the Chrome-trace / Prometheus / timeline exporters.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/algorithms.h"
#include "graph/generators.h"
#include "obs/exporters.h"
#include "obs/registry.h"
#include "obs/tracer.h"
#include "tests/test_util.h"
#include "walks/walk_engine.h"

namespace flash {
namespace {

GraphPtr TestGraph() {
  RmatOptions gen;
  gen.scale = 10;
  auto graph = GenerateRmat(gen);
  EXPECT_TRUE(graph.ok());
  return graph.value();
}

RuntimeOptions TracedOptions(int workers, int threads, int host_threads = 0) {
  RuntimeOptions options;
  options.num_workers = workers;
  options.threads_per_worker = threads;
  options.host_threads = host_threads;
  options.trace = true;
  options.tracer = std::make_shared<obs::Tracer>();
  return options;
}

/// The deterministic identity of a span — everything except wall-clock
/// timestamps, which legitimately vary run to run.
struct SpanKey {
  std::string name;
  obs::SpanKind kind;
  int worker;
  int shard;
  uint64_t superstep;
  uint32_t seq;
  uint64_t arg0;
  uint64_t arg1;

  bool operator==(const SpanKey&) const = default;
};

std::vector<SpanKey> Keys(const obs::Tracer& tracer) {
  std::vector<SpanKey> keys;
  for (const obs::Span& s : tracer.spans()) {
    keys.push_back({s.name, s.kind, s.worker, s.shard, s.superstep, s.seq,
                    s.arg0, s.arg1});
  }
  return keys;
}

TEST(TracerTest, SpanAndInstantRoundTrip) {
  obs::Tracer tracer;
  tracer.SetSuperstep(7);
  tracer.BeginPhase();
  {
    OBS_SPAN_VAR(outer, &tracer, "outer", obs::SpanKind::kPhase);
    {
      OBS_SPAN_VAR(inner, &tracer, "inner", obs::SpanKind::kTask, 2, 1);
      inner.args(11, 22);
    }
    OBS_INSTANT(&tracer, "bang", obs::SpanKind::kInstant, 3, 0, 5, 1);
    outer.args(1, 2);
  }
  tracer.Fold();
  ASSERT_EQ(tracer.spans().size(), 3u);
  ASSERT_EQ(tracer.dropped(), 0u);

  std::map<std::string, obs::Span> by_name;
  for (const obs::Span& s : tracer.spans()) by_name[s.name] = s;
  ASSERT_TRUE(by_name.count("outer") && by_name.count("inner") &&
              by_name.count("bang"));

  const obs::Span& outer = by_name["outer"];
  const obs::Span& inner = by_name["inner"];
  const obs::Span& bang = by_name["bang"];
  EXPECT_EQ(outer.kind, obs::SpanKind::kPhase);
  EXPECT_EQ(outer.worker, obs::kHostLane);
  EXPECT_EQ(outer.superstep, 7u);
  EXPECT_EQ(outer.arg0, 1u);
  EXPECT_EQ(outer.arg1, 2u);
  EXPECT_EQ(inner.worker, 2);
  EXPECT_EQ(inner.shard, 1);
  EXPECT_EQ(inner.arg0, 11u);
  EXPECT_EQ(inner.arg1, 22u);
  EXPECT_EQ(bang.begin_ns, bang.end_ns);  // Instant.
  // Nesting: outer brackets inner on the clock.
  EXPECT_LE(outer.begin_ns, inner.begin_ns);
  EXPECT_LE(inner.end_ns, outer.end_ns);
  EXPECT_LE(inner.begin_ns, inner.end_ns);

  // A null tracer records nothing and must not crash. (The lambda keeps the
  // null out of the compiler's sight so -Wnonnull stays quiet about the
  // guarded ->Instant call inside the macro.)
  obs::Tracer* none = [] { return static_cast<obs::Tracer*>(nullptr); }();
  OBS_SPAN(none, "void", obs::SpanKind::kPhase);
  OBS_INSTANT(none, "void", obs::SpanKind::kInstant, 0, 0);
}

TEST(TracerTest, EngineTraceCoversEverySuperstepAndWorker) {
  GraphPtr graph = TestGraph();
  RuntimeOptions options = TracedOptions(4, 2);
  auto r = algo::RunBfs(graph, 0, options);
  options.tracer->Fold();
  const auto& spans = options.tracer->spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(options.tracer->dropped(), 0u);

  uint64_t superstep_spans = 0;
  std::vector<bool> worker_seen(4, false);
  for (const obs::Span& s : spans) {
    EXPECT_LE(s.begin_ns, s.end_ns);
    if (s.kind == obs::SpanKind::kSuperstep) {
      ++superstep_spans;
      EXPECT_EQ(s.worker, obs::kHostLane);
    }
    if (s.kind == obs::SpanKind::kTask && s.worker >= 0) {
      worker_seen[s.worker] = true;
    }
  }
  // One superstep span per recorded step sample, numbered consistently.
  EXPECT_EQ(superstep_spans, r.metrics.supersteps);
  for (int w = 0; w < 4; ++w) {
    EXPECT_TRUE(worker_seen[w]) << "no task span on worker " << w;
  }
}

TEST(TracerTest, FoldOrderIdenticalAcrossHostThreadCounts) {
  GraphPtr graph = TestGraph();
  std::vector<std::vector<SpanKey>> sequences;
  for (int host_threads : {1, 4, 8}) {
    RuntimeOptions options = TracedOptions(4, 2, host_threads);
    algo::RunPageRank(graph, 3, options);
    options.tracer->Fold();
    sequences.push_back(Keys(*options.tracer));
  }
  ASSERT_FALSE(sequences[0].empty());
  EXPECT_EQ(sequences[0], sequences[1]);
  EXPECT_EQ(sequences[0], sequences[2]);
}

TEST(TracerTest, DisabledTraceLeavesCountersIdentical) {
  GraphPtr graph = TestGraph();
  RuntimeOptions off;
  off.num_workers = 4;
  auto plain = algo::RunBfs(graph, 0, off);
  RuntimeOptions on = TracedOptions(4, 1);
  auto traced = algo::RunBfs(graph, 0, on);
  EXPECT_EQ(plain.metrics.supersteps, traced.metrics.supersteps);
  EXPECT_EQ(plain.metrics.edges_scanned, traced.metrics.edges_scanned);
  EXPECT_EQ(plain.metrics.vertices_updated, traced.metrics.vertices_updated);
  EXPECT_EQ(plain.metrics.messages, traced.metrics.messages);
  EXPECT_EQ(plain.metrics.bytes, traced.metrics.bytes);
  EXPECT_EQ(plain.distance, traced.distance);
}

TEST(TracerTest, FaultyTraceRecordsCheckpointAndRecoverySpans) {
  GraphPtr graph = TestGraph();
  RuntimeOptions options = TracedOptions(4, 1);
  options.fault_plan.msg_drop_rate = 0.05;
  options.fault_plan.checkpoint_interval = 2;
  options.fault_plan.worker_crash_schedule = {{3, 1}};
  auto r = algo::RunBfs(graph, 0, options);
  EXPECT_GT(r.metrics.fault.restores, 0u);
  options.tracer->Fold();
  std::map<std::string, int> names;
  for (const obs::Span& s : options.tracer->spans()) ++names[s.name];
  EXPECT_GT(names["ckpt:snapshot"], 0);
  EXPECT_GT(names["ckpt:encode"], 0);
  EXPECT_GT(names["ckpt:seal"], 0);
  EXPECT_GT(names["recover:restore"], 0);
  EXPECT_GT(names["recover:replay"], 0);
  EXPECT_GT(names["fault:drop"], 0);
  EXPECT_GT(names["fault:retry"], 0);
}

TEST(RegistryTest, ExactIntegerCountersMatchLegacyMetrics) {
  Metrics metrics;
  metrics.supersteps = 42;
  // Above 2^53: silently routing this through a double would corrupt it.
  metrics.edges_scanned = (uint64_t{1} << 53) + 1;
  metrics.vertices_updated = 12345;
  metrics.messages = 77;
  metrics.bytes = 8888;
  metrics.dense_steps = 30;
  metrics.sparse_steps = 12;
  metrics.fault.drops = 9;
  metrics.fault.checkpoints = 3;
  metrics.fault.checkpoint_bytes = 4096;
  StepSample sample;
  sample.kind = StepKind::kEdgeMapSparse;
  sample.bytes_total = 100;
  sample.comp_max = 0.25;
  metrics.steps.push_back(sample);

  RuntimeOptions options;
  options.num_workers = 4;
  obs::Registry registry = obs::BuildRegistry(metrics, &options);

  const obs::Metric* edges = registry.Find("flash_edges_scanned_total");
  ASSERT_NE(edges, nullptr);
  EXPECT_TRUE(edges->integral);
  EXPECT_EQ(edges->ivalue, (uint64_t{1} << 53) + 1);
  EXPECT_EQ(registry.Find("flash_supersteps_total")->ivalue, 42u);
  EXPECT_EQ(registry.Find("flash_steps_dense_total")->ivalue, 30u);
  EXPECT_EQ(registry.Find("flash_steps_sparse_total")->ivalue, 12u);
  EXPECT_EQ(registry.Find("flash_messages_total")->ivalue, 77u);
  EXPECT_EQ(registry.Find("flash_wire_bytes_total")->ivalue, 8888u);
  EXPECT_EQ(registry.Find("flash_fault_drops_total")->ivalue, 9u);
  EXPECT_EQ(registry.Find("flash_checkpoints_total")->ivalue, 3u);
  EXPECT_EQ(registry.Find("flash_checkpoint_bytes_total")->ivalue, 4096u);
  EXPECT_DOUBLE_EQ(registry.Find("flash_workers")->dvalue, 4.0);

  std::ostringstream prom;
  obs::WritePrometheus(prom, registry);
  const std::string text = prom.str();
  // The >2^53 counter must print as an exact decimal integer.
  EXPECT_NE(text.find("flash_edges_scanned_total 9007199254740993\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE flash_edges_scanned_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("flash_step_bytes_bucket"), std::string::npos);
  EXPECT_NE(text.find("+Inf"), std::string::npos);
}

// Tiny structural JSON check: quotes balanced outside strings, braces and
// brackets balanced and properly nested. Catches the classic exporter bugs
// (trailing commas are legal JSON killers but unbalanced nesting is what a
// hand-rolled writer actually produces when broken).
bool BalancedJson(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      stack.push_back(c);
    } else if (c == '}' || c == ']') {
      if (stack.empty()) return false;
      if (c == '}' && stack.back() != '{') return false;
      if (c == ']' && stack.back() != '[') return false;
      stack.pop_back();
    }
  }
  return !in_string && stack.empty();
}

TEST(ExporterTest, ChromeTraceParsesAndIsSortedPerLane) {
  GraphPtr graph = TestGraph();
  RuntimeOptions options = TracedOptions(4, 2);
  algo::RunBfs(graph, 0, options);
  options.tracer->Fold();

  std::ostringstream out;
  obs::WriteChromeTrace(out, *options.tracer);
  const std::string json = out.str();
  ASSERT_TRUE(BalancedJson(json)) << "unbalanced trace JSON";
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"worker 3\""), std::string::npos);

  // Walk the events: "ts" must be non-decreasing within each "tid" lane for
  // duration events, which is what keeps Perfetto's per-lane nesting sane.
  std::map<long long, double> last_ts;
  size_t pos = 0;
  size_t events = 0;
  while ((pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos) {
    size_t tid_pos = json.find("\"tid\":", pos);
    size_t ts_pos = json.find("\"ts\":", pos);
    ASSERT_NE(tid_pos, std::string::npos);
    ASSERT_NE(ts_pos, std::string::npos);
    long long tid = std::atoll(json.c_str() + tid_pos + 6);
    double ts = std::atof(json.c_str() + ts_pos + 5);
    auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_LE(it->second, ts) << "lane " << tid << " not sorted";
    }
    last_ts[tid] = ts;
    ++events;
    pos += 1;
  }
  EXPECT_GT(events, 0u);
}

TEST(ExporterTest, TimelineTsvJoinsStepSamples) {
  GraphPtr graph = TestGraph();
  RuntimeOptions options = TracedOptions(4, 1);
  auto r = algo::RunBfs(graph, 0, options);
  options.tracer->Fold();

  std::ostringstream out;
  obs::WriteTimelineTsv(out, r.metrics, options.tracer.get());
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.find("step\tkind"), 0u);
  size_t rows = 0;
  size_t rows_with_wall = 0;
  while (std::getline(lines, line)) {
    ++rows;
    if (line.find("\t\t") == std::string::npos) ++rows_with_wall;
  }
  EXPECT_EQ(rows, r.metrics.steps.size());
  EXPECT_GT(rows_with_wall, 0u);
}

TEST(ExporterTest, TimelineTsvNamesWalkSteps) {
  RuntimeOptions options = TracedOptions(2, 1);
  options.num_walkers = 100;
  options.walk_length = 3;
  const walks::WalkResult r =
      walks::WalkEngine(TestGraph(), options).Run(walks::WalkSpec{});
  ASSERT_FALSE(r.metrics.steps.empty());

  std::ostringstream out;
  obs::WriteTimelineTsv(out, r.metrics, r.tracer.get());
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  size_t rows = 0;
  while (std::getline(lines, line)) {
    ++rows;
    const size_t begin = line.find('\t') + 1;
    EXPECT_EQ(line.substr(begin, line.find('\t', begin) - begin), "walk")
        << line;
  }
  EXPECT_EQ(rows, r.metrics.steps.size());
}

// Each priced task reads the clock once: the compute seconds a superstep or
// async round folds for a worker are exactly the summed durations of that
// worker's priced task spans, since both come from the same two readings.
// Unpriced phases (commit, mirror apply, syncs) add to neither.
void ExpectComputeSecondsAreTaskSpans(const Metrics& metrics,
                                      const obs::Tracer& tracer) {
  const std::set<std::string> priced = {
      "dense:scan",    "dense:merge",  "sparse:push",  "sparse:flush",
      "sparse:scan",   "sparse:decode", "sparse:apply", "vmap:filter",
      "vmap:merge",    "async:drain",  "async:apply"};
  // Every step sample is closed by its superstep or async-round span, the
  // last span of the fold that ends it; group the task spans by that.
  std::map<int, uint64_t> worker_ns;
  size_t step = 0;
  size_t priced_steps = 0;
  for (const obs::Span& span : tracer.spans()) {
    if (span.kind == obs::SpanKind::kTask && priced.count(span.name) > 0) {
      worker_ns[span.worker] += span.end_ns - span.begin_ns;
      continue;
    }
    if (span.kind != obs::SpanKind::kSuperstep &&
        span.kind != obs::SpanKind::kAsyncRound) {
      continue;
    }
    ASSERT_LT(step, metrics.steps.size());
    double max_s = 0;
    double total_s = 0;
    for (const auto& [worker, ns] : worker_ns) {
      max_s = std::max(max_s, ns * 1e-9);
      total_s += ns * 1e-9;
    }
    const StepSample& sample = metrics.steps[step];
    EXPECT_NEAR(sample.comp_max, max_s, 1e-12) << "step " << step;
    EXPECT_NEAR(sample.comp_total, total_s, 1e-12) << "step " << step;
    priced_steps += worker_ns.empty() ? 0 : 1;
    worker_ns.clear();
    ++step;
  }
  EXPECT_EQ(step, metrics.steps.size());
  EXPECT_GT(priced_steps, 0u);
}

TEST(TimeOnce, ComputeSecondsAreTheSumOfTaskSpans) {
  GraphPtr graph = TestGraph();
  for (int host_threads : {1, 4}) {
    SCOPED_TRACE(host_threads);
    {
      SCOPED_TRACE("pagerank");
      RuntimeOptions options = TracedOptions(4, 2, host_threads);
      auto r = algo::RunPageRank(graph, 3, options);
      EXPECT_GT(r.metrics.dense_steps, 0u);
      ExpectComputeSecondsAreTaskSpans(r.metrics, *options.tracer);
    }
    {
      SCOPED_TRACE("sssp push");
      RuntimeOptions options = TracedOptions(4, 2, host_threads);
      options.edgemap_mode = EdgeMapMode::kPush;
      auto r = algo::RunSssp(graph, 0, options);
      EXPECT_GT(r.metrics.sparse_steps, 0u);
      ExpectComputeSecondsAreTaskSpans(r.metrics, *options.tracer);
    }
    {
      SCOPED_TRACE("async bfs");
      RuntimeOptions options = TracedOptions(4, 1, host_threads);
      options.execution_mode = ExecutionMode::kAsync;
      auto r = algo::RunBfs(graph, 0, options);
      EXPECT_GT(r.metrics.async.rounds, 0u);
      ExpectComputeSecondsAreTaskSpans(r.metrics, *options.tracer);
    }
  }
}

}  // namespace
}  // namespace flash
