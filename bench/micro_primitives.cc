// Micro-benchmarks (google-benchmark) for the FLASH primitives: VERTEXMAP,
// EDGEMAPDENSE, EDGEMAPSPARSE, the adaptive dispatch, subset algebra, the
// mirror-sync barrier, the host pool's fork-join round trip, the
// serialisation layer and the paged block decoder. Throughputs here feed
// the cost-model calibration sanity checks.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/harness/block_decode.h"
#include "bench/harness/harness.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "core/api.h"
#include "graph/generators.h"

namespace flash {
namespace {

struct MicroData {
  uint32_t value = 0;
  FLASH_FIELDS(value)
};

GraphPtr BenchGraph() {
  static GraphPtr graph = [] {
    RmatOptions options;
    options.scale = 14;
    options.avg_degree = 12;
    options.seed = 9;
    return GenerateRmat(options).value();
  }();
  return graph;
}

RuntimeOptions Workers(int64_t n) {
  RuntimeOptions options;
  options.num_workers = static_cast<int>(n);
  options.record_steps = false;
  return options;
}

void BM_VertexMap(benchmark::State& state) {
  GraphApi<MicroData> fl(BenchGraph(), Workers(state.range(0)));
  for (auto _ : state) {
    auto out = fl.VertexMap(fl.V(), CTrue,
                            [](MicroData& v, VertexId id) { v.value = id; });
    benchmark::DoNotOptimize(out.TotalSize());
  }
  state.SetItemsProcessed(state.iterations() * fl.NumVertices());
}
BENCHMARK(BM_VertexMap)->Arg(1)->Arg(4)->Arg(16);

void BM_EdgeMapDense(benchmark::State& state) {
  GraphApi<MicroData> fl(BenchGraph(), Workers(state.range(0)));
  for (auto _ : state) {
    auto out = fl.EdgeMapDense(
        fl.V(), fl.E(), CTrue,
        [](const MicroData& s, MicroData& d) { d.value += s.value; }, CTrue);
    benchmark::DoNotOptimize(out.TotalSize());
  }
  state.SetItemsProcessed(state.iterations() * fl.NumEdges());
}
BENCHMARK(BM_EdgeMapDense)->Arg(1)->Arg(4);

void BM_EdgeMapSparse(benchmark::State& state) {
  GraphApi<MicroData> fl(BenchGraph(), Workers(state.range(0)));
  // A realistically sparse frontier: every 64th vertex.
  VertexSubset frontier = fl.VertexMap(
      fl.V(), [](const MicroData&, VertexId id) { return id % 64 == 0; });
  for (auto _ : state) {
    auto out = fl.EdgeMapSparse(
        frontier, fl.E(), CTrue,
        [](const MicroData& s, MicroData& d) { d.value += s.value; }, CTrue,
        [](const MicroData& t, MicroData& d) { d.value += t.value; });
    benchmark::DoNotOptimize(out.TotalSize());
  }
  state.SetItemsProcessed(state.iterations() * frontier.TotalSize());
}
BENCHMARK(BM_EdgeMapSparse)->Arg(1)->Arg(4);

void BM_AdaptiveEdgeMap(benchmark::State& state) {
  GraphApi<MicroData> fl(BenchGraph(), Workers(4));
  for (auto _ : state) {
    auto out = fl.EdgeMap(
        fl.V(), fl.E(), CTrue,
        [](const MicroData& s, MicroData& d) { d.value += s.value; }, CTrue,
        [](const MicroData& t, MicroData& d) { d.value += t.value; });
    benchmark::DoNotOptimize(out.TotalSize());
  }
  state.SetItemsProcessed(state.iterations() * fl.NumEdges());
}
BENCHMARK(BM_AdaptiveEdgeMap);

void BM_SubsetUnion(benchmark::State& state) {
  GraphApi<MicroData> fl(BenchGraph(), Workers(4));
  VertexSubset even = fl.VertexMap(
      fl.V(), [](const MicroData&, VertexId id) { return id % 2 == 0; });
  VertexSubset third = fl.VertexMap(
      fl.V(), [](const MicroData&, VertexId id) { return id % 3 == 0; });
  for (auto _ : state) {
    auto u = fl.Union(even, third);
    benchmark::DoNotOptimize(u.TotalSize());
  }
  state.SetItemsProcessed(state.iterations() * fl.NumVertices());
}
BENCHMARK(BM_SubsetUnion);

void BM_DenseBitmap(benchmark::State& state) {
  GraphApi<MicroData> fl(BenchGraph(), Workers(4));
  for (auto _ : state) {
    VertexSubset even = fl.VertexMap(
        fl.V(), [](const MicroData&, VertexId id) { return id % 2 == 0; });
    benchmark::DoNotOptimize(even.EnsureDense(fl.NumVertices()).Count());
  }
}
BENCHMARK(BM_DenseBitmap);

void BM_Reduce(benchmark::State& state) {
  GraphApi<MicroData> fl(BenchGraph(), Workers(4));
  fl.VertexMap(fl.V(), CTrue, [](MicroData& v, VertexId id) { v.value = id; });
  for (auto _ : state) {
    uint64_t sum = fl.Reduce<uint64_t>(
        fl.V(), 0, [](const MicroData& v, VertexId) { return v.value; },
        [](uint64_t a, uint64_t b) { return a + b; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * fl.NumVertices());
}
BENCHMARK(BM_Reduce);

/// One empty fork-join round trip of the host pool: 16 no-op tasks at 4
/// threads, the fixed cost every BSP phase pays before any work.
void BM_PoolDispatch(benchmark::State& state) {
  ThreadPool pool(4);
  for (auto _ : state) {
    pool.ParallelForWorkers(16, [](int i) { benchmark::DoNotOptimize(i); });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolDispatch)->UseRealTime();

struct WideData {
  uint32_t a = 1;
  double b = 2;
  uint64_t c = 3;
  std::vector<uint32_t> list{1, 2, 3, 4, 5, 6, 7, 8};
  FLASH_FIELDS(a, b, c, list)
};

void BM_FieldSerialization(benchmark::State& state) {
  using Wide = WideData;
  Wide value;
  for (auto _ : state) {
    BufferWriter writer;
    for (int i = 0; i < 1024; ++i) {
      SerializeFields(value, AllFieldsMask<Wide>(), writer);
    }
    benchmark::DoNotOptimize(writer.size());
  }
  state.SetBytesProcessed(state.iterations() * 1024 *
                          static_cast<int64_t>(FieldsByteSize(
                              value, AllFieldsMask<Wide>())));
}
BENCHMARK(BM_FieldSerialization);

/// Every block of a scale-16 RMAT block file, decoded from memory: Arg(1)
/// is the block decoder's own pass (DecodeBlockIds: the kernel this CPU
/// selects, the checksum fused into it), Arg(0) the scalar loop after a
/// separate checksum pass.
/// `fast_loop` says whether the selected kernel is the BMI2 fast loop.
void BM_BlockDecode(benchmark::State& state) {
  bench::BlockDecodeCorpus& corpus = bench::RmatDecodeCorpus();
  const bool selected = state.range(0) != 0;
  double ns = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const bool ok = corpus.DecodeAll(selected);
    ns += std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - t0)
              .count();
    if (!ok) {
      state.SkipWithError("a block failed to decode");
      break;
    }
  }
  const double edges = static_cast<double>(corpus.edges());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.edges()));
  state.counters["ns_per_edge"] =
      ns / (static_cast<double>(state.iterations()) * edges);
  state.counters["fast_loop"] = selected && FastVarintLoopSelected() ? 1 : 0;
}
BENCHMARK(BM_BlockDecode)->Arg(0)->Arg(1);

/// Console output plus the shared flash-bench-v1 artifact: every benchmark
/// run lands in out/BENCH_micro_primitives.json like the macro benches, so
/// tools/collect_bench.py aggregates the micro numbers too.
class ReportingConsole : public benchmark::ConsoleReporter {
 public:
  explicit ReportingConsole(bench::BenchReport* report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      std::map<std::string, double> metrics;
      metrics["real_time_ns"] = run.GetAdjustedRealTime();
      metrics["cpu_time_ns"] = run.GetAdjustedCPUTime();
      metrics["iterations"] = static_cast<double>(run.iterations);
      for (const auto& [counter_name, counter] : run.counters) {
        metrics[counter_name] = counter.value;
      }
      report_->Add("rmat-s14", {{"benchmark", run.benchmark_name()}},
                   std::move(metrics));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::BenchReport* report_;
};

}  // namespace
}  // namespace flash

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  flash::bench::BenchReport report("micro_primitives");
  flash::ReportingConsole reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  report.Write();
  benchmark::Shutdown();
  return 0;
}
