// flash_cli — run any algorithm of the FLASH library on a graph from an
// edge-list file, a named dataset twin, or a synthetic generator.
//
//   flash_cli <algorithm> [options]
//
//   graph source (one of):
//     --graph=FILE        whitespace edge list ("src dst [weight]")
//     --dataset=ABBR      OR | TW | US | EU | UK | SK (paper Table III twins)
//     --gen=KIND          rmat | grid | web | er        (default: rmat)
//   graph options:
//     --scale=F           dataset/generator size factor   (default 0.25)
//     --weighted          keep/attach edge weights
//     --directed          skip symmetrisation
//   storage tier (semi-external paged backend; docs/INTERNALS.md):
//     --storage=S         mem | paged                     (default mem)
//                         (paged spills the edge blocks to a temp block
//                         file of FLSHBLK2 varint-delta neighbor lists
//                         and reloads them through the LRU cache)
//     --block-kb=N        block payload target, KiB       (default 64)
//     --cache-mb=N        LRU block-cache budget, MiB     (default 64)
//                         (PagedOptions::cache_bytes, set when the
//                         block file is opened)
//   runtime options:
//     --workers=N         simulated workers               (default 4)
//     --threads=N         threads per worker              (default 1)
//     --mode=M            push | pull | adaptive          (default adaptive)
//     --partition=P       hash | chunk                    (default hash)
//     --exec=E            bsp | async                     (default bsp)
//                         (async backs bfs, sssp, cc, pprpush; other
//                         algorithms ignore it and run BSP)
//   algorithm options:
//     --root=V            source vertex (bfs, sssp, bc, ppr, diameter)
//     --iters=N           iterations (pagerank, lpa, hits, ppr) (default 10)
//     --k=K               k (kclique)                      (default 4)
//   fault injection:
//     --drop-rate=F       message-fragment drop probability in [0, 1)
//     --crash=W@S         crash worker W at superstep S (repeatable)
//     --ckpt-interval=N   supersteps between checkpoints (0 = auto)
//   serving (algorithm name "serve"; see docs/SERVING.md):
//     --serve-replay=FILE query log to replay (bfs|khop|landmark|ppr lines)
//     --serve-batch=N     distinct sources per traversal pass (default 64)
//     --serve-queue=N     admission bound (pending queries)   (default 4096)
//     --serve-wait-ms=F   max batch wait, modelled ms         (default 5)
//     --serve-qps=F       offered load; 0 = submit all at t=0 (default 0)
//     --serve-arrivals=A  poisson | fixed arrival clock    (default poisson)
//     --serve-seed=N      Poisson interarrival PRNG seed      (default 42)
//   random walks (algorithm name "walk"; docs/INTERNALS.md):
//     --walk-kind=K       deepwalk | node2vec | ppr     (default deepwalk)
//     --walkers=N         concurrent walkers              (default 100000)
//     --walk-length=N     steps per walker                    (default 10)
//     --p=F               node2vec return parameter          (default 1.0)
//     --q=F               node2vec in-out parameter          (default 1.0)
//     --alpha=F           ppr termination probability       (default 0.15)
//     --walk-seed=N       walk PRNG seed (traces are a pure function of
//                         it — bit-identical at any --threads) (default 42)
//   A bad runtime flag (worker or thread count, fault rate, crash worker,
//   crash plan outside BSP or on walks, --root past the last vertex) or
//   storage flag (--storage, --block-kb, --cache-mb) exits 2 with a
//   message; every one but --root exits before the graph loads. So does a
//   numeric flag whose whole value does not parse, or does not fit its
//   field (--workers=2x, --cache-mb=4294967297).
//   output:
//     --output=FILE       write per-vertex results, one per line
//     --metrics           print the run's superstep/communication metrics
//     --trace-out=FILE    record a span trace; write Chrome trace_event JSON
//                         (load in chrome://tracing or ui.perfetto.dev)
//     --metrics-out=FILE  write the metric registry as Prometheus text
//     --timeline-out=FILE write the per-superstep timeline TSV
//     --profile           record a span trace; print the 10 slowest spans
//
// Algorithms: bfs sssp ssspdelta cc ccopt harmonic bc betweenness mis mm mmopt kcore kcoreopt
//             tc gc scc bcc lpa msf rc kclique ktruss pagerank ppr
//             clustering hits msbfs diameter bipartite topo densest serve walk

#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <system_error>

#include <iostream>
#include <iterator>
#include <memory>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/logging.h"
#include "flashware/runtime.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "obs/exporters.h"
#include "obs/registry.h"
#include "obs/tracer.h"
#include "serving/arrivals.h"
#include "serving/server.h"
#include "walks/walk_algorithms.h"

namespace flash::cli {
namespace {

struct Args {
  std::string algorithm;
  std::string graph_file;
  std::string dataset;
  std::string generator = "rmat";
  double scale = 0.25;
  bool weighted = false;
  bool directed = false;
  std::string storage = "mem";
  int block_kb = 64;
  int cache_mb = 64;
  int workers = 4;
  int threads = 1;
  std::string mode = "adaptive";
  std::string partition = "hash";
  std::string exec = "bsp";
  VertexId root = 0;
  int iters = 10;
  int k = 4;
  std::string output;
  bool metrics = false;
  std::string trace_out;
  std::string metrics_out;
  std::string timeline_out;
  bool profile = false;
  double drop_rate = 0;
  int ckpt_interval = 0;
  std::vector<CrashEvent> crashes;
  std::string serve_replay;
  int serve_batch = 64;
  int serve_queue = 4096;
  double serve_wait_ms = 5.0;
  double serve_qps = 0;
  std::string serve_arrivals = "poisson";
  uint64_t serve_seed = 42;
  std::string walk_kind = "deepwalk";
  uint64_t walkers = 100000;
  int walk_length = 10;
  double p = 1.0;
  double q = 1.0;
  double alpha = 0.15;
  uint64_t walk_seed = 42;

  bool WantsTrace() const {
    return !trace_out.empty() || !timeline_out.empty() || profile;
  }
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <algorithm> [--graph=FILE | --dataset=ABBR | "
               "--gen=KIND] [--scale=F] [--workers=N] [--mode=M] [--exec=E] "
               "[--root=V] "
               "[--iters=N] [--k=K] [--weighted] [--directed] "
               "[--output=FILE] [--metrics] [--trace-out=FILE] "
               "[--metrics-out=FILE] [--timeline-out=FILE] [--profile] "
               "[--drop-rate=F] [--crash=W@S] [--ckpt-interval=N]\n(see the "
               "header of tools/flash_cli.cc for the full list)\n",
               argv0);
  return 2;
}

/// Parses all of `text` as the value of `flag` into `*out`: no trailing
/// characters, and a value in range for the field's type. Otherwise prints
/// a message naming the flag and returns false.
template <typename T>
bool ParseNumber(const char* flag, std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  if (ec == std::errc() && ptr == end) return true;
  std::fprintf(stderr, "%s: bad value '%.*s'\n", flag,
               static_cast<int>(text.size()), text.data());
  return false;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->algorithm = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    const char* v = nullptr;
    if ((v = value("--graph="))) {
      args->graph_file = v;
    } else if ((v = value("--dataset="))) {
      args->dataset = v;
    } else if ((v = value("--gen="))) {
      args->generator = v;
    } else if ((v = value("--scale="))) {
      if (!ParseNumber("--scale", v, &args->scale)) return false;
    } else if ((v = value("--storage="))) {
      args->storage = v;
    } else if ((v = value("--block-kb="))) {
      if (!ParseNumber("--block-kb", v, &args->block_kb)) return false;
    } else if ((v = value("--cache-mb="))) {
      if (!ParseNumber("--cache-mb", v, &args->cache_mb)) return false;
    } else if ((v = value("--workers="))) {
      if (!ParseNumber("--workers", v, &args->workers)) return false;
    } else if ((v = value("--threads="))) {
      if (!ParseNumber("--threads", v, &args->threads)) return false;
    } else if ((v = value("--mode="))) {
      args->mode = v;
    } else if ((v = value("--partition="))) {
      args->partition = v;
    } else if ((v = value("--exec="))) {
      args->exec = v;
    } else if ((v = value("--root="))) {
      if (!ParseNumber("--root", v, &args->root)) return false;
    } else if ((v = value("--iters="))) {
      if (!ParseNumber("--iters", v, &args->iters)) return false;
    } else if ((v = value("--k="))) {
      if (!ParseNumber("--k", v, &args->k)) return false;
    } else if ((v = value("--output="))) {
      args->output = v;
    } else if ((v = value("--trace-out="))) {
      args->trace_out = v;
    } else if ((v = value("--metrics-out="))) {
      args->metrics_out = v;
    } else if ((v = value("--timeline-out="))) {
      args->timeline_out = v;
    } else if ((v = value("--serve-replay="))) {
      args->serve_replay = v;
    } else if ((v = value("--serve-batch="))) {
      if (!ParseNumber("--serve-batch", v, &args->serve_batch)) return false;
    } else if ((v = value("--serve-queue="))) {
      if (!ParseNumber("--serve-queue", v, &args->serve_queue)) return false;
    } else if ((v = value("--serve-wait-ms="))) {
      if (!ParseNumber("--serve-wait-ms", v, &args->serve_wait_ms)) return false;
    } else if ((v = value("--serve-qps="))) {
      if (!ParseNumber("--serve-qps", v, &args->serve_qps)) return false;
    } else if ((v = value("--serve-arrivals="))) {
      args->serve_arrivals = v;
    } else if ((v = value("--serve-seed="))) {
      if (!ParseNumber("--serve-seed", v, &args->serve_seed)) return false;
    } else if ((v = value("--walk-kind="))) {
      args->walk_kind = v;
    } else if ((v = value("--walkers="))) {
      if (!ParseNumber("--walkers", v, &args->walkers)) return false;
    } else if ((v = value("--walk-length="))) {
      if (!ParseNumber("--walk-length", v, &args->walk_length)) return false;
    } else if ((v = value("--p="))) {
      if (!ParseNumber("--p", v, &args->p)) return false;
    } else if ((v = value("--q="))) {
      if (!ParseNumber("--q", v, &args->q)) return false;
    } else if ((v = value("--alpha="))) {
      if (!ParseNumber("--alpha", v, &args->alpha)) return false;
    } else if ((v = value("--walk-seed="))) {
      if (!ParseNumber("--walk-seed", v, &args->walk_seed)) return false;
    } else if ((v = value("--drop-rate="))) {
      if (!ParseNumber("--drop-rate", v, &args->drop_rate)) return false;
    } else if ((v = value("--ckpt-interval="))) {
      if (!ParseNumber("--ckpt-interval", v, &args->ckpt_interval)) return false;
    } else if ((v = value("--crash="))) {
      const char* at = std::strchr(v, '@');
      if (at == nullptr) {
        std::fprintf(stderr, "--crash wants WORKER@SUPERSTEP, got %s\n", v);
        return false;
      }
      CrashEvent e;
      if (!ParseNumber("--crash", std::string_view(v, at - v), &e.worker) ||
          !ParseNumber("--crash", at + 1, &e.superstep)) {
        return false;
      }
      args->crashes.push_back(e);
    } else if (arg == "--profile") {
      args->profile = true;
    } else if (arg == "--weighted") {
      args->weighted = true;
    } else if (arg == "--directed") {
      args->directed = true;
    } else if (arg == "--metrics") {
      args->metrics = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

Result<GraphPtr> LoadGraph(const Args& args) {
  if (!args.graph_file.empty()) {
    BuildOptions options;
    options.symmetrize = !args.directed;
    options.keep_weights = args.weighted;
    return LoadEdgeListFile(args.graph_file, options);
  }
  if (!args.dataset.empty()) {
    FLASH_ASSIGN_OR_RETURN(
        DatasetInfo info,
        MakeDataset(args.dataset, args.scale, args.weighted, args.directed));
    return info.graph;
  }
  if (args.generator == "rmat") {
    RmatOptions options;
    options.scale = std::max(8, static_cast<int>(14 + std::log2(args.scale)));
    options.symmetrize = !args.directed;
    options.weighted = args.weighted;
    return GenerateRmat(options);
  }
  if (args.generator == "grid") {
    GridOptions options;
    options.rows = static_cast<uint32_t>(400 * std::sqrt(args.scale) + 8);
    options.cols = static_cast<uint32_t>(100 * std::sqrt(args.scale) + 8);
    options.weighted = args.weighted;
    return GenerateGrid(options);
  }
  if (args.generator == "web") {
    WebGraphOptions options;
    options.num_vertices =
        std::max<uint32_t>(64, static_cast<uint32_t>(24000 * args.scale));
    options.symmetrize = !args.directed;
    options.weighted = args.weighted;
    return GenerateWebGraph(options);
  }
  if (args.generator == "er") {
    uint32_t n = std::max<uint32_t>(64, static_cast<uint32_t>(20000 * args.scale));
    return GenerateErdosRenyi(n, uint64_t{8} * n, !args.directed, 1,
                              args.weighted);
  }
  return Status::InvalidArgument("unknown generator: " + args.generator);
}

RuntimeOptions MakeRuntime(const Args& args) {
  RuntimeOptions options;
  options.num_workers = args.workers;
  options.threads_per_worker = args.threads;
  if (args.mode == "push") options.edgemap_mode = EdgeMapMode::kPush;
  if (args.mode == "pull") options.edgemap_mode = EdgeMapMode::kPull;
  if (args.partition == "chunk") options.partition = PartitionScheme::kChunk;
  if (args.exec == "async") options.execution_mode = ExecutionMode::kAsync;
  if (args.WantsTrace()) {
    options.trace = true;
    options.tracer = std::make_shared<obs::Tracer>();
  }
  options.num_walkers = args.walkers;
  options.walk_length = static_cast<uint32_t>(std::max(1, args.walk_length));
  options.node2vec_p = args.p;
  options.node2vec_q = args.q;
  options.fault_plan.msg_drop_rate = args.drop_rate;
  options.fault_plan.checkpoint_interval = args.ckpt_interval;
  options.fault_plan.worker_crash_schedule = args.crashes;
  return options;
}

/// Post-run exports: Chrome trace, Prometheus dump, timeline TSV, and the
/// --profile slowest-span report. `serving` (serve mode only) adds the
/// flash_serving_* counters to the Prometheus dump.
int ExportObservability(const Args& args, const RuntimeOptions& options,
                        const Metrics& metrics,
                        const serving::ServingStats* serving = nullptr) {
  obs::Tracer* tracer = options.tracer.get();
  if (tracer != nullptr) tracer->Fold();
  // MakeRuntime arms the tracer whenever a traced output is asked for.
  if (!args.trace_out.empty()) {
    Status s = obs::WriteChromeTraceFile(args.trace_out, *tracer);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", args.trace_out.c_str(),
                   s.ToString().c_str());
      return 1;
    }
    std::printf("chrome trace (%zu spans) written to %s\n",
                tracer->spans().size(), args.trace_out.c_str());
  }
  if (!args.metrics_out.empty()) {
    obs::Registry registry = obs::BuildRegistry(metrics, &options);
    if (serving != nullptr) serving->ExportTo(registry);
    Status s = obs::WritePrometheusFile(args.metrics_out, registry);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", args.metrics_out.c_str(),
                   s.ToString().c_str());
      return 1;
    }
    std::printf("prometheus metrics written to %s\n",
                args.metrics_out.c_str());
  }
  if (!args.timeline_out.empty()) {
    Status s = obs::WriteTimelineTsvFile(args.timeline_out, metrics, tracer);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", args.timeline_out.c_str(),
                   s.ToString().c_str());
      return 1;
    }
    std::printf("superstep timeline written to %s\n",
                args.timeline_out.c_str());
  }
  if (args.profile) obs::PrintSlowestSpans(std::cout, *tracer);
  return 0;
}

/// The "serve" mode: replay a query log through flash::serving::Server
/// (docs/SERVING.md). Submissions are stamped with an offered-load clock
/// (--serve-qps; 0 = one burst at t=0): by default a deterministic Poisson
/// process (counter-PRNG exponential interarrivals keyed --serve-seed), or
/// the evenly spaced legacy clock with --serve-arrivals=fixed. Latencies
/// and throughput are modelled cluster time, not wall time.
int RunServe(const Args& args, const GraphPtr& graph,
             const RuntimeOptions& options) {
  if (args.serve_replay.empty()) {
    std::fprintf(stderr, "serve needs --serve-replay=FILE (query log)\n");
    return 2;
  }
  std::ifstream in(args.serve_replay);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", args.serve_replay.c_str());
    return 1;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto queries_or = serving::ParseQueryLog(text);
  if (!queries_or.ok()) {
    std::fprintf(stderr, "bad query log: %s\n",
                 queries_or.status().ToString().c_str());
    return 1;
  }
  const std::vector<serving::Query> queries =
      std::move(queries_or).value();

  serving::ServerOptions server_options;
  server_options.scheduler.batch_window = args.serve_batch;
  server_options.scheduler.max_queue =
      static_cast<size_t>(std::max(1, args.serve_queue));
  server_options.scheduler.max_batch_wait_s = args.serve_wait_ms * 1e-3;
  server_options.cluster.nodes = options.num_workers;
  serving::Server server(graph, options, server_options);

  std::vector<double> arrivals;
  if (args.serve_arrivals == "poisson") {
    arrivals = serving::PoissonArrivalTimes(queries.size(), args.serve_qps,
                                            args.serve_seed);
  } else if (args.serve_arrivals == "fixed") {
    arrivals = serving::FixedArrivalTimes(queries.size(), args.serve_qps);
  } else {
    std::fprintf(stderr, "unknown --serve-arrivals=%s (poisson | fixed)\n",
                 args.serve_arrivals.c_str());
    return 2;
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    auto id_or = server.Submit(queries[i], arrivals[i]);
    if (!id_or.ok() && !id_or.status().IsOutOfRange()) {
      std::fprintf(stderr, "query %zu rejected: %s\n", i,
                   id_or.status().ToString().c_str());
      return 1;
    }
  }
  server.Drain();

  const serving::ServingStats& stats = server.stats();
  const LatencyStats latency = SummarizeLatencies(stats.latencies);
  const double makespan =
      stats.batch_log.empty() ? 0.0 : stats.batch_log.back().complete_s;
  std::printf(
      "serve: %llu submitted, %llu answered, %llu shed; %llu batches, "
      "%llu engine passes\n",
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.answered),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.batches),
      static_cast<unsigned long long>(stats.engine_passes));
  if (makespan > 0) {
    std::printf("modelled: %.3f qps over %.3fs; latency %s\n",
                static_cast<double>(stats.answered) / makespan, makespan,
                latency.ToString().c_str());
  }
  for (const auto& [tenant, t] : stats.tenants) {
    std::printf("  tenant %-12s submitted=%llu answered=%llu shed=%llu\n",
                tenant.c_str(), static_cast<unsigned long long>(t.submitted),
                static_cast<unsigned long long>(t.answered),
                static_cast<unsigned long long>(t.shed));
  }
  if (!args.output.empty()) {
    std::ofstream out(args.output);
    out << "query_id\tkind\ttenant\tvalue\tlatency_s\tbatch_width\n";
    for (const serving::Answer& a : server.answers()) {
      out << a.query_id << "\t" << serving::QueryKindName(a.kind) << "\t"
          << a.tenant << "\t" << a.value << "\t" << a.latency_s << "\t"
          << a.batch_width << "\n";
    }
    std::printf("per-query answers written to %s\n", args.output.c_str());
  }
  if (args.metrics) {
    std::printf("metrics: %s\n", stats.engine_metrics.ToString().c_str());
  }
  return ExportObservability(args, options, stats.engine_metrics, &stats);
}

template <typename T>
void WriteVector(const std::string& path, const std::vector<T>& values) {
  if (path.empty()) return;
  std::ofstream out(path);
  for (const T& v : values) out << v << "\n";
  std::printf("per-vertex results written to %s\n", path.c_str());
}

/// The "walk" mode: run the walker-centric random-walk engine
/// (docs/INTERNALS.md, "Random-walk engine"). deepwalk and node2vec write
/// one walk per output line (the skip-gram training corpus); ppr writes the
/// Monte-Carlo rank vector in the same per-vertex format as the
/// power-iteration algorithms.
int RunWalk(const Args& args, const GraphPtr& graph,
            const RuntimeOptions& options) {
  Metrics metrics;
  if (args.walk_kind == "ppr") {
    auto r = walks::RunWalkPpr(graph, args.root, options, args.alpha,
                               args.walk_seed);
    std::printf("walk-ppr from %u: %llu walkers, %llu visits counted\n",
                args.root,
                static_cast<unsigned long long>(options.num_walkers),
                static_cast<unsigned long long>(r.total_visits));
    WriteVector(args.output, r.rank);
    metrics = std::move(r.metrics);
  } else if (args.walk_kind == "deepwalk" || args.walk_kind == "node2vec") {
    std::vector<std::vector<VertexId>> corpus;
    if (args.walk_kind == "deepwalk") {
      auto r = walks::RunDeepWalk(graph, options, args.walk_seed);
      corpus = std::move(r.walks);
      metrics = std::move(r.metrics);
    } else {
      auto r = walks::RunNode2Vec(graph, options, args.walk_seed);
      corpus = std::move(r.walks);
      metrics = std::move(r.metrics);
    }
    uint64_t hops = 0;
    for (const auto& walk : corpus) {
      hops += walk.empty() ? 0 : walk.size() - 1;
    }
    std::printf("%s: %zu walks, %.2f mean hops\n", args.walk_kind.c_str(),
                corpus.size(),
                corpus.empty()
                    ? 0.0
                    : static_cast<double>(hops) / corpus.size());
    if (!args.output.empty()) {
      std::ofstream out(args.output);
      for (const auto& walk : corpus) {
        for (size_t i = 0; i < walk.size(); ++i) {
          if (i > 0) out << ' ';
          out << walk[i];
        }
        out << '\n';
      }
      std::printf("walk corpus written to %s\n", args.output.c_str());
    }
  } else {
    std::fprintf(stderr, "unknown --walk-kind=%s (deepwalk | node2vec | ppr)\n",
                 args.walk_kind.c_str());
    return 2;
  }
  if (args.metrics) {
    std::printf("metrics: %s\n", metrics.ToString().c_str());
  }
  return ExportObservability(args, options, metrics);
}

/// Spills `graph` to a temp block file and reopens it through the paged
/// backend (--storage=paged). The file lives for the process; the returned
/// guard removes it.
struct BlockFileGuard {
  std::string path;
  ~BlockFileGuard() {
    if (!path.empty()) std::remove(path.c_str());
  }
};

Result<GraphPtr> PageGraph(const Args& args, const GraphPtr& graph,
                           BlockFileGuard* guard) {
  guard->path = "/tmp/flash_cli_" + std::to_string(::getpid()) + ".fblk";
  BlockFileOptions save_options;
  save_options.block_payload_bytes =
      uint64_t{static_cast<uint32_t>(args.block_kb)} << 10;
  FLASH_RETURN_NOT_OK(SaveBlockFile(*graph, guard->path, save_options));
  PagedOptions options;
  options.cache_bytes = uint64_t{static_cast<uint32_t>(args.cache_mb)} << 20;
  return OpenPagedGraph(guard->path, options);
}

/// Algorithms that read --root as a source vertex.
bool IsRooted(const Args& args) {
  for (const char* name :
       {"bfs", "sssp", "ssspdelta", "bc", "ppr", "pprpush", "diameter"}) {
    if (args.algorithm == name) return true;
  }
  return args.algorithm == "walk" && args.walk_kind == "ppr";
}

/// The storage flags' rules, checked before the graph loads.
Status CheckStorageFlags(const Args& args) {
  if (args.storage != "mem" && args.storage != "paged") {
    return Status::InvalidArgument("unknown --storage=" + args.storage +
                                   " (mem | paged)");
  }
  if (args.block_kb < 1) {
    return Status::InvalidArgument("--block-kb must be at least 1");
  }
  if (args.cache_mb < 1) {
    return Status::InvalidArgument("--cache-mb must be at least 1");
  }
  return Status::OK();
}

int Run(const Args& args) {
  const Status storage_valid = CheckStorageFlags(args);
  if (!storage_valid.ok()) {
    std::fprintf(stderr, "bad storage flags: %s\n",
                 storage_valid.ToString().c_str());
    return 2;
  }
  const RuntimeOptions options = MakeRuntime(args);
  const Status valid = CheckRuntimeOptions(
      options, args.algorithm == "walk" ? RuntimeSurface::kWalks
                                        : RuntimeSurface::kGraph);
  if (!valid.ok()) {
    std::fprintf(stderr, "bad runtime flags: %s\n", valid.ToString().c_str());
    return 2;
  }
  auto graph_or = LoadGraph(args);
  if (!graph_or.ok()) {
    std::fprintf(stderr, "cannot load graph: %s\n",
                 graph_or.status().ToString().c_str());
    return 1;
  }
  GraphPtr graph = std::move(graph_or).value();
  BlockFileGuard block_file;
  if (args.storage == "paged") {
    auto paged_or = PageGraph(args, graph, &block_file);
    if (!paged_or.ok()) {
      std::fprintf(stderr, "cannot page graph: %s\n",
                   paged_or.status().ToString().c_str());
      return 1;
    }
    graph = std::move(paged_or).value();
    std::printf("storage: paged (%s, cache %d MiB)\n",
                block_file.path.c_str(), args.cache_mb);
  }
  std::printf("graph: %u vertices, %llu edges%s%s\n", graph->NumVertices(),
              static_cast<unsigned long long>(graph->NumEdges()),
              graph->is_symmetric() ? ", symmetric" : ", directed",
              graph->is_weighted() ? ", weighted" : "");
  if (IsRooted(args) && args.root >= graph->NumVertices()) {
    std::fprintf(stderr, "--root=%u is out of range: the graph has %u "
                 "vertices\n", args.root, graph->NumVertices());
    return 2;
  }
  const std::string& a = args.algorithm;
  Metrics metrics;

  if (a == "serve") {
    return RunServe(args, graph, options);
  }
  if (a == "walk") {
    return RunWalk(args, graph, options);
  }
  if (a == "bfs") {
    auto r = algo::RunBfs(graph, args.root, options);
    uint64_t reached = 0;
    for (uint32_t d : r.distance) reached += (d != algo::kInf32);
    std::printf("bfs from %u: %llu reached, %d rounds\n", args.root,
                static_cast<unsigned long long>(reached), r.rounds);
    WriteVector(args.output, r.distance);
    metrics = r.metrics;
  } else if (a == "sssp") {
    auto r = algo::RunSssp(graph, args.root, options);
    std::printf("sssp from %u: %d rounds\n", args.root, r.rounds);
    WriteVector(args.output, r.distance);
    metrics = r.metrics;
  } else if (a == "cc" || a == "ccopt") {
    auto r = a == "cc" ? algo::RunCcBasic(graph, options)
                       : algo::RunCcOpt(graph, options);
    std::map<VertexId, uint64_t> sizes;
    for (VertexId l : r.label) ++sizes[l];
    std::printf("%s: %zu components, %d rounds\n", a.c_str(), sizes.size(),
                r.rounds);
    WriteVector(args.output, r.label);
    metrics = r.metrics;
  } else if (a == "bc") {
    auto r = algo::RunBc(graph, args.root, options);
    std::printf("bc from %u done\n", args.root);
    WriteVector(args.output, r.dependency);
    metrics = r.metrics;
  } else if (a == "mis") {
    auto r = algo::RunMis(graph, options);
    uint64_t size = 0;
    for (bool b : r.in_set) size += b;
    std::printf("mis: %llu vertices in the set, %d rounds\n",
                static_cast<unsigned long long>(size), r.rounds);
    metrics = r.metrics;
  } else if (a == "mm" || a == "mmopt") {
    auto r = a == "mm" ? algo::RunMmBasic(graph, options)
                       : algo::RunMmOpt(graph, options);
    uint64_t matched = 0;
    for (VertexId p : r.match) matched += (p != kInvalidVertex);
    std::printf("%s: %llu matched vertices, %d rounds\n", a.c_str(),
                static_cast<unsigned long long>(matched), r.rounds);
    WriteVector(args.output, r.match);
    metrics = r.metrics;
  } else if (a == "kcore" || a == "kcoreopt") {
    auto r = a == "kcore" ? algo::RunKCoreBasic(graph, options)
                          : algo::RunKCoreOpt(graph, options);
    uint32_t degeneracy = 0;
    for (uint32_t c : r.core) degeneracy = std::max(degeneracy, c);
    std::printf("%s: degeneracy %u\n", a.c_str(), degeneracy);
    WriteVector(args.output, r.core);
    metrics = r.metrics;
  } else if (a == "tc") {
    auto r = algo::RunTriangleCount(graph, options);
    std::printf("triangles: %llu\n", static_cast<unsigned long long>(r.count));
    metrics = r.metrics;
  } else if (a == "rc") {
    auto r = algo::RunRectangleCount(graph, options);
    std::printf("rectangles: %llu\n", static_cast<unsigned long long>(r.count));
    metrics = r.metrics;
  } else if (a == "kclique") {
    auto r = algo::RunKCliqueCount(graph, args.k, options);
    std::printf("%d-cliques: %llu\n", args.k,
                static_cast<unsigned long long>(r.count));
    metrics = r.metrics;
  } else if (a == "gc") {
    auto r = algo::RunGraphColoring(graph, options);
    uint32_t colors = 0;
    for (uint32_t c : r.color) colors = std::max(colors, c + 1);
    std::printf("coloring: %u colors, %d rounds\n", colors, r.rounds);
    WriteVector(args.output, r.color);
    metrics = r.metrics;
  } else if (a == "scc") {
    auto r = algo::RunScc(graph, options);
    std::map<VertexId, uint64_t> sizes;
    for (VertexId l : r.label) ++sizes[l];
    std::printf("scc: %zu components, %d rounds\n", sizes.size(), r.rounds);
    WriteVector(args.output, r.label);
    metrics = r.metrics;
  } else if (a == "bcc") {
    auto r = algo::RunBcc(graph, options);
    std::printf("bcc: %llu biconnected components\n",
                static_cast<unsigned long long>(r.num_bcc));
    metrics = r.metrics;
  } else if (a == "lpa") {
    auto r = algo::RunLpa(graph, args.iters, options);
    std::map<VertexId, uint64_t> sizes;
    for (VertexId l : r.label) ++sizes[l];
    std::printf("lpa: %zu communities after %d rounds\n", sizes.size(),
                args.iters);
    WriteVector(args.output, r.label);
    metrics = r.metrics;
  } else if (a == "msf") {
    auto r = algo::RunMsf(graph, options);
    std::printf("msf: %zu edges, total weight %.4f\n", r.edges.size(),
                r.total_weight);
    metrics = r.metrics;
  } else if (a == "pagerank") {
    auto r = algo::RunPageRank(graph, args.iters, options);
    WriteVector(args.output, r.rank);
    std::printf("pagerank: %d iterations\n", args.iters);
    metrics = r.metrics;
  } else if (a == "ppr") {
    auto r = algo::RunPersonalizedPageRank(graph, args.root, args.iters,
                                           options);
    WriteVector(args.output, r.rank);
    std::printf("ppr from %u: %d iterations\n", args.root, args.iters);
    metrics = r.metrics;
  } else if (a == "pprpush") {
    auto r = algo::RunPprPush(graph, args.root, 0.15, 1e-6, options);
    WriteVector(args.output, r.rank);
    std::printf("pprpush from %u: %d rounds\n", args.root, r.rounds);
    metrics = r.metrics;
  } else if (a == "clustering") {
    auto r = algo::RunClusteringCoefficient(graph, options);
    std::printf("average clustering coefficient: %.6f\n", r.average);
    WriteVector(args.output, r.local);
    metrics = r.metrics;
  } else if (a == "hits") {
    auto r = algo::RunHits(graph, args.iters, options);
    WriteVector(args.output, r.authority);
    std::printf("hits: %d iterations\n", args.iters);
    metrics = r.metrics;
  } else if (a == "harmonic") {
    std::vector<VertexId> sources;
    VertexId step = std::max<VertexId>(
        1, graph->NumVertices() / std::max(1, args.iters * 64));
    for (VertexId s = 0; s < graph->NumVertices(); s += step) {
      sources.push_back(s);
    }
    auto r = algo::RunHarmonicCentrality(graph, sources, options);
    std::printf("harmonic centrality from %zu sampled sources\n",
                sources.size());
    WriteVector(args.output, r.harmonic);
    metrics = r.metrics;
  } else if (a == "msbfs") {
    std::vector<VertexId> sources;
    for (VertexId s = 0; s < graph->NumVertices() && sources.size() < 64;
         s += std::max<VertexId>(1, graph->NumVertices() / 64)) {
      sources.push_back(s);
    }
    auto r = algo::RunMultiSourceBfs(graph, sources, options);
    std::printf("msbfs: %zu sources, %d rounds\n", sources.size(), r.rounds);
    WriteVector(args.output, r.harmonic);
    metrics = r.metrics;
  } else if (a == "diameter") {
    auto r = algo::RunDiameterEstimate(graph, args.root, options);
    std::printf("diameter >= %u (between %u and %u)\n", r.lower_bound,
                r.periphery_a, r.periphery_b);
    metrics = r.metrics;
  } else if (a == "bipartite") {
    auto r = algo::RunBipartiteCheck(graph, options);
    std::printf("bipartite: %s\n", r.is_bipartite ? "yes" : "no");
    metrics = r.metrics;
  } else if (a == "topo") {
    auto r = algo::RunTopologicalLayers(graph, options);
    std::printf("topological layering: %s\n",
                r.is_dag ? "DAG" : "contains a cycle");
    WriteVector(args.output, r.layer);
    metrics = r.metrics;
  } else if (a == "ssspdelta") {
    auto r = algo::RunSsspDeltaStepping(graph, args.root,
                                       algo::kDefaultSsspDelta, options);
    std::printf("delta-stepping sssp from %u: %d relaxation rounds\n",
                args.root, r.rounds);
    WriteVector(args.output, r.distance);
    metrics = r.metrics;
  } else if (a == "ktruss") {
    auto r = algo::RunKTruss(graph, static_cast<uint32_t>(args.k), options);
    std::printf("%d-truss: %llu edges remain after %d peel rounds\n", args.k,
                static_cast<unsigned long long>(r.edges_remaining), r.rounds);
    metrics = r.metrics;
  } else if (a == "betweenness") {
    std::vector<VertexId> sources;
    for (VertexId s = 0;
         s < graph->NumVertices() &&
         sources.size() < static_cast<size_t>(std::max(1, args.iters));
         s += std::max<VertexId>(1, graph->NumVertices() /
                                        std::max(1, args.iters))) {
      sources.push_back(s);
    }
    auto r = algo::RunApproxBetweenness(graph, sources, options);
    std::printf("sampled betweenness from %zu sources\n", sources.size());
    WriteVector(args.output, r.score);
    metrics = r.metrics;
  } else if (a == "densest") {
    auto r = algo::RunDensestSubgraph(graph, 0.1, options);
    uint64_t size = 0;
    for (bool b : r.in_subgraph) size += b;
    std::printf("densest subgraph (2.2-approx): density %.4f, %llu vertices\n",
                r.density, static_cast<unsigned long long>(size));
    metrics = r.metrics;
  } else {
    std::fprintf(stderr, "unknown algorithm: %s\n", a.c_str());
    return 2;
  }

  if (args.metrics) {
    std::printf("metrics: %s\n", metrics.ToString().c_str());
  }
  return ExportObservability(args, options, metrics);
}

}  // namespace
}  // namespace flash::cli

int main(int argc, char** argv) {
  flash::cli::Args args;
  if (!flash::cli::ParseArgs(argc, argv, &args)) {
    return flash::cli::Usage(argv[0]);
  }
  return flash::cli::Run(args);
}
