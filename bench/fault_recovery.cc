// Fault-tolerance overhead sweep: BFS and PageRank on an RMAT graph under a
// grid of drop rates and crash schedules, comparing wire amplification
// (retransmitted + duplicated bytes over the fault-free volume), transport
// counters, checkpoint volume, and the modelled recovery cost against the
// fault-free baseline. Results are bit-identical by construction, so every
// delta is pure fault-handling overhead.
//
// Emits out/BENCH_fault_recovery.json (out/ is created if needed). Knobs (env):
//   FLASH_BENCH_SCALE        RMAT scale (default 16; a fraction shrinks it)
//   FLASH_BENCH_PR_ITERS     PageRank iterations (default 10)
//   FLASH_BENCH_DROP_PCTS    comma list of drop percentages (default "0,5,20")
//   FLASH_BENCH_CRASHES      crash count in the crash configs (default 2)

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
#include "bench/harness/harness.h"
#include "common/logging.h"
#include "flashware/cost_model.h"
#include "graph/generators.h"

namespace {

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

std::vector<int> EnvIntList(const char* name, std::vector<int> fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  std::vector<int> list;
  for (const char* p = value; *p != '\0';) {
    list.push_back(std::atoi(p));
    while (*p != '\0' && *p != ',') ++p;
    if (*p == ',') ++p;
  }
  return list.empty() ? fallback : list;
}

struct Config {
  std::string name;
  flash::FaultPlan plan;
};

void EmitRun(flash::bench::BenchReport& report, const std::string& graph_name,
             const std::string& plan_name, const char* algo,
             const flash::Metrics& metrics, uint64_t baseline_bytes,
             const flash::ClusterConfig& cluster) {
  const flash::FaultStats& fault = metrics.fault;
  flash::ModeledTime time = flash::ModelTime(metrics, cluster);
  double amplification =
      baseline_bytes > 0
          ? static_cast<double>(metrics.bytes) / baseline_bytes
          : 1.0;
  report.Add(graph_name, {{"plan", plan_name}, {"app", algo}},
             {{"bytes", static_cast<double>(metrics.bytes)},
              {"wire_amplification", amplification},
              {"retries", static_cast<double>(fault.retries)},
              {"drops", static_cast<double>(fault.drops)},
              {"duplicates", static_cast<double>(fault.duplicates)},
              {"escalations", static_cast<double>(fault.escalations)},
              {"checkpoints", static_cast<double>(fault.checkpoints)},
              {"checkpoint_bytes", static_cast<double>(fault.checkpoint_bytes)},
              {"restores", static_cast<double>(fault.restores)},
              {"replayed_records",
               static_cast<double>(fault.replayed_records)},
              {"modeled_total_s", time.total},
              {"modeled_recovery_s", time.recovery}});
}

}  // namespace

int main() {
  const int scale = flash::bench::RmatScaleFromEnv(16);
  const int pr_iters = EnvInt("FLASH_BENCH_PR_ITERS", 10);
  const std::vector<int> drop_pcts =
      EnvIntList("FLASH_BENCH_DROP_PCTS", {0, 5, 20});
  const int crashes = EnvInt("FLASH_BENCH_CRASHES", 2);

  flash::RmatOptions rmat;
  rmat.scale = scale;
  auto graph_or = flash::GenerateRmat(rmat);
  FLASH_CHECK(graph_or.ok()) << graph_or.status().ToString();
  flash::GraphPtr graph = graph_or.value();

  flash::RuntimeOptions base;
  base.num_workers = 4;

  // The sweep: pure drop-rate escalation, then the same with a crash
  // schedule layered on (checkpointing armed automatically).
  std::vector<Config> configs;
  for (int pct : drop_pcts) {
    Config c;
    c.name = "drop" + std::to_string(pct);
    c.plan.seed = 42;
    c.plan.msg_drop_rate = pct / 100.0;
    c.plan.fragment_bytes = 256;
    if (pct > 0) c.plan.msg_dup_rate = pct / 200.0;
    configs.push_back(c);
  }
  {
    Config c;
    c.name = "crash" + std::to_string(crashes);
    c.plan.seed = 43;
    c.plan.checkpoint_interval = 4;
    for (int i = 0; i < crashes; ++i) {
      c.plan.worker_crash_schedule.push_back(
          {static_cast<uint64_t>(3 + 2 * i), i % base.num_workers});
    }
    configs.push_back(c);
  }
  {
    Config c;
    c.name = "storm";
    c.plan.seed = 44;
    c.plan.msg_drop_rate = 0.2;
    c.plan.msg_dup_rate = 0.1;
    c.plan.msg_reorder_rate = 0.3;
    c.plan.fragment_bytes = 256;
    c.plan.checkpoint_interval = 4;
    for (int i = 0; i < crashes; ++i) {
      c.plan.worker_crash_schedule.push_back(
          {static_cast<uint64_t>(3 + 2 * i), i % base.num_workers});
    }
    configs.push_back(c);
  }

  // Fault-free baselines for the wire-amplification denominator.
  auto bfs_clean = flash::algo::RunBfs(graph, 0, base);
  auto pr_clean = flash::algo::RunPageRank(graph, pr_iters, base);
  flash::ClusterConfig cluster;
  cluster.nodes = base.num_workers;

  flash::bench::BenchReport report("fault_recovery");
  const std::string graph_name = "rmat-s" + std::to_string(scale);

  for (size_t i = 0; i < configs.size(); ++i) {
    const Config& config = configs[i];
    flash::RuntimeOptions options = base;
    options.fault_plan = config.plan;
    auto bfs = flash::algo::RunBfs(graph, 0, options);
    auto pr = flash::algo::RunPageRank(graph, pr_iters, options);
    FLASH_CHECK(bfs.distance == bfs_clean.distance)
        << "fault plan changed the BFS result";
    FLASH_CHECK(pr.rank == pr_clean.rank)
        << "fault plan changed the PageRank result";
    EmitRun(report, graph_name, config.name, "bfs", bfs.metrics,
            bfs_clean.metrics.bytes, cluster);
    EmitRun(report, graph_name, config.name, "pagerank", pr.metrics,
            pr_clean.metrics.bytes, cluster);
    std::fprintf(stderr,
                 "%-8s bfs x%.2f wire, %llu retries, %llu restores | "
                 "pagerank x%.2f wire, recovery %.4fs\n",
                 config.name.c_str(),
                 bfs_clean.metrics.bytes > 0
                     ? static_cast<double>(bfs.metrics.bytes) /
                           bfs_clean.metrics.bytes
                     : 1.0,
                 static_cast<unsigned long long>(bfs.metrics.fault.retries),
                 static_cast<unsigned long long>(bfs.metrics.fault.restores),
                 pr_clean.metrics.bytes > 0
                     ? static_cast<double>(pr.metrics.bytes) /
                           pr_clean.metrics.bytes
                     : 1.0,
                 flash::ModelTime(pr.metrics, cluster).recovery);
  }
  std::fprintf(stderr, "wrote %s\n", report.Write().c_str());
  return 0;
}
