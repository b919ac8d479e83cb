#include "obs/registry.h"

#include <algorithm>

#include "flashware/metrics.h"
#include "flashware/options.h"

namespace flash::obs {

std::string Registry::SeriesKey(const std::string& name,
                                const MetricLabels& labels) {
  if (labels.empty()) return name;
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';  // Unit separator: cannot appear in metric names.
    key += k;
    key += '\x1f';
    key += v;
  }
  return key;
}

Metric& Registry::Upsert(const std::string& name, const MetricLabels& labels,
                         MetricType type, const std::string& help) {
  const std::string key = SeriesKey(name, labels);
  auto it = index_.find(key);
  if (it != index_.end()) {
    Metric& m = metrics_[it->second];
    m.type = type;
    if (!help.empty()) m.help = help;
    return m;
  }
  index_.emplace(key, metrics_.size());
  Metric m;
  m.name = name;
  m.labels = labels;
  m.help = help;
  m.type = type;
  metrics_.push_back(std::move(m));
  return metrics_.back();
}

void Registry::Counter(const std::string& name, uint64_t value,
                       const std::string& help) {
  Metric& m = Upsert(name, {}, MetricType::kCounter, help);
  m.integral = true;
  m.ivalue = value;
}

void Registry::Counter(const std::string& name, const MetricLabels& labels,
                       uint64_t value, const std::string& help) {
  Metric& m = Upsert(name, labels, MetricType::kCounter, help);
  m.integral = true;
  m.ivalue = value;
}

void Registry::CounterF(const std::string& name, double value,
                        const std::string& help) {
  Metric& m = Upsert(name, {}, MetricType::kCounter, help);
  m.integral = false;
  m.dvalue = value;
}

void Registry::Gauge(const std::string& name, double value,
                     const std::string& help) {
  Metric& m = Upsert(name, {}, MetricType::kGauge, help);
  m.integral = false;
  m.dvalue = value;
}

void Registry::Histogram(const std::string& name, std::vector<double> bounds,
                         const std::string& help) {
  Metric& m = Upsert(name, {}, MetricType::kHistogram, help);
  if (m.counts.empty()) {
    m.bounds = std::move(bounds);
    m.counts.assign(m.bounds.size() + 1, 0);
  }
}

void Registry::Observe(const std::string& name, double value) {
  auto it = index_.find(name);
  if (it == index_.end()) return;
  Metric& m = metrics_[it->second];
  if (m.type != MetricType::kHistogram) return;
  size_t bucket = m.bounds.size();  // +Inf by default.
  for (size_t i = 0; i < m.bounds.size(); ++i) {
    if (value <= m.bounds[i]) {
      bucket = i;
      break;
    }
  }
  ++m.counts[bucket];
  ++m.observations;
  m.sum += value;
}

const Metric* Registry::Find(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : &metrics_[it->second];
}

const Metric* Registry::Find(const std::string& name,
                             const MetricLabels& labels) const {
  auto it = index_.find(SeriesKey(name, labels));
  return it == index_.end() ? nullptr : &metrics_[it->second];
}

Registry BuildRegistry(const flash::Metrics& metrics,
                       const flash::RuntimeOptions* options) {
  Registry reg;
  // Run-level counters (all exact integers in Metrics).
  reg.Counter("flash_supersteps_total", metrics.supersteps,
              "BSP supersteps executed");
  reg.Counter("flash_steps_dense_total", metrics.dense_steps,
              "EDGEMAPDENSE supersteps");
  reg.Counter("flash_steps_sparse_total", metrics.sparse_steps,
              "EDGEMAPSPARSE supersteps");
  reg.Counter("flash_edges_scanned_total", metrics.edges_scanned,
              "Edge examinations across all workers");
  reg.Counter("flash_vertices_updated_total", metrics.vertices_updated,
              "Vertex updates/evaluations across all workers");
  reg.Counter("flash_messages_total", metrics.messages,
              "Vertex-level messages shipped over the bus");
  reg.Counter("flash_wire_bytes_total", metrics.bytes,
              "Serialised payload bytes shipped over the bus");
  reg.Counter("flash_masters_committed_total", metrics.masters_committed,
              "Masters promoted next -> current at commit barriers");
  reg.Gauge("flash_wire_pool_peak_bytes",
            static_cast<double>(metrics.wire_pool_peak_bytes),
            "Peak capacity retained across pooled wire buffers");
  // Async-engine counters (AsyncStats; exact integers plus the cumulative
  // busiest-worker compute seconds the cost model prices).
  const AsyncStats& a = metrics.async;
  reg.Counter("flash_async_rounds_total", a.rounds,
              "Relaxed micro-rounds executed by the async engine");
  reg.Counter("flash_async_token_sweeps_total", a.token_sweeps,
              "Completed termination-detection token circuits");
  reg.Counter("flash_async_relaxations_total", a.relaxations,
              "Vertex dequeues processed by the async program");
  reg.Counter("flash_async_bucket_inserts_total", a.bucket_inserts,
              "Priority-bucket enqueues (including re-queues)");
  reg.Counter("flash_async_messages_sent_total", a.msgs_sent,
              "Async messages framed onto the bus");
  reg.Counter("flash_async_messages_received_total", a.msgs_received,
              "Async messages decoded from inbound frames");
  reg.Counter("flash_async_messages_applied_total", a.msgs_applied,
              "Async messages folded into owner state");
  reg.CounterF("flash_async_compute_seconds_max", a.comp_seconds_max,
               "Busiest worker's cumulative async compute seconds");
  // Fault and recovery counters (FaultStats; all exact integers).
  const FaultStats& f = metrics.fault;
  reg.Counter("flash_fault_fragments_total", f.fragments_sent,
              "Distinct payload fragments offered to the wire");
  reg.Counter("flash_fault_drops_total", f.drops,
              "Fragment transmissions lost by the wire");
  reg.Counter("flash_fault_duplicates_total", f.duplicates,
              "Extra fragment deliveries injected by the wire");
  reg.Counter("flash_fault_reorders_total", f.reorders,
              "Fragments that arrived out of sequence order");
  reg.Counter("flash_fault_retries_total", f.retries,
              "Retransmissions after a missing ack");
  reg.Counter("flash_fault_escalations_total", f.escalations,
              "Retry budgets exhausted (recovery resend)");
  reg.Counter("flash_checkpoints_total", f.checkpoints, "Snapshots taken");
  reg.Counter("flash_checkpoint_bytes_total", f.checkpoint_bytes,
              "Sealed snapshot bytes written");
  reg.Counter("flash_restores_total", f.restores,
              "Worker states rebuilt after a crash");
  reg.Counter("flash_restored_bytes_total", f.restored_bytes,
              "Snapshot bytes read back during recovery");
  reg.Counter("flash_replay_records_total", f.replayed_records,
              "Redo-log vertex records reapplied");
  reg.Counter("flash_replay_bytes_total", f.replayed_bytes,
              "Redo-log bytes consumed by replays");
  // Storage-tier counters (paged semi-external backend). The per-run pair
  // sums the superstep epoch deltas; the rest snapshot the backend's
  // lifetime StorageStats at the last barrier. All zero (and the lifetime
  // block suppressed) for in-memory graphs.
  reg.Counter("flash_storage_bytes_read_total", metrics.storage_bytes_read,
              "Edge-block file bytes read during this run's supersteps");
  reg.Counter("flash_storage_blocks_read_total", metrics.storage_blocks_read,
              "Edge blocks loaded during this run's supersteps");
  reg.Counter("flash_storage_decode_bytes_total", metrics.storage_decode_bytes,
              "Decoded block payload bytes produced during this run");
  if (metrics.storage.Any()) {
    const StorageStats& st = metrics.storage;
    reg.Counter("flash_storage_accesses_total", st.accesses,
                "Adjacency span requests served by the paged backend");
    reg.Counter("flash_storage_demand_miss_total", st.demand_misses,
                "Accesses that stalled on an unplanned synchronous load");
    reg.Counter("flash_storage_stream_bytes_total", st.stream_bytes,
                "Cache-bypassing sequential edge-scan bytes");
    reg.Counter("flash_storage_evictions_total", st.evictions,
                "Edge blocks evicted at superstep barriers");
    reg.Counter("flash_storage_epochs_total", st.epochs,
                "Storage epochs opened (one per superstep)");
    reg.Counter("flash_storage_dense_plans_total", st.dense_plans,
                "Plans whose edge blocks loaded before compute");
    reg.Counter("flash_storage_sparse_plans_total", st.sparse_plans,
                "Sweeps left to demand paging");
    reg.Gauge("flash_storage_peak_resident_bytes",
              static_cast<double>(st.peak_resident_bytes),
              "Peak cached block bytes observed at a barrier");
  }
  // Random-walk engine counters (WalkStats; all exact integers). The block
  // is suppressed for vertex-centric runs, like the storage lifetime block.
  if (metrics.walks.Any()) {
    const WalkStats& wk = metrics.walks;
    reg.Counter("flash_walks_walkers_total", wk.walkers, "Walkers started");
    reg.Counter("flash_walks_steps_total", wk.steps,
                "Walk supersteps executed (one barrier each)");
    reg.Counter("flash_walks_walker_steps_total", wk.walker_steps,
                "Individual walker advances (hops)");
    reg.Counter("flash_walks_shuffle_entries_total", wk.shuffle_entries,
                "Walkers passed through the by-vertex shuffle sort");
    reg.Counter("flash_walks_shipped_total", wk.walkers_shipped,
                "Walkers shipped across partitions as wire records");
    reg.Counter("flash_walks_frame_bytes_total", wk.frame_bytes,
                "Walker-frame bytes exchanged over the bus");
    reg.Counter("flash_walks_restarts_total", wk.restarts,
                "Dead-end teleports back to the walk source (PPR)");
    reg.Counter("flash_walks_terminations_total", wk.terminations,
                "Walkers ended early (geometric death or dead end)");
    reg.Counter("flash_walks_rejections_total", wk.rejections,
                "node2vec rejection-sampling retries");
  }
  if (options != nullptr) {
    reg.Gauge("flash_workers", options->num_workers, "Simulated workers");
    reg.Gauge("flash_threads_per_worker", options->threads_per_worker,
              "Logical shards per worker");
    reg.Gauge("flash_host_threads", options->host_threads,
              "Host threads cap (0 = hardware)");
  }
  // Per-superstep distributions, when the run kept its step samples.
  if (!metrics.steps.empty()) {
    reg.Histogram("flash_step_bytes",
                  {0, 1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 26},
                  "Wire bytes shipped per superstep");
    reg.Histogram("flash_step_compute_seconds",
                  {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0},
                  "Busiest-worker compute seconds per superstep");
    for (const StepSample& s : metrics.steps) {
      reg.Observe("flash_step_bytes", static_cast<double>(s.bytes_total));
      reg.Observe("flash_step_compute_seconds", s.comp_max);
    }
  }
  return reg;
}

}  // namespace flash::obs
