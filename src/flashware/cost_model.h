#ifndef FLASH_FLASHWARE_COST_MODEL_H_
#define FLASH_FLASHWARE_COST_MODEL_H_

#include <cstddef>
#include <string>
#include <vector>

#include "flashware/metrics.h"

namespace flash {

/// Analytic model converting the exactly-measured work/communication
/// counters of a run into the execution time of a *physical* cluster.
///
/// Rationale (documented substitution, DESIGN.md §1): the paper's scaling
/// experiments (Fig 4b/c/d) vary cores per node (1..32) and nodes (1..4) of
/// a real cluster. This reproduction executes on whatever host it is given —
/// possibly a single core — so wall-clock cannot exhibit parallel speedup.
/// Instead the simulator records, per superstep, the total and per-worker
/// maximum compute work and communication volume; this model then prices a
/// hypothetical cluster. Because the counters are measured (not estimated),
/// the model reproduces the *shape* of the paper's scaling curves: load
/// imbalance, the serial communication fraction that grows with the cluster
/// size, and per-superstep barrier overhead.
struct ClusterConfig {
  int nodes = 4;
  int cores_per_node = 32;

  // Calibration constants (defaults approximate a 2.5 GHz Xeon and 10GbE,
  // the paper's testbed). CalibrateComputeRate() can refit the first two to
  // the executing host.
  double ns_per_edge = 3.0;        // CSR edge examination + user F/M.
  double ns_per_vertex = 6.0;      // Vertex update incl. store bookkeeping.
  double bytes_per_second = 1.1e9; // ~10GbE effective bandwidth (per node).
  // Per vertex-message marshalling cost. Recalibrated for the batched wire
  // format (DESIGN.md): one frame per (channel, phase) amortises the
  // header/dispatch share of each message, leaving mostly the per-record
  // delta-id encode + payload copy.
  double ns_per_message = 8.0;
  double barrier_seconds = 40e-6;  // BSP barrier + collective latency.

  // Async-engine terms (engaged only when the run's Metrics carry nonzero
  // AsyncStats; see the drift note next to ns_per_message in DESIGN.md §4).
  // A relaxed micro-round ends when a worker's inbound channels drain — a
  // handful of point-to-point counter reads piggybacked on the data
  // exchange, not a collective — so it is priced near the shared-memory
  // join cost, an order of magnitude under the BSP barrier. A termination
  // token circuit is `nodes` sequential point-to-point hops carrying one
  // counter vector; the barrier constant is an honest (conservative) price
  // for it. Async compute is priced once per run from the busiest worker's
  // *cumulative* measured seconds (AsyncStats::comp_seconds_max): workers
  // never wait on per-round stragglers, so no per-round max applies.
  double relaxed_sync_seconds = 5e-6;
  double token_sweep_seconds = 40e-6;

  // Random-walk engine terms (engaged only for StepKind::kWalkStep samples,
  // i.e. runs through src/walks/). A walk step's compute is walker-bound,
  // not edge-bound: each live walker pays one sampled adjacency read + PRNG
  // draw + trace/visit append (`ns_per_walk_step`), and the FlashMob-style
  // by-vertex shuffle pays a bucket/sort pass per walker it orders
  // (`ns_per_shuffle_entry`). Both are per-walker, per-step costs on the
  // busiest worker; measured comp_max still overrides the counter estimate
  // when it is larger, exactly like the vertex-centric terms.
  double ns_per_walk_step = 12.0;
  double ns_per_shuffle_entry = 4.0;
  // Per discrete wire-frame dispatch. Walk steps count *frames* in
  // msgs_total (the unit the network charges send overhead on; per-walker
  // record counts live in WalkStats), so a mode that ships one checksummed
  // frame per migrating walker pays this per walker while the batched mode
  // pays it once per channel. ~1us is a conservative price for a small
  // message send (syscall + header build + receive dispatch); contrast
  // ns_per_message above, which is the *amortised* per-record cost inside
  // an already-coalesced frame.
  double ns_per_wire_frame = 1000.0;

  // Storage-tier terms (engaged only when step samples carry nonzero
  // storage bytes, i.e. the graph ran on the paged semi-external backend).
  // Sequential NVMe-class bandwidth plus a fixed per-block request latency;
  // block reads overlap compute exactly like network traffic does.
  double storage_bytes_per_second = 2.5e9;
  double storage_block_latency_seconds = 30e-6;
  // Block-payload decode throughput (checksum + varint-delta expansion),
  // priced on *decoded* bytes: the work the decoder does, while
  // storage_bytes_per_second prices the smaller file bytes it reads.
  // The model overlaps decode with compute like I/O, as a semi-external
  // engine with an I/O pipeline would; the host loads planned blocks on
  // its pool before compute, so measured time does not overlap them.
  double storage_decode_bytes_per_second = 4.0e9;

  /// §IV-C optimization 1: communication overlapped with computation.
  bool overlap_comm_compute = true;

  // Fault-tolerance pricing (only engaged when the run's Metrics carry
  // nonzero FaultStats): checkpoint storage bandwidth, per-record redo-log
  // replay cost, and the fixed detection + failover latency of rebuilding a
  // crashed worker (also charged per transport escalation, which resends
  // through the same recovery path).
  double checkpoint_bytes_per_second = 2.0e9;
  double ns_per_replay_record = 25.0;
  double restore_latency_seconds = 50e-3;

  // Serving-layer queueing terms (src/serving/). A query's modelled latency
  // is admission + time queued behind earlier batches + its batch's shared
  // engine pass (priced by ModelTime like any run). `query_admit_seconds`
  // is the per-query front-door cost — parse, validate, enqueue, and the
  // per-query share of result demux; `batch_dispatch_seconds` is the fixed
  // per-batch cost of cutting a batch and launching the pass (scheduling
  // decision + pass setup), paid once regardless of batch width.
  double query_admit_seconds = 2e-6;
  double batch_dispatch_seconds = 100e-6;

  std::string ToString() const;
};

/// Per-category modelled time (paper §V-E piecewise breakdown).
struct ModeledTime {
  double compute = 0;
  double comm = 0;
  double serialize = 0;
  double other = 0;  // Barriers and bookkeeping.
  double recovery = 0;  // Checkpoint writes + crash restores + log replay.
  double io = 0;  // Storage-tier block reads (paged backend only).
  double decode = 0;  // Block-payload decode (paged backend only).
  double total = 0;

  std::string ToString() const;
};

/// Prices `metrics` (which must carry step samples) on `config`. The metrics'
/// per-step worker maxima were collected for the worker count the run used;
/// `config.nodes` should normally equal that worker count.
ModeledTime ModelTime(const Metrics& metrics, const ClusterConfig& config);

/// Measures this host's edge-scan throughput with a small in-memory kernel
/// and returns a ClusterConfig whose ns_per_edge/ns_per_vertex reflect it.
ClusterConfig CalibrateComputeRate(ClusterConfig base = {});

/// Order statistics of a modelled-latency sample set (serving bench + CLI
/// replay report). Quantiles use the nearest-rank method on the sorted
/// sample — exact and deterministic, no interpolation.
struct LatencyStats {
  size_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double max = 0;

  std::string ToString() const;
};

/// Summarises a vector of modelled per-query latencies (seconds). The input
/// is copied and sorted; an empty input yields all-zero stats.
LatencyStats SummarizeLatencies(std::vector<double> latencies);

}  // namespace flash

#endif  // FLASH_FLASHWARE_COST_MODEL_H_
