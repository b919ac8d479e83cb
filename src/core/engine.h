#ifndef FLASH_CORE_ENGINE_H_
#define FLASH_CORE_ENGINE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "common/fields.h"
#include "common/logging.h"
#include "core/detail.h"
#include "core/edge_set.h"
#include "core/vertex_subset.h"
#include "flashware/metrics.h"
#include "flashware/options.h"
#include "flashware/runtime.h"
#include "flashware/vertex_store.h"
#include "graph/partition.h"
#include "obs/tracer.h"

namespace flash {

/// GraphApi<VData> is the FLASH programming interface (paper §III) bound to
/// a simulated distributed runtime (paper §IV). VData is the user's
/// vertex-property struct, reflected with FLASH_FIELDS.
///
/// The runtime executes BSP supersteps over `num_workers` partitions: each
/// primitive (VERTEXMAP / EDGEMAPDENSE / EDGEMAPSPARSE / SIZE / global
/// reductions) is one superstep ending in a barrier that
///   1. promotes `next` states of dirty masters to `current`, and
///   2. ships the critical fields of each updated master to the workers
///      that mirror it (neighbour-mask or broadcast, §IV-C).
/// All inter-worker traffic flows byte-serialised through a MessageBus so
/// message/byte counts equal what an MPI wire would carry.
///
/// Within a superstep the worker dimension is embarrassingly parallel —
/// workers touch disjoint master sets and single-writer (src, dst) bus
/// channels — so every phase runs all (worker, shard) partitions
/// concurrently on one work-stealing host pool of
/// RuntimeOptions::host_threads threads (1 runs them inline, in order), with
/// barriers only where BSP requires them (after round-1 sends, after
/// Exchange, after mirror apply). The logical shard count and
/// split are fixed by threads_per_worker, never by the executing thread
/// count, and per-shard buffers are merged in worker/shard order, so
/// frontiers, wire bytes, messages, and results are bit-identical at every
/// host thread count.
template <typename VData>
class GraphApi {
 public:
  using EdgeSetRef = EdgeSetPtr<VData>;

  explicit GraphApi(GraphPtr graph, RuntimeOptions options = RuntimeOptions{})
      : graph_(std::move(graph)),
        options_(std::move(options)),
        runtime_(graph_, options_, RuntimeSurface::kGraph),
        critical_mask_(AllFieldsMask<VData>()),
        task_scratch_(static_cast<size_t>(options_.num_workers) *
                      options_.threads_per_worker),
        worker_scratch_(options_.num_workers) {
    stores_.reserve(options_.num_workers);
    for (int w = 0; w < options_.num_workers; ++w) {
      stores_.emplace_back(graph_->NumVertices());
    }
    for (TaskScratch& task : task_scratch_) {
      task.lanes.resize(options_.num_workers);
    }
    for (WorkerScratch& scratch : worker_scratch_) {
      scratch.commit_lanes.resize(options_.num_workers);
    }
    forward_ = std::make_shared<internal::CsrEdgeSet<VData>>(graph_, false);
    reverse_ = std::make_shared<internal::CsrEdgeSet<VData>>(graph_, true);
    if (runtime_.checkpoints() != nullptr) {
      last_frontier_.resize(options_.num_workers);
    }
  }

  GraphApi(const GraphApi&) = delete;
  GraphApi& operator=(const GraphApi&) = delete;

  // --- introspection -------------------------------------------------------

  const Graph& graph() const { return *graph_; }
  GraphPtr graph_ptr() const { return graph_; }
  const Partition& partition() const { return runtime_.partition(); }
  const RuntimeOptions& options() const { return options_; }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  const MessageBus& bus() const { return runtime_.bus(); }
  /// Checkpoint images and redo logs; null without a checkpoint plan.
  const CheckpointManager* checkpoints() const {
    return runtime_.checkpoints();
  }
  /// The armed span tracer; null unless RuntimeOptions::trace. All spans up
  /// to the last finished superstep are folded and readable at any time.
  obs::Tracer* tracer() const { return runtime_.tracer(); }
  VertexId NumVertices() const { return graph_->NumVertices(); }
  EdgeId NumEdges() const { return graph_->NumEdges(); }
  uint32_t OutDeg(VertexId v) const { return graph_->OutDegree(v); }
  uint32_t InDeg(VertexId v) const { return graph_->InDegree(v); }
  uint32_t Deg(VertexId v) const { return graph_->Degree(v); }

  // --- configuration -------------------------------------------------------

  /// Declares which reflected fields are critical (read or written across
  /// workers — Table II). Only these are synchronised to mirrors; the rest
  /// stay master-local. Defaults to all fields.
  void SetCriticalFields(std::initializer_list<int> field_indices) {
    uint32_t mask = 0;
    for (int i : field_indices) {
      FLASH_CHECK(i >= 0 && i < VData::kNumFields);
      mask |= 1u << i;
    }
    critical_mask_ = mask;
  }
  void SetCriticalMaskBits(uint32_t mask) { critical_mask_ = mask; }
  uint32_t critical_mask() const { return critical_mask_; }

  /// Declares that this program communicates beyond the original edge set E
  /// (virtual edge sets, two-hop joins, or arbitrary Read()s). Masters then
  /// synchronise to mirrors in *all* partitions (paper §IV-C); required
  /// before using any EdgeSet with is_subset_of_e() == false.
  void DeclareVirtualEdges() { virtual_edges_ = true; }
  bool virtual_edges_declared() const { return virtual_edges_; }

  /// Forces push/pull/adaptive for subsequent EDGEMAP calls.
  void SetEdgeMapMode(EdgeMapMode mode) { options_.edgemap_mode = mode; }

  // --- vertex data access --------------------------------------------------

  /// FLASHWARE's get(): the consistent current state of any vertex, read
  /// from the replica of the worker currently executing (authoritative for
  /// masters; mirror copy otherwise). Callable from inside user functions;
  /// the executing worker is bound per task, thread-locally.
  const VData& Read(VertexId v) const {
    return stores_[internal::tls_worker].Current(v);
  }

  /// Authoritative copy of every vertex's state (taken from each owner).
  /// Intended for result extraction after the algorithm finishes.
  std::vector<VData> GatherMasters() const {
    std::vector<VData> out(graph_->NumVertices());
    for (int w = 0; w < options_.num_workers; ++w) {
      for (VertexId v : runtime_.partition().OwnedVertices(w)) {
        out[v] = stores_[w].Current(v);
      }
    }
    return out;
  }

  /// Extracts fn(state, id) per vertex from the owners' states.
  template <typename T, typename Fn>
  std::vector<T> ExtractResults(Fn&& fn) const {
    std::vector<T> out(graph_->NumVertices());
    for (int w = 0; w < options_.num_workers; ++w) {
      internal::WorkerScope scope(w);
      for (VertexId v : runtime_.partition().OwnedVertices(w)) {
        out[v] = fn(stores_[w].Current(v), v);
      }
    }
    return out;
  }

  // --- vertexSubset constructors & auxiliary operators ----------------------

  VertexSubset V() const {
    return VertexSubset::All(&runtime_.partition(), graph_->NumVertices());
  }
  VertexSubset None() const { return VertexSubset(&runtime_.partition()); }
  VertexSubset Single(VertexId v) const {
    return VertexSubset::Single(&runtime_.partition(), v);
  }

  /// The SIZE primitive: |U|. Bills the all-reduce that a distributed SIZE
  /// performs (one superstep, paper §III-A).
  size_t Size(const VertexSubset& U) {
    AccountAggregate(sizeof(uint64_t), U.TotalSize());
    return U.TotalSize();
  }

  VertexSubset Union(const VertexSubset& a, const VertexSubset& b) const {
    return VertexSubset::Union(a, b);
  }
  VertexSubset Minus(const VertexSubset& a, const VertexSubset& b) const {
    return VertexSubset::Minus(a, b);
  }
  VertexSubset Intersect(const VertexSubset& a, const VertexSubset& b) const {
    return VertexSubset::Intersect(a, b);
  }
  bool Contains(const VertexSubset& U, VertexId v) const {
    return U.Contains(v);
  }

  // --- edge sets ------------------------------------------------------------

  /// E: the graph's edges.
  EdgeSetRef E() const { return forward_; }
  /// reverse(E).
  EdgeSetRef ReverseE() const { return reverse_; }
  /// join(E, E): two-hop neighbours.
  EdgeSetRef TwoHop() const {
    return std::make_shared<internal::TwoHopEdgeSet<VData>>(graph_);
  }
  /// join(H, U): H's edges whose *target* lies in U. U's dense bitmap is
  /// materialised (billing the frontier all-gather) and captured; U must
  /// outlive the returned set.
  EdgeSetRef Join(EdgeSetRef base, const VertexSubset& U) {
    const Bitset& bits = DenseBitmapBilled(U);
    return std::make_shared<internal::FilteredEdgeSet<VData>>(
        std::move(base), &bits, /*filter_target=*/true);
  }
  /// join(U, H): H's edges whose *source* lies in U.
  EdgeSetRef JoinSources(const VertexSubset& U, EdgeSetRef base) {
    const Bitset& bits = DenseBitmapBilled(U);
    return std::make_shared<internal::FilteredEdgeSet<VData>>(
        std::move(base), &bits, /*filter_target=*/false);
  }
  /// Virtual edges in the push direction: gen(src_state, src, emit) calls
  /// emit(dst, weight) per edge, e.g. join(U, p) is
  ///   OutFn([](const D& s, VertexId, auto& emit) { emit(s.p, 1.0f); }).
  /// Requires DeclareVirtualEdges().
  EdgeSetRef OutFn(typename internal::OutFnEdgeSet<VData>::Generator gen,
                   uint64_t degree_hint = 1) const {
    return std::make_shared<internal::OutFnEdgeSet<VData>>(std::move(gen),
                                                           degree_hint);
  }
  /// Virtual edges in the pull direction: gen(dst_state, dst, emit) calls
  /// emit(src, weight) per in-edge, e.g. join(p, U) is
  ///   InFn([](const D& d, VertexId, auto& emit) { emit(d.p, 1.0f); }).
  EdgeSetRef InFn(typename internal::InFnEdgeSet<VData>::Generator gen) const {
    return std::make_shared<internal::InFnEdgeSet<VData>>(std::move(gen));
  }

  // --- primitives -----------------------------------------------------------

  /// Adaptive EDGEMAP goes dense when |U| + outdeg(U) > |E| / kDenseThreshold
  /// (Ligra's heuristic and divisor).
  static constexpr double kDenseThreshold = 20.0;

  /// VERTEXMAP(U, F): pure filter — Out = {v in U : F(v)}. One superstep.
  template <typename F>
  VertexSubset VertexMap(const VertexSubset& U, F&& f) {
    return VertexMapImpl(U, std::forward<F>(f), internal::NoMap{});
  }

  /// VERTEXMAP(U, F, M): applies M to every vertex of U passing F; Out is
  /// the set of passing vertices. One superstep.
  template <typename F, typename M>
  VertexSubset VertexMap(const VertexSubset& U, F&& f, M&& m) {
    return VertexMapImpl(U, std::forward<F>(f), std::forward<M>(m));
  }

  /// EDGEMAP(U, H, F, M, C, R): density-adaptive dispatch between the pull
  /// (dense) and push (sparse) kernels, Algorithm 4 of the paper.
  template <typename F, typename M, typename C, typename R>
  VertexSubset EdgeMap(const VertexSubset& U, EdgeSetRef H, F&& f, M&& m,
                       C&& c, R&& r) {
    bool use_dense = false;
    switch (options_.edgemap_mode) {
      case EdgeMapMode::kPush:
        use_dense = false;
        break;
      case EdgeMapMode::kPull:
        use_dense = true;
        break;
      case EdgeMapMode::kAdaptive: {
        const uint64_t frontier_work = U.TotalSize() + FrontierOutDegree(U, H);
        use_dense = static_cast<double>(frontier_work) >
                    static_cast<double>(graph_->NumEdges()) /
                        kDenseThreshold;
        break;
      }
    }
    if (!H->supports_pull()) use_dense = false;
    if (!H->supports_push()) use_dense = true;
    if (use_dense) {
      return EdgeMapDense(U, std::move(H), std::forward<F>(f),
                          std::forward<M>(m), std::forward<C>(c));
    }
    return EdgeMapSparse(U, std::move(H), std::forward<F>(f),
                         std::forward<M>(m), std::forward<C>(c),
                         std::forward<R>(r));
  }

  /// EDGEMAPDENSE (pull, Algorithm 5): every worker scans its own masters v
  /// and folds in qualifying in-edges from U; per-vertex folds run inside
  /// one (worker, shard) task, so results are order-independent of the
  /// schedule. No reduce needed.
  template <typename F, typename M, typename C>
  VertexSubset EdgeMapDense(const VertexSubset& U, EdgeSetRef H, F&& f, M&& m,
                            C&& c) {
    CheckEdgeSet(*H, /*need_pull=*/true);
    BeginSuperstep();
    StepSample sample;
    sample.kind = StepKind::kEdgeMapDense;
    sample.frontier_in = static_cast<uint32_t>(U.TotalSize());
    const Bitset& ubits = DenseBitmap(U, &sample);
    const int shards = options_.threads_per_worker;
    if (runtime_.paged()) {
      // Pull mode scans every master's in-adjacency (or out for reversed
      // sets): declare a sweep so the backend can pick the M-Flash dense
      // schedule when the frontier is large enough and the blocks fit.
      const EdgeOrientation pull = H->pull_source();
      if (pull != EdgeOrientation::kUnknown) {
        runtime_.storage()->PlanSweep(runtime_.pool(),
                                      pull == EdgeOrientation::kOutEdges,
                                      U.TotalSize());
      }
    }

    // The pull kernel; for_in(v, store, fn) enumerates v's in-edges in H.
    auto scan = [&](const auto& for_in) {
      RunWorkerShards(
          "dense:scan", Priced::kYes,
          [&](int w) { return runtime_.partition().OwnedVertices(w).size(); },
          [&](int w, int s, size_t lo, size_t hi) {
            VertexStore<VData>& store = stores_[w];
            const auto& targets = runtime_.partition().OwnedVertices(w);
            TaskScratch& task = task_scratch_[w * shards + s];
            uint64_t edges = 0;
            VData vnew;
            for (size_t i = lo; i < hi; ++i) {
              VertexId v = targets[i];
              const VData& dcur = store.Current(v);
              if (!internal::InvokeCond(c, dcur, v)) continue;
              bool touched = false;
              for_in(v, store, [&](VertexId src, float weight) -> bool {
                ++edges;
                if (touched && !internal::InvokeCond(c, vnew, v)) return false;
                if (!ubits.Test(src)) return true;
                const VData& scur = store.Current(src);
                const VData& dview = touched ? vnew : dcur;
                if (internal::InvokeEdgeF(f, scur, dview, src, v, weight)) {
                  if (!touched) {
                    vnew = dcur;
                    touched = true;
                  }
                  internal::InvokeEdgeM(m, scur, vnew, src, v, weight);
                }
                return true;
              });
              if (touched) {
                VData& next = store.MutableNext(v, task.dirty);
                next = std::move(vnew);
                task.out.push_back(v);
              }
            }
            task.tally.edges = edges;
          });
    };
    if (IsEngineCsr(H)) {
      // Pull along E reads in-edges; along reverse(E), out-edges.
      scan(CsrWalker{graph_.get(), /*out_edges=*/H == reverse_});
    } else {
      scan([&H](VertexId v, const VertexStore<VData>& store, const auto& fn) {
        H->ForIn(v, store, fn);
      });
    }
    RunPerWorker("dense:merge", Priced::kYes, [&](int w) {
      MergeTaskLists(w);
      worker_scratch_[w].tally.verts =
          runtime_.partition().OwnedVertices(w).size();
    });
    FoldTallies(sample);
    return FinishStep(sample);
  }

  /// EDGEMAPSPARSE (push, Algorithm 6): frontier masters push M-values to
  /// target owners (serialised vertex messages); owners fold them with the
  /// associative & commutative R; the barrier then syncs mirrors — the
  /// paper's two communication rounds.
  template <typename F, typename M, typename C, typename R>
  VertexSubset EdgeMapSparse(const VertexSubset& U, EdgeSetRef H, F&& f,
                             M&& m, C&& c, R&& r) {
    CheckEdgeSet(*H, /*need_pull=*/false);
    BeginSuperstep();
    StepSample sample;
    sample.kind = StepKind::kEdgeMapSparse;
    sample.frontier_in = static_cast<uint32_t>(U.TotalSize());
    const uint32_t mask = SyncMask();
    const int num_workers = options_.num_workers;
    const int shards = options_.threads_per_worker;
    if (runtime_.paged()) {
      // Push mode reads exactly the frontier's adjacency: declare it so the
      // backend loads those blocks on the pool before the compute tasks
      // demand them.
      const EdgeOrientation push = H->push_source();
      if (push != EdgeOrientation::kUnknown) {
        frontier_scratch_.clear();
        for (int w = 0; w < num_workers; ++w) {
          const auto& owned = U.Owned(w);
          frontier_scratch_.insert(frontier_scratch_.end(), owned.begin(),
                                   owned.end());
        }
        runtime_.storage()->PlanBlocks(runtime_.pool(), frontier_scratch_,
                                       push == EdgeOrientation::kOutEdges);
      }
    }

    // Round 1 compute: every (worker, shard) slice of the frontier runs as
    // one task. Updates to the executing worker's own masters never touch
    // the wire — they are deferred into per-shard pending lists (a real
    // worker updates local memory directly); cross-worker updates are
    // serialised into per-shard per-destination lanes. for_out(u, store,
    // fn) enumerates u's out-edges in H.
    auto push = [&](const auto& for_out) {
      RunWorkerShards(
          "sparse:push", Priced::kYes,
          [&](int w) { return U.Owned(w).size(); },
          [&](int w, int s, size_t lo, size_t hi) {
            VertexStore<VData>& store = stores_[w];
            const auto& frontier = U.Owned(w);
            TaskScratch& task = task_scratch_[w * shards + s];
            const Partition& part = runtime_.partition();
            uint64_t edges = 0;
            VData tmp;
            for (size_t i = lo; i < hi; ++i) {
              VertexId u = frontier[i];
              const VData& scur = store.Current(u);
              for_out(u, store, [&](VertexId dst, float weight) {
                ++edges;
                const VData& dcur = store.Current(dst);
                if (!internal::InvokeCond(c, dcur, dst)) return;
                if (!internal::InvokeEdgeF(f, scur, dcur, u, dst, weight)) {
                  return;
                }
                tmp = dcur;
                internal::InvokeEdgeM(m, scur, tmp, u, dst, weight);
                int owner = part.Owner(dst);
                if (owner == w) {
                  task.pending.push_back({dst, tmp});
                  return;
                }
                WireLane& lane = task.lanes[owner];
                lane.ids.push_back(dst);
                SerializeFields(tmp, mask, lane.payload);
              });
            }
            task.tally.edges = edges;
          });
    };
    if (IsEngineCsr(H)) {
      // Push along E reads out-edges; along reverse(E), in-edges.
      push(CsrWalker{graph_.get(), /*out_edges=*/H == forward_});
    } else {
      push([&H](VertexId u, const VertexStore<VData>& store, const auto& fn) {
        H->ForOut(u, store, fn);
      });
    }

    // Round 1 join: apply the deferred own-master updates in shard order
    // (shards split the frontier contiguously, so this is frontier order
    // at every shard count) and coalesce each destination's shard lanes
    // into one delta-encoded wire frame on the bus. The merged id
    // sequence is frontier emission order — invariant to the shard count
    // — so frame bytes are schedule-invariant. Each worker touches only
    // its own store and outgoing channels.
    RunPerWorker("sparse:flush", Priced::kYes, [&](int w) {
      VertexStore<VData>& store = stores_[w];
      WorkerScratch& scratch = worker_scratch_[w];
      uint64_t applied = 0;
      for (int s = 0; s < shards; ++s) {
        TaskScratch& task = task_scratch_[w * shards + s];
        for (LocalUpdate& update : task.pending) {
          bool first = !store.IsDirty(update.dst);
          VData& next = store.MutableNext(update.dst, scratch.dirty);
          r(update.value, next);
          if (first) scratch.out.push_back(update.dst);
          ++applied;
        }
        RecyclePooled(task.pending, task.pending_high_water);
      }
      store.AppendDirty(std::move(scratch.dirty));
      std::vector<WireFramePart> parts;
      parts.reserve(shards);
      for (int dst = 0; dst < num_workers; ++dst) {
        if (dst == w) continue;
        parts.clear();
        uint64_t count = 0;
        for (int s = 0; s < shards; ++s) {
          WireLane& lane = task_scratch_[w * shards + s].lanes[dst];
          if (lane.empty()) continue;
          parts.push_back(lane.AsPart());
          count += lane.ids.size();
        }
        if (count == 0) continue;
        EncodeWireFrame(runtime_.bus().Channel(w, dst), mask, parts.data(),
                        parts.size());
        runtime_.bus().CountMessages(w, dst, count);
      }
      for (int s = 0; s < shards; ++s) {
        for (WireLane& lane : task_scratch_[w * shards + s].lanes) {
          lane.Recycle();
        }
      }
      scratch.tally.verts += applied;
    });

    // Round 1 exchange + owner-side reduce.
    runtime_.bus().Exchange();
    runtime_.bus().AddLastExchange(sample);
    // Owner-side fold, three phases. Scan: parse every incoming frame's
    // header + delta ids (cheap, serial per worker) and index where its
    // payload records start. Decode: rebuild the update values across all
    // (worker, shard) tasks — pure reads, batch count headers give each
    // shard an exact record range. Apply: fold the decoded values with R
    // strictly in the original (source, record) order on one task per
    // worker, so the reduction chain — and any floating-point rounding —
    // is bit-identical at every host thread count.
    RunPerWorker("sparse:scan", Priced::kYes,
                 [&](int w) { ScanIncomingFrames(w, mask); });
    constexpr bool kFixed = kFixedWidthFields<VData>;
    RunWorkerShards(
        "sparse:decode", Priced::kYes,
        [&](int w) {
          const RecvScratch& recv = worker_scratch_[w].recv;
          return kFixed ? recv.ids.size() : recv.frames.size();
        },
        [&](int w, int /*shard*/, size_t lo, size_t hi) {
          if constexpr (kFixed) {
            DecodeRecordRange(w, lo, hi, mask);
          } else {
            DecodeFrameRange(w, lo, hi, mask);
          }
        });
    RunPerWorker("sparse:apply", Priced::kYes, [&](int w) {
      WorkerScratch& scratch = worker_scratch_[w];
      RecvScratch& recv = scratch.recv;
      VertexStore<VData>& store = stores_[w];
      const size_t n = recv.ids.size();
      for (size_t i = 0; i < n; ++i) {
        const VertexId v = recv.ids[i];
        FLASH_DCHECK(runtime_.partition().Owner(v) == w);
        bool first = !store.IsDirty(v);
        VData& next = store.MutableNext(v, scratch.dirty);
        r(recv.values[i], next);
        if (first) scratch.out.push_back(v);
      }
      store.AppendDirty(std::move(scratch.dirty));
      recv.Recycle();
      scratch.tally.verts += n;
    });
    FoldTallies(sample);
    return FinishStep(sample);
  }

  // --- global aggregation ----------------------------------------------------

  /// Folds map(state, id) over U with the commutative/associative `reduce`;
  /// bills one all-reduce superstep. Workers map their masters in parallel;
  /// the fold itself runs in worker order on one thread, so the reduction
  /// chain — and any floating-point rounding — is identical at every host
  /// thread count.
  template <typename T, typename Map, typename Red>
  T Reduce(const VertexSubset& U, T init, Map&& map, Red&& reduce) {
    BeginSuperstep();
    T acc = init;
    // One cache line per worker's list header: the map appends per vertex.
    struct alignas(64) Mapped {
      std::vector<T> values;
    };
    std::vector<Mapped> mapped(options_.num_workers);
    RunPerWorker("reduce:map", Priced::kNo, [&](int w) {
      const auto& owned = U.Owned(w);
      std::vector<T>& values = mapped[w].values;
      values.reserve(owned.size());
      for (VertexId v : owned) {
        values.push_back(map(stores_[w].Current(v), v));
      }
    });
    for (int w = 0; w < options_.num_workers; ++w) {
      for (T& value : mapped[w].values) acc = reduce(acc, value);
    }
    AccountAggregate(sizeof(T), U.TotalSize());
    return acc;
  }

  /// The paper's auxiliary REDUCE operator for gathering worker-local
  /// results (e.g. the local MSFs of the distributed Kruskal): concatenates
  /// per-worker vectors, billing the gather traffic.
  template <typename T>
  std::vector<T> AllGather(const std::vector<std::vector<T>>& per_worker) {
    static_assert(std::is_trivially_copyable_v<T>);
    BeginSuperstep();
    std::vector<T> all;
    uint64_t bytes = 0;
    uint64_t max_bytes = 0;
    for (const auto& part : per_worker) {
      all.insert(all.end(), part.begin(), part.end());
      uint64_t b = part.size() * sizeof(T);
      bytes += b * (options_.num_workers - 1);
      max_bytes = std::max(max_bytes, b * (options_.num_workers - 1));
    }
    StepSample sample;
    sample.kind = StepKind::kAggregate;
    if (options_.num_workers > 1) {
      sample.bytes_total = bytes;
      sample.bytes_max = max_bytes;
      sample.msgs_total = static_cast<uint64_t>(options_.num_workers) *
                          (options_.num_workers - 1);
    }
    metrics_.AddStep(sample, options_.record_steps);
    ObsEndSuperstep(sample);
    return all;
  }

  /// Runs fn(worker) for every worker with the Read() context set — the
  /// hook used by algorithms with a worker-local sequential stage (MSF's
  /// local Kruskal, BCC's tree-join). Sequential: user stages may share
  /// driver-side state across workers.
  template <typename Fn>
  void ForEachWorker(Fn&& fn) {
    for (int w = 0; w < options_.num_workers; ++w) {
      internal::WorkerScope scope(w);
      fn(w);
    }
  }

 private:
  /// The asynchronous execution backend (core/async_engine.h) is a sibling
  /// of the BSP loop, not a layer above the public API: it drives the same
  /// stores, runtime, and metrics directly.
  template <typename V, typename Program>
  friend class AsyncEngine;

  /// One accumulation lane of update traffic headed for a single destination
  /// worker: update targets in emission order plus their serialised payload
  /// records, columnar so the flush can coalesce lanes into one
  /// delta-encoded wire frame per channel (WireBatch codec, serialize.h).
  /// Capacity is pooled across supersteps under the high-water-mark policy.
  /// Lanes are appended to per update, so each one owns whole cache lines:
  /// lane arrays of concurrently running tasks never share a line.
  struct alignas(64) WireLane {
    std::vector<VertexId> ids;
    BufferWriter payload;
    size_t ids_high_water = 0;
    size_t payload_high_water = 0;

    bool empty() const { return ids.empty(); }
    WireFramePart AsPart() const {
      return {ids.data(), ids.size(), payload.bytes().data(), payload.size()};
    }
    void Recycle() {
      RecyclePooled(ids, ids_high_water);
      payload.Recycle(payload_high_water);
    }
    size_t CapacityBytes() const {
      return ids.capacity() * sizeof(VertexId) + payload.capacity();
    }
  };

  /// One decoded incoming frame of EDGEMAPSPARSE round 1: where its records
  /// sit in the worker's concatenated id/value arrays and where its payload
  /// region starts in the channel buffer.
  struct RecvFrame {
    int src = 0;
    size_t first_record = 0;
    const uint8_t* payload = nullptr;
    size_t payload_size = 0;
  };

  /// Per-worker receive-side scratch: ids and decoded values of all incoming
  /// sparse frames, concatenated in source order (= the exact fold order the
  /// serial walk used), filled by the parallel decode phase.
  struct RecvScratch {
    std::vector<RecvFrame> frames;
    std::vector<VertexId> ids;
    std::vector<VData> values;
    size_t ids_high_water = 0;
    size_t values_high_water = 0;

    void Recycle() {
      frames.clear();
      RecyclePooled(ids, ids_high_water);
      RecyclePooled(values, values_high_water);
    }
    size_t CapacityBytes() const {
      return frames.capacity() * sizeof(RecvFrame) +
             ids.capacity() * sizeof(VertexId) +
             values.capacity() * sizeof(VData);
    }
  };

  /// A deferred round-1 update to one of the executing worker's own
  /// masters, applied after the shard join (direct-local delivery without
  /// serialisation, valid at any shard count).
  struct LocalUpdate {
    VertexId dst;
    VData value;
  };

  /// Everything one (worker, shard) compute task writes while it runs. The
  /// vector headers are updated per vertex or per edge, so each task's block
  /// owns its cache lines: packed side by side, concurrent tasks would
  /// bounce the shared lines between cores. Pooled across supersteps; the
  /// id lists hold at most the task's slice of one worker's masters.
  struct alignas(64) TaskScratch {
    std::vector<VertexId> out;    // Dense/VERTEXMAP frontier slice.
    std::vector<VertexId> dirty;  // Masters this task first wrote.
    // EDGEMAPSPARSE round 1: deferred own-master updates and one lane per
    // destination worker.
    std::vector<LocalUpdate> pending;
    size_t pending_high_water = 0;
    std::vector<WireLane> lanes;
    StepTally tally;  // This superstep's priced work.
  };

  /// Everything one worker's merge, barrier and receive passes write, one
  /// cache-line-owned block per worker for the same reason as TaskScratch.
  struct alignas(64) WorkerScratch {
    std::vector<VertexId> out;    // This superstep's frontier (FinishStep).
    std::vector<VertexId> dirty;  // Masters first written by flush/apply.
    RecvScratch recv;
    std::vector<WireLane> commit_lanes;  // Mirror-sync ids, per destination.
    uint64_t committed = 0;
    StepTally tally;  // This superstep's priced per-worker passes.
  };

  /// Whether a phase's task time is compute that the cost model prices
  /// (StepSample::comp_max). Unpriced phases read no clock untraced.
  enum class Priced : bool { kNo, kYes };

  /// Inline enumerator for the engine's own E / reverse(E): walks the CSR
  /// spans with the kernel's edge callback inlined, where the virtual
  /// EdgeSet path pays a std::function call per edge.
  struct CsrWalker {
    const Graph* graph = nullptr;
    bool out_edges = false;

    template <typename Fn>
    void operator()(VertexId v, const VertexStore<VData>&, Fn&& fn) const {
      internal::WalkCsrAdjacency(*graph, v, out_edges, fn);
    }
  };

  /// True when H is this engine's own E or reverse(E), which the kernels
  /// enumerate inline; joins and function-defined sets stay virtual.
  bool IsEngineCsr(const EdgeSetRef& H) const {
    return H == forward_ || H == reverse_;
  }

  /// Sum over U of each vertex's out-degree in H, for the density test:
  /// CSR degrees for E / reverse(E), the virtual hint for any other set.
  uint64_t FrontierOutDegree(const VertexSubset& U, const EdgeSetRef& H) const {
    uint64_t total = 0;
    const bool csr = IsEngineCsr(H);
    const bool out_edges = H == forward_;
    for (int w = 0; w < options_.num_workers; ++w) {
      for (VertexId v : U.Owned(w)) {
        total += !csr       ? H->OutDegreeHint(v)
                 : out_edges ? graph_->OutDegree(v)
                             : graph_->InDegree(v);
      }
    }
    return total;
  }

  /// Joins worker w's shard outputs in shard order: frontier slices into the
  /// worker's out list, dirty slices into its store.
  void MergeTaskLists(int w) {
    const int shards = options_.threads_per_worker;
    WorkerScratch& scratch = worker_scratch_[w];
    for (int s = 0; s < shards; ++s) {
      TaskScratch& task = task_scratch_[w * shards + s];
      scratch.out.insert(scratch.out.end(), task.out.begin(), task.out.end());
      task.out.clear();
      stores_[w].AppendDirty(std::move(task.dirty));
    }
  }

  /// Runs task(w, s, lo, hi) for every (worker, logical shard) slice of a
  /// superstep's compute phase and blocks until all complete. The shard
  /// count and contiguous split come from threads_per_worker — never from
  /// the executing thread count — so the per-shard buffers each kernel
  /// fills are identical however tasks are scheduled. The Read() context is
  /// bound inside each task. `label` names the phase span (host lane) and
  /// every per-task span (worker/shard lane) when tracing is armed. Each
  /// task of a priced phase is timed once, into its TaskScratch tally; its
  /// span shares the two clock readings.
  template <typename SizeFn, typename TaskFn>
  void RunWorkerShards(const char* label, Priced priced, SizeFn&& size_of,
                       TaskFn&& task) {
    const int shards = options_.threads_per_worker;
    const int num_workers = options_.num_workers;
    obs::Tracer* const tracer = runtime_.tracer();
    if (tracer != nullptr) tracer->BeginPhase();
    OBS_SPAN(tracer, label, obs::SpanKind::kPhase);
    runtime_.pool().ParallelForWorkers(num_workers * shards, [&](int t) {
      const int w = t / shards;
      const int s = t % shards;
      internal::WorkerScope scope(w);
      const size_t n = size_of(w);
      const size_t lo = n * static_cast<size_t>(s) / shards;
      const size_t hi = n * static_cast<size_t>(s + 1) / shards;
      OBS_SPAN(tracer, label, obs::SpanKind::kTask, w, s,
               priced == Priced::kYes ? &task_scratch_[t].tally.seconds
                                      : nullptr);
      task(w, s, lo, hi);
    });
  }

  /// Runs fn(w) once per worker and blocks until all complete — the
  /// merge/commit/apply phases whose targets (a worker's store, its
  /// outgoing channels, its output list) are single-writer per worker.
  /// `label` and `priced` act as in RunWorkerShards; a priced task's time
  /// goes to its WorkerScratch tally.
  template <typename Fn>
  void RunPerWorker(const char* label, Priced priced, Fn&& fn) {
    obs::Tracer* const tracer = runtime_.tracer();
    if (tracer != nullptr) tracer->BeginPhase();
    OBS_SPAN(tracer, label, obs::SpanKind::kPhase);
    runtime_.pool().ParallelForWorkers(options_.num_workers, [&](int w) {
      internal::WorkerScope scope(w);
      OBS_SPAN(tracer, label, obs::SpanKind::kTask, w, -1,
               priced == Priced::kYes ? &worker_scratch_[w].tally.seconds
                                      : nullptr);
      fn(w);
    });
  }

  /// Zeroes every task and worker tally; a superstep or async round opens
  /// with this.
  void ResetTallies() {
    for (TaskScratch& task : task_scratch_) task.tally = StepTally{};
    for (WorkerScratch& scratch : worker_scratch_) scratch.tally = StepTally{};
  }

  /// Folds the tallies of the open superstep (or async round) into
  /// `sample`: each worker's shard tasks plus its per-worker passes.
  void FoldTallies(StepSample& sample) const {
    const int shards = options_.threads_per_worker;
    for (int w = 0; w < options_.num_workers; ++w) {
      StepTally worker = worker_scratch_[w].tally;
      for (int s = 0; s < shards; ++s) {
        worker += task_scratch_[w * shards + s].tally;
      }
      FoldWorkerTally(worker, sample);
    }
  }

  /// Superstep-span bracket. ObsBeginSuperstep (from BeginSuperstep, i.e.
  /// primitive entry) binds the tracer to this superstep's index and stamps
  /// the begin time; ObsEndSuperstep (after Metrics::AddStep) records the
  /// superstep span — named after the StepKind, args = frontier in/out —
  /// and folds the thread buffers, so spans() is current at every barrier.
  /// Aggregate steps billed without a BeginSuperstep (SIZE, join bitmaps)
  /// degrade to an instant-length span at the end stamp.
  void ObsBeginSuperstep() {
    obs::Tracer* const tracer = runtime_.tracer();
    if (tracer == nullptr) return;
    tracer->SetSuperstep(metrics_.supersteps);
    tracer->BeginPhase();  // Boundary work (ckpt/recovery) gets its own epoch.
    obs_step_begin_ns_ = tracer->NowNs();
    obs_step_open_ = true;
  }

  void ObsEndSuperstep(const StepSample& sample) {
    obs::Tracer* const tracer = runtime_.tracer();
    if (tracer == nullptr) return;
    const uint64_t end_ns = tracer->NowNs();
    const uint64_t begin_ns = obs_step_open_ ? obs_step_begin_ns_ : end_ns;
    obs_step_open_ = false;
    // AddStep already ran: this superstep's index is supersteps - 1.
    tracer->SetSuperstep(metrics_.supersteps - 1);
    tracer->BeginPhase();
    tracer->Record(StepSpanName(sample.kind), obs::SpanKind::kSuperstep,
                   obs::kHostLane, -1, begin_ns, end_ns, sample.frontier_in,
                   sample.frontier_out);
    tracer->Fold();
  }

  static const char* StepSpanName(StepKind kind) {
    switch (kind) {
      case StepKind::kVertexMap: return "step:vertexmap";
      case StepKind::kEdgeMapDense: return "step:edgemap_dense";
      case StepKind::kEdgeMapSparse: return "step:edgemap_sparse";
      case StepKind::kAggregate: return "step:aggregate";
      case StepKind::kAsyncRound: return "step:async_round";
      case StepKind::kWalkStep: return "step:walk";
    }
    return "step";
  }

  uint32_t SyncMask() const {
    return options_.sync_critical_only ? critical_mask_
                                       : AllFieldsMask<VData>();
  }

  void CheckEdgeSet(const EdgeSet<VData>& set, bool need_pull) const {
    if (need_pull) {
      FLASH_CHECK(set.supports_pull())
          << "edge set does not support pull-mode (EDGEMAPDENSE)";
    } else {
      FLASH_CHECK(set.supports_push())
          << "edge set does not support push-mode (EDGEMAPSPARSE)";
    }
    if (!set.is_subset_of_e() && options_.necessary_mirrors_only) {
      FLASH_CHECK(virtual_edges_)
          << "this EDGEMAP communicates beyond the neighbourhood of E; call "
             "DeclareVirtualEdges() so mirrors in all partitions stay "
             "consistent (paper IV-C)";
    }
  }

  /// Dense bitmap of U; bills the frontier all-gather on first
  /// materialisation (each worker broadcasts its membership words).
  const Bitset& DenseBitmap(const VertexSubset& U, StepSample* sample) {
    bool already = U.dense_materialized();
    const Bitset& bits = U.EnsureDense(graph_->NumVertices());
    if (!already && options_.num_workers > 1) {
      uint64_t bitmap_bytes = (graph_->NumVertices() + 7) / 8;
      uint64_t total =
          bitmap_bytes * static_cast<uint64_t>(options_.num_workers - 1);
      if (sample != nullptr) {
        sample->bytes_total += total;
        sample->bytes_max += bitmap_bytes;
        sample->msgs_total += static_cast<uint64_t>(options_.num_workers) *
                              (options_.num_workers - 1);
      }
    }
    return bits;
  }

  const Bitset& DenseBitmapBilled(const VertexSubset& U) {
    StepSample sample;
    sample.kind = StepKind::kAggregate;
    bool already = U.dense_materialized();
    const Bitset& bits = DenseBitmap(U, &sample);
    if (!already && options_.num_workers > 1) {
      metrics_.AddStep(sample, options_.record_steps);
      ObsEndSuperstep(sample);
    }
    return bits;
  }

  void AccountAggregate(uint64_t element_bytes, uint64_t verts) {
    StepSample sample;
    sample.kind = StepKind::kAggregate;
    sample.verts_total = verts;
    if (options_.num_workers > 1) {
      uint64_t pairs = static_cast<uint64_t>(options_.num_workers) *
                       (options_.num_workers - 1);
      sample.bytes_total = element_bytes * pairs;
      sample.bytes_max = element_bytes * (options_.num_workers - 1);
      sample.msgs_total = pairs;
    }
    metrics_.AddStep(sample, options_.record_steps);
    ObsEndSuperstep(sample);
    runtime_.SyncFaultStats(metrics_);
  }

  /// Sparse receive phase 1: parses the header + id section of every frame
  /// worker `w` received, concatenating ids into its RecvScratch in source
  /// order and recording where each frame's payload region begins.
  void ScanIncomingFrames(int w, uint32_t mask) {
    RecvScratch& scratch = worker_scratch_[w].recv;
    scratch.frames.clear();
    scratch.ids.clear();
    for (int src = 0; src < options_.num_workers; ++src) {
      if (src == w) continue;
      const std::vector<uint8_t>& buffer = runtime_.bus().Incoming(w, src);
      if (buffer.empty()) continue;
      BufferReader reader(buffer);
      const size_t first = scratch.ids.size();
      const Status st =
          ReadWireFrame(reader, mask, graph_->NumVertices(), &scratch.ids);
      FLASH_CHECK(st.ok()) << "sparse frame " << src << "->" << w << ": "
                           << st.ToString();
      scratch.frames.push_back(
          {src, first, reader.cursor(), reader.remaining()});
    }
    scratch.values.resize(scratch.ids.size());
  }

  /// Sparse receive phase 2, fixed-width VData: decodes records [lo, hi) of
  /// worker `w`'s concatenated frames — record i of a frame sits exactly
  /// `stride` bytes past record i-1, so any record range maps straight onto
  /// payload offsets. Pure reads of `current`; writes only values[lo, hi).
  void DecodeRecordRange(int w, size_t lo, size_t hi, uint32_t mask) {
    RecvScratch& scratch = worker_scratch_[w].recv;
    VertexStore<VData>& store = stores_[w];
    const size_t stride = FixedFieldsByteSize<VData>(mask);
    const size_t num_frames = scratch.frames.size();
    size_t f = 0;
    auto frame_end = [&](size_t index) {
      return index + 1 < num_frames ? scratch.frames[index + 1].first_record
                                    : scratch.ids.size();
    };
    for (size_t i = lo; i < hi; ++i) {
      while (f < num_frames && frame_end(f) <= i) ++f;
      const RecvFrame& frame = scratch.frames[f];
      const size_t offset = (i - frame.first_record) * stride;
      FLASH_DCHECK(offset + stride <= frame.payload_size);
      // Rebuild the sender's tmp value: non-critical fields are the owner's
      // authoritative ones, critical fields come from the wire.
      scratch.values[i] = store.Current(scratch.ids[i]);
      UnpackFields(scratch.values[i], mask, frame.payload + offset);
    }
  }

  /// Sparse receive phase 2, variable-width VData: records must be decoded
  /// in sequence, so the split unit is whole frames [lo, hi) instead.
  void DecodeFrameRange(int w, size_t lo, size_t hi, uint32_t mask) {
    RecvScratch& scratch = worker_scratch_[w].recv;
    VertexStore<VData>& store = stores_[w];
    for (size_t f = lo; f < hi; ++f) {
      const RecvFrame& frame = scratch.frames[f];
      const size_t end = f + 1 < scratch.frames.size()
                             ? scratch.frames[f + 1].first_record
                             : scratch.ids.size();
      BufferReader reader(frame.payload, frame.payload_size);
      for (size_t i = frame.first_record; i < end; ++i) {
        VData tmp = store.Current(scratch.ids[i]);
        DeserializeFields(tmp, mask, reader);
        scratch.values[i] = std::move(tmp);
      }
    }
  }

  /// Decodes one mirror-sync frame and overlays its masked fields onto
  /// worker `w`'s replicas. Masters are unique per vertex, so concurrent
  /// calls for different source channels touch disjoint vertices. A
  /// fixed-width payload column is bounds-checked once, then unpacked in
  /// one pass; variable-width records are read one by one.
  void ApplyMirrorFrame(int w, uint32_t mask,
                        const std::vector<uint8_t>& buffer) {
    if (buffer.empty()) return;
    BufferReader reader(buffer);
    thread_local std::vector<VertexId> ids;
    ids.clear();
    const Status st = ReadWireFrame(reader, mask, graph_->NumVertices(), &ids);
    FLASH_CHECK(st.ok()) << "mirror frame: " << st.ToString();
    VertexStore<VData>& store = stores_[w];
    if constexpr (kFixedWidthFields<VData>) {
      FLASH_CHECK_LE(ids.size() * FixedFieldsByteSize<VData>(mask),
                     reader.remaining())
          << "mirror frame: truncated payload";
      const uint8_t* in = reader.cursor();
      for (VertexId v : ids) {
        in = UnpackFields(store.DirectCurrent(v), mask, in);
      }
    } else {
      for (VertexId v : ids) store.ApplyMirror(v, mask, reader);
    }
  }

  /// VERTEXMAP implementation; M may be internal::NoMap for filter-only.
  template <typename F, typename M>
  VertexSubset VertexMapImpl(const VertexSubset& U, F&& f, M&& m) {
    constexpr bool kHasMap = !std::is_same_v<std::decay_t<M>, internal::NoMap>;
    BeginSuperstep();
    StepSample sample;
    sample.kind = StepKind::kVertexMap;
    sample.frontier_in = static_cast<uint32_t>(U.TotalSize());
    const int shards = options_.threads_per_worker;
    RunWorkerShards(
        "vmap:filter", Priced::kYes,
        [&](int w) { return U.Owned(w).size(); },
        [&](int w, int s, size_t lo, size_t hi) {
          VertexStore<VData>& store = stores_[w];
          const auto& owned = U.Owned(w);
          TaskScratch& task = task_scratch_[w * shards + s];
          for (size_t i = lo; i < hi; ++i) {
            VertexId v = owned[i];
            const VData& cur = store.Current(v);
            if (!internal::InvokeVertexF(f, cur, v)) continue;
            task.out.push_back(v);
            if constexpr (kHasMap) {
              VData& next = store.MutableNext(v, task.dirty);
              internal::InvokeVertexM(m, next, v);
            }
          }
        });
    RunPerWorker("vmap:merge", Priced::kYes, [&](int w) {
      MergeTaskLists(w);
      worker_scratch_[w].tally.verts = U.Owned(w).size();
    });
    FoldTallies(sample);
    return FinishStep(sample);
  }

  /// The BSP barrier ending every primitive: commit dirty masters, ship
  /// their critical fields to the mirrors that need them, deliver, account.
  /// Both halves run all workers concurrently — commit/serialise writes
  /// only worker w's store and outgoing channels, mirror apply only worker
  /// w's replicas — with the Exchange() buffer flip as the barrier between.
  /// Under an active checkpoint plan, each worker also redo-logs its state
  /// mutations (committed masters, applied mirror payloads) so a crashed
  /// worker can be rebuilt as checkpoint-image + log replay. The step's
  /// output frontier is each worker's WorkerScratch::out list.
  VertexSubset FinishStep(StepSample sample) {
    const uint32_t mask = SyncMask();
    const int num_workers = options_.num_workers;
    const bool broadcast = BroadcastsMirrors();
    CheckpointManager* const ckpt = runtime_.checkpoints();
    const bool log_recovery = ckpt != nullptr;

    RunPerWorker("barrier:commit", Priced::kNo, [&](int w) {
      // Ascending commit order makes every destination's id batch sorted —
      // the densest delta encoding — and is unobservable otherwise:
      // committed masters are disjoint promotions and the out-frontier was
      // already fixed during the compute phase.
      VertexStore<VData>& store = stores_[w];
      store.SortDirtyForCommit();
      worker_scratch_[w].committed = store.dirty_list().size();
      ShipMasters(w, store.dirty_list(), mask, broadcast,
                  log_recovery ? &ckpt->log(w) : nullptr,
                  [&](const auto& ship) { store.Commit(ship); });
    });
    std::vector<std::vector<VertexId>> out(num_workers);
    for (int w = 0; w < num_workers; ++w) {
      metrics_.masters_committed += worker_scratch_[w].committed;
      out[w] = std::move(worker_scratch_[w].out);
      worker_scratch_[w].out.clear();
    }
    runtime_.bus().Exchange();
    if (log_recovery) {
      // Each received mirror frame joins the receiver's redo log verbatim,
      // in source order, after the worker's own commit frame.
      for (int w = 0; w < num_workers; ++w) {
        for (int src = 0; src < num_workers; ++src) {
          const std::vector<uint8_t>& frame = runtime_.bus().Incoming(w, src);
          if (src != w) ckpt->log(w).WriteRaw(frame.data(), frame.size());
        }
      }
    }
    // Mirror updates for a vertex come only from its unique master, so
    // source channels decode + apply concurrently across shards.
    RunWorkerShards(
        "barrier:apply", Priced::kNo,
        [&](int) { return static_cast<size_t>(num_workers); },
        [&](int w, int /*shard*/, size_t lo, size_t hi) {
          for (size_t src = lo; src < hi; ++src) {
            if (static_cast<int>(src) == w) continue;
            ApplyMirrorFrame(w, mask, runtime_.bus().Incoming(w, src));
          }
        });
    runtime_.bus().AddLastExchange(sample);
    UpdateWirePoolPeak();

    // Barrier: close the storage epoch and snapshot the backend's lifetime
    // counters.
    runtime_.CloseEpoch(sample, metrics_);

    if (log_recovery) last_frontier_ = out;  // For the next snapshot.
    VertexSubset result =
        VertexSubset::FromWorkerLists(&runtime_.partition(), std::move(out));
    sample.frontier_out = static_cast<uint32_t>(result.TotalSize());
    metrics_.AddStep(sample, options_.record_steps);
    ObsEndSuperstep(sample);
    runtime_.SyncFaultStats(metrics_);
    return result;
  }

  /// Whether masters sync to every other worker (virtual edges, or the
  /// necessary-mirrors optimisation off) rather than to their mirror masks.
  bool BroadcastsMirrors() const {
    return virtual_edges_ || !options_.necessary_mirrors_only;
  }

  /// Workers that receive master v of worker w at a mirror sync.
  uint64_t MirrorTargets(int w, VertexId v, bool broadcast) const {
    if (!broadcast) return runtime_.partition().MirrorMask(v);
    const int m = options_.num_workers;
    const uint64_t all = m >= 64 ? ~uint64_t{0} : (uint64_t{1} << m) - 1;
    return all & ~(uint64_t{1} << w);
  }

  /// Mirror sync of worker w's masters `ids` (ascending): one frame per
  /// destination straight onto channel (w, dst) — header and id column
  /// (EncodeWireFrame on the ids alone), then the records — and, when `log`
  /// is set, an all-fields frame of every id onto it (the redo log's commit
  /// entry). `visit(fn)` must call fn(v, value) for each id in order;
  /// `ids` is read only before it runs. Each value is encoded once, writing
  /// its log record in the same pass, and copied to its other destinations.
  /// Fixed-width records are packed in place into payload columns reserved
  /// behind the ids; variable-width ones are serialised onto the channels.
  template <typename Visit>
  void ShipMasters(int w, const std::vector<VertexId>& ids, uint32_t mask,
                   bool broadcast, BufferWriter* log, Visit&& visit) {
    constexpr bool kFixed = kFixedWidthFields<VData>;
    const uint32_t all = AllFieldsMask<VData>();
    MessageBus& bus = runtime_.bus();
    std::vector<WireLane>& lanes = worker_scratch_[w].commit_lanes;
    for (const VertexId v : ids) {
      for (uint64_t t = MirrorTargets(w, v, broadcast); t != 0; t &= t - 1) {
        lanes[__builtin_ctzll(t)].ids.push_back(v);
      }
    }
    size_t stride = 0;
    size_t log_stride = 0;
    if constexpr (kFixed) {
      stride = FixedFieldsByteSize<VData>(mask);
      log_stride = FixedFieldsByteSize<VData>(all);
    }
    auto open = [](BufferWriter& out, uint32_t frame_mask,
                   const std::vector<VertexId>& frame_ids, size_t record) {
      const WireFramePart part{frame_ids.data(), frame_ids.size()};
      EncodeWireFrame(out, frame_mask, &part, 1);
      return out.Extend(frame_ids.size() * record);
    };
    std::array<uint8_t*, kMaxWorkers> cursor;
    for (int dst = 0; dst < options_.num_workers; ++dst) {
      if (lanes[dst].empty()) continue;
      cursor[dst] = open(bus.Channel(w, dst), mask, lanes[dst].ids, stride);
      bus.CountMessages(w, dst, lanes[dst].ids.size());
    }
    uint8_t* log_cursor =
        log != nullptr ? open(*log, all, ids, log_stride) : nullptr;
    visit([&](VertexId v, const VData& value) {
      const uint64_t targets = MirrorTargets(w, v, broadcast);
      if (targets == 0 && log == nullptr) return;
      // The first destination takes the encoding (the log alone when there
      // is none); the others copy it.
      const int first = targets != 0 ? __builtin_ctzll(targets) : -1;
      const uint32_t record_mask = first >= 0 ? mask : all;
      if constexpr (kFixed) {
        uint8_t* const record = first >= 0 ? cursor[first] : log_cursor;
        PackFields(value, record_mask, record,
                   first >= 0 ? log_cursor : nullptr);
        if (log != nullptr) log_cursor += log_stride;
        for (uint64_t t = targets; t != 0; t &= t - 1) {
          uint8_t*& at = cursor[__builtin_ctzll(t)];
          if (at != record) std::memcpy(at, record, stride);
          at += stride;
        }
      } else {
        BufferWriter& out = first >= 0 ? bus.Channel(w, first) : *log;
        const size_t begin = out.size();
        SerializeFields(value, record_mask, out, first >= 0 ? log : nullptr);
        for (uint64_t t = targets & (targets - 1); t != 0; t &= t - 1) {
          bus.Channel(w, __builtin_ctzll(t))
              .WriteRaw(out.bytes().data() + begin, out.size() - begin);
        }
      }
    });
    for (WireLane& lane : lanes) lane.Recycle();
  }

  /// Flushes worker w's per-destination lanes: one wire frame (stamped
  /// `mask`) per non-empty lane on channel (w, dst), its records counted as
  /// messages; every lane is then recycled. Single-writer: only w touches
  /// Channel(w, *).
  void FlushLanes(int w, std::vector<WireLane>& lanes, uint32_t mask) {
    MessageBus& bus = runtime_.bus();
    for (int dst = 0; dst < options_.num_workers; ++dst) {
      WireLane& lane = lanes[dst];
      if (!lane.empty()) {
        const WireFramePart part = lane.AsPart();
        EncodeWireFrame(bus.Channel(w, dst), mask, &part, 1);
        bus.CountMessages(w, dst, lane.ids.size());
      }
      lane.Recycle();
    }
  }

  /// Samples the capacity retained by every pooled wire buffer — bus
  /// channels, sparse/commit lanes, deferred-local lists, receive scratch —
  /// into the run's peak gauge. Runs single-threaded at the end of each
  /// barrier; O(workers * shards * workers) sums of cached capacities.
  void UpdateWirePoolPeak() {
    uint64_t capacity = runtime_.bus().PoolCapacityBytes();
    for (const TaskScratch& task : task_scratch_) {
      capacity += task.pending.capacity() * sizeof(LocalUpdate);
      for (const WireLane& lane : task.lanes) capacity += lane.CapacityBytes();
    }
    for (const WorkerScratch& scratch : worker_scratch_) {
      for (const WireLane& lane : scratch.commit_lanes) {
        capacity += lane.CapacityBytes();
      }
      capacity += scratch.recv.CapacityBytes();
    }
    metrics_.wire_pool_peak_bytes =
        std::max(metrics_.wire_pool_peak_bytes, capacity);
  }

  /// Fault-plan hook at the entry of every primitive (= superstep): take a
  /// checkpoint if one is due, then fire any worker crashes scheduled for
  /// this superstep and rebuild the victims from the last checkpoint plus
  /// their redo logs. Runs between primitives, where no uncommitted state is
  /// pending, so recovery is exact. No-op without an active fault plan.
  void BeginSuperstep() {
    runtime_.OpenEpoch();
    ObsBeginSuperstep();
    ResetTallies();
    FaultInjector* const injector = runtime_.injector();
    if (injector == nullptr) return;
    const uint64_t step = metrics_.supersteps;
    CheckpointManager* const ckpt = runtime_.checkpoints();
    if (ckpt != nullptr && ckpt->Due(step)) TakeCheckpoint(step);
    for (int w : injector->TakeCrashes(step)) RecoverWorker(w);
    runtime_.SyncFaultStats(metrics_);
  }

  /// Snapshots every worker's full vertex store plus the last frontier into
  /// sealed (checksummed) blobs and truncates the redo logs.
  void TakeCheckpoint(uint64_t step) {
    FaultStats& stats = runtime_.injector()->stats();
    const uint64_t bytes_before = stats.checkpoint_bytes;
    OBS_SPAN_VAR(snap_span, runtime_.tracer(), "ckpt:snapshot",
                 obs::SpanKind::kCheckpoint);
    std::vector<std::vector<uint8_t>> states(options_.num_workers);
    RunPerWorker("ckpt:encode", Priced::kNo,
                 [&](int w) { states[w] = EncodeWorkerState(w, step); });
    runtime_.checkpoints()->StoreSnapshot(
        step, std::move(states), EncodeFrontierLists(step, last_frontier_),
        stats);
    snap_span.args(stats.checkpoint_bytes - bytes_before,
                   static_cast<uint64_t>(options_.num_workers));
  }

  /// Serialises worker `w`'s complete store — masters and mirrors, all
  /// fields — preceded by a small header that Decode validates.
  std::vector<uint8_t> EncodeWorkerState(int w, uint64_t step) {
    const VertexId n = graph_->NumVertices();
    BufferWriter out;
    out.WriteVarint(1);  // Snapshot format version.
    out.WriteVarint(step);
    out.WriteVarint(static_cast<uint64_t>(w));
    out.WriteVarint(static_cast<uint64_t>(n));
    const uint32_t all = AllFieldsMask<VData>();
    VertexStore<VData>& store = stores_[w];
    for (VertexId v = 0; v < n; ++v) {
      SerializeFields(store.Current(v), all, out);
    }
    std::vector<uint8_t> blob;
    out.SwapBytes(blob);
    return blob;
  }

  /// Restores worker `w`'s store from a sealed snapshot blob. Rejects (with
  /// Status, never a crash) frames that fail the checksum or whose header
  /// does not match this run.
  Status DecodeWorkerState(int w, const std::vector<uint8_t>& blob) {
    FLASH_RETURN_NOT_OK(VerifyCheckpointFrame(blob));
    BufferReader reader(blob.data(), CheckpointPayloadSize(blob));
    if (reader.ReadVarint() != 1) {
      return Status::IOError("checkpoint snapshot: unknown format version");
    }
    reader.ReadVarint();  // Step; informational.
    if (reader.ReadVarint() != static_cast<uint64_t>(w)) {
      return Status::IOError("checkpoint snapshot: worker id mismatch");
    }
    const VertexId n = graph_->NumVertices();
    if (reader.ReadVarint() != static_cast<uint64_t>(n)) {
      return Status::IOError("checkpoint snapshot: vertex count mismatch");
    }
    const uint32_t all = AllFieldsMask<VData>();
    VertexStore<VData>& store = stores_[w];
    for (VertexId v = 0; v < n; ++v) {
      DeserializeFields(store.DirectCurrent(v), all, reader);
    }
    return Status::OK();
  }

  /// Rebuilds a crashed worker: wipe its store, restore the checkpoint
  /// image, then replay its redo log (committed masters + applied mirror
  /// payloads) to roll forward to the current superstep. Deterministic —
  /// log bytes are exactly the mutations the lost supersteps performed.
  void RecoverWorker(int w) {
    CheckpointManager* const ckpt = runtime_.checkpoints();
    FLASH_CHECK(ckpt != nullptr && ckpt->has_snapshot())
        << "worker " << w << " crashed before any checkpoint existed";
    internal::WorkerScope scope(w);
    {
      OBS_SPAN_VAR(restore_span, runtime_.tracer(), "recover:restore",
                   obs::SpanKind::kRecovery, w);
      stores_[w] = VertexStore<VData>(graph_->NumVertices());
      Status restored = DecodeWorkerState(w, ckpt->worker_blob(w));
      FLASH_CHECK(restored.ok()) << restored.ToString();
      restore_span.args(ckpt->worker_blob(w).size(), 0);
    }
    FaultStats& stats = runtime_.injector()->stats();
    const uint64_t records_before = stats.replayed_records;
    const std::vector<uint8_t>& log = ckpt->log(w).bytes();
    OBS_SPAN_VAR(replay_span, runtime_.tracer(), "recover:replay",
                 obs::SpanKind::kRecovery, w);
    // The log is a sequence of wire frames: commit frames carry full master
    // values, mirror frames the synced critical fields. Both promote
    // authoritative bytes straight into the current image.
    VertexStore<VData>& store = stores_[w];
    std::vector<VertexId> ids;
    BufferReader reader(log);
    while (!reader.AtEnd()) {
      uint32_t mask = 0;
      ids.clear();
      const Status st = ReadWireFrame(reader, AllFieldsMask<VData>(),
                                      graph_->NumVertices(), &ids, &mask);
      FLASH_CHECK(st.ok()) << "redo-log frame: " << st.ToString();
      for (VertexId v : ids) {
        DeserializeFields(store.DirectCurrent(v), mask, reader);
      }
      stats.replayed_records += ids.size();
    }
    ++stats.restores;
    stats.restored_bytes += ckpt->worker_blob(w).size();
    stats.replayed_bytes += log.size();
    replay_span.args(log.size(), stats.replayed_records - records_before);
  }

  GraphPtr graph_;
  RuntimeOptions options_;
  // The simulated cluster: partition, bus, fault injector, checkpoints,
  // tracer, storage limits and host pool.
  Runtime runtime_;
  std::vector<VertexStore<VData>> stores_;
  Metrics metrics_;
  uint32_t critical_mask_;
  bool virtual_edges_ = false;
  EdgeSetRef forward_;
  EdgeSetRef reverse_;
  // Engine-owned scratch, pooled across supersteps (wire buffers under the
  // high-water-mark policy, RecyclePooled): one cache-line-owned block per
  // (worker, shard) task, indexed worker-major, and one per worker.
  std::vector<TaskScratch> task_scratch_;
  std::vector<WorkerScratch> worker_scratch_;
  // The latest frontier, stashed for the next checkpoint snapshot (only
  // when the runtime keeps checkpoints).
  std::vector<std::vector<VertexId>> last_frontier_;
  // The open-superstep bracket state ObsBegin/EndSuperstep maintain.
  uint64_t obs_step_begin_ns_ = 0;
  bool obs_step_open_ = false;
  // The frontier ids an EDGEMAPSPARSE step plans on a paged graph — driving
  // thread only.
  std::vector<VertexId> frontier_scratch_;
};

}  // namespace flash

#endif  // FLASH_CORE_ENGINE_H_
