#include "walks/walk_engine.h"

#include <algorithm>
#include <bit>
#include <span>
#include <utility>

#include "common/random.h"
#include "common/serialize.h"
#include "flashware/runtime.h"
#include "obs/tracer.h"

namespace flash {
namespace walks {
namespace {

// Distinct PRNG lanes (xor-folded into the run seed) so the hop proposal,
// geometric termination, and rejection-acceptance draws of one
// (walker, step) coordinate never share a counter key.
constexpr uint64_t kTermLane = 0x7465726D'67656Full;
constexpr uint64_t kAcceptLane = 0x61636365'7074ull;

// Rejection-sampling attempt cap. Acceptance probability per attempt is at
// least min(1/p, 1, 1/q)/max(1/p, 1, 1/q), so 64 attempts make fallback
// (accepting the last proposal) astronomically rare for sane p/q; the cap
// keeps the step loop bounded and the attempt counter keys the PRNG.
constexpr int kMaxRejectionAttempts = 64;

// Walkers one (channel, vertex group) slot holds when walkers are spread
// evenly over the vertices: 4096 x 16 B = 64 KiB, so each group sorts in L2.
constexpr uint64_t kGroupWalkers = 4096;

// Groups smaller than this sort by comparison; larger ones by radix.
constexpr size_t kRadixMinWalkers = 64;

/// In-pool walker state: 16 bytes. Pools are kept sorted by (cur, id).
struct Walker {
  uint64_t id = 0;
  VertexId cur = 0;                // kInvalidVertex once the walk ended.
  VertexId prev = kInvalidVertex;  // node2vec second-order state.
};

bool ByVertexThenId(const Walker& a, const Walker& b) {
  return a.cur != b.cur ? a.cur < b.cur : a.id < b.id;
}

Walker FromRecord(const WalkerRecord& rec) {
  return Walker{rec.id, rec.cur,
                rec.prev == WalkerRecord::kNoPrev
                    ? kInvalidVertex
                    : static_cast<VertexId>(rec.prev)};
}

WalkerRecord ToRecord(const Walker& wk) {
  return WalkerRecord{wk.cur, wk.id,
                      wk.prev == kInvalidVertex ? WalkerRecord::kNoPrev
                                                : wk.prev};
}

/// Sorts one vertex group a[0, n) by (cur, id): an LSD radix sort, 8 bits
/// a pass, on the key (low cur_bits of cur, id). Every vertex of a group
/// shares the cur bits above cur_bits, and every id is below 2^id_bits.
/// Passes whose digit is the same for every walker are skipped. `tmp` holds
/// at least n walkers.
void SortGroup(Walker* a, size_t n, Walker* tmp, int cur_bits, int id_bits) {
  constexpr int kMaxPasses = 8;
  const int passes = (cur_bits + id_bits + 7) / 8;
  if (n < kRadixMinWalkers || n > UINT32_MAX || passes > kMaxPasses ||
      id_bits >= 64) {
    std::sort(a, a + n, ByVertexThenId);
    return;
  }
  const uint64_t cur_mask = (uint64_t{1} << cur_bits) - 1;
  auto key = [&](const Walker& wk) {
    return ((wk.cur & cur_mask) << id_bits) | wk.id;
  };
  uint32_t hist[kMaxPasses][256];
  std::fill(&hist[0][0], &hist[0][0] + passes * 256, 0u);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = key(a[i]);
    for (int p = 0; p < passes; ++p) ++hist[p][(k >> (8 * p)) & 0xFF];
  }
  Walker* src = a;
  Walker* dst = tmp;
  for (int p = 0; p < passes; ++p) {
    const int shift = 8 * p;
    uint32_t* h = hist[p];
    if (h[(key(src[0]) >> shift) & 0xFF] == n) continue;  // One digit.
    uint32_t offset = 0;
    for (int d = 0; d < 256; ++d) {
      const uint32_t count = h[d];
      h[d] = offset;
      offset += count;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[h[(key(src[i]) >> shift) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != a) std::copy(src, src + n, a);
}

/// Single-writer walk counters and compute seconds of one task, folded at
/// the step barrier; each owns its cache line.
struct alignas(64) WalkTally {
  uint64_t processed = 0;     // Walkers handled this step.
  uint64_t hops = 0;          // Advances that produced a next vertex.
  uint64_t shuffled = 0;      // Walkers passed through a by-vertex sort.
  uint64_t shipped = 0;       // Cross-partition migrations.
  uint64_t restarts = 0;      // PPR dead-end teleports to the source.
  uint64_t terminations = 0;  // Geometric deaths + dead-end exits.
  uint64_t rejections = 0;    // node2vec rejected proposals.
  double seconds = 0;         // The task clock's reading.

  /// The cost model's view: walkers sorted and advanced, and task time.
  StepTally Tally() const { return StepTally{shuffled, processed, seconds}; }

  void AddTo(WalkStats& ws) const {
    ws.walker_steps += hops;
    ws.shuffle_entries += shuffled;
    ws.walkers_shipped += shipped;
    ws.restarts += restarts;
    ws.terminations += terminations;
    ws.rejections += rejections;
  }
};

/// The transition law of one run: everything a walker step reads, plus the
/// two outputs a step writes (visit counters and traces).
struct Transition {
  const Graph& graph;
  const WalkSpec& spec;
  bool node2vec;
  bool ppr;
  double inv_p;
  double inv_q;
  double accept_bound;
  uint64_t* visits;
  std::vector<std::vector<VertexId>>* traces;  // Null: traces not recorded.

  std::span<const VertexId> Neighbors(VertexId v) const {
    return graph.OutDegree(v) > 0 ? graph.OutNeighbors(v)
                                  : std::span<const VertexId>{};
  }

  /// Advances `wk` one step in place, given its current adjacency: counts
  /// the visit to wk.cur, then either moves it (cur <- next, prev <- old
  /// cur) and returns true, or ends the walk and returns false. Every draw
  /// is a pure function of (seed, walker id, step[, attempt]) — never of
  /// schedule, pool order, or backend — which is the entire determinism
  /// contract. The caller must be the only writer of visits[wk.cur].
  bool Advance(Walker& wk, std::span<const VertexId> nbrs, uint32_t step,
               WalkTally& wt) const {
    ++wt.processed;
    visits[wk.cur] += 1;  // Arrival count.
    if (ppr && CounterUniform(spec.seed ^ kTermLane, wk.id, step) <
                   spec.ppr_alpha) {
      ++wt.terminations;
      return false;
    }
    VertexId next;
    VertexId next_prev = wk.cur;
    if (nbrs.empty()) {
      if (!ppr) {
        ++wt.terminations;  // Dead end: the walk ends here.
        return false;
      }
      next = spec.ppr_source;      // Dangling mass teleports to the
      next_prev = kInvalidVertex;  // source, like the push oracle.
      ++wt.restarts;
    } else if (node2vec && wk.prev != kInvalidVertex) {
      const uint64_t deg = nbrs.size();
      VertexId x = 0;
      for (int attempt = 0;; ++attempt) {
        x = nbrs[CounterBounded(deg, spec.seed, wk.id, step,
                                static_cast<uint64_t>(attempt))];
        const double weight =
            x == wk.prev ? inv_p
                         : (graph.HasEdge(wk.prev, x) ? 1.0 : inv_q);
        const double u = CounterUniform(spec.seed ^ kAcceptLane, wk.id, step,
                                        static_cast<uint64_t>(attempt));
        if (u * accept_bound < weight ||
            attempt + 1 >= kMaxRejectionAttempts) {
          break;
        }
        ++wt.rejections;
      }
      next = x;
    } else {
      next = nbrs[CounterBounded(nbrs.size(), spec.seed, wk.id, step)];
    }
    ++wt.hops;
    if (traces != nullptr) (*traces)[wk.id].push_back(next);
    wk.cur = next;
    wk.prev = node2vec ? next_prev : kInvalidVertex;
    return true;
  }
};

/// What one walk step needs besides the transition law: the step index and
/// the cluster it runs on.
struct StepEnv {
  const Transition& law;
  Runtime& runtime;
  uint32_t step;
  uint64_t num_vertices;
};

/// The first walker of a run sorted by cur that sits at or past vertex v.
const Walker* FirstAt(std::span<const Walker> run, uint64_t v) {
  const auto at = std::partition_point(
      run.begin(), run.end(), [v](const Walker& wk) { return wk.cur < v; });
  return run.data() + (at - run.begin());
}

/// Cuts runs sorted by cur, `total` walkers in all, into `parts` vertex
/// ranges [cut[s], cut[s + 1]) of about equal walker counts: cut[s] is the
/// least vertex id with at least total * s / parts walkers below it. Cuts
/// fall only between vertices, so a vertex's walkers land in one range.
void CutByVertex(std::span<const std::span<const Walker>> runs, size_t total,
                 int parts, uint64_t num_vertices, uint64_t* cut) {
  cut[0] = 0;
  cut[parts] = num_vertices;
  for (int s = 1; s < parts; ++s) {
    const size_t target = total * s / parts;
    uint64_t lo = cut[s - 1];
    uint64_t hi = num_vertices;
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      size_t below = 0;
      for (const std::span<const Walker> run : runs) {
        below += FirstAt(run, mid) - run.data();
      }
      if (below >= target) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    cut[s] = lo;
  }
}

/// The FlashMob-style step (WalkSpec::batch_by_vertex). Pools arrive sorted
/// by (cur, id) and leave sorted, with no comparison sort of a whole pool:
///
///  1. advance — each worker's pool is cut into `shards` slices on vertex
///     boundaries; each (worker, shard) task advances its walkers in place,
///     one adjacency fetch per vertex, and counts departures per
///     (destination worker, vertex group);
///  2. scatter — the driver turns the counts into slot offsets and sizes
///     every channel buffer; each task then copies its live walkers into
///     their (channel, group) slots, a stable counting sort on the group;
///  3. channel — one task per (src, dst) channel radix-sorts each group by
///     (cur, id) (SortGroup; a group is sized to sit in L2) and encodes a
///     remote channel as one walker frame;
///  4. merge — after the exchange one task per remote channel decodes its
///     frame; each destination's local channel and arrivals are then m
///     runs sorted by (cur, id), merged into its next pool by shards_
///     tasks, each over a range of vertex ids.
///
/// A vertex group is 2^group_shift consecutive vertex ids. Every buffer is
/// sized on the driver from the counts and keeps its capacity across steps.
class BatchedStepper {
 public:
  BatchedStepper(int workers, int shards, uint64_t num_vertices,
                 uint64_t num_walkers)
      : m_(workers), shards_(shards), tasks_(workers * shards) {
    // Groups of ~kGroupWalkers * m vertices hold ~kGroupWalkers walkers per
    // channel when walkers are spread evenly. One group covers at most every
    // vertex, and a shift stays below the width of a VertexId.
    const uint64_t span = std::max<uint64_t>(
        1, kGroupWalkers * workers * num_vertices / num_walkers);
    group_shift_ = static_cast<int>(
        std::min<uint64_t>({std::bit_width(span) - 1,
                            std::bit_width(num_vertices - 1), 31}));
    id_bits_ = static_cast<int>(std::bit_width(num_walkers - 1));
    groups_ = static_cast<int>(((num_vertices - 1) >> group_shift_) + 1);
    slots_.resize(tasks_);
    for (ShardSlot& slot : slots_) {
      slot.counts.resize(static_cast<size_t>(m_) * groups_);
      slot.runs.reserve(m_);
    }
    channels_.resize(static_cast<size_t>(m_) * m_);
    for (Channel& ch : channels_) ch.group_begin.resize(groups_ + 1);
    cut_.resize(shards_ + 1);
    merge_cut_.resize(static_cast<size_t>(m_) * (shards_ + 1));
    inputs_.resize(static_cast<size_t>(m_) * m_);
  }

  /// Runs one step and folds its tallies into `sample` and `ws`.
  void Step(const StepEnv& env, std::vector<std::vector<Walker>>& pools,
            StepSample& sample, WalkStats& ws) {
    for (Channel& ch : channels_) ch.seconds = 0;
    CutShards(pools, env.num_vertices);
    Advance(env, pools);
    PlaceSlots();
    Scatter(env, pools);
    SortAndFrame(env);
    env.runtime.bus().Exchange();
    Decode(env);
    Merge(env, pools);
    // A channel's sort and frame time is compute of its source worker.
    for (int w = 0; w < m_; ++w) {
      StepTally worker;
      for (int s = 0; s < shards_; ++s) {
        slots_[w * shards_ + s].walk.AddTo(ws);
        worker += slots_[w * shards_ + s].walk.Tally();
      }
      for (int dst = 0; dst < m_; ++dst) {
        worker.seconds += channel(w, dst).seconds;
      }
      FoldWorkerTally(worker, sample);
    }
  }

 private:
  /// A sorted walker range being merged.
  struct MergeRun {
    const Walker* at;
    const Walker* end;
  };

  /// One (worker, shard) task's pool slice, departure counts and tallies,
  /// and the runs of the merge task with the same index; each task owns its
  /// cache lines.
  struct alignas(64) ShardSlot {
    size_t begin = 0;
    size_t end = 0;
    WalkTally walk;
    // Departures per (dst, group), row-major; after PlaceSlots, the next
    // free slot of each (dst, group) in channel (worker, dst).
    std::vector<size_t> counts;
    std::vector<MergeRun> runs;
  };

  /// One (src, dst) channel's walkers, grouped by vertex group. A remote
  /// channel also holds both ends of its wire: the frame's records on the
  /// way out and the decoded walkers on the way in.
  struct alignas(64) Channel {
    std::vector<Walker> walkers;
    std::vector<size_t> group_begin;  // groups_ + 1 offsets into walkers.
    std::vector<Walker> sort_scratch;  // The largest group's radix buffer.
    std::vector<WalkerRecord> records;  // Frame input, then decode output.
    std::vector<Walker> arrived;        // Decoded, in walkers' order.
    WalkerFrameScratch frame;
    double seconds = 0;  // This step's sort and frame time.
  };

  int Group(VertexId v) const { return static_cast<int>(v >> group_shift_); }
  Channel& channel(int src, int dst) { return channels_[src * m_ + dst]; }

  /// Cuts each pool into shards_ slices at vertex boundaries: a vertex's
  /// walkers all go to one task, so visits[v] has one writer and each
  /// adjacency list is fetched once. A hub may leave some slices empty.
  void CutShards(const std::vector<std::vector<Walker>>& pools,
                 uint64_t num_vertices) {
    for (int w = 0; w < m_; ++w) {
      const std::span<const Walker> pool(pools[w]);
      CutByVertex({&pool, 1}, pool.size(), shards_, num_vertices, cut_.data());
      for (int s = 0; s < shards_; ++s) {
        ShardSlot& slot = slots_[w * shards_ + s];
        slot.begin = FirstAt(pool, cut_[s]) - pool.data();
        slot.end = FirstAt(pool, cut_[s + 1]) - pool.data();
      }
    }
  }

  void Advance(const StepEnv& env, std::vector<std::vector<Walker>>& pools) {
    env.runtime.pool().ParallelForWorkers(tasks_, [&](int t) {
      const int w = t / shards_;
      ShardSlot& slot = slots_[t];
      // Destroyed last: adds the task time after slot.walk is set below.
      obs::ScopedSpan clock(&slot.walk.seconds);
      std::fill(slot.counts.begin(), slot.counts.end(), 0);
      const Partition& part = env.runtime.partition();
      Walker* p = pools[w].data();
      WalkTally wt;
      size_t i = slot.begin;
      while (i < slot.end) {
        const VertexId cur = p[i].cur;
        size_t j = i + 1;
        while (j < slot.end && p[j].cur == cur) ++j;
        const std::span<const VertexId> nbrs = env.law.Neighbors(cur);
        for (; i < j; ++i) {
          Walker& wk = p[i];
          if (!env.law.Advance(wk, nbrs, env.step, wt)) {
            wk.cur = kInvalidVertex;
            continue;
          }
          const int dst = part.Owner(wk.cur);
          ++slot.counts[static_cast<size_t>(dst) * groups_ + Group(wk.cur)];
          if (dst != w) ++wt.shipped;
        }
      }
      // shuffle_entries: the slice, which the scatter reorders, plus every
      // shipped walker, which its channel's frame carries sorted. It does
      // not depend on how the pool was cut into shards.
      wt.shuffled = (slot.end - slot.begin) + wt.shipped;
      slot.walk = wt;
    });
  }

  /// Driver: sizes each channel and turns every task's counts into its
  /// first slot per (dst, group) — channel order is group, then shard, so
  /// the scatter is a stable counting sort on the group.
  void PlaceSlots() {
    for (int w = 0; w < m_; ++w) {
      for (int dst = 0; dst < m_; ++dst) {
        Channel& ch = channel(w, dst);
        size_t offset = 0;
        size_t largest = 0;
        for (int g = 0; g < groups_; ++g) {
          ch.group_begin[g] = offset;
          const size_t group_start = offset;
          for (int s = 0; s < shards_; ++s) {
            size_t& count =
                slots_[w * shards_ + s]
                    .counts[static_cast<size_t>(dst) * groups_ + g];
            const size_t n = count;
            count = offset;
            offset += n;
          }
          largest = std::max(largest, offset - group_start);
        }
        ch.group_begin[groups_] = offset;
        ch.walkers.resize(offset);
        ch.sort_scratch.resize(std::max(ch.sort_scratch.size(), largest));
        if (dst != w) {
          ch.records.resize(offset);
          ch.arrived.resize(offset);
        }
      }
    }
  }

  void Scatter(const StepEnv& env,
               const std::vector<std::vector<Walker>>& pools) {
    env.runtime.pool().ParallelForWorkers(tasks_, [&](int t) {
      const int w = t / shards_;
      ShardSlot& slot = slots_[t];
      const Partition& part = env.runtime.partition();
      const Walker* p = pools[w].data();
      for (size_t i = slot.begin; i < slot.end; ++i) {
        const Walker& wk = p[i];
        if (wk.cur == kInvalidVertex) continue;
        const int dst = part.Owner(wk.cur);
        size_t& next =
            slot.counts[static_cast<size_t>(dst) * groups_ + Group(wk.cur)];
        channel(w, dst).walkers[next++] = wk;
      }
    });
  }

  /// Sorts every group of every channel by (cur, id) and frames the remote
  /// channels: one sealed frame per non-empty channel, one wire message.
  void SortAndFrame(const StepEnv& env) {
    env.runtime.pool().ParallelForWorkers(m_ * m_, [&](int c) {
      const int w = c / m_;
      const int dst = c % m_;
      Channel& ch = channels_[c];
      if (ch.walkers.empty()) return;
      OBS_SPAN_VAR(shuffle_span, env.runtime.tracer(), "walk:shuffle",
                   obs::SpanKind::kTask, w, dst, &ch.seconds);
      shuffle_span.args(ch.walkers.size(), 0);
      for (int g = 0; g < groups_; ++g) {
        SortGroup(ch.walkers.data() + ch.group_begin[g],
                  ch.group_begin[g + 1] - ch.group_begin[g],
                  ch.sort_scratch.data(), group_shift_, id_bits_);
      }
      if (dst != w) {
        std::transform(ch.walkers.begin(), ch.walkers.end(),
                       ch.records.begin(), ToRecord);
        EncodeWalkerFrame(env.runtime.bus().Channel(w, dst), ch.records.data(),
                          ch.records.size(), ch.frame);
        env.runtime.bus().CountMessages(w, dst, 1);
      }
    });
  }

  /// Decodes every remote channel's frames back into walkers, one task per
  /// channel, and checks them against what the channel sent. The channel's
  /// frame input buffer, spent once the frame is on the wire, is the decode
  /// scratch.
  void Decode(const StepEnv& env) {
    env.runtime.pool().ParallelForWorkers(m_ * m_, [&](int c) {
      const int src = c / m_;
      const int dst = c % m_;
      if (src == dst) return;
      Channel& ch = channels_[c];
      ch.records.clear();
      BufferReader reader(env.runtime.bus().Incoming(dst, src));
      while (!reader.AtEnd()) {
        const Status st =
            DecodeWalkerFrame(reader, env.num_vertices, &ch.records);
        FLASH_CHECK(st.ok()) << "walker frame: " << st.ToString();
      }
      FLASH_CHECK_EQ(ch.records.size(), ch.walkers.size())
          << "walker frame: arrivals differ from what was sent";
      std::transform(ch.records.begin(), ch.records.end(),
                     ch.arrived.begin(), FromRecord);
    });
  }

  /// Merges each destination's m runs — its local channel and the arrivals
  /// from every other worker, each sorted by (cur, id) — into its next
  /// pool, in exactly the order a sort of the whole pool would give. Each
  /// destination's merge is split into shards_ tasks at vertex ids that cut
  /// its walkers about evenly.
  void Merge(const StepEnv& env, std::vector<std::vector<Walker>>& pools) {
    for (int dst = 0; dst < m_; ++dst) {
      size_t total = 0;
      for (int src = 0; src < m_; ++src) {
        inputs_[dst * m_ + src] = Input(src, dst);
        total += inputs_[dst * m_ + src].size();
      }
      pools[dst].resize(total);
      CutByVertex({&inputs_[dst * m_], static_cast<size_t>(m_)}, total,
                  shards_, env.num_vertices,
                  &merge_cut_[static_cast<size_t>(dst) * (shards_ + 1)]);
    }
    env.runtime.pool().ParallelForWorkers(tasks_, [&](int t) {
      const int dst = t / shards_;
      const uint64_t* cut =
          &merge_cut_[static_cast<size_t>(dst) * (shards_ + 1)];
      const uint64_t v0 = cut[t % shards_];
      const uint64_t v1 = cut[t % shards_ + 1];
      if (v0 == v1) return;
      std::vector<MergeRun>& runs = slots_[t].runs;
      runs.clear();
      size_t out = 0;
      for (int src = 0; src < m_; ++src) {
        const std::span<const Walker> run = inputs_[dst * m_ + src];
        const Walker* begin = FirstAt(run, v0);
        const Walker* end = FirstAt(run, v1);
        out += begin - run.data();
        if (begin != end) runs.push_back(MergeRun{begin, end});
      }
      MergeRuns(runs, pools[dst].data() + out);
    });
  }

  /// The src -> dst input of a merge: the local channel, or the arrivals.
  std::span<const Walker> Input(int src, int dst) {
    const Channel& ch = channel(src, dst);
    return src == dst ? std::span<const Walker>(ch.walkers)
                      : std::span<const Walker>(ch.arrived);
  }

  /// Merges sorted, non-empty runs into `out`; there are at most m, so a
  /// linear scan of the run heads picks each next walker.
  static void MergeRuns(std::vector<MergeRun>& runs, Walker* out) {
    size_t live = runs.size();
    while (live > 1) {
      size_t best = 0;
      for (size_t r = 1; r < live; ++r) {
        if (ByVertexThenId(*runs[r].at, *runs[best].at)) best = r;
      }
      MergeRun& run = runs[best];
      *out++ = *run.at++;
      if (run.at == run.end) run = runs[--live];
    }
    if (live == 1) std::copy(runs[0].at, runs[0].end, out);
  }

  int m_;
  int shards_;
  int tasks_;
  int group_shift_ = 0;
  int id_bits_ = 0;  // Every walker id is below 2^id_bits_.
  int groups_ = 1;
  std::vector<ShardSlot> slots_;
  std::vector<Channel> channels_;  // Row-major (src, dst).
  std::vector<uint64_t> cut_;        // One pool's shard cuts.
  std::vector<uint64_t> merge_cut_;  // Per dst, shards_ + 1 vertex ids.
  std::vector<std::span<const Walker>> inputs_;  // Row-major (dst, src).
};

/// The naive per-walker baseline: one task per worker advances its pool in
/// arrival order, stays-at-home walkers append to the next pool, and every
/// shipped walker pays its own frame. Arrivals append in source order.
class NaiveStepper {
 public:
  explicit NaiveStepper(int workers)
      : m_(workers),
        next_pools_(workers),
        staged_(static_cast<size_t>(workers) * workers),
        frame_scratch_(workers),
        decode_scratch_(workers),
        tallies_(workers) {}

  /// Runs one step and folds its tallies into `sample` and `ws`.
  void Step(const StepEnv& env, std::vector<std::vector<Walker>>& pools,
            StepSample& sample, WalkStats& ws) {
    env.runtime.pool().ParallelForWorkers(m_, [&](int w) {
      // Destroyed last: adds the task time after tallies_[w] is set below.
      obs::ScopedSpan clock(&tallies_[w].seconds);
      WalkTally wt;
      const Partition& part = env.runtime.partition();
      std::vector<Walker>& next = next_pools_[w];
      for (Walker wk : pools[w]) {
        if (!env.law.Advance(wk, env.law.Neighbors(wk.cur), env.step, wt)) {
          continue;
        }
        const int dst = part.Owner(wk.cur);
        if (dst == w) {
          next.push_back(wk);
        } else {
          staged_[static_cast<size_t>(w) * m_ + dst].push_back(ToRecord(wk));
          ++wt.shipped;
        }
      }
      // A frame (header + checksum) per walker: exactly the per-walker cost
      // the batched shuffle removes.
      for (int dst = 0; dst < m_; ++dst) {
        std::vector<WalkerRecord>& lane =
            staged_[static_cast<size_t>(w) * m_ + dst];
        if (lane.empty()) continue;
        BufferWriter& out = env.runtime.bus().Channel(w, dst);
        for (const WalkerRecord& rec : lane) {
          EncodeWalkerFrame(out, &rec, 1, frame_scratch_[w]);
        }
        env.runtime.bus().CountMessages(w, dst, lane.size());
        lane.clear();
      }
      tallies_[w] = wt;
    });
    for (const WalkTally& wt : tallies_) {
      wt.AddTo(ws);
      FoldWorkerTally(wt.Tally(), sample);
    }

    env.runtime.bus().Exchange();
    env.runtime.pool().ParallelForWorkers(m_, [&](int dst) {
      std::vector<WalkerRecord>& records = decode_scratch_[dst];
      records.clear();
      for (int src = 0; src < m_; ++src) {
        if (src == dst) continue;
        BufferReader reader(env.runtime.bus().Incoming(dst, src));
        while (!reader.AtEnd()) {
          const Status st =
              DecodeWalkerFrame(reader, env.num_vertices, &records);
          FLASH_CHECK(st.ok()) << "walker frame: " << st.ToString();
        }
      }
      std::vector<Walker>& next = next_pools_[dst];
      for (const WalkerRecord& rec : records) next.push_back(FromRecord(rec));
    });
    // Swap rather than move: both pools keep their capacity.
    for (int w = 0; w < m_; ++w) {
      pools[w].swap(next_pools_[w]);
      next_pools_[w].clear();
    }
  }

 private:
  int m_;
  std::vector<std::vector<Walker>> next_pools_;
  std::vector<std::vector<WalkerRecord>> staged_;  // Row-major (src, dst).
  std::vector<WalkerFrameScratch> frame_scratch_;
  std::vector<std::vector<WalkerRecord>> decode_scratch_;
  std::vector<WalkTally> tallies_;  // This step's, per worker.
};

/// Walker placement, each pool born sorted by (cur, id). DeepWalk/node2vec
/// rotate starts over the vertex set (walker i starts at i mod n:
/// num_walkers = k*n gives k walks per vertex), so the walkers of owned v
/// are v, v+n, ...; PPR starts every walker at the query source. The start
/// vertex is trace entry 0; its visit is counted when the walker is
/// processed (or drained), never here, so every trace entry is counted
/// exactly once.
void PlaceWalkers(const Partition& part, uint64_t num_vertices,
                  uint64_t num_walkers, const WalkSpec& spec,
                  std::vector<std::vector<Walker>>& pools,
                  std::vector<std::vector<VertexId>>* traces,
                  ThreadPool& pool) {
  const int m = static_cast<int>(pools.size());
  pool.ParallelForWorkers(m, [&](int w) {
    std::vector<Walker>& out = pools[w];
    if (spec.kind == WalkKind::kPpr) {
      if (part.Owner(spec.ppr_source) != w) return;
      out.resize(num_walkers);
      for (uint64_t i = 0; i < num_walkers; ++i) {
        out[i] = Walker{i, spec.ppr_source, kInvalidVertex};
      }
    } else {
      const std::vector<VertexId>& owned = part.OwnedVertices(w);
      size_t count = 0;
      for (const VertexId v : owned) {
        if (v < num_walkers) count += (num_walkers - 1 - v) / num_vertices + 1;
      }
      out.reserve(count);
      for (const VertexId v : owned) {
        for (uint64_t i = v; i < num_walkers; i += num_vertices) {
          out.push_back(Walker{i, v, kInvalidVertex});
        }
      }
    }
    if (traces != nullptr) {
      for (const Walker& wk : out) (*traces)[wk.id].push_back(wk.cur);
    }
  });
}

}  // namespace

WalkEngine::WalkEngine(GraphPtr graph, const RuntimeOptions& options)
    : graph_(std::move(graph)), options_(options) {
  FLASH_CHECK(graph_ != nullptr);
  FLASH_CHECK_OK(CheckRuntimeOptions(options_, RuntimeSurface::kWalks));
}

WalkResult WalkEngine::Run(const WalkSpec& spec) {
  const Graph& graph = *graph_;
  const VertexId n = graph.NumVertices();
  const int m = options_.num_workers;
  const uint64_t num_walkers = n == 0 ? 0 : options_.num_walkers;
  const uint32_t walk_length = options_.walk_length;
  const bool node2vec = spec.kind == WalkKind::kNode2Vec;
  const bool ppr = spec.kind == WalkKind::kPpr;

  WalkResult result;
  result.visits.assign(n, 0);
  if (spec.record_traces) result.traces.resize(num_walkers);
  if (num_walkers == 0) return result;
  if (ppr) FLASH_CHECK(spec.ppr_source < n) << "walk source out of range";

  Runtime runtime(graph_, options_, RuntimeSurface::kWalks);
  obs::Tracer* const tracer = runtime.tracer();
  result.tracer = runtime.shared_tracer();
  // The batched step runs threads_per_worker shard tasks per worker; the
  // naive baseline one task per worker.
  const int shards = spec.batch_by_vertex ? options_.threads_per_worker : 1;

  // A walker lives in the pool of the worker owning its current vertex.
  std::vector<std::vector<Walker>> pools(m);
  std::vector<std::vector<VertexId>>* traces =
      spec.record_traces ? &result.traces : nullptr;
  PlaceWalkers(runtime.partition(), n, num_walkers, spec, pools, traces,
               runtime.pool());
  result.metrics.walks.walkers = num_walkers;

  const double inv_p = 1.0 / options_.node2vec_p;
  const double inv_q = 1.0 / options_.node2vec_q;
  const Transition law{graph,
                       spec,
                       node2vec,
                       ppr,
                       inv_p,
                       inv_q,
                       std::max(inv_p, std::max(1.0, inv_q)),
                       result.visits.data(),
                       traces};

  std::unique_ptr<BatchedStepper> batched;
  std::unique_ptr<NaiveStepper> naive;
  if (spec.batch_by_vertex) {
    batched = std::make_unique<BatchedStepper>(m, shards, n, num_walkers);
  } else {
    naive = std::make_unique<NaiveStepper>(m);
  }
  std::vector<VertexId> plan_scratch;

  uint64_t live = num_walkers;
  for (uint32_t step = 0; step < walk_length && live > 0; ++step) {
    if (tracer != nullptr) {
      tracer->SetSuperstep(step);
      tracer->BeginPhase();
    }
    OBS_SPAN_VAR(epoch_span, tracer, "walk:epoch", obs::SpanKind::kSuperstep);

    // Open the storage epoch and plan the blocks this step will touch:
    // every walker's current vertex, plus previous vertices for node2vec's
    // HasEdge probes. Planning sees the exact access set, so the paged
    // backend loads it on the pool instead of demand-faulting.
    if (runtime.paged()) {
      runtime.OpenEpoch();
      plan_scratch.clear();
      for (int w = 0; w < m; ++w) {
        for (const Walker& wk : pools[w]) {
          plan_scratch.push_back(wk.cur);
          if (node2vec && wk.prev != kInvalidVertex) {
            plan_scratch.push_back(wk.prev);
          }
        }
      }
      std::sort(plan_scratch.begin(), plan_scratch.end());
      plan_scratch.erase(
          std::unique(plan_scratch.begin(), plan_scratch.end()),
          plan_scratch.end());
      runtime.storage()->PlanBlocks(runtime.pool(), plan_scratch,
                                    /*out_dir=*/true);
    }

    const StepEnv env{law, runtime, step, n};
    StepSample sample;
    sample.kind = StepKind::kWalkStep;
    sample.frontier_in = static_cast<uint32_t>(
        std::min<uint64_t>(live, UINT32_MAX));
    WalkStats& ws = result.metrics.walks;
    if (batched) {
      batched->Step(env, pools, sample, ws);
    } else {
      naive->Step(env, pools, sample, ws);
    }

    // Then the wire and the storage epoch (the paged backend bills this
    // step's planned + demand block I/O here).
    runtime.bus().AddLastExchange(sample);
    runtime.CloseEpoch(sample, result.metrics);
    ws.steps += 1;
    ws.frame_bytes += sample.bytes_total;

    live = 0;
    for (int w = 0; w < m; ++w) live += pools[w].size();
    sample.frontier_out = static_cast<uint32_t>(
        std::min<uint64_t>(live, UINT32_MAX));
    epoch_span.args(sample.frontier_in, sample.frontier_out);
    result.metrics.AddStep(sample, options_.record_steps);
    if (tracer != nullptr) tracer->Fold();
  }

  // Drain: walkers still alive sit on their final vertex, which no further
  // step will count — count it here, one task per worker (workers own
  // disjoint vertices).
  uint64_t* const visits = result.visits.data();
  runtime.pool().ParallelForWorkers(m, [&](int w) {
    for (const Walker& wk : pools[w]) visits[wk.cur] += 1;
  });

  uint64_t total = 0;
  for (VertexId v = 0; v < n; ++v) total += result.visits[v];
  result.total_visits = total;

  runtime.SyncFaultStats(result.metrics);
  result.metrics.wire_pool_peak_bytes =
      std::max(result.metrics.wire_pool_peak_bytes,
               runtime.bus().PoolPeakBytes());
  if (tracer != nullptr) tracer->Fold();
  return result;
}

}  // namespace walks
}  // namespace flash
