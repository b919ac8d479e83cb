#ifndef FLASH_OBS_TRACER_H_
#define FLASH_OBS_TRACER_H_

#include <chrono>
#include <cstdint>
#include <vector>

/// FLASHWARE observability, layer 1: the span tracer.
///
/// A Span is one timed (or instant) event of the simulated cluster — a
/// superstep, a phase of one, a (worker, shard) compute task, a bus
/// exchange, a per-channel transmit, a checkpoint write, a crash recovery,
/// or a fault instant. Spans carry the lane they belong to (worker, or the
/// host lane for driver-side work), the shard, the superstep counter at
/// record time, and two kind-specific integer attributes (see the span
/// taxonomy table in docs/INTERNALS.md).
///
/// Recording is contention-free by construction: every thread appends to
/// its own thread-local buffer (registered with the tracer once, on first
/// use), and the buffers are folded into the tracer's main span list only
/// at BSP barriers, where no task is executing. The fold orders spans by
/// (phase epoch, worker, shard) — all deterministic quantities — so the
/// folded sequence is identical at every host thread count even though the
/// work-stealing scheduler assigns tasks to threads nondeterministically.
///
/// The off switch is RuntimeOptions::trace, false by default: the engine
/// then never constructs a Tracer and every hook is a null-pointer check.
namespace flash::obs {

using SteadyClock = std::chrono::steady_clock;

/// Lane index of driver-side (non-worker) spans.
inline constexpr int kHostLane = -1;

enum class SpanKind : uint8_t {
  kSuperstep,   // One primitive = one BSP superstep (host lane).
  kPhase,       // A phase of a superstep: compute/merge/commit/... (host).
  kTask,        // One (worker, shard) slice of a parallel phase.
  kExchange,    // MessageBus::Exchange barrier (host lane).
  kChannel,     // One src→dst channel transmit; worker=src, shard=dst.
  kCheckpoint,  // Snapshot encode/seal work.
  kRecovery,    // Crash restore + redo-log replay.
  kInstant,     // Zero-duration event (fault injections).
  kAsyncRound,  // One relaxed micro-round of the async engine (host lane).
  kTokenSweep,  // Termination-detection token circuit (host lane).
  kStorage,     // Paged-storage block read (demand loads; arg0=block id,
                // arg1=stored bytes).
};

const char* SpanKindName(SpanKind kind);

struct Span {
  const char* name = "";  // Static string; never owned.
  SpanKind kind = SpanKind::kPhase;
  int16_t worker = kHostLane;
  int16_t shard = -1;
  uint32_t seq = 0;        // Fold epoch; see Tracer::BeginPhase.
  uint64_t superstep = 0;  // Engine superstep counter at record time.
  uint64_t begin_ns = 0;   // Nanoseconds since tracer construction.
  uint64_t end_ns = 0;     // == begin_ns for instant events.
  uint64_t arg0 = 0;       // Kind-specific (bytes, frontier, seq, ...).
  uint64_t arg1 = 0;       // Kind-specific (msgs, attempt, records, ...).
};

/// Lock-free-on-the-hot-path span recorder. One Tracer per engine run; all
/// superstep tasks record into thread-local buffers, the engine folds at
/// barriers, exporters read the folded list after the run.
///
/// Threading contract (matches the BSP structure that makes it safe):
///  - Record/Instant: any thread, any time between two folds.
///  - SetSuperstep/BeginPhase/Fold/spans: the driving (host) thread only,
///    outside parallel phases. The thread-pool barrier provides the
///    happens-before edges; no atomics are needed on the recording path.
class Tracer {
 public:
  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Nanoseconds since this tracer was constructed (steady clock).
  uint64_t NowNs() const { return NsAt(SteadyClock::now()); }
  /// The reading `t` of the steady clock, in NowNs() units.
  uint64_t NsAt(SteadyClock::time_point t) const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0_).count());
  }

  /// Binds subsequently recorded spans to `step` (host thread, between
  /// phases only).
  void SetSuperstep(uint64_t step) { superstep_ = step; }

  /// Advances the fold epoch. Called by the engine before dispatching each
  /// parallel phase (and by the bus at Exchange entry); spans recorded
  /// within one phase share the epoch, which is the primary deterministic
  /// sort key of the fold.
  void BeginPhase() { ++epoch_; }

  /// Records one completed span on the calling thread's buffer.
  void Record(const char* name, SpanKind kind, int worker, int shard,
              uint64_t begin_ns, uint64_t end_ns, uint64_t arg0 = 0,
              uint64_t arg1 = 0);

  /// Records a zero-duration event at NowNs().
  void Instant(const char* name, SpanKind kind, int worker, int shard,
               uint64_t arg0 = 0, uint64_t arg1 = 0);

  /// Drains every registered thread buffer into the folded list, ordered by
  /// (epoch, worker, shard) with ties broken by single-thread record order
  /// — deterministic at any host thread count. Host thread, barrier context.
  void Fold();

  /// Folded spans, in fold order. Call Fold() first to pick up any spans
  /// recorded since the last barrier.
  const std::vector<Span>& spans() const { return folded_; }

  /// Spans discarded because a thread buffer hit its cap.
  uint64_t dropped() const { return dropped_; }

 private:
  struct ThreadLog;
  struct Impl;

  ThreadLog* Log();

  Impl* impl_;           // Registration state (mutexed, cold path only).
  SteadyClock::time_point t0_ = SteadyClock::now();
  uint64_t id_;          // Process-unique; keys the thread-local log cache.
  uint64_t superstep_ = 0;
  uint32_t epoch_ = 0;
  uint64_t dropped_ = 0;
  std::vector<Span> folded_;
};

/// RAII span and task clock: reads the steady clock once at construction
/// and once at scope exit, and only if the readings go somewhere. With
/// `seconds`, the elapsed time is added to *seconds; with a non-null
/// `tracer`, the span is recorded. A task's compute seconds and its span
/// thus come from the same two readings, and an untraced span with no
/// `seconds` reads no clock at all. `args` attaches the two kind-specific
/// attributes any time before destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, SpanKind kind,
             int worker = kHostLane, int shard = -1,
             double* seconds = nullptr)
      : tracer_(tracer), name_(name), kind_(kind), worker_(worker),
        shard_(shard), seconds_(seconds) {
    if (tracer_ != nullptr || seconds_ != nullptr) begin_ = SteadyClock::now();
  }
  /// A task clock with no span.
  explicit ScopedSpan(double* seconds)
      : ScopedSpan(nullptr, "", SpanKind::kTask, kHostLane, -1, seconds) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void args(uint64_t arg0, uint64_t arg1) {
    arg0_ = arg0;
    arg1_ = arg1;
  }

  ~ScopedSpan() {
    if (tracer_ == nullptr && seconds_ == nullptr) return;
    const SteadyClock::time_point end = SteadyClock::now();
    if (seconds_ != nullptr) {
      *seconds_ += std::chrono::duration<double>(end - begin_).count();
    }
    if (tracer_ != nullptr) {
      tracer_->Record(name_, kind_, worker_, shard_, tracer_->NsAt(begin_),
                      tracer_->NsAt(end), arg0_, arg1_);
    }
  }

 private:
  Tracer* tracer_;
  const char* name_;
  SpanKind kind_;
  int worker_;
  int shard_;
  double* seconds_;
  SteadyClock::time_point begin_;
  uint64_t arg0_ = 0;
  uint64_t arg1_ = 0;
};

}  // namespace flash::obs

// RAII span macros. OBS_SPAN names the span object implicitly (use when no
// args are attached later); OBS_SPAN_VAR binds it to `var` so the caller
// can set args before scope exit. Both are no-ops when `tracer` is null.
#define FLASH_OBS_CONCAT_INNER(a, b) a##b
#define FLASH_OBS_CONCAT(a, b) FLASH_OBS_CONCAT_INNER(a, b)
#define OBS_SPAN(tracer, ...)                                       \
  ::flash::obs::ScopedSpan FLASH_OBS_CONCAT(obs_span_, __LINE__)( \
      (tracer), __VA_ARGS__)
#define OBS_SPAN_VAR(var, tracer, ...) \
  ::flash::obs::ScopedSpan var((tracer), __VA_ARGS__)
#define OBS_INSTANT(tracer, ...)                            \
  do {                                                      \
    if ((tracer) != nullptr) (tracer)->Instant(__VA_ARGS__); \
  } while (0)

#endif  // FLASH_OBS_TRACER_H_
