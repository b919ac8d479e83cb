#include "obs/tracer.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>

namespace flash::obs {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSuperstep: return "superstep";
    case SpanKind::kPhase: return "phase";
    case SpanKind::kTask: return "task";
    case SpanKind::kExchange: return "exchange";
    case SpanKind::kChannel: return "channel";
    case SpanKind::kCheckpoint: return "checkpoint";
    case SpanKind::kRecovery: return "recovery";
    case SpanKind::kInstant: return "instant";
    case SpanKind::kAsyncRound: return "async_round";
    case SpanKind::kTokenSweep: return "token_sweep";
    case SpanKind::kStorage: return "storage";
  }
  return "?";
}

namespace {

// A buffer hitting this cap stops recording (dropped spans are counted at
// the next fold); 1M spans ≈ 72 MB across all threads worst case, far above
// anything the per-task-granular instrumentation produces.
constexpr size_t kMaxSpansPerLog = 1u << 20;

// Thread-local cache of "my buffer in tracer X". Tracer ids are process-
// unique (never reused), so a stale cache entry from a destroyed tracer can
// never be mistaken for the current one.
struct TlsRef {
  uint64_t tracer_id = 0;
  void* log = nullptr;
};
thread_local TlsRef tls_ref;

std::atomic<uint64_t> next_tracer_id{1};

}  // namespace

struct Tracer::ThreadLog {
  std::vector<Span> spans;
  uint64_t dropped = 0;
};

struct Tracer::Impl {
  std::mutex mu;  // Guards registration and folding; never the hot path.
  std::vector<std::unique_ptr<ThreadLog>> logs;
  std::vector<Span> scratch;
};

Tracer::Tracer()
    : impl_(new Impl),
      id_(next_tracer_id.fetch_add(1, std::memory_order_relaxed)) {}

Tracer::~Tracer() { delete impl_; }

Tracer::ThreadLog* Tracer::Log() {
  if (tls_ref.tracer_id == id_) {
    return static_cast<ThreadLog*>(tls_ref.log);
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->logs.push_back(std::make_unique<ThreadLog>());
  ThreadLog* log = impl_->logs.back().get();
  tls_ref = {id_, log};
  return log;
}

void Tracer::Record(const char* name, SpanKind kind, int worker, int shard,
                    uint64_t begin_ns, uint64_t end_ns, uint64_t arg0,
                    uint64_t arg1) {
  ThreadLog* log = Log();
  if (log->spans.size() >= kMaxSpansPerLog) {
    ++log->dropped;
    return;
  }
  Span span;
  span.name = name;
  span.kind = kind;
  span.worker = static_cast<int16_t>(worker);
  span.shard = static_cast<int16_t>(shard);
  // epoch_/superstep_ are written only by the host thread between parallel
  // phases; the pool's dispatch/join synchronisation orders those writes
  // before any task-thread read, so plain loads are race-free.
  span.seq = epoch_;
  span.superstep = superstep_;
  span.begin_ns = begin_ns;
  span.end_ns = end_ns;
  span.arg0 = arg0;
  span.arg1 = arg1;
  log->spans.push_back(span);
}

void Tracer::Instant(const char* name, SpanKind kind, int worker, int shard,
                     uint64_t arg0, uint64_t arg1) {
  uint64_t now = NowNs();
  Record(name, kind, worker, shard, now, now, arg0, arg1);
}

void Tracer::Fold() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<Span>& batch = impl_->scratch;
  batch.clear();
  for (auto& log : impl_->logs) {
    batch.insert(batch.end(), log->spans.begin(), log->spans.end());
    log->spans.clear();
    dropped_ += log->dropped;
    log->dropped = 0;
  }
  // (epoch, worker, shard) is a deterministic key: within one epoch a given
  // (worker, shard) task ran on exactly one thread, so every tie group
  // comes from a single thread buffer and stable_sort preserves its record
  // order regardless of how the buffers were concatenated.
  std::stable_sort(batch.begin(), batch.end(),
                   [](const Span& a, const Span& b) {
                     if (a.seq != b.seq) return a.seq < b.seq;
                     if (a.worker != b.worker) return a.worker < b.worker;
                     return a.shard < b.shard;
                   });
  folded_.insert(folded_.end(), batch.begin(), batch.end());
}

}  // namespace flash::obs
