#include "serving/scheduler.h"

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>

namespace flash::serving {

namespace {
constexpr double kInfTime = std::numeric_limits<double>::infinity();

/// bfs and k-hop queries need their source's frontier bit; a landmark
/// query only reads the landmark table the pass may build.
bool TakesBit(const Query& q) {
  return q.kind == QueryKind::kBfsDistance || q.kind == QueryKind::kKHop;
}
}  // namespace

QueueClass QueueOf(QueryKind kind) {
  // Forward push is seed-specific state per vertex; no sharing.
  return kind == QueryKind::kPpr ? QueueClass::kPpr : QueueClass::kTraversal;
}

const char* QueueClassName(QueueClass queue) {
  return queue == QueueClass::kPpr ? "ppr" : "traversal";
}

Scheduler::Scheduler(SchedulerOptions options)
    : options_(options),
      max_bits_(static_cast<size_t>(std::clamp(options.batch_window, 1, 64))) {
  service_estimate_.fill(0.0);
}

Status Scheduler::Enqueue(const PendingQuery& q) {
  if (pending_ >= options_.max_queue) {
    std::ostringstream msg;
    msg << "admission queue full (" << pending_ << "/" << options_.max_queue
        << "): shed " << QueryKindName(q.query.kind) << " query " << q.id;
    return Status::OutOfRange(msg.str());
  }
  queues_[static_cast<size_t>(QueueOf(q.query.kind))].push_back(q);
  if (TakesBit(q.query)) ++source_refs_[q.query.source];
  ++pending_;
  return Status::OK();
}

void Scheduler::SetServiceEstimate(QueueClass queue, double seconds) {
  service_estimate_[static_cast<size_t>(queue)] = std::max(0.0, seconds);
}

bool Scheduler::Full(int queue) const {
  return queue == static_cast<int>(QueueClass::kPpr)
             ? !queues_[queue].empty()
             : source_refs_.size() >= max_bits_;
}

double Scheduler::ForcedCutTime(int queue) const {
  // Cut when more waiting would breach the wait cap, or would leave the
  // oldest query less than the queue's estimated service time of deadline
  // budget. A query whose budget is already below the estimate cuts
  // immediately — served late is better than held hostage for batch-mates.
  const PendingQuery& oldest = queues_[queue].front();
  double budget = options_.max_batch_wait_s;
  if (oldest.query.deadline_s < kInfTime) {
    const double est = service_estimate_[queue];
    budget = std::min(budget, std::max(0.0, oldest.query.deadline_s - est));
  }
  return oldest.enqueue_s + budget;
}

double Scheduler::NextForcedCutTime() const {
  double next = kInfTime;
  for (int q = 0; q < kNumQueues; ++q) {
    if (!queues_[q].empty()) next = std::min(next, ForcedCutTime(q));
  }
  return next;
}

Batch Scheduler::CutDue(double now_s) {
  Batch batch;
  // Full queues first, in queue order (deterministic tie-break).
  int cut = -1;
  for (int q = 0; q < kNumQueues && cut < 0; ++q) {
    if (Full(q)) cut = q;
  }
  if (cut < 0) {
    // Deadline cuts: the queue whose oldest query is most overdue
    // (earliest forced-cut time; ties by queue order).
    double best = kInfTime;
    for (int q = 0; q < kNumQueues; ++q) {
      if (queues_[q].empty()) continue;
      const double t = ForcedCutTime(q);
      if (t <= now_s && t < best) {
        best = t;
        cut = q;
      }
    }
  }
  if (cut < 0) return batch;
  auto& queue = queues_[cut];
  // The longest prefix whose distinct sources fit the frontier bits; a PPR
  // batch is one query.
  size_t take = 1;
  if (cut == static_cast<int>(QueueClass::kTraversal)) {
    std::set<VertexId> bits;
    for (take = 0; take < queue.size(); ++take) {
      const Query& q = queue[take].query;
      if (TakesBit(q) && bits.insert(q.source).second &&
          bits.size() > max_bits_) {
        break;
      }
    }
  }
  batch.queue = static_cast<QueueClass>(cut);
  batch.cut_s = now_s;
  batch.queries.assign(queue.begin(), queue.begin() + take);
  queue.erase(queue.begin(), queue.begin() + take);
  for (const PendingQuery& p : batch.queries) {
    if (TakesBit(p.query) && --source_refs_[p.query.source] == 0) {
      source_refs_.erase(p.query.source);
    }
  }
  pending_ -= take;
  return batch;
}

}  // namespace flash::serving
