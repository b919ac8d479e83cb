#ifndef FLASH_FLASHWARE_RUNTIME_H_
#define FLASH_FLASHWARE_RUNTIME_H_

#include <memory>

#include "common/status.h"
#include "common/thread_pool.h"
#include "flashware/checkpoint.h"
#include "flashware/fault_injector.h"
#include "flashware/message_bus.h"
#include "flashware/metrics.h"
#include "flashware/options.h"
#include "graph/partition.h"
#include "graph/storage.h"

namespace flash {

namespace obs {
class Tracer;
}

/// The execution surface a RuntimeOptions set drives: the vertex-centric
/// graph engines (GraphApi, its AsyncEngine, serving passes) or the
/// random-walk engine.
enum class RuntimeSurface {
  kGraph,
  kWalks,
};

/// Checks every rule RuntimeOptions must satisfy on `surface`; a violation
/// is an InvalidArgument naming the field:
///  - num_workers in [1, kMaxWorkers], threads_per_worker >= 1,
///    host_threads >= 0;
///  - the fault plan's rates and retry budget (FaultPlan::Check), and every
///    crash naming a worker of the cluster;
///  - crash and checkpoint plans only on the graph surface under
///    ExecutionMode::kBsp, the only mode with a recovery path.
/// The engines FLASH_CHECK it at construction; flash_cli reports it and
/// exits 2.
Status CheckRuntimeOptions(const RuntimeOptions& options,
                           RuntimeSurface surface);

/// The simulated cluster of m workers every surface runs on (FLASHWARE,
/// paper §IV), built from (graph, RuntimeOptions): the shared partition,
/// the message bus with its fault injector, the checkpoint manager, the
/// span tracer, the paged storage limits and the host pool. Construction
/// FLASH_CHECKs CheckRuntimeOptions. The graph must outlive the runtime,
/// which detaches its tracer from the graph's storage on destruction.
class Runtime {
 public:
  Runtime(const GraphPtr& graph, const RuntimeOptions& options,
          RuntimeSurface surface);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Memoised per (graph, num_workers, scheme): Partition::ForGraph.
  const Partition& partition() const { return *partition_; }
  MessageBus& bus() { return bus_; }
  const MessageBus& bus() const { return bus_; }
  /// num_workers * threads_per_worker tasks run concurrently, capped by
  /// RuntimeOptions::host_threads (HostThreadCount).
  ThreadPool& pool() { return pool_; }
  /// Null unless RuntimeOptions::trace; the caller's tracer when given.
  obs::Tracer* tracer() const { return tracer_.get(); }
  const std::shared_ptr<obs::Tracer>& shared_tracer() const { return tracer_; }
  /// Armed only by an active fault plan.
  FaultInjector* injector() const { return injector_.get(); }
  /// Armed only when the plan's EffectiveCheckpointInterval() > 0.
  CheckpointManager* checkpoints() const { return ckpt_.get(); }
  /// The graph's backend; the epoch protocol runs only when paged().
  GraphStorage* storage() const { return storage_; }
  bool paged() const { return paged_; }

  /// Opens a storage epoch (paged graphs only).
  void OpenEpoch() {
    if (paged_) storage_->BeginEpoch();
  }

  /// Ends the storage epoch (paged graphs only): bills its block reads and
  /// decoded bytes to `sample` and snapshots the backend's lifetime
  /// counters into metrics.storage at this quiesced point.
  void CloseEpoch(StepSample& sample, Metrics& metrics);

  /// Mirrors the fault injector's live counters into `metrics`.
  void SyncFaultStats(Metrics& metrics) const {
    if (injector_ != nullptr) metrics.fault = injector_->stats();
  }

 private:
  // The pool comes first: the partition is built on it.
  ThreadPool pool_;
  std::shared_ptr<const Partition> partition_;
  MessageBus bus_;
  std::shared_ptr<obs::Tracer> tracer_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<CheckpointManager> ckpt_;
  GraphStorage* storage_;
  bool paged_;
};

}  // namespace flash

#endif  // FLASH_FLASHWARE_RUNTIME_H_
