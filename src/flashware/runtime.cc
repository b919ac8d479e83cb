#include "flashware/runtime.h"

#include <string>
#include <utility>

#include "common/logging.h"
#include "obs/tracer.h"

namespace flash {

namespace {

/// Checks the options, then sizes the host pool: the first member a
/// Runtime builds, so no part of it sees a bad option.
int CheckedPoolWidth(const GraphPtr& graph, const RuntimeOptions& options,
                     RuntimeSurface surface) {
  FLASH_CHECK(graph != nullptr);
  FLASH_CHECK_OK(CheckRuntimeOptions(options, surface));
  return HostThreadCount(options.num_workers * options.threads_per_worker,
                         options.host_threads);
}

/// The graph's shared partition, built on the runtime's pool.
std::shared_ptr<const Partition> SharedPartition(const GraphPtr& graph,
                                                 const RuntimeOptions& options,
                                                 ThreadPool& pool) {
  auto partition = Partition::ForGraph(graph, options.num_workers,
                                       options.partition, pool);
  FLASH_CHECK_OK(partition.status());
  return std::move(partition).value();
}

}  // namespace

Status CheckRuntimeOptions(const RuntimeOptions& options,
                           RuntimeSurface surface) {
  const auto invalid = [](const std::string& rule, int got) {
    return Status::InvalidArgument(rule + ", got " + std::to_string(got));
  };
  if (options.num_workers < 1 || options.num_workers > kMaxWorkers) {
    return invalid("num_workers must be in [1, " +
                       std::to_string(kMaxWorkers) + "]",
                   options.num_workers);
  }
  if (options.threads_per_worker < 1) {
    return invalid("threads_per_worker must be at least 1",
                   options.threads_per_worker);
  }
  if (options.host_threads < 0) {
    return invalid("host_threads must be at least 0", options.host_threads);
  }
  const FaultPlan& plan = options.fault_plan;
  FLASH_RETURN_NOT_OK(plan.Check());
  for (const CrashEvent& e : plan.worker_crash_schedule) {
    if (e.worker < 0 || e.worker >= options.num_workers) {
      return invalid("fault_plan.worker_crash_schedule names a worker outside "
                     "[0, " + std::to_string(options.num_workers) + ")",
                     e.worker);
    }
  }
  if (plan.EffectiveCheckpointInterval() > 0) {
    if (surface == RuntimeSurface::kWalks) {
      return Status::InvalidArgument(
          "fault_plan: walks have no crash recovery; drop "
          "worker_crash_schedule and checkpoint_interval");
    }
    if (options.execution_mode != ExecutionMode::kBsp) {
      return Status::InvalidArgument(
          "fault_plan: worker_crash_schedule and checkpoint_interval need "
          "execution_mode kBsp, the only mode with crash recovery");
    }
  }
  return Status::OK();
}

Runtime::Runtime(const GraphPtr& graph, const RuntimeOptions& options,
                 RuntimeSurface surface)
    : pool_(CheckedPoolWidth(graph, options, surface)),
      partition_(SharedPartition(graph, options, pool_)),
      bus_(options.num_workers),
      storage_(graph->storage()),
      paged_(storage_->paged()) {
  if (options.trace) {
    tracer_ = options.tracer != nullptr ? options.tracer
                                        : std::make_shared<obs::Tracer>();
    bus_.SetTracer(tracer_.get());
  }
  const FaultPlan& plan = options.fault_plan;
  if (plan.Active()) {
    injector_ = std::make_unique<FaultInjector>(plan);
    injector_->SetTracer(tracer_.get());
    bus_.SetFaultInjector(injector_.get());
    if (plan.EffectiveCheckpointInterval() > 0) {
      ckpt_ = std::make_unique<CheckpointManager>(
          options.num_workers, plan.EffectiveCheckpointInterval());
      ckpt_->SetTracer(tracer_.get());
    }
  }
  if (paged_) storage_->SetTracer(tracer_.get());
}

Runtime::~Runtime() {
  // The graph may outlive this runtime and its (possibly owned) tracer.
  if (paged_) storage_->SetTracer(nullptr);
}

void Runtime::CloseEpoch(StepSample& sample, Metrics& metrics) {
  if (!paged_) return;
  // EndEpoch completes every planned load, evicts to budget, and returns
  // exactly the file bytes/blocks this epoch read — the I/O twin of the
  // wire counters.
  const EpochIo io = storage_->EndEpoch();
  sample.storage_bytes = io.bytes;
  sample.storage_blocks = io.blocks;
  sample.storage_decode_bytes = io.decode_bytes;
  metrics.storage = storage_->stats();
}

}  // namespace flash
