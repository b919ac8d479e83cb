#include "flashware/metrics.h"

#include <algorithm>
#include <sstream>

namespace flash {

void FoldWorkerTally(const StepTally& worker, StepSample& sample) {
  sample.edges_total += worker.edges;
  sample.edges_max = std::max(sample.edges_max, worker.edges);
  sample.verts_total += worker.verts;
  sample.verts_max = std::max(sample.verts_max, worker.verts);
  sample.comp_total += worker.seconds;
  sample.comp_max = std::max(sample.comp_max, worker.seconds);
}

void Metrics::Absorb(const Metrics& other) {
  supersteps += other.supersteps;
  edges_scanned += other.edges_scanned;
  vertices_updated += other.vertices_updated;
  messages += other.messages;
  bytes += other.bytes;
  dense_steps += other.dense_steps;
  sparse_steps += other.sparse_steps;
  masters_committed += other.masters_committed;
  wire_pool_peak_bytes =
      std::max(wire_pool_peak_bytes, other.wire_pool_peak_bytes);

  fault.fragments_sent += other.fault.fragments_sent;
  fault.drops += other.fault.drops;
  fault.duplicates += other.fault.duplicates;
  fault.reorders += other.fault.reorders;
  fault.retries += other.fault.retries;
  fault.escalations += other.fault.escalations;
  fault.checkpoints += other.fault.checkpoints;
  fault.checkpoint_bytes += other.fault.checkpoint_bytes;
  fault.restores += other.fault.restores;
  fault.restored_bytes += other.fault.restored_bytes;
  fault.replayed_records += other.fault.replayed_records;
  fault.replayed_bytes += other.fault.replayed_bytes;

  async.rounds += other.async.rounds;
  async.token_sweeps += other.async.token_sweeps;
  async.relaxations += other.async.relaxations;
  async.bucket_inserts += other.async.bucket_inserts;
  async.msgs_sent += other.async.msgs_sent;
  async.msgs_received += other.async.msgs_received;
  async.msgs_applied += other.async.msgs_applied;
  async.comp_seconds_max += other.async.comp_seconds_max;

  walks.walkers += other.walks.walkers;
  walks.steps += other.walks.steps;
  walks.walker_steps += other.walks.walker_steps;
  walks.shuffle_entries += other.walks.shuffle_entries;
  walks.walkers_shipped += other.walks.walkers_shipped;
  walks.frame_bytes += other.walks.frame_bytes;
  walks.restarts += other.walks.restarts;
  walks.terminations += other.walks.terminations;
  walks.rejections += other.walks.rejections;

  storage_bytes_read += other.storage_bytes_read;
  storage_blocks_read += other.storage_blocks_read;
  storage_decode_bytes += other.storage_decode_bytes;
  // Backend-lifetime counters: composed runs share one backend, so each
  // snapshot supersedes the previous — element-wise max keeps the latest.
  storage.MergeMax(other.storage);

  steps.insert(steps.end(), other.steps.begin(), other.steps.end());
}

std::string FaultStats::ToString() const {
  std::ostringstream out;
  out << "frags=" << fragments_sent << " drops=" << drops
      << " dups=" << duplicates << " reorders=" << reorders
      << " retries=" << retries << " escalations=" << escalations
      << " ckpts=" << checkpoints << " ckpt_bytes=" << checkpoint_bytes
      << " restores=" << restores << " restored_bytes=" << restored_bytes
      << " replayed=" << replayed_records;
  return out.str();
}

std::string AsyncStats::ToString() const {
  std::ostringstream out;
  out << "rounds=" << rounds << " sweeps=" << token_sweeps
      << " relaxations=" << relaxations << " inserts=" << bucket_inserts
      << " sent=" << msgs_sent << " received=" << msgs_received
      << " applied=" << msgs_applied << " comp_max=" << comp_seconds_max
      << "s";
  return out.str();
}

std::string WalkStats::ToString() const {
  std::ostringstream out;
  out << "walkers=" << walkers << " steps=" << steps
      << " hops=" << walker_steps << " shuffled=" << shuffle_entries
      << " shipped=" << walkers_shipped << " frame_bytes=" << frame_bytes
      << " restarts=" << restarts << " terminations=" << terminations
      << " rejections=" << rejections;
  return out.str();
}

std::string Metrics::ToString() const {
  std::ostringstream out;
  out << "supersteps=" << supersteps << " edges=" << edges_scanned
      << " verts=" << vertices_updated << " msgs=" << messages
      << " bytes=" << bytes << " dense=" << dense_steps
      << " sparse=" << sparse_steps << " committed=" << masters_committed
      << " pool_peak=" << wire_pool_peak_bytes;
  if (fault.Any()) out << " fault[" << fault.ToString() << "]";
  if (async.Any()) out << " async[" << async.ToString() << "]";
  if (walks.Any()) out << " walks[" << walks.ToString() << "]";
  if (storage.Any()) out << " storage[" << storage.ToString() << "]";
  return out.str();
}

}  // namespace flash
