#include "graph/storage.h"

#include <algorithm>
#include <sstream>

namespace flash {

void StorageStats::MergeMax(const StorageStats& other) {
  accesses = std::max(accesses, other.accesses);
  blocks_read = std::max(blocks_read, other.blocks_read);
  bytes_read = std::max(bytes_read, other.bytes_read);
  decode_bytes = std::max(decode_bytes, other.decode_bytes);
  stream_bytes = std::max(stream_bytes, other.stream_bytes);
  evictions = std::max(evictions, other.evictions);
  epochs = std::max(epochs, other.epochs);
  dense_plans = std::max(dense_plans, other.dense_plans);
  sparse_plans = std::max(sparse_plans, other.sparse_plans);
  demand_misses = std::max(demand_misses, other.demand_misses);
  peak_resident_bytes = std::max(peak_resident_bytes,
                                 other.peak_resident_bytes);
}

std::string StorageStats::ToString() const {
  std::ostringstream out;
  out << "accesses=" << accesses << " blocks=" << blocks_read
      << " bytes=" << bytes_read << " decode_bytes=" << decode_bytes
      << " stream_bytes=" << stream_bytes << " evictions=" << evictions
      << " epochs=" << epochs << " dense=" << dense_plans
      << " sparse=" << sparse_plans << " demand_misses=" << demand_misses
      << " peak_resident=" << peak_resident_bytes;
  return out.str();
}

void InMemoryStorage::ForEachOutEdge(const EdgeFn& fn) {
  const bool weighted = !csr_.out_weights.empty();
  const VertexId n =
      csr_.out_offsets.empty()
          ? 0
          : static_cast<VertexId>(csr_.out_offsets.size() - 1);
  for (VertexId u = 0; u < n; ++u) {
    for (EdgeId e = csr_.out_offsets[u]; e < csr_.out_offsets[u + 1]; ++e) {
      fn(u, csr_.out_targets[e], weighted ? csr_.out_weights[e] : 1.0f);
    }
  }
}

}  // namespace flash
