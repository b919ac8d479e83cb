#include "graph/io.h"

#include <fstream>
#include <cstring>
#include <sstream>

#include "common/serialize.h"

namespace flash {

Result<GraphPtr> LoadEdgeListFile(const std::string& path,
                                  const BuildOptions& options) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open " + path);
  }
  GraphBuilder builder;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream fields(line);
    uint64_t src = 0, dst = 0;
    double weight = 1.0;
    if (!(fields >> src >> dst)) {
      return Status::IOError(path + ":" + std::to_string(line_number) +
                             ": malformed edge line");
    }
    // Optional third column; a present one must parse, with nothing after.
    std::string rest;
    if (!(fields >> std::ws).eof() && (!(fields >> weight) || fields >> rest)) {
      return Status::IOError(path + ":" + std::to_string(line_number) +
                             ": malformed weight");
    }
    if (src > kInvalidVertex - 1 || dst > kInvalidVertex - 1) {
      return Status::OutOfRange("vertex id exceeds 32-bit range");
    }
    builder.AddEdge(static_cast<VertexId>(src), static_cast<VertexId>(dst),
                    static_cast<float>(weight));
  }
  return builder.Build(options);
}

Status SaveEdgeListFile(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  out << "# flash edge list: " << graph.NumVertices() << " vertices, "
      << graph.NumEdges() << " edges\n";
  bool weighted = graph.is_weighted();
  graph.ForEachEdge([&](VertexId u, VertexId v, float w) {
    out << u << ' ' << v;
    if (weighted) out << ' ' << w;
    out << '\n';
  });
  if (!out) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

namespace {

/// Vertex-aligned greedy partition: close a block when it reaches the
/// payload target, but never split one vertex's adjacency.
std::vector<BlockMeta> PartitionBlocks(const std::vector<EdgeId>& offsets,
                                       uint64_t target_payload,
                                       uint64_t edge_bytes) {
  std::vector<BlockMeta> metas;
  const VertexId n = static_cast<VertexId>(offsets.size() - 1);
  if (n == 0) return metas;
  VertexId first = 0;
  uint64_t payload = 0;
  for (VertexId v = 0; v < n; ++v) {
    const uint64_t vertex_bytes = (offsets[v + 1] - offsets[v]) * edge_bytes;
    if (v > first && payload + vertex_bytes > target_payload) {
      metas.push_back(BlockMeta{first, v - first, 0,
                                sizeof(BlockHeader) + payload});
      first = v;
      payload = 0;
    }
    payload += vertex_bytes;
  }
  metas.push_back(
      BlockMeta{first, n - first, 0, sizeof(BlockHeader) + payload});
  return metas;
}

void AppendPod(std::vector<uint8_t>& out, const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  out.insert(out.end(), p, p + size);
}

/// Serializes one direction's blocks (headers + payloads), assigning each
/// meta its final file offset/size. Payload layout matches
/// PagedStorage::DecodeBlock: every vertex's varint-delta list, then all
/// weights.
void EncodeBlocks(const Graph& graph, bool out_dir,
                  const std::vector<EdgeId>& offsets,
                  std::vector<BlockMeta>& metas, uint64_t& cursor,
                  std::vector<uint8_t>& out) {
  const bool weighted = graph.is_weighted();
  for (uint32_t bi = 0; bi < metas.size(); ++bi) {
    BlockMeta& meta = metas[bi];
    const VertexId end = meta.first_vertex + meta.vertex_count;
    BufferWriter deltas;
    for (VertexId v = meta.first_vertex; v < end; ++v) {
      auto nbrs = out_dir ? graph.OutNeighbors(v) : graph.InNeighbors(v);
      EncodeAdjacency(deltas, nbrs.data(), nbrs.size());
    }
    std::vector<uint8_t> payload = deltas.Release();
    if (weighted) {
      for (VertexId v = meta.first_vertex; v < end; ++v) {
        auto w = out_dir ? graph.OutWeights(v) : graph.InWeights(v);
        AppendPod(payload, w.data(), w.size() * sizeof(float));
      }
    }
    BlockHeader header;
    header.dir = out_dir ? 0 : 1;
    header.block_id = bi;
    header.first_vertex = meta.first_vertex;
    header.edge_count = offsets[end] - offsets[meta.first_vertex];
    header.payload_checksum = Fnv1a64(payload.data(), payload.size());
    meta.file_offset = cursor;
    meta.stored_bytes = sizeof(BlockHeader) + payload.size();
    cursor += meta.stored_bytes;
    AppendPod(out, &header, sizeof(header));
    out.insert(out.end(), payload.begin(), payload.end());
  }
}

}  // namespace

Status SaveBlockFile(const Graph& graph, const std::string& path,
                     const BlockFileOptions& options) {
  if (options.block_payload_bytes == 0) {
    return Status::InvalidArgument("block_payload_bytes must be positive");
  }
  const std::vector<EdgeId>& out_offsets = graph.out_offsets();
  const std::vector<EdgeId>& in_offsets = graph.in_offsets();
  const uint64_t edge_bytes = graph.is_weighted()
                                  ? sizeof(VertexId) + sizeof(float)
                                  : sizeof(VertexId);

  std::vector<BlockMeta> out_metas =
      PartitionBlocks(out_offsets, options.block_payload_bytes, edge_bytes);
  std::vector<BlockMeta> in_metas =
      PartitionBlocks(in_offsets, options.block_payload_bytes, edge_bytes);

  BlockFileHeader header;
  std::memcpy(header.magic, kBlockFileMagicV2, sizeof(kBlockFileMagicV2));
  header.symmetric = graph.is_symmetric() ? 1 : 0;
  header.weighted = graph.is_weighted() ? 1 : 0;
  header.num_vertices = graph.NumVertices();
  header.num_out_blocks = static_cast<uint32_t>(out_metas.size());
  header.num_in_blocks = static_cast<uint32_t>(in_metas.size());
  header.num_edges = graph.NumEdges();
  header.block_payload_target = options.block_payload_bytes;

  const uint64_t meta_bytes =
      sizeof(BlockFileHeader) +
      2 * out_offsets.size() * sizeof(EdgeId) +
      (out_metas.size() + in_metas.size()) * sizeof(BlockMeta);

  std::vector<uint8_t> blocks;
  uint64_t cursor = meta_bytes;
  EncodeBlocks(graph, /*out_dir=*/true, out_offsets, out_metas, cursor,
               blocks);
  EncodeBlocks(graph, /*out_dir=*/false, in_offsets, in_metas, cursor, blocks);

  // Metadata checksum chains header (field zeroed), offsets, then indices —
  // the same sections, in the same order, that PagedStorage::Open rehashes.
  header.meta_checksum = 0;
  uint64_t h = Fnv1a64(&header, sizeof(header));
  h = Fnv1a64(out_offsets.data(), out_offsets.size() * sizeof(EdgeId), h);
  h = Fnv1a64(in_offsets.data(), in_offsets.size() * sizeof(EdgeId), h);
  h = Fnv1a64(out_metas.data(), out_metas.size() * sizeof(BlockMeta), h);
  h = Fnv1a64(in_metas.data(), in_metas.size() * sizeof(BlockMeta), h);
  header.meta_checksum = h;

  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  auto write_raw = [&out](const void* data, size_t size) {
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  };
  write_raw(&header, sizeof(header));
  write_raw(out_offsets.data(), out_offsets.size() * sizeof(EdgeId));
  write_raw(in_offsets.data(), in_offsets.size() * sizeof(EdgeId));
  write_raw(out_metas.data(), out_metas.size() * sizeof(BlockMeta));
  write_raw(in_metas.data(), in_metas.size() * sizeof(BlockMeta));
  write_raw(blocks.data(), blocks.size());
  if (!out) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

Result<GraphPtr> OpenPagedGraph(const std::string& path,
                                const PagedOptions& options) {
  FLASH_ASSIGN_OR_RETURN(std::shared_ptr<PagedStorage> storage,
                         PagedStorage::Open(path, options));
  const bool symmetric = storage->symmetric();
  const bool weighted = storage->weighted();
  return Graph::WithStorage(std::move(storage), symmetric, weighted);
}

}  // namespace flash
