#ifndef FLASH_GRAPH_IO_H_
#define FLASH_GRAPH_IO_H_

#include <string>

#include "graph/graph.h"
#include "graph/paged_storage.h"

namespace flash {

/// Loads a whitespace-separated edge-list text file: one `src dst [weight]`
/// per line; lines starting with '#' or '%' are comments. This is the format
/// of SNAP / Network Repository dumps used by the paper.
Result<GraphPtr> LoadEdgeListFile(const std::string& path,
                                  const BuildOptions& options = {});

/// Writes the graph as an edge-list text file (weights included when the
/// graph is weighted).
Status SaveEdgeListFile(const Graph& graph, const std::string& path);

/// Options for SaveBlockFile.
struct BlockFileOptions {
  /// Nominal decoded payload bytes per edge block. Blocks are vertex-aligned:
  /// a block closes once it reaches this size, except that a single vertex's
  /// adjacency never splits (hubs get one oversized block). Partitioning
  /// always measures decoded bytes, so block boundaries are identical for
  /// every codec.
  uint64_t block_payload_bytes = 64 * 1024;
  /// Payload encoding. kRaw writes a byte-identical FLSHBLK1 file; kDelta
  /// writes FLSHBLK2 with per-vertex varint-delta neighbor lists.
  BlockCodec codec = BlockCodec::kRaw;
};

/// Writes the graph as a paged edge-block file ("FLSHBLK1" raw / "FLSHBLK2"
/// delta; format in graph/paged_storage.h) for the semi-external
/// PagedStorage backend.
Status SaveBlockFile(const Graph& graph, const std::string& path,
                     const BlockFileOptions& options = {});

/// Opens a block file written by SaveBlockFile as a paged Graph: offsets in
/// RAM, adjacency blocks demand-paged from disk through an LRU cache.
Result<GraphPtr> OpenPagedGraph(const std::string& path,
                                const PagedOptions& options = {});

}  // namespace flash

#endif  // FLASH_GRAPH_IO_H_
