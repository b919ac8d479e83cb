#ifndef FLASH_BENCH_HARNESS_BLOCK_DECODE_H_
#define FLASH_BENCH_HARNESS_BLOCK_DECODE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace flash::bench {

/// Every block payload of an unweighted FLSHBLK2 file, held in memory so
/// the decode kernel can be timed without the reads: the measured side of
/// the storage tier's decode cost (micro_primitives' BM_BlockDecode and
/// bench/storage_tier).
class BlockDecodeCorpus {
 public:
  static Result<BlockDecodeCorpus> Load(const std::string& path);

  uint64_t edges() const { return edges_; }

  /// Decodes the ids of every block once. `selected` runs the block
  /// decoder's own pass, DecodeBlockIds: the checksum carried in the steps
  /// of the kernel this CPU selects. Otherwise the scalar reference: the
  /// checksum as a pass of its own, the scalar loop alone, then the lists
  /// one by one. Returns false when any block fails to decode.
  bool DecodeAll(bool selected);

 private:
  struct Block {
    std::vector<uint8_t> payload;
    uint64_t checksum = 0;
    std::vector<uint64_t> offsets;  // The block's slice of the CSR offsets.
  };

  std::vector<Block> blocks_;
  uint64_t num_vertices_ = 0;
  uint64_t edges_ = 0;
  std::vector<uint64_t> raw_;  // Scratch of the scalar reference.
  std::vector<VertexId> ids_;
};

/// Every block of a scale-16 RMAT block file (seed 9, default block size),
/// built on first use: the corpus BM_BlockDecode times and
/// bench/storage_tier gates on.
BlockDecodeCorpus& RmatDecodeCorpus();

/// Decode cost of a corpus in ns per edge, the fastest pass of each loop.
struct DecodeCost {
  double selected_ns = 0;
  double scalar_ns = 0;
};

/// Runs `passes` DecodeAll passes of each kind, alternating, so a change
/// in host load weighs on both alike. Zero when a block fails to decode.
DecodeCost MeasureDecodeCost(BlockDecodeCorpus& corpus, int passes);

}  // namespace flash::bench

#endif  // FLASH_BENCH_HARNESS_BLOCK_DECODE_H_
