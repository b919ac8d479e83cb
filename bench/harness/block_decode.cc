#include "bench/harness/block_decode.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "common/hash.h"
#include "common/logging.h"
#include "common/serialize.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/paged_storage.h"

namespace flash::bench {

Result<BlockDecodeCorpus> BlockDecodeCorpus::Load(const std::string& path) {
  FLASH_ASSIGN_OR_RETURN(std::shared_ptr<PagedStorage> storage,
                         PagedStorage::Open(path));
  if (storage->weighted()) {
    return Status::InvalidArgument(path + ": the corpus wants no weights");
  }
  std::ifstream in(path, std::ios::binary);
  const std::vector<uint8_t> file((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  BlockDecodeCorpus corpus;
  corpus.num_vertices_ = storage->out_offsets().size() - 1;
  for (const bool out : {true, false}) {
    const std::vector<EdgeId>& offsets =
        out ? storage->out_offsets() : storage->in_offsets();
    for (const BlockMeta& meta : storage->block_index(out)) {
      Block block;
      BlockHeader header;
      std::memcpy(&header, file.data() + meta.file_offset, sizeof(header));
      block.checksum = header.payload_checksum;
      block.payload.assign(
          file.begin() + static_cast<ptrdiff_t>(meta.file_offset +
                                                sizeof(BlockHeader)),
          file.begin() +
              static_cast<ptrdiff_t>(meta.file_offset + meta.stored_bytes));
      block.offsets.assign(
          offsets.begin() + meta.first_vertex,
          offsets.begin() + meta.first_vertex + meta.vertex_count + 1);
      corpus.edges_ += header.edge_count;
      corpus.blocks_.push_back(std::move(block));
    }
  }
  return corpus;
}

bool BlockDecodeCorpus::DecodeAll(bool selected) {
  for (const Block& block : blocks_) {
    const uint8_t* p = block.payload.data();
    const uint8_t* const end = p + block.payload.size();
    const size_t lists = block.offsets.size() - 1;
    const size_t edges =
        static_cast<size_t>(block.offsets[lists] - block.offsets[0]);
    if (ids_.size() < edges) ids_.resize(edges);
    if (selected) {
      if (!DecodeBlockIds(p, end, block.checksum, block.offsets.data(), lists,
                          num_vertices_, ids_.data())
               .ok() ||
          p != end) {
        return false;
      }
      continue;
    }
    if (raw_.size() < edges) raw_.resize(edges);
    if (Fnv1a64(p, block.payload.size()) != block.checksum ||
        DecodeVarintsScalar(p, end, raw_.data(), edges) != edges || p != end) {
      return false;
    }
    for (size_t i = 0; i < lists; ++i) {
      const size_t start =
          static_cast<size_t>(block.offsets[i] - block.offsets[0]);
      const size_t degree =
          static_cast<size_t>(block.offsets[i + 1] - block.offsets[i]);
      if (!ResolveAdjacency(raw_.data() + start, degree, degree,
                            num_vertices_, ids_.data() + start)
               .ok()) {
        return false;
      }
    }
  }
  return true;
}

BlockDecodeCorpus& RmatDecodeCorpus() {
  static BlockDecodeCorpus* corpus = [] {
    RmatOptions options;
    options.scale = 16;
    options.seed = 9;
    const GraphPtr graph = GenerateRmat(options).value();
    const std::string path =
        "/tmp/flash_decode_corpus_" + std::to_string(::getpid()) + ".fblk";
    FLASH_CHECK_OK(SaveBlockFile(*graph, path));
    auto loaded = BlockDecodeCorpus::Load(path);
    std::remove(path.c_str());
    FLASH_CHECK_OK(loaded.status());
    return new BlockDecodeCorpus(std::move(loaded).value());
  }();
  return *corpus;
}

DecodeCost MeasureDecodeCost(BlockDecodeCorpus& corpus, int passes) {
  double best[2] = {0, 0};
  for (int i = 0; i < 2 * passes; ++i) {
    const bool selected = i % 2 == 0;
    const auto t0 = std::chrono::steady_clock::now();
    const bool ok = corpus.DecodeAll(selected);
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (!ok || corpus.edges() == 0) return {};
    double& slot = best[selected ? 0 : 1];
    if (i < 2 || ns < slot) slot = ns;
  }
  const double edges = static_cast<double>(corpus.edges());
  return {best[0] / edges, best[1] / edges};
}

}  // namespace flash::bench
