#include "graph/generators.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "common/thread_pool.h"

namespace flash {

namespace {
float RandomWeight(Rng& rng) {
  // Uniform in (0, 1]; strictly positive so MSF weights are well-behaved.
  return static_cast<float>(1.0 - rng.NextDouble());
}
}  // namespace

Result<GraphPtr> GenerateRmat(const RmatOptions& options) {
  if (options.scale < 1 || options.scale > 30) {
    return Status::InvalidArgument("RMAT scale out of range");
  }
  double d = 1.0 - options.a - options.b - options.c;
  // Written so that a NaN probability fails too.
  if (!(d >= 0 && options.a >= 0 && options.b >= 0 && options.c >= 0)) {
    return Status::InvalidArgument("RMAT probabilities must be a partition");
  }
  const VertexId n = VertexId{1} << options.scale;
  const uint64_t m = static_cast<uint64_t>(options.avg_degree * n);
  // Every edge consumes exactly scale + 1 draws (one quadrant per bit, then
  // the weight). So one serial pass of bare draws finds the Rng state at
  // each chunk's start, and the chunks decode in parallel.
  constexpr uint64_t kChunk = uint64_t{1} << 16;
  const uint64_t chunks = (m + kChunk - 1) / kChunk;
  std::vector<Rng> starts(1, Rng(options.seed));
  for (uint64_t c = 1; c < chunks; ++c) {
    Rng next = starts.back();
    for (uint64_t i = 0; i < kChunk * (options.scale + 1); ++i) next.Next();
    starts.push_back(next);
  }
  // An EdgeList leaves its slots unwritten: the chunk tasks draw each one.
  EdgeList edges(m);
  ThreadPool pool(GraphBuilder::PoolWidth(m));
  pool.ParallelForWorkers(static_cast<int>(chunks), [&](int c) {
    Rng rng = starts[c];
    for (uint64_t i = c * kChunk; i < std::min(m, (c + 1) * kChunk); ++i) {
      VertexId src = 0, dst = 0;
      for (int bit = options.scale - 1; bit >= 0; --bit) {
        // Quadrant 0-3 (top-left, top-right, bottom-left, bottom-right):
        // how many of the cumulative probabilities r reaches.
        const double r = rng.NextDouble();
        const VertexId q = (r >= options.a) + (r >= options.a + options.b) +
                           (r >= options.a + options.b + options.c);
        src |= (q >> 1) << bit;
        dst |= (q & 1) << bit;
      }
      edges[i] = Edge{src, dst, RandomWeight(rng)};
    }
  });
  GraphBuilder builder(n, std::move(edges));
  BuildOptions build;
  build.symmetrize = options.symmetrize;
  build.keep_weights = options.weighted;
  return builder.Build(build, pool);
}

Result<GraphPtr> GenerateGrid(const GridOptions& options) {
  if (options.rows == 0 || options.cols == 0) {
    return Status::InvalidArgument("grid dimensions must be positive");
  }
  const VertexId n = options.rows * options.cols;
  Rng rng(options.seed);
  GraphBuilder builder(n);
  auto id = [&](uint32_t r, uint32_t c) { return r * options.cols + c; };
  for (uint32_t r = 0; r < options.rows; ++r) {
    for (uint32_t c = 0; c < options.cols; ++c) {
      if (c + 1 < options.cols && rng.Bernoulli(options.keep_prob)) {
        builder.AddEdge(id(r, c), id(r, c + 1), RandomWeight(rng));
      }
      if (r + 1 < options.rows && rng.Bernoulli(options.keep_prob)) {
        builder.AddEdge(id(r, c), id(r + 1, c), RandomWeight(rng));
      }
    }
  }
  // Sparse long-range shortcuts ("highways").
  uint64_t shortcuts = static_cast<uint64_t>(options.highway_fraction * n);
  for (uint64_t i = 0; i < shortcuts; ++i) {
    VertexId u = static_cast<VertexId>(rng.Uniform(n));
    VertexId v = static_cast<VertexId>(rng.Uniform(n));
    builder.AddEdge(u, v, RandomWeight(rng));
  }
  BuildOptions build;
  build.symmetrize = true;  // Roads are undirected.
  build.keep_weights = options.weighted;
  return builder.Build(build);
}

Result<GraphPtr> MakeRoadGrid(const RoadGridOptions& options) {
  if (options.width == 0) {
    return Status::InvalidArgument("road grid width must be positive");
  }
  GridOptions grid;
  // Diameter of a full rows x cols grid is (rows - 1) + (cols - 1).
  grid.cols = options.width;
  const uint32_t across = options.width - 1;
  grid.rows = options.target_diameter > across
                  ? options.target_diameter - across + 1
                  : 2;
  grid.keep_prob = 1.0;         // Every grid edge: exact, connected.
  grid.highway_fraction = 0.0;  // No shortcuts: the full barrier tax.
  grid.weighted = options.weighted;
  grid.seed = options.seed;
  return GenerateGrid(grid);
}

Result<GraphPtr> GenerateWebGraph(const WebGraphOptions& options) {
  if (options.num_vertices < 2) {
    return Status::InvalidArgument("web graph needs at least 2 vertices");
  }
  Rng rng(options.seed);
  GraphBuilder builder(options.num_vertices);
  // Endpoint pool for preferential attachment: every chosen endpoint is
  // appended, so selection probability is proportional to current degree.
  std::vector<VertexId> pool;
  pool.reserve(static_cast<size_t>(options.num_vertices) * options.out_degree);
  pool.push_back(0);
  std::vector<VertexId> last_targets;
  for (VertexId v = 1; v < options.num_vertices; ++v) {
    last_targets.clear();
    uint32_t degree = std::min<uint32_t>(options.out_degree, v);
    for (uint32_t k = 0; k < degree; ++k) {
      VertexId target;
      if (!last_targets.empty() && rng.Bernoulli(options.copy_prob)) {
        // Copying model: link to a neighbour of a previous target, which
        // creates triangles / local density typical of web graphs.
        VertexId via = last_targets[rng.Uniform(last_targets.size())];
        target = via;  // Fallback if the pool lookup is unhelpful.
        if (via > 0) {
          target = static_cast<VertexId>(rng.Uniform(via));
        }
      } else {
        target = pool[rng.Uniform(pool.size())];
      }
      if (target == v) target = (v + 1) % options.num_vertices;
      builder.AddEdge(v, target, RandomWeight(rng));
      last_targets.push_back(target);
      pool.push_back(target);
    }
    pool.push_back(v);
  }
  // Link farms: planted near-cliques over random page windows.
  uint64_t farms = static_cast<uint64_t>(options.cliques_per_10k) *
                   options.num_vertices / 10'000;
  for (uint64_t f = 0; f < farms; ++f) {
    std::vector<VertexId> members;
    members.reserve(options.clique_size);
    for (uint32_t i = 0; i < options.clique_size; ++i) {
      members.push_back(static_cast<VertexId>(rng.Uniform(options.num_vertices)));
    }
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        if (members[i] != members[j]) {
          builder.AddEdge(members[i], members[j], RandomWeight(rng));
        }
      }
    }
  }
  BuildOptions build;
  build.symmetrize = options.symmetrize;
  build.keep_weights = options.weighted;
  return builder.Build(build);
}

Result<GraphPtr> GenerateErdosRenyi(uint32_t num_vertices, uint64_t num_edges,
                                    bool symmetrize, uint64_t seed,
                                    bool weighted) {
  if (num_vertices == 0) {
    return Status::InvalidArgument("empty vertex set");
  }
  Rng rng(seed);
  GraphBuilder builder(num_vertices);
  builder.Reserve(num_edges);
  for (uint64_t i = 0; i < num_edges; ++i) {
    builder.AddEdge(static_cast<VertexId>(rng.Uniform(num_vertices)),
                    static_cast<VertexId>(rng.Uniform(num_vertices)),
                    RandomWeight(rng));
  }
  BuildOptions build;
  build.symmetrize = symmetrize;
  build.keep_weights = weighted;
  return builder.Build(build);
}

Result<GraphPtr> MakePath(uint32_t n, bool symmetrize) {
  GraphBuilder builder(n);
  for (uint32_t i = 0; i + 1 < n; ++i) builder.AddEdge(i, i + 1);
  BuildOptions build;
  build.symmetrize = symmetrize;
  return builder.Build(build);
}

Result<GraphPtr> MakeCycle(uint32_t n, bool symmetrize) {
  GraphBuilder builder(n);
  for (uint32_t i = 0; i < n; ++i) builder.AddEdge(i, (i + 1) % n);
  BuildOptions build;
  build.symmetrize = symmetrize;
  return builder.Build(build);
}

Result<GraphPtr> MakeStar(uint32_t n, bool symmetrize) {
  GraphBuilder builder(n);
  for (uint32_t i = 1; i < n; ++i) builder.AddEdge(0, i);
  BuildOptions build;
  build.symmetrize = symmetrize;
  return builder.Build(build);
}

Result<GraphPtr> MakeComplete(uint32_t n) {
  GraphBuilder builder(n);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      if (i != j) builder.AddEdge(i, j);
    }
  }
  return builder.Build(BuildOptions{});
}

Result<GraphPtr> MakeBinaryTree(uint32_t n, bool symmetrize) {
  GraphBuilder builder(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (2 * i + 1 < n) builder.AddEdge(i, 2 * i + 1);
    if (2 * i + 2 < n) builder.AddEdge(i, 2 * i + 2);
  }
  BuildOptions build;
  build.symmetrize = symmetrize;
  return builder.Build(build);
}

}  // namespace flash
