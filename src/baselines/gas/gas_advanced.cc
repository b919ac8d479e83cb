// GAS baselines for the harder applications: BC, MIS, MM, k-core, TC, GC.
// Multi-phase logic has to be staged by the driver (PowerGraph's signal
// API) because the model itself is single-phased.

#include <algorithm>

#include "baselines/gas/algorithms.h"
#include "baselines/gas/engine.h"

namespace flash::baselines::gas {

namespace {
template <typename V, typename G>
typename Engine<V, G>::Options MakeOptions(const GasRunOptions& options) {
  typename Engine<V, G>::Options out;
  out.num_workers = options.num_workers;
  out.max_iterations = options.max_iterations;
  return out;
}
}  // namespace

GasBcResult Bc(const GraphPtr& graph, VertexId root,
               const GasRunOptions& options) {
  struct V {
    int32_t level = -1;
    double sigma = 0;
    double delta = 0;
  };
  using E = Engine<V, double>;
  E engine(graph, MakeOptions<V, double>(options));
  // LLOC-BEGIN
  // Forward wavefront: vertices adjacent to level-k vertices settle level
  // k+1 with the full sigma sum (all parents settled one iteration before).
  typename E::Program forward;
  forward.init = [&](V& v, VertexId id) {
    if (id == root) {
      v.level = 0;
      v.sigma = 1;
    }
  };
  forward.gather = [&](const V& self, VertexId, const V& nbr, VertexId,
                       float) -> std::optional<double> {
    if (self.level == -1 && nbr.level == static_cast<int32_t>(engine.iteration())) {
      return nbr.sigma;
    }
    return std::nullopt;
  };
  forward.sum = [](const double& a, const double& b) { return a + b; };
  forward.apply = [&](V& v, VertexId id, const std::optional<double>& t,
                      int64_t iteration) {
    if (iteration == 0 && id == root) return true;
    if (v.level == -1 && t.has_value()) {
      v.level = static_cast<int32_t>(iteration) + 1;
      v.sigma = *t;
      return true;
    }
    return false;
  };
  engine.Run(forward);
  int32_t max_level = 0;
  for (const V& v : engine.values()) max_level = std::max(max_level, v.level);
  // Backward accumulation, one level per driver-staged round.
  GasRunOptions one_shot = options;
  one_shot.max_iterations = 1;
  E backward_engine(graph, MakeOptions<V, double>(one_shot));
  backward_engine.values() = engine.values();
  typename E::Program backward;
  backward.gather = [](const V& self, VertexId, const V& nbr, VertexId,
                       float) -> std::optional<double> {
    if (nbr.level == self.level + 1 && nbr.sigma > 0) {
      return self.sigma / nbr.sigma * (1.0 + nbr.delta);
    }
    return std::nullopt;
  };
  backward.sum = [](const double& a, const double& b) { return a + b; };
  backward.apply = [](V& v, VertexId, const std::optional<double>& t,
                      int64_t) {
    v.delta = t.value_or(0.0);
    return false;
  };
  for (int32_t level = max_level - 1; level >= 0; --level) {
    backward_engine.SignalNone();
    for (VertexId v = 0; v < graph->NumVertices(); ++v) {
      if (backward_engine.values()[v].level == level) backward_engine.Signal(v);
    }
    backward_engine.Run(backward);
  }
  // LLOC-END
  GasBcResult result;
  result.dependency.reserve(graph->NumVertices());
  for (const V& v : backward_engine.values()) result.dependency.push_back(v.delta);
  result.metrics = engine.metrics();
  for (const StepSample& s : backward_engine.metrics().steps) {
    result.metrics.AddStep(s, true);
  }
  return result;
}

GasMisResult Mis(const GraphPtr& graph, const GasRunOptions& options) {
  struct V {
    uint64_t r = 0;
    uint8_t state = 0;  // 0 undecided, 1 in, 2 out.
  };
  struct Acc {
    uint64_t min_r = ~uint64_t{0};
    uint8_t in_nbr = 0;
  };
  using E = Engine<V, Acc>;
  E engine(graph, MakeOptions<V, Acc>(options));
  const uint64_t n = graph->NumVertices();
  // LLOC-BEGIN
  typename E::Program program;
  program.init = [&](V& v, VertexId id) {
    v.r = static_cast<uint64_t>(graph->OutDegree(id)) * n + id;
  };
  program.gather = [](const V& self, VertexId, const V& nbr, VertexId,
                      float) -> std::optional<Acc> {
    if (self.state != 0) return std::nullopt;
    Acc acc;
    if (nbr.state == 0) acc.min_r = nbr.r;
    if (nbr.state == 1) acc.in_nbr = 1;
    return acc;
  };
  program.sum = [](const Acc& a, const Acc& b) {
    return Acc{std::min(a.min_r, b.min_r),
               static_cast<uint8_t>(a.in_nbr | b.in_nbr)};
  };
  program.apply = [](V& v, VertexId, const std::optional<Acc>& t, int64_t) {
    if (v.state != 0) return false;
    if (t.has_value() && t->in_nbr) {
      v.state = 2;
      return true;
    }
    if (!t.has_value() || v.r < t->min_r) {
      v.state = 1;
      return true;
    }
    return false;
  };
  engine.Run(program);
  // LLOC-END
  GasMisResult result;
  result.in_set.reserve(n);
  for (const V& v : engine.values()) result.in_set.push_back(v.state == 1);
  result.metrics = engine.metrics();
  return result;
}

GasMmResult Mm(const GraphPtr& graph, const GasRunOptions& options) {
  struct V {
    int64_t s = -1;
    int64_t best = -1;
  };
  using E = Engine<V, int64_t>;
  GasRunOptions one_shot = options;
  one_shot.max_iterations = 1;
  E engine(graph, MakeOptions<V, int64_t>(one_shot));
  // LLOC-BEGIN
  typename E::Program bid;
  bid.gather = [](const V& self, VertexId, const V& nbr, VertexId nbr_id,
                  float) -> std::optional<int64_t> {
    if (self.s == -1 && nbr.s == -1) return static_cast<int64_t>(nbr_id);
    return std::nullopt;
  };
  bid.sum = [](const int64_t& a, const int64_t& b) { return std::max(a, b); };
  bid.apply = [](V& v, VertexId, const std::optional<int64_t>& t, int64_t) {
    if (v.s != -1) return false;
    v.best = t.value_or(-1);
    return false;
  };
  typename E::Program match;
  match.gather = [](const V& self, VertexId self_id, const V& nbr,
                    VertexId nbr_id, float) -> std::optional<int64_t> {
    bool nbr_free = nbr.s == -1 || nbr.s == static_cast<int64_t>(self_id);
    if (self.s == -1 && nbr_free &&
        nbr.best == static_cast<int64_t>(self_id) &&
        self.best == static_cast<int64_t>(nbr_id)) {
      return static_cast<int64_t>(nbr_id);
    }
    return std::nullopt;
  };
  match.sum = [](const int64_t& a, const int64_t& b) { return std::max(a, b); };
  match.apply = [](V& v, VertexId, const std::optional<int64_t>& t, int64_t) {
    if (v.s == -1 && t.has_value()) {
      v.s = *t;
      return true;
    }
    return false;
  };
  while (true) {
    engine.SignalAll();
    engine.Run(bid);
    size_t before = 0;
    for (const V& v : engine.values()) before += (v.s != -1);
    engine.SignalAll();
    engine.Run(match);
    size_t after = 0;
    for (const V& v : engine.values()) after += (v.s != -1);
    if (after == before) break;
  }
  // LLOC-END
  GasMmResult result;
  result.match.reserve(graph->NumVertices());
  for (const V& v : engine.values()) {
    result.match.push_back(v.s == -1 ? kInvalidVertex
                                     : static_cast<VertexId>(v.s));
  }
  result.metrics = engine.metrics();
  return result;
}

GasKCoreResult KCore(const GraphPtr& graph, const GasRunOptions& options) {
  struct V {
    uint32_t core = 0;
    uint8_t alive = 1;
  };
  using E = Engine<V, uint32_t>;
  E engine(graph, MakeOptions<V, uint32_t>(options));
  // LLOC-BEGIN
  uint32_t k = 1;
  typename E::Program program;
  program.gather = [](const V& self, VertexId, const V& nbr, VertexId,
                      float) -> std::optional<uint32_t> {
    if (self.alive && nbr.alive) return 1u;
    return std::nullopt;
  };
  program.sum = [](const uint32_t& a, const uint32_t& b) { return a + b; };
  program.apply = [&](V& v, VertexId, const std::optional<uint32_t>& t,
                      int64_t) {
    if (!v.alive) return false;
    if (t.value_or(0) < k) {
      v.alive = 0;
      v.core = k - 1;
      return true;
    }
    return false;
  };
  while (true) {
    engine.SignalAll();
    engine.ResetIteration();
    engine.Run(program);
    bool any_alive = false;
    for (const V& v : engine.values()) any_alive |= (v.alive != 0);
    if (!any_alive) break;
    ++k;
  }
  // LLOC-END
  GasKCoreResult result;
  result.core.reserve(graph->NumVertices());
  for (const V& v : engine.values()) result.core.push_back(v.core);
  result.metrics = engine.metrics();
  return result;
}

GasCountResult TriangleCount(const GraphPtr& graph,
                             const GasRunOptions& options) {
  using List = std::vector<VertexId>;
  using E = Engine<List, List>;
  GasRunOptions one_shot = options;
  one_shot.max_iterations = 1;
  E engine(graph, MakeOptions<List, List>(one_shot));
  auto higher = [&](VertexId a, VertexId b) {  // b higher-ordered than a.
    uint32_t da = graph->OutDegree(a), db = graph->OutDegree(b);
    return db > da || (db == da && b > a);
  };
  // LLOC-BEGIN
  // Round 1: gather the forward neighbour list (the costly list exchange
  // the paper calls out: PowerGraph must ship whole adjacency lists).
  typename E::Program collect;
  collect.gather = [&](const List&, VertexId self_id, const List&,
                       VertexId nbr_id, float) -> std::optional<List> {
    if (higher(self_id, nbr_id)) return List{nbr_id};
    return std::nullopt;
  };
  collect.sum = [](const List& a, const List& b) {
    List merged = a;
    merged.insert(merged.end(), b.begin(), b.end());
    return merged;
  };
  collect.apply = [](List& v, VertexId, const std::optional<List>& t,
                     int64_t) {
    if (t.has_value()) {
      v = *t;
      std::sort(v.begin(), v.end());
    }
    return false;
  };
  collect.gather_size = [](const List& g) { return g.size() * sizeof(VertexId); };
  engine.SignalAll();
  engine.Run(collect);
  // Round 2: intersect lists across each edge, counted at the lower vertex.
  std::vector<uint64_t> counts(graph->NumVertices(), 0);
  typename E::Program intersect;
  intersect.gather = [&](const List& self, VertexId self_id, const List& nbr,
                         VertexId nbr_id, float) -> std::optional<List> {
    if (nbr_id >= self_id) return std::nullopt;
    uint64_t common = 0;
    for (VertexId w : nbr) {
      if (std::binary_search(self.begin(), self.end(), w)) ++common;
    }
    return List{static_cast<VertexId>(common)};
  };
  intersect.sum = [](const List& a, const List& b) {
    return List{a[0] + b[0]};
  };
  intersect.apply = [&](List&, VertexId id, const std::optional<List>& t,
                        int64_t) {
    if (t.has_value()) counts[id] = (*t)[0];
    return false;
  };
  engine.SignalAll();
  engine.ResetIteration();
  engine.Run(intersect);
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  // LLOC-END
  GasCountResult result;
  result.count = total;
  result.metrics = engine.metrics();
  return result;
}

GasGcResult GraphColoring(const GraphPtr& graph,
                          const GasRunOptions& options) {
  struct V {
    uint32_t c = 0;
  };
  using List = std::vector<uint32_t>;
  using E = Engine<V, List>;
  E engine(graph, MakeOptions<V, List>(options));
  auto higher = [&](VertexId a, VertexId b) {  // b higher-priority than a.
    uint32_t da = graph->OutDegree(a), db = graph->OutDegree(b);
    return db > da || (db == da && b > a);
  };
  // LLOC-BEGIN
  typename E::Program program;
  program.gather = [&](const V&, VertexId self_id, const V& nbr,
                       VertexId nbr_id, float) -> std::optional<List> {
    if (higher(self_id, nbr_id)) return List{nbr.c};
    return std::nullopt;
  };
  program.sum = [](const List& a, const List& b) {
    List merged = a;
    merged.insert(merged.end(), b.begin(), b.end());
    return merged;
  };
  program.apply = [](V& v, VertexId, const std::optional<List>& t, int64_t) {
    List used = t.value_or(List{});
    std::sort(used.begin(), used.end());
    uint32_t candidate = 0;
    for (uint32_t color : used) {
      if (color == candidate) {
        ++candidate;
      } else if (color > candidate) {
        break;
      }
    }
    if (candidate != v.c) {
      v.c = candidate;
      return true;
    }
    return false;
  };
  program.scatter_activates = [&](const V&, const V&, VertexId nbr_id) {
    (void)nbr_id;
    return true;
  };
  program.gather_size = [](const List& g) { return g.size() * sizeof(uint32_t); };
  engine.Run(program);
  // One final settling pass: everyone re-checks once.
  engine.SignalAll();
  engine.Run(program);
  // LLOC-END
  GasGcResult result;
  result.color.reserve(graph->NumVertices());
  for (const V& v : engine.values()) result.color.push_back(v.c);
  result.metrics = engine.metrics();
  return result;
}

}  // namespace flash::baselines::gas
