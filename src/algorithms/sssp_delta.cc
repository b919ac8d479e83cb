// Delta-stepping SSSP (Meyer & Sanders).
//
// Vertices are processed in distance buckets of width delta. Within a
// bucket, light edges (w <= delta) are relaxed repeatedly until the bucket
// drains; heavy edges (w > delta) are relaxed once from everything the
// bucket settled, since they can only reach later buckets. The
// bucket/settled bookkeeping is pure vertexSubset algebra plus driver
// control flow — the multi-phase pattern the paper contrasts against
// single-function vertex-centric models.

#include "algorithms/algorithms.h"
#include "core/api.h"

namespace flash::algo {

namespace {
constexpr float kInfF = std::numeric_limits<float>::infinity();

struct DeltaData {
  float dis = kInfF;
  FLASH_FIELDS(dis)
};

/// Async mode folds the entire pending/settled subset algebra below into
/// the engine scheduler: buckets of width delta ARE the engine's priority
/// buckets, and the per-worker lowest-bucket drain-to-fixpoint is the
/// light-edge inner loop. The driver keeps nothing but the program.
struct DeltaAsyncProgram {
  struct Message {
    float dis;
  };
  static constexpr Monotonicity kMonotonicity = Monotonicity::kIdempotent;
  float delta = kDefaultSsspDelta;
  bool OnDequeue(DeltaData&, VertexId) { return true; }
  bool Gen(const DeltaData& s, VertexId, VertexId, float w, Message& m) {
    m.dis = s.dis + w;
    return true;
  }
  bool Apply(const Message& m, DeltaData& d, VertexId) {
    if (m.dis >= d.dis) return false;
    d.dis = m.dis;
    return true;
  }
  uint32_t Priority(const DeltaData& d, VertexId) const {
    return d.dis <= 0.0f ? 0 : static_cast<uint32_t>(d.dis / delta);
  }
};
}  // namespace

SsspResult RunSsspDeltaStepping(const GraphPtr& graph, VertexId root,
                                float delta, const RuntimeOptions& options) {
  FLASH_CHECK_GT(delta, 0.0f);
  GraphApi<DeltaData> fl(graph, options);
  SsspResult result;
  if (options.execution_mode == ExecutionMode::kAsync) {
    fl.VertexMap(fl.V(), CTrue, [&](DeltaData& v, VertexId id) {
      v.dis = (id == root) ? 0.0f : kInfF;
    });
    DeltaAsyncProgram program;
    program.delta = delta;
    AsyncRun(fl, program, {root});
    result.rounds = static_cast<int>(fl.metrics().async.rounds);
    result.distance = fl.ExtractResults<float>(
        [](const DeltaData& v, VertexId) { return v.dis; });
    result.metrics = fl.metrics();
    return result;
  }
  // LLOC-BEGIN
  auto relax = [](const DeltaData& s, DeltaData& d, VertexId, VertexId,
                  float w) { d.dis = std::min(d.dis, s.dis + w); };
  auto reduce = [](const DeltaData& t, DeltaData& d) {
    d.dis = std::min(d.dis, t.dis);
  };
  fl.VertexMap(fl.V(), CTrue, [&](DeltaData& v, VertexId id) {
    v.dis = (id == root) ? 0.0f : kInfF;
  });
  VertexSubset pending = fl.VertexMap(
      fl.V(), [&](const DeltaData&, VertexId id) { return id == root; });
  for (int bucket = 0; fl.Size(pending) != 0; ++bucket) {
    const float upper = (bucket + 1) * delta;
    VertexSubset settled = fl.None();
    while (true) {
      VertexSubset current = fl.VertexMap(
          pending, [&](const DeltaData& v) { return v.dis < upper; });
      if (fl.Size(current) == 0) break;
      pending = fl.Minus(pending, current);
      settled = fl.Union(settled, current);
      VertexSubset relaxed = fl.EdgeMap(
          current, fl.E(),
          [&](const DeltaData& s, const DeltaData& d, VertexId, VertexId,
              float w) { return w <= delta && s.dis + w < d.dis; },
          relax, CTrue, reduce);
      pending = fl.Union(pending, relaxed);
      ++result.rounds;
    }
    VertexSubset relaxed = fl.EdgeMap(
        settled, fl.E(),
        [&](const DeltaData& s, const DeltaData& d, VertexId, VertexId,
            float w) { return w > delta && s.dis + w < d.dis; },
        relax, CTrue, reduce);
    pending = fl.Union(pending, relaxed);
    ++result.rounds;
  }
  // LLOC-END
  result.distance = fl.ExtractResults<float>(
      [](const DeltaData& v, VertexId) { return v.dis; });
  result.metrics = fl.metrics();
  return result;
}

}  // namespace flash::algo
