#ifndef FLASH_SERVING_QUERY_H_
#define FLASH_SERVING_QUERY_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

/// The serving layer's query vocabulary (docs/SERVING.md).
///
/// A Query is one tenant-attributed point question about the graph; an
/// Answer is its scalar result plus the modelled timing of its journey
/// through the server. Point queries are deliberately tiny — the serving
/// thesis is that many of them share one engine pass (the msbfs.cc
/// bit-parallel trick), so the unit of engine work is the *batch*, never
/// the query.
namespace flash::serving {

enum class QueryKind : uint8_t {
  /// Hop distance source -> target (BFS). Coalesces up to 64 distinct
  /// sources into one bit-parallel pass.
  kBfsDistance = 0,
  /// Number of vertices within <= k hops of source (incl. the source).
  /// Coalesces like kBfsDistance; the pass stops at the largest k.
  kKHop = 1,
  /// Landmark shortest-path estimate: min over landmarks l of
  /// d(l, source) + d(l, target) — an upper bound on the true distance
  /// (exact when some shortest path crosses a landmark). All queries of a
  /// batch share the lazily-built landmark distance cache.
  kLandmark = 2,
  /// Personalized PageRank mass of target for a walk teleporting to
  /// source (forward push). Cannot share a pass — runs per query.
  kPpr = 3,
};

inline constexpr int kNumQueryKinds = 4;

const char* QueryKindName(QueryKind kind);

/// Answer value reported when the target is unreachable (BFS / landmark).
inline constexpr double kUnreachable =
    std::numeric_limits<double>::infinity();

struct Query {
  QueryKind kind = QueryKind::kBfsDistance;
  /// Billing/metrics dimension; empty means the server's default tenant.
  std::string tenant;
  /// BFS/landmark/k-hop start vertex; PPR teleport seed.
  VertexId source = 0;
  /// BFS/landmark destination; PPR vertex whose rank is asked. Unused by
  /// k-hop.
  VertexId target = 0;
  /// k-hop radius (k-hop only).
  uint32_t k = 1;
  /// Latency budget in modelled seconds, relative to submission. The
  /// scheduler cuts a partial batch early rather than queue a query past
  /// its budget; infinity = patient (batch cutting falls back to the
  /// scheduler's max wait).
  double deadline_s = std::numeric_limits<double>::infinity();
};

struct Answer {
  uint64_t query_id = 0;  // Assigned by Server::Submit, dense from 0.
  QueryKind kind = QueryKind::kBfsDistance;
  std::string tenant;
  /// kBfsDistance: hop count (kUnreachable if none). kKHop: neighbourhood
  /// size. kLandmark: distance estimate (kUnreachable if no landmark sees
  /// both endpoints). kPpr: settled PPR mass at target.
  double value = 0;
  double enqueue_s = 0;   // Modelled submission time.
  double complete_s = 0;  // Modelled completion of the batch's pass.
  double latency_s = 0;   // complete_s - enqueue_s.
  int batch_width = 0;    // Queries sharing the answering engine pass.
};

/// Parses a replay log (flash_cli --serve-replay): one query per line,
///   <kind> <source> <target-or-k> [tenant] [deadline_s]
/// where <kind> is bfs | khop | landmark | ppr. '#' starts a comment.
/// Source, target and k must be whole unsigned 32-bit tokens, the deadline
/// a number, and nothing may follow it; any other line is InvalidArgument
/// naming it.
Result<std::vector<Query>> ParseQueryLog(const std::string& text);

}  // namespace flash::serving

#endif  // FLASH_SERVING_QUERY_H_
