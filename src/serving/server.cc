#include "serving/server.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

#include "algorithms/algorithms.h"
#include "common/logging.h"

namespace flash::serving {

namespace {

/// EWMA smoothing for per-queue batch service times (deadline math input).
constexpr double kEwmaAlpha = 0.3;

/// Parses all of `token` as an unsigned 32-bit number: no sign, no
/// trailing characters, nothing past 2^32 - 1.
bool ParseU32(const std::string& token, uint32_t* out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kBfsDistance: return "bfs";
    case QueryKind::kKHop: return "khop";
    case QueryKind::kLandmark: return "landmark";
    case QueryKind::kPpr: return "ppr";
  }
  return "unknown";
}

Result<std::vector<Query>> ParseQueryLog(const std::string& text) {
  std::vector<Query> queries;
  std::istringstream lines(text);
  std::string line;
  int lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string kind;
    if (!(fields >> kind)) continue;  // Blank / comment-only line.
    const auto bad = [&](const std::string& what) {
      return Status::InvalidArgument("query log line " +
                                     std::to_string(lineno) + ": " + what);
    };
    Query q;
    if (kind == "bfs") {
      q.kind = QueryKind::kBfsDistance;
    } else if (kind == "khop") {
      q.kind = QueryKind::kKHop;
    } else if (kind == "landmark") {
      q.kind = QueryKind::kLandmark;
    } else if (kind == "ppr") {
      q.kind = QueryKind::kPpr;
    } else {
      return bad("unknown kind '" + kind + "' (want bfs|khop|landmark|ppr)");
    }
    std::string a;
    std::string b;
    uint32_t second = 0;
    if (!(fields >> a >> b) || !ParseU32(a, &q.source) ||
        !ParseU32(b, &second)) {
      return bad("want '" + kind + " <source> <" +
                 (q.kind == QueryKind::kKHop ? "k" : "target") +
                 ">' as unsigned 32-bit integers");
    }
    if (q.kind == QueryKind::kKHop) {
      q.k = second;
    } else {
      q.target = second;
    }
    std::string tenant;
    if (fields >> tenant) q.tenant = std::move(tenant);
    std::string deadline;
    if (fields >> deadline) {
      char* end = nullptr;
      q.deadline_s = std::strtod(deadline.c_str(), &end);
      if (end != deadline.c_str() + deadline.size()) {
        return bad("bad deadline '" + deadline + "'");
      }
    }
    std::string extra;
    if (fields >> extra) return bad("unexpected '" + extra + "'");
    queries.push_back(std::move(q));
  }
  return queries;
}

void ServingStats::ExportTo(obs::Registry& registry) const {
  registry.Counter("flash_serving_submitted_total", submitted,
                   "Queries offered to the serving front door");
  registry.Counter("flash_serving_enqueued_total", enqueued,
                   "Queries admitted past admission control");
  registry.Counter("flash_serving_answered_total", answered,
                   "Queries answered by an executed batch");
  registry.Counter("flash_serving_shed_total", shed,
                   "Queries refused by admission control (OutOfRange)");
  registry.Counter("flash_serving_batches_total", batches,
                   "Batches cut and executed");
  registry.Counter("flash_serving_engine_passes_total", engine_passes,
                   "Engine passes run on behalf of batches");
  registry.Counter("flash_serving_cache_hit_total", cache_hits,
                   "Queries answered from the cross-batch result cache");
  registry.Counter("flash_serving_cache_miss_total", cache_misses,
                   "Cacheable queries that required an engine pass");
  for (const auto& [tenant, t] : tenants) {
    const obs::MetricLabels labels = {{"tenant", tenant}};
    registry.Counter("flash_serving_tenant_submitted_total", labels,
                     t.submitted, "Per-tenant queries offered");
    registry.Counter("flash_serving_tenant_answered_total", labels,
                     t.answered, "Per-tenant queries answered");
    registry.Counter("flash_serving_tenant_shed_total", labels, t.shed,
                     "Per-tenant queries shed by admission control");
  }
  if (!latencies.empty()) {
    registry.Histogram(
        "flash_serving_latency_seconds",
        {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0},
        "Modelled end-to-end query latency");
    for (double l : latencies) {
      registry.Observe("flash_serving_latency_seconds", l);
    }
  }
  if (!batch_log.empty()) {
    registry.Histogram("flash_serving_batch_width", {1, 2, 4, 8, 16, 32, 64},
                       "Queries coalesced per executed batch");
    for (const BatchStat& b : batch_log) {
      registry.Observe("flash_serving_batch_width",
                       static_cast<double>(b.width));
    }
  }
}

Server::Server(GraphPtr graph, RuntimeOptions runtime, ServerOptions options)
    : graph_(std::move(graph)),
      runtime_(std::move(runtime)),
      options_(std::move(options)),
      scheduler_(options_.scheduler) {
  FLASH_CHECK(graph_ != nullptr);
  // The cost model prices passes from per-step samples; without them every
  // batch would model as free.
  runtime_.record_steps = true;
  if (runtime_.trace) {
    if (runtime_.tracer == nullptr) {
      runtime_.tracer = std::make_shared<obs::Tracer>();
    }
    tracer_ = runtime_.tracer;  // Serving spans share the engine's sink.
  }
  service_ewma_.fill(0.0);
}

Result<uint64_t> Server::Submit(Query query, double now_s) {
  AdvanceTo(now_s);
  if (query.tenant.empty()) query.tenant = options_.default_tenant;
  if (query.source >= graph_->NumVertices() ||
      (query.kind != QueryKind::kKHop &&
       query.target >= graph_->NumVertices())) {
    std::ostringstream msg;
    msg << QueryKindName(query.kind) << " query references vertex beyond "
        << graph_->NumVertices();
    return Status::InvalidArgument(msg.str());
  }
  const uint64_t id = next_id_++;
  ++stats_.submitted;
  TenantCounters& tenant = stats_.tenants[query.tenant];
  ++tenant.submitted;
  PendingQuery pending;
  pending.query = std::move(query);
  pending.id = id;
  pending.enqueue_s = now_s_;
  Status admitted = scheduler_.Enqueue(pending);
  if (!admitted.ok()) {
    ++stats_.shed;
    ++tenant.shed;
    OBS_INSTANT(tracer_.get(), "serve:shed", obs::SpanKind::kInstant,
                obs::kHostLane, -1, id);
    return admitted;
  }
  ++stats_.enqueued;
  ++tenant.enqueued;
  // A full-width batch forms at submission time; cut it now.
  ExecuteDueBatches();
  return id;
}

void Server::Drain() {
  ExecuteDueBatches();
  while (scheduler_.HasPending()) {
    const double next = scheduler_.NextForcedCutTime();
    AdvanceTo(std::max(now_s_, next));
  }
}

void Server::AdvanceTo(double now_s) {
  // Step the clock through every forced cut inside the interval so each
  // deadline-cut batch is released exactly at its forced time — never
  // late, which is what bounds a query's queued wait.
  while (true) {
    const double next = scheduler_.NextForcedCutTime();
    if (next > now_s) break;
    now_s_ = std::max(now_s_, next);
    ExecuteDueBatches();
  }
  now_s_ = std::max(now_s_, now_s);
}

void Server::ExecuteDueBatches() {
  while (true) {
    Batch batch = scheduler_.CutDue(now_s_);
    if (batch.queries.empty()) break;
    ExecuteBatch(batch);
  }
}

void Server::ExecuteBatch(const Batch& batch) {
  OBS_SPAN_VAR(span, tracer_.get(), "serve:batch", obs::SpanKind::kPhase);
  span.args(static_cast<uint64_t>(batch.queue), batch.queries.size());

  std::vector<double> values(batch.queries.size(), 0.0);
  Metrics pass_metrics;
  if (batch.queue == QueueClass::kPpr) {
    AnswerPpr(batch, values, pass_metrics);
  } else {
    AnswerTraversal(batch, values, pass_metrics);
  }

  // Price the batch: fixed dispatch + the pass on the modelled cluster +
  // per-query admission/demux — then run it on the single modelled
  // executor, FIFO behind whatever is already in flight.
  const ClusterConfig& cluster = options_.cluster;
  const double service =
      cluster.batch_dispatch_seconds + ModelTime(pass_metrics, cluster).total +
      static_cast<double>(batch.queries.size()) * cluster.query_admit_seconds;
  const double start = std::max(batch.cut_s, busy_until_s_);
  const double complete = start + service;
  busy_until_s_ = complete;

  double& ewma = service_ewma_[static_cast<size_t>(batch.queue)];
  ewma = ewma == 0.0 ? service
                     : (1.0 - kEwmaAlpha) * ewma + kEwmaAlpha * service;
  scheduler_.SetServiceEstimate(batch.queue, ewma);

  BatchStat stat;
  stat.queue = batch.queue;
  stat.width = static_cast<int>(batch.queries.size());
  stat.cut_s = batch.cut_s;
  stat.oldest_wait_s = batch.cut_s - batch.queries.front().enqueue_s;
  stat.start_s = start;
  stat.service_s = service;
  stat.complete_s = complete;
  stats_.batch_log.push_back(stat);
  ++stats_.batches;
  stats_.engine_metrics.Absorb(pass_metrics);

  for (size_t i = 0; i < batch.queries.size(); ++i) {
    const PendingQuery& p = batch.queries[i];
    Answer answer;
    answer.query_id = p.id;
    answer.kind = p.query.kind;
    answer.tenant = p.query.tenant;
    answer.value = values[i];
    answer.enqueue_s = p.enqueue_s;
    answer.complete_s = complete;
    answer.latency_s = complete - p.enqueue_s;
    answer.batch_width = stat.width;
    stats_.latencies.push_back(answer.latency_s);
    ++stats_.answered;
    ++stats_.tenants[answer.tenant].answered;
    answers_.push_back(std::move(answer));
  }
}

void Server::AnswerTraversal(const Batch& batch, std::vector<double>& values,
                             Metrics& metrics) {
  // bfs-distance and landmark answers are pure functions of (graph, source,
  // target): a repeat — of an earlier batch's query or of a miss earlier in
  // this batch — is a cache hit and rides no pass. Every k-hop query and
  // each first bfs miss ride the pass; landmark misses read its table.
  std::map<CacheKey, size_t> first_miss;
  std::vector<std::pair<size_t, size_t>> repeats;  // (copy, first miss)
  std::vector<size_t> riders;
  std::vector<size_t> landmark_misses;
  for (size_t i = 0; i < batch.queries.size(); ++i) {
    const Query& q = batch.queries[i].query;
    if (q.kind == QueryKind::kKHop) {
      riders.push_back(i);
      continue;
    }
    const CacheKey key{q.kind, q.source, q.target};
    const auto hit = result_cache_.find(key);
    if (hit != result_cache_.end()) {
      values[i] = hit->second;
      ++stats_.cache_hits;
      continue;
    }
    const auto [first, fresh] = first_miss.try_emplace(key, i);
    if (!fresh) {
      repeats.emplace_back(i, first->second);
      ++stats_.cache_hits;
      continue;
    }
    ++stats_.cache_misses;
    (q.kind == QueryKind::kBfsDistance ? riders : landmark_misses).push_back(i);
  }
  // Deferred past the cache lookups: a batch whose landmark queries all hit
  // never builds (or pays for) the landmark table.
  const bool build_table = !landmark_misses.empty() && landmark_dist_.empty();
  if (build_table) {
    // Highest-degree vertices (ties to the lower id — deterministic).
    const VertexId n = graph_->NumVertices();
    const size_t count = std::min<size_t>(
        {static_cast<size_t>(std::max(1, options_.num_landmarks)), 64,
         static_cast<size_t>(n)});
    std::vector<VertexId> order(n);
    for (VertexId v = 0; v < n; ++v) order[v] = v;
    std::partial_sort(order.begin(), order.begin() + count, order.end(),
                      [&](VertexId a, VertexId b) {
                        const uint32_t da = graph_->OutDegree(a);
                        const uint32_t db = graph_->OutDegree(b);
                        return da != db ? da > db : a < b;
                      });
    landmarks_.assign(order.begin(), order.begin() + count);
  }
  if (!riders.empty() || build_table) {
    RunRiders(batch, riders, build_table, values, metrics);
  }
  for (const size_t i : landmark_misses) {
    values[i] = LandmarkEstimate(batch.queries[i].query);
  }
  for (const auto& [key, i] : first_miss) result_cache_.emplace(key, values[i]);
  for (const auto& [copy, first] : repeats) values[copy] = values[first];
}

void Server::RunRiders(const Batch& batch, const std::vector<size_t>& riders,
                       bool build_table, std::vector<double>& values,
                       Metrics& metrics) {
  // One frontier bit per distinct source (first-occurrence order); the
  // cut rule keeps the riders' sources within 64 bits.
  std::vector<VertexId> sources;
  std::map<VertexId, int> bit_of_source;
  const auto bit = [&](VertexId v) {
    const auto [it, fresh] =
        bit_of_source.try_emplace(v, static_cast<int>(sources.size()));
    if (fresh) sources.push_back(v);
    return it->second;
  };
  // bfs riders by target vertex; k-hop riders with their bits.
  std::multimap<VertexId, std::pair<size_t, int>> by_target;
  std::vector<std::pair<size_t, int>> khop;
  uint32_t max_k = 0;
  for (const size_t i : riders) {
    const Query& q = batch.queries[i].query;
    const int b = bit(q.source);
    if (q.kind == QueryKind::kBfsDistance) {
      by_target.emplace(q.target, std::make_pair(i, b));
      values[i] = kUnreachable;
    } else {
      khop.emplace_back(i, b);
      max_k = std::max(max_k, q.k);
    }
  }
  FLASH_CHECK_LE(sources.size(), 64u);
  const VertexId n = graph_->NumVertices();
  std::array<int, 64> row_of_bit;  // Landmark table row riding each bit.
  row_of_bit.fill(-1);
  uint64_t counted = 0;  // Bits whose arrivals are counted or recorded.
  for (const auto& [i, b] : khop) counted |= uint64_t{1} << b;
  if (build_table) {
    size_t extra = 0;
    for (const VertexId l : landmarks_) extra += bit_of_source.count(l) == 0;
    if (sources.size() + extra > 64) {
      // The table's bits do not fit beside the batch's sources: build it
      // first, in a pass with landmark riders only.
      RunRiders(batch, {}, true, values, metrics);
      build_table = false;
    } else {
      landmark_dist_.assign(landmarks_.size() * size_t{n}, algo::kInf32);
      for (size_t l = 0; l < landmarks_.size(); ++l) {
        const int b = bit(landmarks_[l]);
        row_of_bit[static_cast<size_t>(b)] = static_cast<int>(l);
        counted |= uint64_t{1} << b;
      }
    }
  }
  size_t unanswered = by_target.size();
  std::array<uint64_t, 64> within{};  // Vertices reached so far, per bit.
  algo::MsBfsCoreOptions core;
  core.on_level = [&](const algo::MsBfsLevel& lv) {
    for (const auto& [v, mask] : lv.fresh) {
      const auto [begin, end] = by_target.equal_range(v);
      for (auto it = begin; it != end; ++it) {
        const auto [q, b] = it->second;
        if ((mask >> b) & 1) {
          // First arrival of this rider's bit at its target: the level is
          // the exact hop distance.
          values[q] = static_cast<double>(lv.level);
          --unanswered;
        }
      }
      for (uint64_t bits = mask & counted; bits != 0; bits &= bits - 1) {
        const auto b = static_cast<size_t>(__builtin_ctzll(bits));
        ++within[b];
        if (row_of_bit[b] >= 0) {
          landmark_dist_[static_cast<size_t>(row_of_bit[b]) * n + v] =
              lv.level;
        }
      }
    }
    for (const auto& [q, b] : khop) {
      if (batch.queries[q].query.k >= lv.level) {
        values[q] = static_cast<double>(within[static_cast<size_t>(b)]);
      }
    }
    // Each rider's own stop rule: a bfs rider is done once its target is
    // reached, a k-hop rider at level k, the landmark table at completion.
    return unanswered != 0 || build_table || lv.level < max_k;
  };
  stats_.engine_passes++;
  algo::RunMultiSourceBfsCore(graph_, sources, runtime_, core, &metrics);
}

double Server::LandmarkEstimate(const Query& q) const {
  if (q.source == q.target) return 0.0;
  const VertexId n = graph_->NumVertices();
  uint64_t best = algo::kInf32;
  for (size_t l = 0; l < landmarks_.size(); ++l) {
    const uint32_t ds = landmark_dist_[l * n + q.source];
    const uint32_t dt = landmark_dist_[l * n + q.target];
    if (ds == algo::kInf32 || dt == algo::kInf32) continue;
    best = std::min<uint64_t>(best, uint64_t{ds} + dt);
  }
  return best == algo::kInf32 ? kUnreachable : static_cast<double>(best);
}

void Server::AnswerPpr(const Batch& batch, std::vector<double>& values,
                       Metrics& metrics) {
  for (size_t i = 0; i < batch.queries.size(); ++i) {
    const Query& q = batch.queries[i].query;
    stats_.engine_passes++;
    algo::PprPushResult result = algo::RunPprPush(
        graph_, q.source, options_.ppr_alpha, options_.ppr_eps, runtime_);
    values[i] = result.rank[q.target];
    metrics.Absorb(result.metrics);
  }
}

}  // namespace flash::serving
