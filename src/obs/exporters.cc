#include "obs/exporters.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "flashware/metrics.h"

namespace flash::obs {

namespace {

/// Chrome lane ("tid") of a span: host lane 0, worker w at w + 1.
int LaneOf(const Span& span) { return span.worker + 1; }

void WriteEscaped(std::ostream& out, const char* s) {
  for (; *s != '\0'; ++s) {
    switch (*s) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      default: out << *s;
    }
  }
}

void WriteMicros(std::ostream& out, uint64_t ns) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  out << buffer;
}

/// Labels of the two kind-specific span attributes (see the taxonomy table
/// in docs/INTERNALS.md). Null = omit.
void ArgLabels(SpanKind kind, const char** a, const char** b) {
  *a = nullptr;
  *b = nullptr;
  switch (kind) {
    case SpanKind::kSuperstep:
    case SpanKind::kAsyncRound: *a = "frontier_in"; *b = "frontier_out"; break;
    case SpanKind::kExchange:
    case SpanKind::kChannel: *a = "bytes"; *b = "msgs"; break;
    case SpanKind::kCheckpoint: *a = "bytes"; *b = "workers"; break;
    case SpanKind::kRecovery: *a = "bytes"; *b = "records"; break;
    case SpanKind::kInstant: *a = "seq"; *b = "attempt"; break;
    case SpanKind::kStorage: *a = "block"; *b = "stored_bytes"; break;
    case SpanKind::kPhase:
    case SpanKind::kTask:
    case SpanKind::kTokenSweep: break;
  }
}

void WriteEventArgs(std::ostream& out, const Span& span) {
  out << "\"args\":{\"superstep\":" << span.superstep;
  if (span.kind == SpanKind::kChannel || span.kind == SpanKind::kInstant) {
    out << ",\"dst\":" << span.shard;
  } else if (span.shard >= 0) {
    out << ",\"shard\":" << span.shard;
  }
  const char* a = nullptr;
  const char* b = nullptr;
  ArgLabels(span.kind, &a, &b);
  if (a != nullptr) out << ",\"" << a << "\":" << span.arg0;
  if (b != nullptr) out << ",\"" << b << "\":" << span.arg1;
  out << "}";
}

// The timeline's `kind` column. No default case: -Wswitch flags a new kind.
const char* TimelineKindName(flash::StepKind kind) {
  switch (kind) {
    case flash::StepKind::kVertexMap: return "vertexmap";
    case flash::StepKind::kEdgeMapDense: return "dense";
    case flash::StepKind::kEdgeMapSparse: return "sparse";
    case flash::StepKind::kAggregate: return "aggregate";
    case flash::StepKind::kAsyncRound: return "async_round";
    case flash::StepKind::kWalkStep: return "walk";
  }
  return "?";
}

}  // namespace

void WriteChromeTrace(std::ostream& out, const Tracer& tracer) {
  // Sort by (lane, begin, end-desc): per-lane chronological, with enclosing
  // slices emitted before the slices they contain — the order Perfetto and
  // chrome://tracing nest most reliably.
  std::vector<const Span*> order;
  order.reserve(tracer.spans().size());
  int max_lane = 0;
  for (const Span& span : tracer.spans()) {
    order.push_back(&span);
    max_lane = std::max(max_lane, LaneOf(span));
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Span* x, const Span* y) {
                     if (LaneOf(*x) != LaneOf(*y))
                       return LaneOf(*x) < LaneOf(*y);
                     if (x->begin_ns != y->begin_ns)
                       return x->begin_ns < y->begin_ns;
                     return x->end_ns > y->end_ns;
                   });

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };
  // Lane names: metadata events first.
  for (int lane = 0; lane <= max_lane; ++lane) {
    comma();
    out << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << lane
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    if (lane == 0) {
      out << "host";
    } else {
      out << "worker " << (lane - 1);
    }
    out << "\"}}";
  }
  for (const Span* span : order) {
    comma();
    const bool instant = span->kind == SpanKind::kInstant;
    out << "{\"ph\":\"" << (instant ? "i" : "X") << "\",\"pid\":0,\"tid\":"
        << LaneOf(*span) << ",\"cat\":\"" << SpanKindName(span->kind)
        << "\",\"name\":\"";
    WriteEscaped(out, span->name);
    out << "\",\"ts\":";
    WriteMicros(out, span->begin_ns);
    if (instant) {
      out << ",\"s\":\"t\"";
    } else {
      out << ",\"dur\":";
      WriteMicros(out, span->end_ns - span->begin_ns);
    }
    out << ",";
    WriteEventArgs(out, *span);
    out << "}";
  }
  out << "\n]}\n";
}

void WritePrometheus(std::ostream& out, const Registry& registry) {
  char buffer[64];
  auto fmt = [&](double value) {
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
    return buffer;
  };
  // Labels rendered Prometheus-style: {k="v",k2="v2"}. `extra` appends the
  // histogram `le` dimension after the series' own labels.
  auto labels = [&out](const Metric& m, const std::string& extra = "") {
    if (m.labels.empty() && extra.empty()) return;
    out << "{";
    bool first = true;
    for (const auto& [k, v] : m.labels) {
      if (!first) out << ",";
      first = false;
      out << k << "=\"" << v << "\"";
    }
    if (!extra.empty()) {
      if (!first) out << ",";
      out << extra;
    }
    out << "}";
  };
  // One # HELP / # TYPE header per metric *name*; every labelled series of
  // that name follows as its own sample line (the Prometheus exposition
  // grouping rule). Series of one name are emitted adjacently by Registry's
  // insertion order whenever callers set them together.
  std::unordered_set<std::string> typed;
  for (const Metric& m : registry.metrics()) {
    if (typed.insert(m.name).second) {
      if (!m.help.empty()) out << "# HELP " << m.name << " " << m.help << "\n";
      out << "# TYPE " << m.name << " ";
      switch (m.type) {
        case MetricType::kCounter: out << "counter"; break;
        case MetricType::kGauge: out << "gauge"; break;
        case MetricType::kHistogram: out << "histogram"; break;
      }
      out << "\n";
    }
    if (m.type == MetricType::kHistogram) {
      uint64_t cumulative = 0;
      for (size_t i = 0; i < m.bounds.size(); ++i) {
        cumulative += m.counts[i];
        out << m.name << "_bucket";
        labels(m, std::string("le=\"") + fmt(m.bounds[i]) + "\"");
        out << " " << cumulative << "\n";
      }
      cumulative += m.counts.empty() ? 0 : m.counts.back();
      out << m.name << "_bucket";
      labels(m, "le=\"+Inf\"");
      out << " " << cumulative << "\n";
      out << m.name << "_sum";
      labels(m);
      out << " " << fmt(m.sum) << "\n";
      out << m.name << "_count";
      labels(m);
      out << " " << m.observations << "\n";
    } else if (m.integral) {
      out << m.name;
      labels(m);
      out << " " << m.ivalue << "\n";  // Exact uint64, no double.
    } else {
      out << m.name;
      labels(m);
      out << " " << fmt(m.dvalue) << "\n";
    }
  }
}

void WriteTimelineTsv(std::ostream& out, const flash::Metrics& metrics,
                      const Tracer* tracer) {
  out << "step\tkind\tfrontier_in\tfrontier_out\tedges_total\tedges_max\t"
         "verts_total\tverts_max\tbytes_total\tbytes_max\tmsgs_total\t"
         "comp_max_s\tcomp_total_s\twall_begin_us\twall_end_us\twall_us\n";
  // Superstep spans by superstep index; AddStep numbers samples in the same
  // sequence SetSuperstep stamped, so the join key is the step counter.
  std::unordered_map<uint64_t, const Span*> by_step;
  if (tracer != nullptr) {
    for (const Span& span : tracer->spans()) {
      if (span.kind == SpanKind::kSuperstep) by_step[span.superstep] = &span;
    }
  }
  char buffer[64];
  auto secs = [&](double value) {
    std::snprintf(buffer, sizeof(buffer), "%.9f", value);
    return buffer;
  };
  for (size_t i = 0; i < metrics.steps.size(); ++i) {
    const StepSample& s = metrics.steps[i];
    out << i << "\t" << TimelineKindName(s.kind) << "\t"
        << s.frontier_in << "\t" << s.frontier_out << "\t" << s.edges_total
        << "\t" << s.edges_max << "\t" << s.verts_total << "\t" << s.verts_max
        << "\t" << s.bytes_total << "\t" << s.bytes_max << "\t"
        << s.msgs_total << "\t" << secs(s.comp_max) << "\t"
        << secs(s.comp_total);
    auto it = by_step.find(i);
    if (it != by_step.end()) {
      const Span& span = *it->second;
      out << "\t";
      WriteMicros(out, span.begin_ns);
      out << "\t";
      WriteMicros(out, span.end_ns);
      out << "\t";
      WriteMicros(out, span.end_ns - span.begin_ns);
    } else {
      out << "\t\t\t";
    }
    out << "\n";
  }
}

namespace {
Status OpenSink(const std::string& path, std::ofstream& out) {
  out.open(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  return Status::OK();
}
}  // namespace

Status WriteChromeTraceFile(const std::string& path, const Tracer& tracer) {
  std::ofstream out;
  FLASH_RETURN_NOT_OK(OpenSink(path, out));
  WriteChromeTrace(out, tracer);
  return Status::OK();
}

Status WritePrometheusFile(const std::string& path, const Registry& registry) {
  std::ofstream out;
  FLASH_RETURN_NOT_OK(OpenSink(path, out));
  WritePrometheus(out, registry);
  return Status::OK();
}

Status WriteTimelineTsvFile(const std::string& path,
                            const flash::Metrics& metrics,
                            const Tracer* tracer) {
  std::ofstream out;
  FLASH_RETURN_NOT_OK(OpenSink(path, out));
  WriteTimelineTsv(out, metrics, tracer);
  return Status::OK();
}

void PrintSlowestSpans(std::ostream& out, const Tracer& tracer, size_t n) {
  std::vector<const Span*> order;
  order.reserve(tracer.spans().size());
  for (const Span& span : tracer.spans()) {
    if (span.kind != SpanKind::kInstant) order.push_back(&span);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Span* x, const Span* y) {
                     return (x->end_ns - x->begin_ns) >
                            (y->end_ns - y->begin_ns);
                   });
  if (order.size() > n) order.resize(n);
  out << "slowest spans (" << order.size() << " of "
      << tracer.spans().size() << "):\n";
  char line[160];
  std::snprintf(line, sizeof(line), "  %10s  %-10s %6s %5s %8s  %s\n",
                "ms", "kind", "worker", "shard", "step", "name");
  out << line;
  for (const Span* span : order) {
    std::snprintf(line, sizeof(line),
                  "  %10.3f  %-10s %6d %5d %8" PRIu64 "  %s\n",
                  static_cast<double>(span->end_ns - span->begin_ns) / 1e6,
                  SpanKindName(span->kind), span->worker, span->shard,
                  span->superstep, span->name);
    out << line;
  }
}

}  // namespace flash::obs
