#include "bench/harness/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/logging.h"
#include "flashware/cost_model.h"
#include "graph/generators.h"

namespace flash::bench {

double BenchScale() {
  static const double scale = [] {
    const char* env = std::getenv("FLASH_BENCH_SCALE");
    double value = env ? std::atof(env) : kDefaultBenchScale;
    return value > 0 ? value : kDefaultBenchScale;
  }();
  return scale;
}

int RmatScaleFromEnv(int fallback) {
  const char* env = std::getenv("FLASH_BENCH_SCALE");
  if (env == nullptr) return fallback;
  double value = std::atof(env);
  if (value >= 1) return static_cast<int>(value);
  int scale = fallback;
  while (value > 0 && value < 1 && scale > 8) {
    value *= 2;
    --scale;
  }
  return scale;
}

int BenchWorkers() {
  static const int workers = [] {
    const char* env = std::getenv("FLASH_BENCH_WORKERS");
    int value = env ? std::atoi(env) : 4;
    return value >= 1 && value <= 64 ? value : 4;
  }();
  return workers;
}

std::string OutPath(const std::string& filename) {
  std::error_code ec;
  std::filesystem::create_directories("out", ec);
  return (std::filesystem::path("out") / filename).string();
}

const DatasetInfo& LoadDataset(const std::string& abbr, bool weighted,
                               bool directed) {
  static std::map<std::string, DatasetInfo>& cache =
      *new std::map<std::string, DatasetInfo>();
  std::string key = abbr + (weighted ? "+w" : "") + (directed ? "+d" : "");
  auto it = cache.find(key);
  if (it == cache.end()) {
    auto info = MakeDataset(abbr, BenchScale(), weighted, directed);
    FLASH_CHECK(info.ok()) << info.status().ToString();
    it = cache.emplace(key, std::move(info).value()).first;
  }
  return it->second;
}

const DatasetInfo& LoadRoadGrid(uint32_t target_diameter, bool weighted) {
  static std::map<std::string, DatasetInfo>& cache =
      *new std::map<std::string, DatasetInfo>();
  std::string key =
      "grid" + std::to_string(target_diameter) + (weighted ? "+w" : "");
  auto it = cache.find(key);
  if (it == cache.end()) {
    RoadGridOptions opt;
    opt.target_diameter = std::max<uint32_t>(
        16, static_cast<uint32_t>(target_diameter * std::sqrt(BenchScale())));
    opt.weighted = weighted;
    auto graph = MakeRoadGrid(opt);
    FLASH_CHECK(graph.ok()) << graph.status().ToString();
    DatasetInfo info;
    info.abbr = "GRID";
    info.name = "road-grid-testbed-d" + std::to_string(opt.target_diameter);
    info.domain = "RN";
    info.graph = std::move(graph).value();
    it = cache.emplace(key, std::move(info)).first;
  }
  return it->second;
}

Cell TimeCell(const std::function<Metrics()>& fn) {
  Cell cell;
  Timer timer;
  cell.metrics = fn();
  cell.seconds = timer.Seconds();
  return cell;
}

void PriceCell(Cell& cell, bool shared_memory) {
  static const ClusterConfig& base = *new ClusterConfig(CalibrateComputeRate());
  ClusterConfig config = base;
  if (shared_memory) {
    config.nodes = 1;
    config.cores_per_node = 32;
    config.barrier_seconds = 4e-6;  // Shared-memory join, not a network one.
  } else {
    config.nodes = BenchWorkers();
    config.cores_per_node = 32;
  }
  cell.modeled = ModelTime(cell.metrics, config).total;
}

double CounterOnlyModeled(Metrics metrics, int workers) {
  for (StepSample& step : metrics.steps) {
    step.comp_max = 0;
    step.comp_total = 0;
  }
  metrics.async.comp_seconds_max = 0;
  ClusterConfig config;
  config.nodes = workers;
  return ModelTime(metrics, config).total;
}

ResultTable::ResultTable(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void ResultTable::Set(const std::string& row, const std::string& column,
                      Cell cell) {
  if (cells_.find(row) == cells_.end()) row_order_.push_back(row);
  cells_[row][column] = std::move(cell);
}

const Cell* ResultTable::Get(const std::string& row,
                             const std::string& column) const {
  auto rit = cells_.find(row);
  if (rit == cells_.end()) return nullptr;
  auto cit = rit->second.find(column);
  return cit == rit->second.end() ? nullptr : &cit->second;
}

std::string FormatSeconds(double seconds) {
  char buffer[32];
  if (seconds < 0.01) {
    std::snprintf(buffer, sizeof(buffer), "%.4f", seconds);
  } else if (seconds < 10) {
    std::snprintf(buffer, sizeof(buffer), "%.3f", seconds);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.1f", seconds);
  }
  return buffer;
}

namespace {
std::string CellText(const Cell* cell) {
  if (cell == nullptr) return "";
  if (!cell->supported) return "-";
  if (!cell->seconds.has_value()) return cell->note.empty() ? "OT" : cell->note;
  std::string text = FormatSeconds(*cell->seconds);
  if (!cell->note.empty()) text += " (" + cell->note + ")";
  return text;
}

// Tables and the heat map compare wall-clock of the same-host simulation:
// at twin scale a priced cluster superstep is dominated by the fixed
// barrier latency (microsecond-sized work), which would compare barrier
// counts rather than engines. The cost-model price is still written to the
// CSVs (modeled column) and drives the scaling figures, where per-superstep
// compute is substantial.
double CellMetric(const Cell& cell) { return cell.seconds.value_or(0); }
}  // namespace

void ResultTable::Print() const {
  std::printf("\n=== %s ===\n", title_.c_str());
  size_t row_width = 12;
  for (const auto& row : row_order_) row_width = std::max(row_width, row.size());
  std::printf("%-*s", static_cast<int>(row_width + 2), "");
  for (const auto& col : columns_) std::printf("%14s", col.c_str());
  std::printf("\n");
  for (const auto& row : row_order_) {
    std::printf("%-*s", static_cast<int>(row_width + 2), row.c_str());
    for (const auto& col : columns_) {
      std::printf("%14s", CellText(Get(row, col)).c_str());
    }
    std::printf("\n");
  }
}

void ResultTable::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return;
  out << "row";
  for (const auto& col : columns_) out << "," << col;
  out << "\n";
  for (const auto& row : row_order_) {
    out << row;
    for (const auto& col : columns_) {
      out << ",";
      const Cell* cell = Get(row, col);
      if (cell != nullptr && cell->supported && cell->seconds.has_value()) {
        out << *cell->seconds;
        if (cell->modeled.has_value()) out << ";" << *cell->modeled;
      }
    }
    out << "\n";
  }
}

namespace {
std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  // %.9g round-trips the metrics we record (counters and seconds) without
  // printing float noise for integral counters.
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}
}  // namespace

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {}

void BenchReport::Add(const std::string& graph,
                      std::map<std::string, std::string> config,
                      std::map<std::string, double> metrics) {
  records_.push_back(
      Record{graph, std::move(config), std::move(metrics)});
}

void BenchReport::AddTable(const ResultTable& table,
                           std::map<std::string, std::string> config) {
  for (const auto& row : table.rows()) {
    for (const auto& col : table.columns()) {
      const Cell* cell = table.Get(row, col);
      if (cell == nullptr || !cell->supported || !cell->seconds.has_value()) {
        continue;
      }
      std::map<std::string, std::string> record_config = config;
      record_config["row"] = row;
      record_config["table"] = table.title();
      std::map<std::string, double> metrics;
      metrics["seconds"] = *cell->seconds;
      if (cell->modeled.has_value()) metrics["modeled"] = *cell->modeled;
      Add(col, std::move(record_config), std::move(metrics));
    }
  }
}

std::string BenchReport::Write() const {
  const std::string path = OutPath("BENCH_" + name_ + ".json");
  std::ofstream out(path);
  if (!out) return path;
  out << "{\n  \"schema\": \"flash-bench-v1\",\n"
      << "  \"name\": \"" << JsonEscape(name_) << "\",\n"
      << "  \"scale\": " << JsonNumber(BenchScale()) << ",\n"
      << "  \"workers\": " << BenchWorkers() << ",\n"
      << "  \"records\": [";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& record = records_[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"graph\": \"" << JsonEscape(record.graph)
        << "\", \"config\": {";
    bool first = true;
    for (const auto& [key, value] : record.config) {
      if (!first) out << ", ";
      first = false;
      out << "\"" << JsonEscape(key) << "\": \"" << JsonEscape(value) << "\"";
    }
    out << "}, \"metrics\": {";
    first = true;
    for (const auto& [key, value] : record.metrics) {
      if (!first) out << ", ";
      first = false;
      out << "\"" << JsonEscape(key) << "\": " << JsonNumber(value);
    }
    out << "}}";
  }
  out << "\n  ]\n}\n";
  return path;
}

void PrintSlowdownHeatmap(
    const std::vector<std::pair<std::string, const ResultTable*>>& frameworks) {
  if (frameworks.empty()) return;
  const ResultTable* first = frameworks.front().second;
  std::printf("\n=== Slowdown heat map (Fig. 1 style: x = slowdown vs the "
              "fastest framework per cell; '-' = inexpressible) ===\n");
  size_t name_width = 10;
  for (const auto& [name, table] : frameworks) {
    (void)table;
    name_width = std::max(name_width, name.size());
  }
  for (const auto& row : first->rows()) {
    std::printf("%s:\n", row.c_str());
    for (const auto& [name, table] : frameworks) {
      std::printf("  %-*s", static_cast<int>(name_width + 2), name.c_str());
      for (const auto& col : first->columns()) {
        double best = std::numeric_limits<double>::infinity();
        for (const auto& [other_name, other] : frameworks) {
          (void)other_name;
          const Cell* cell = other->Get(row, col);
          if (cell != nullptr && cell->supported && cell->seconds.has_value()) {
            best = std::min(best, std::max(CellMetric(*cell), 1e-9));
          }
        }
        const Cell* cell = table->Get(row, col);
        std::string text;
        if (cell == nullptr || !cell->supported) {
          text = "-";
        } else if (!cell->seconds.has_value()) {
          text = "fail";
        } else if (!std::isfinite(best)) {
          text = "?";
        } else {
          char buffer[32];
          std::snprintf(buffer, sizeof(buffer), "%.1fx",
                        std::max(CellMetric(*cell), 1e-9) / best);
          text = buffer;
        }
        std::printf("%9s", text.c_str());
      }
      std::printf("\n");
    }
  }
}

}  // namespace flash::bench
