#ifndef FLASH_BENCH_HARNESS_HARNESS_H_
#define FLASH_BENCH_HARNESS_HARNESS_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/timer.h"
#include "flashware/metrics.h"
#include "graph/datasets.h"

namespace flash::bench {

/// Shared plumbing for the table/figure reproduction binaries: dataset
/// loading with a global scale knob, cell timing, aligned table printing in
/// the paper's layout, and the Fig. 1 slowdown heat map.

/// Scale factor for the dataset twins; FLASH_BENCH_SCALE overrides
/// (default 0.25 so the full suite completes on a laptop core).
double BenchScale();

/// RMAT scale for the RMAT-driven benches. FLASH_BENCH_SCALE >= 1 is the
/// scale itself; a fraction (the BenchScale() smoke convention, e.g. 0.05)
/// shrinks the `fallback` graph by that factor, down to scale 8.
int RmatScaleFromEnv(int fallback);

/// Simulated workers per run; FLASH_BENCH_WORKERS overrides (default 4,
/// matching the paper's 4-node cluster).
int BenchWorkers();

/// Path for a bench artifact: out/<filename> under the working directory,
/// creating out/ on first use. Every bench binary writes its CSV/JSON
/// artifacts through this so generated files never land in the source tree.
std::string OutPath(const std::string& filename);

/// Loads (and caches) a dataset twin at the bench scale.
const DatasetInfo& LoadDataset(const std::string& abbr, bool weighted = false,
                               bool directed = false);

/// Loads (and caches) the deterministic road-grid testbed
/// (MakeRoadGrid, generators.h) with its diameter scaled by
/// sqrt(BenchScale()) like the road twins. The high-diameter worst case
/// the async benchmarks contrast against RMAT.
const DatasetInfo& LoadRoadGrid(uint32_t target_diameter,
                                bool weighted = false);

/// One table cell: a timed run, an unsupported marker, or a failure.
struct Cell {
  std::optional<double> seconds;  // Wall-clock of the simulation.
  std::optional<double> modeled;  // Cost-model time on the paper's cluster.
  bool supported = true;
  std::string note;  // e.g. "OT" / variant name.
  Metrics metrics;
};

/// Times `fn` (which returns the run's Metrics) into a Cell.
Cell TimeCell(const std::function<Metrics()>& fn);

/// Prices the cell's measured per-superstep counters on the paper's
/// hardware (cost model; see DESIGN.md): BenchWorkers() nodes x 32 cores
/// for distributed frameworks; 1 node x 32 cores with a cheap shared-memory
/// barrier when `shared_memory` (the Ligra column). Fills cell.modeled —
/// the number the tables and the Fig. 1 heat map report, since wall-clock
/// of a one-host simulation cannot show multi-node parallelism.
void PriceCell(Cell& cell, bool shared_memory = false);

/// Counter-only cost-model price of a run on `workers` nodes: strips the
/// measured per-step compute seconds, which jitter with the host, so only
/// exact counters reach the model and repeated runs price identically.
double CounterOnlyModeled(Metrics metrics, int workers);

/// A row-major results table: rows (app or app+framework), named columns
/// (datasets), printed in the paper's Table V/VI style.
class ResultTable {
 public:
  ResultTable(std::string title, std::vector<std::string> columns);

  void Set(const std::string& row, const std::string& column, Cell cell);
  const Cell* Get(const std::string& row, const std::string& column) const;

  /// Prints aligned text; unsupported cells print "—", failures "OT".
  void Print() const;

  /// Writes CSV next to the binary: `wall[;modeled]` seconds per cell,
  /// empty for unsupported.
  void WriteCsv(const std::string& path) const;

  const std::vector<std::string>& rows() const { return row_order_; }
  const std::vector<std::string>& columns() const { return columns_; }
  const std::string& title() const { return title_; }

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::string> row_order_;
  std::map<std::string, std::map<std::string, Cell>> cells_;
};

/// Machine-readable bench artifact with the shared schema every bench
/// binary emits ("flash-bench-v1"): a bench `name` plus a flat list of
/// records, each `{graph, config: {string: string}, metrics: {string:
/// number}}`. tools/collect_bench.py aggregates all out/BENCH_*.json files
/// written through this into out/BENCH_summary.json, so new benches get
/// picked up by CI without collector changes.
class BenchReport {
 public:
  explicit BenchReport(std::string name);

  /// Appends one record. `graph` names the dataset (or "-" when the record
  /// is not graph-specific); `config` identifies the run point; `metrics`
  /// carries the measured numbers.
  void Add(const std::string& graph,
           std::map<std::string, std::string> config,
           std::map<std::string, double> metrics);

  /// Appends every populated cell of `table`: graph = column, config =
  /// {"row": row, "table": title} merged with `config`, metrics =
  /// {"seconds"[, "modeled"]}.
  void AddTable(const ResultTable& table,
                std::map<std::string, std::string> config = {});

  /// Writes out/BENCH_<name>.json (shared schema) and returns the path.
  std::string Write() const;

 private:
  struct Record {
    std::string graph;
    std::map<std::string, std::string> config;
    std::map<std::string, double> metrics;
  };
  std::string name_;
  std::vector<Record> records_;
};

/// Fig. 1: for each (app, dataset) the slowdown of every framework against
/// the fastest framework on that cell. `tables` maps framework -> its
/// ResultTable (rows = apps, columns = datasets).
void PrintSlowdownHeatmap(
    const std::vector<std::pair<std::string, const ResultTable*>>& frameworks);

/// Formats seconds like the paper (3 significant-ish digits).
std::string FormatSeconds(double seconds);

}  // namespace flash::bench

#endif  // FLASH_BENCH_HARNESS_HARNESS_H_
