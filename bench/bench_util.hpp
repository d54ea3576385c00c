// Shared helpers for the table/figure reproduction binaries.
#pragma once

#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "runtime/scenario_runner.hpp"
#include "util/parallel.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "workloads/registry.hpp"

namespace wasp::benchutil {

/// Parse the shared bench flags (`--jobs N`) and install the result as the
/// process-wide default parallelism (the WASP_JOBS environment variable is
/// the fallback). Every ScenarioRunner / Analyzer constructed with jobs=0
/// picks this up. Returns the resolved job count.
inline int init_jobs(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--jobs") {
      // cli_int rejects garbage ("--jobs banana" used to silently become 0
      // via atoi and fall back to the default) and exits 2 with the flag
      // named.
      const int jobs = static_cast<int>(util::cli_int("--jobs", argv[i + 1]));
      if (jobs > 0) util::set_default_jobs(jobs);
    }
  }
  return util::default_jobs();
}

struct NamedRun {
  std::string name;
  workloads::RunOutput out;
};

/// Run all six exemplar workloads at paper scale (32 nodes) concurrently
/// (up to util::default_jobs() at a time) and return the outputs in the
/// paper's column order.
inline std::vector<NamedRun> run_all_paper() {
  std::vector<workloads::Scenario> scenarios;
  for (const auto& e : workloads::paper_workloads()) {
    scenarios.push_back({e.name, cluster::lassen(32), e.make_paper,
                         advisor::RunConfig{}, analysis::Analyzer::Options{}});
  }
  std::cerr << "running " << scenarios.size() << " workloads ("
            << util::default_jobs() << " jobs)...\n";
  auto outs = workloads::run_many(scenarios);
  std::vector<NamedRun> runs;
  runs.reserve(outs.size());
  for (std::size_t i = 0; i < outs.size(); ++i) {
    runs.push_back({scenarios[i].name, std::move(outs[i])});
  }
  return runs;
}

/// Print a paper-style attribute table: one row per attribute, one column
/// per workload. `pick` extracts the AttrList for a run.
inline void print_attribute_table(
    const std::string& title, const std::vector<NamedRun>& runs,
    const std::function<charz::AttrList(const workloads::RunOutput&)>& pick) {
  util::TablePrinter table(title);
  std::vector<std::string> header = {"Attribute"};
  for (const auto& r : runs) header.push_back(r.name);
  table.set_header(std::move(header));

  if (runs.empty()) return;
  const auto first = pick(runs.front().out);
  for (std::size_t a = 0; a < first.size(); ++a) {
    std::vector<std::string> row = {first[a].first};
    for (const auto& r : runs) {
      const auto attrs = pick(r.out);
      row.push_back(a < attrs.size() ? attrs[a].second : "");
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
}

/// Simple ASCII bar for figure-style output.
inline std::string bar(double value, double max_value, int width = 40) {
  if (max_value <= 0) return "";
  int n = static_cast<int>(value / max_value * width + 0.5);
  if (n > width) n = width;
  return std::string(static_cast<std::size_t>(n), '#');
}

}  // namespace wasp::benchutil
