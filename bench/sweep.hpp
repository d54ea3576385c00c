// Common ablation sweep driver: a parameter grid becomes a vector of
// independent workloads::Scenario cells, workloads::run_many fans them out
// over a ScenarioRunner, and a row printer renders the results in grid
// order. Every ablation bench shares this one execution path, so each
// prints an identical table at any --jobs.
#pragma once

#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "util/table.hpp"
#include "workloads/workload.hpp"

namespace wasp::benchutil {

template <typename Cell>
struct Sweep {
  std::string title;
  std::vector<std::string> header;
  std::vector<Cell> cells;
  /// Build the independent simulation request for one grid cell.
  std::function<workloads::Scenario(const Cell&)> scenario;
  /// Render one table row from a cell's result.
  std::function<std::vector<std::string>(const Cell&,
                                         const workloads::RunOutput&)>
      row;
};

/// Run the grid cell-parallel on `jobs` workers (0 -> util::default_jobs())
/// and print the table. Returns the outputs in grid order (for benches that
/// post-process).
template <typename Cell>
std::vector<workloads::RunOutput> run_sweep(const Sweep<Cell>& sweep,
                                            int jobs = 0) {
  std::vector<workloads::Scenario> scenarios;
  scenarios.reserve(sweep.cells.size());
  for (const Cell& c : sweep.cells) scenarios.push_back(sweep.scenario(c));
  auto outs = workloads::run_many(scenarios, jobs);

  util::TablePrinter table(sweep.title);
  table.set_header(sweep.header);
  for (std::size_t i = 0; i < outs.size(); ++i) {
    table.add_row(sweep.row(sweep.cells[i], outs[i]));
  }
  table.print(std::cout);
  return outs;
}

}  // namespace wasp::benchutil
