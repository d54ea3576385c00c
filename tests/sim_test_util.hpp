// Shared helpers for tests that drive coroutines inside a Simulation, and
// for tests that edit a YAML document's text.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cluster/spec.hpp"
#include "runtime/proc.hpp"
#include "runtime/simulation.hpp"
#include "sim/task.hpp"
#include "trace/record.hpp"

namespace wasp::testutil {

/// `yaml` with the value of its first `key:` line replaced by `value`.
inline std::string with_value(std::string yaml, const std::string& key,
                              const std::string& value) {
  const std::size_t at = yaml.find(" " + key + ": ");
  if (at == std::string::npos) {
    ADD_FAILURE() << "no '" << key << "' line";
    return yaml;
  }
  const std::size_t begin = at + key.size() + 3;
  yaml.replace(begin, yaml.find('\n', begin) - begin, value);
  return yaml;
}

/// Spawn all tasks at t=0 and run to completion.
inline void run_all(sim::Engine& eng, std::vector<sim::Task<void>> tasks) {
  for (auto& t : tasks) eng.spawn(std::move(t));
  eng.run();
}

/// Count trace records matching a predicate.
template <typename Pred>
std::size_t count_records(const trace::Tracer& tracer, Pred pred) {
  std::size_t n = 0;
  for (const auto& r : tracer.records()) {
    if (pred(r)) ++n;
  }
  return n;
}

/// Sum of `count` over matching records (true op counts, not record counts).
template <typename Pred>
std::uint64_t count_ops(const trace::Tracer& tracer, Pred pred) {
  std::uint64_t n = 0;
  for (const auto& r : tracer.records()) {
    if (pred(r)) n += r.count;
  }
  return n;
}

}  // namespace wasp::testutil
