// Attribute -> configuration rule engine (§IV-D of the paper).
//
// Each rule inspects the WorkloadCharacterization and, when its conditions
// hold, emits a Recommendation that (a) names the §IV-D optimization
// category, (b) cites the attributes that drove the decision, and (c)
// carries an `apply` function that rewrites a RunConfig. This is the
// "storage system configures itself from the user-provided features" step.
// Site advice (PFS stripe size, shared-file locking) names storage state
// the simulated job does not take from RunConfig; it has no `apply`, and
// RuleEngine::report says so.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "advisor/config.hpp"
#include "core/entities.hpp"

namespace wasp::advisor {

enum class Category {
  kSoftwareAcceleration,  ///< §IV-D.1 aggregation/buffering/caching/prefetch
  kAsyncIo,               ///< §IV-D.2
  kSystemTuning,          ///< §IV-D.3 PFS/middleware parameters
  kProcessPlacement,      ///< §IV-D.4
  kDatasetLayout,         ///< §IV-D.5
};

const char* to_string(Category c) noexcept;

struct Recommendation {
  std::string id;         ///< stable rule identifier, e.g. "preload-input"
  Category category = Category::kSoftwareAcceleration;
  /// The RunConfig field `apply` sets, or for site advice the storage
  /// setting to change (human-readable).
  std::string parameter;
  std::string value;      ///< target value
  std::string rationale;  ///< the attributes that justified the change
  double expected_speedup = 1.0;  ///< coarse a-priori estimate
  /// Rewrites a RunConfig; null for site advice the simulation does not
  /// apply.
  std::function<void(RunConfig&)> apply;
};

class RuleEngine {
 public:
  /// Evaluate all built-in rules against a characterization.
  std::vector<Recommendation> evaluate(
      const charz::WorkloadCharacterization& c) const;

  /// Apply every recommendation to a base config (the storage system
  /// "configuring itself"); site advice leaves it unchanged.
  static RunConfig configure(const std::vector<Recommendation>& recs,
                             RunConfig base = RunConfig{});

  /// Render recommendations as a human-readable report.
  static std::string report(const std::vector<Recommendation>& recs);
};

}  // namespace wasp::advisor
