// Rule-engine tests: each §IV-D rule fires exactly on its attribute
// conditions and rewrites the RunConfig correctly (or, for site advice,
// leaves it alone).
#include <gtest/gtest.h>

#include "advisor/rules.hpp"

namespace wasp::advisor {
namespace {

/// A characterization resembling CosmoFlow's (metadata-heavy shared-file
/// HDF5 reads with free node memory).
charz::WorkloadCharacterization cosmoflow_like() {
  charz::WorkloadCharacterization c;
  c.workload = "cosmo";
  c.job.nodes = 32;
  c.job.node_local_bb_dirs = "/dev/shm";
  c.workflow.shared_files = 49664;
  c.workflow.fpp_files = 0;
  c.workflow.num_apps = 1;
  c.workflow.io_amount = 1500ull * util::kGB;
  charz::ApplicationEntity app;
  app.name = "cosmoflow";
  app.interface = "HDF5";
  c.applications.push_back(app);
  c.high_level_io.data_granularity = util::kMiB;
  c.high_level_io.meta_granularity = 4 * util::kKiB;
  c.high_level_io.access_pattern = "Seq";
  c.middleware.memory_per_node = 196 * util::kGiB;
  charz::NodeLocalStorageEntity shm;
  shm.dir = "/dev/shm";
  shm.capacity_per_node = 128 * util::kGiB;
  c.node_local.push_back(shm);
  c.dataset.format = "HDF5";
  c.dataset.size = 1500ull * util::kGB;
  c.dataset.io_amount = 1500ull * util::kGB;
  c.dataset.data_ops_fraction = 0.02;  // metadata storm
  return c;
}

/// A characterization resembling Montage's (multi-app workflow exchanging
/// small-granularity intermediate files).
charz::WorkloadCharacterization montage_like() {
  charz::WorkloadCharacterization c;
  c.workload = "montage";
  c.job.nodes = 32;
  c.job.node_local_bb_dirs = "/dev/shm";
  c.workflow.num_apps = 5;
  c.workflow.has_app_data_dependency = true;
  c.workflow.io_amount = 53ull * util::kGB;
  charz::ApplicationEntity app;
  app.name = "mAddMPI";
  app.interface = "STDIO";
  c.applications.push_back(app);
  c.high_level_io.data_granularity = 32 * util::kKiB;
  c.high_level_io.meta_granularity = 4 * util::kKiB;
  c.high_level_io.access_pattern = "Seq";
  charz::NodeLocalStorageEntity shm;
  shm.dir = "/dev/shm";
  shm.capacity_per_node = 128 * util::kGiB;
  c.node_local.push_back(shm);
  c.dataset.format = "bin";
  c.dataset.data_ops_fraction = 0.99;
  return c;
}

const Recommendation* find_rule(const std::vector<Recommendation>& recs,
                                const std::string& id) {
  for (const auto& r : recs) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

bool has_rule(const std::vector<Recommendation>& recs,
              const std::string& id) {
  return find_rule(recs, id) != nullptr;
}

TEST(RuleEngine, PreloadFiresForCosmoflowProfile) {
  RuleEngine engine;
  auto recs = engine.evaluate(cosmoflow_like());
  ASSERT_TRUE(has_rule(recs, "preload-input"));
  auto cfg = RuleEngine::configure(recs);
  EXPECT_TRUE(cfg.preload_input_to_node_local);
  EXPECT_EQ(cfg.node_local_tier, "shm");
}

TEST(RuleEngine, PreloadDoesNotFireWhenShardTooBig) {
  auto c = cosmoflow_like();
  c.job.nodes = 2;  // 750GB per node cannot fit 128GB shm
  RuleEngine engine;
  EXPECT_FALSE(has_rule(engine.evaluate(c), "preload-input"));
}

TEST(RuleEngine, PreloadDoesNotFireWhenDataOpsDominate) {
  auto c = cosmoflow_like();
  c.dataset.data_ops_fraction = 0.99;  // no metadata problem
  RuleEngine engine;
  EXPECT_FALSE(has_rule(engine.evaluate(c), "preload-input"));
}

TEST(RuleEngine, IntermediatesRuleFiresForMontageProfile) {
  RuleEngine engine;
  auto recs = engine.evaluate(montage_like());
  ASSERT_TRUE(has_rule(recs, "intermediates-node-local"));
  auto cfg = RuleEngine::configure(recs);
  EXPECT_TRUE(cfg.intermediates_to_node_local);
}

TEST(RuleEngine, IntermediatesRuleNeedsAppDependency) {
  auto c = montage_like();
  c.workflow.has_app_data_dependency = false;
  RuleEngine engine;
  EXPECT_FALSE(has_rule(engine.evaluate(c), "intermediates-node-local"));
}

// Site advice: the value tracks the granularity, but there is no RunConfig
// field to set, and the report says the simulation does not apply it.
TEST(RuleEngine, StripeSizeMatchesDominantGranularity) {
  auto c = montage_like();
  c.high_level_io.data_granularity = 16 * util::kMiB;
  const auto recs = RuleEngine().evaluate(c);
  const Recommendation* stripe = find_rule(recs, "stripe-size");
  ASSERT_NE(stripe, nullptr);
  EXPECT_EQ(stripe->value, util::format_bytes(16 * util::kMiB));
  EXPECT_FALSE(static_cast<bool>(stripe->apply));
  EXPECT_NE(RuleEngine::report({*stripe}).find("site advice"),
            std::string::npos);
}

TEST(RuleEngine, StripeRuleSkipsSmallOrDefaultGranularity) {
  RuleEngine engine;
  auto c = montage_like();
  c.high_level_io.data_granularity = 4 * util::kKiB;
  EXPECT_FALSE(has_rule(engine.evaluate(c), "stripe-size"));
  c.high_level_io.data_granularity = util::kMiB;  // already the default
  EXPECT_FALSE(has_rule(engine.evaluate(c), "stripe-size"));
}

TEST(RuleEngine, LockingDisabledOnlyWithoutDependencies) {
  RuleEngine engine;
  auto hacc = cosmoflow_like();
  hacc.workflow.has_app_data_dependency = false;
  hacc.applications[0].has_process_data_dependency = false;
  EXPECT_TRUE(has_rule(engine.evaluate(hacc), "disable-locking"));

  auto dep = montage_like();  // has app dependency
  EXPECT_FALSE(has_rule(engine.evaluate(dep), "disable-locking"));
}

TEST(RuleEngine, StdioBufferRuleRequiresStdioAndSmallSeqAccess) {
  RuleEngine engine;
  auto c = montage_like();
  ASSERT_TRUE(has_rule(engine.evaluate(c), "stdio-buffer"));
  auto cfg = RuleEngine::configure(engine.evaluate(c));
  EXPECT_EQ(cfg.stdio_buffer, util::kMiB);

  c.applications[0].interface = "POSIX";
  EXPECT_FALSE(has_rule(engine.evaluate(c), "stdio-buffer"));
}

TEST(RuleEngine, Hdf5ChunkingForMetadataHeavyHdf5) {
  RuleEngine engine;
  auto recs = engine.evaluate(cosmoflow_like());
  ASSERT_TRUE(has_rule(recs, "hdf5-chunking"));
  auto cfg = RuleEngine::configure(recs);
  EXPECT_GE(cfg.hdf5_chunk_size, util::kMiB);
}

TEST(RuleEngine, PlacementRuleForMultiAppWorkflows) {
  RuleEngine engine;
  ASSERT_TRUE(has_rule(engine.evaluate(montage_like()),
                       "locality-placement"));
  auto cfg = RuleEngine::configure(engine.evaluate(montage_like()));
  EXPECT_TRUE(cfg.locality_aware_placement);
  EXPECT_FALSE(has_rule(engine.evaluate(cosmoflow_like()),
                        "locality-placement"));
}

TEST(RuleEngine, RationaleCitesAttributes) {
  RuleEngine engine;
  for (const auto& r : engine.evaluate(cosmoflow_like())) {
    EXPECT_FALSE(r.rationale.empty()) << r.id;
    EXPECT_NE(r.rationale.find('='), std::string::npos) << r.id;
  }
}

TEST(RuleEngine, ReportMentionsEveryRecommendation) {
  RuleEngine engine;
  auto recs = engine.evaluate(montage_like());
  const std::string report = RuleEngine::report(recs);
  for (const auto& r : recs) {
    EXPECT_NE(report.find(r.id), std::string::npos);
  }
  EXPECT_NE(RuleEngine::report({}).find("no workload-aware"),
            std::string::npos);
}

TEST(RuleEngine, ConfigureStartsFromGivenBase) {
  RunConfig base;
  base.stdio_buffer = 64 * util::kKiB;
  // Each recommendation rewrites only its own field; the base's others stay.
  const auto recs = RuleEngine().evaluate(cosmoflow_like());
  const Recommendation* preload = find_rule(recs, "preload-input");
  ASSERT_NE(preload, nullptr);
  const auto cfg = RuleEngine::configure({*preload}, base);
  EXPECT_TRUE(cfg.preload_input_to_node_local);
  EXPECT_EQ(cfg.stdio_buffer, 64 * util::kKiB);
}

}  // namespace
}  // namespace wasp::advisor
