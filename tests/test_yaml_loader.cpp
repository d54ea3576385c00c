// YAML reader + characterization loader: parser subset, reverse value
// parsers, and the full emit -> parse round trip that the wasp_advise tool
// relies on.
#include <gtest/gtest.h>

#include "advisor/rules.hpp"
#include "analysis/analyzer.hpp"
#include "core/characterizer.hpp"
#include "core/yaml_loader.hpp"
#include "io/posix.hpp"
#include "sim_test_util.hpp"
#include "util/parse.hpp"
#include "util/yaml_reader.hpp"

namespace wasp {
namespace {

TEST(Parse, BytesRoundTrip) {
  for (util::Bytes v : {std::uint64_t{0}, std::uint64_t{632},
                        std::uint64_t{4096}, 16 * util::kMB, 750 * util::kGB,
                        1500 * util::kGB}) {
    auto parsed = util::parse_bytes(util::format_bytes(v));
    ASSERT_TRUE(parsed.has_value()) << v;
    // Formatting keeps 3 significant digits; allow 1% slack.
    EXPECT_NEAR(static_cast<double>(*parsed), static_cast<double>(v),
                static_cast<double>(v) * 0.011 + 1);
  }
  EXPECT_FALSE(util::parse_bytes("garbage").has_value());
  EXPECT_FALSE(util::parse_bytes("12XB").has_value());
}

TEST(Parse, SecondsRoundTrip) {
  for (double v : {0.0003, 0.45, 33.0, 664.0, 3567.0}) {
    auto parsed = util::parse_seconds(util::format_seconds(v));
    ASSERT_TRUE(parsed.has_value()) << v;
    EXPECT_NEAR(*parsed, v, v * 0.011 + 1e-9);
  }
  EXPECT_EQ(util::parse_seconds("2hr").value(), 7200.0);
  EXPECT_FALSE(util::parse_seconds("fast").has_value());
}

TEST(Parse, PercentAndOpsDist) {
  EXPECT_DOUBLE_EQ(util::parse_percent("75%").value(), 0.75);
  EXPECT_DOUBLE_EQ(util::parse_percent("1.5%").value(), 0.015);
  EXPECT_DOUBLE_EQ(util::parse_ops_dist("30% data, 70% meta").value(), 0.30);
  EXPECT_FALSE(util::parse_ops_dist("30%").has_value());
}

TEST(Parse, RateAndFppShared) {
  EXPECT_DOUBLE_EQ(util::parse_rate("64GB/s").value(), 64e9);
  auto fs = util::parse_fpp_shared("737/37");
  ASSERT_TRUE(fs.has_value());
  EXPECT_EQ(fs->first, 737u);
  EXPECT_EQ(fs->second, 37u);
  EXPECT_FALSE(util::parse_fpp_shared("737").has_value());
}

TEST(YamlReader, ParsesNestedMapsAndSeqs) {
  const std::string doc =
      "workload: CM1\n"
      "job:\n"
      "  nodes: 32\n"
      "  apps:\n"
      "    - name: cm1\n"
      "      procs: 1280\n"
      "    - name: viewer\n"
      "      procs: 32\n"
      "data:\n"
      "  format: bin\n";
  const auto root = util::yaml::parse(doc);
  EXPECT_EQ(root.get("workload"), "CM1");
  const auto* job = root.find("job");
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->get("nodes"), "32");
  const auto* apps = job->find("apps");
  ASSERT_NE(apps, nullptr);
  ASSERT_TRUE(apps->is_seq());
  ASSERT_EQ(apps->items().size(), 2u);
  EXPECT_EQ(apps->items()[0].get("name"), "cm1");
  EXPECT_EQ(apps->items()[1].get("procs"), "32");
  EXPECT_EQ(root.find("data")->get("format"), "bin");
}

TEST(YamlReader, HandlesQuotedScalarsWithColons) {
  const std::string doc = "path: \"/p/gpfs1: data\"\n";
  const auto root = util::yaml::parse(doc);
  EXPECT_EQ(root.get("path"), "/p/gpfs1: data");
}

TEST(YamlReader, SkipsCommentsAndBlankLines) {
  const std::string doc =
      "# header comment\n"
      "\n"
      "a: 1\n"
      "\n"
      "b: 2\n";
  const auto root = util::yaml::parse(doc);
  EXPECT_EQ(root.get("a"), "1");
  EXPECT_EQ(root.get("b"), "2");
}

TEST(YamlReader, MissingKeysAreNull) {
  const auto root = util::yaml::parse("a: 1\n");
  EXPECT_EQ(root.find("nope"), nullptr);
  EXPECT_EQ(root.get("nope", "dflt"), "dflt");
}

// ---------------------------------------------------------------------------
// Full round trip: characterize a run, emit YAML, load it back, and check
// that everything the rule engine consumes survived.
// ---------------------------------------------------------------------------
TEST(YamlLoader, CharacterizationRoundTrip) {
  runtime::Simulation sim(cluster::tiny(2));
  const auto app = sim.tracer().register_app("producer");
  auto prog = [](runtime::Simulation& s, std::uint16_t a) -> sim::Task<void> {
    runtime::Proc p(s, a, 0, 0);
    io::Posix posix(p);
    auto f = co_await posix.open("/p/gpfs1/x", io::OpenMode::kWrite);
    co_await posix.write(f, util::kMiB, 16);
    co_await posix.close(f);
  };
  sim.engine().spawn(prog(sim, app));
  sim.engine().run();

  analysis::Analyzer analyzer;
  charz::Characterizer characterizer;
  charz::WorkloadDecl decl;
  decl.name = "roundtrip";
  decl.dataset_format = "HDF5";
  const auto original =
      characterizer.characterize(decl, sim.spec(), analyzer.analyze(sim.tracer()));

  const auto loaded = charz::from_yaml(original.to_yaml());

  EXPECT_EQ(loaded.workload, original.workload);
  EXPECT_EQ(loaded.job.nodes, original.job.nodes);
  EXPECT_EQ(loaded.job.pfs_dir, original.job.pfs_dir);
  EXPECT_EQ(loaded.job.shared_bb_dir, original.job.shared_bb_dir);
  EXPECT_EQ(loaded.workflow.num_apps, original.workflow.num_apps);
  EXPECT_NEAR(static_cast<double>(loaded.workflow.io_amount),
              static_cast<double>(original.workflow.io_amount),
              static_cast<double>(original.workflow.io_amount) * 0.011);
  ASSERT_EQ(loaded.applications.size(), original.applications.size());
  EXPECT_EQ(loaded.applications[0].name, original.applications[0].name);
  EXPECT_EQ(loaded.applications[0].interface,
            original.applications[0].interface);
  EXPECT_EQ(loaded.high_level_io.access_pattern,
            original.high_level_io.access_pattern);
  EXPECT_NEAR(static_cast<double>(loaded.high_level_io.data_granularity),
              static_cast<double>(original.high_level_io.data_granularity),
              static_cast<double>(original.high_level_io.data_granularity) *
                  0.011);
  ASSERT_EQ(loaded.node_local.size(), original.node_local.size());
  EXPECT_EQ(loaded.node_local[0].dir, original.node_local[0].dir);
  EXPECT_EQ(loaded.shared_storage.parallel_servers,
            original.shared_storage.parallel_servers);
  EXPECT_EQ(loaded.dataset.format, "HDF5");
  EXPECT_EQ(loaded.file.path, original.file.path);
}

TEST(YamlLoader, AdvisorDecisionsSurviveTheFile) {
  // Build a CosmoFlow-like characterization, serialize, reload, and check
  // the rule engine reaches the same decisions from the file alone.
  charz::WorkloadCharacterization c;
  c.workload = "cosmo";
  c.job.nodes = 32;
  c.job.node_local_bb_dirs = "/dev/shm";
  c.workflow.shared_files = 49664;
  c.workflow.fpp_files = 0;
  c.workflow.num_apps = 1;
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
  c.dataset.data_ops_fraction = 0.02;

  advisor::RuleEngine rules;
  const auto direct = rules.evaluate(c);
  const auto via_file = rules.evaluate(charz::from_yaml(c.to_yaml()));

  ASSERT_EQ(direct.size(), via_file.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i].id, via_file[i].id);
  }
  const auto cfg = advisor::RuleEngine::configure(via_file);
  EXPECT_TRUE(cfg.preload_input_to_node_local);
  EXPECT_GT(cfg.hdf5_chunk_size, 0u);
}

TEST(YamlLoader, RejectsNonCharacterizationDocuments) {
  EXPECT_THROW(charz::from_yaml("just: a map\n"), util::SimError);
  EXPECT_THROW(charz::load_yaml_file("/nonexistent.yaml"), util::SimError);
}

}  // namespace
}  // namespace wasp
