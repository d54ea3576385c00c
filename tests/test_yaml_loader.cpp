// YAML reader + characterization loader: parser subset, reverse value
// parsers, and the full emit -> parse round trip that the wasp_advise tool
// relies on.
#include <gtest/gtest.h>

#include "advisor/rules.hpp"
#include "analysis/analyzer.hpp"
#include "core/characterizer.hpp"
#include "core/entities.hpp"
#include "io/posix.hpp"
#include "sim_test_util.hpp"
#include "util/parse.hpp"
#include "util/yaml_reader.hpp"
#include "workloads/registry.hpp"

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
  // Out of Bytes' range: converting these would be undefined.
  EXPECT_FALSE(util::parse_bytes("20000000000GB").has_value());
  EXPECT_FALSE(util::parse_bytes("nanGB").has_value());
  EXPECT_FALSE(util::parse_bytes("-1B").has_value());
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

/// The scalar under `key` in map `n`, or "<absent>".
std::string value_of(const util::yaml::Node& n, const std::string& key) {
  const util::yaml::Node* v = n.find(key);
  return v != nullptr ? v->scalar() : "<absent>";
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
  EXPECT_EQ(value_of(root, "workload"), "CM1");
  const auto* job = root.find("job");
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(value_of(*job, "nodes"), "32");
  const auto* apps = job->find("apps");
  ASSERT_NE(apps, nullptr);
  ASSERT_TRUE(apps->is_seq());
  ASSERT_EQ(apps->items().size(), 2u);
  EXPECT_EQ(value_of(apps->items()[0], "name"), "cm1");
  EXPECT_EQ(value_of(apps->items()[1], "procs"), "32");
  EXPECT_EQ(value_of(*root.find("data"), "format"), "bin");
}

TEST(YamlReader, HandlesQuotedScalarsWithColons) {
  const std::string doc = "path: \"/p/gpfs1: data\"\n";
  const auto root = util::yaml::parse(doc);
  EXPECT_EQ(value_of(root, "path"), "/p/gpfs1: data");
}

TEST(YamlReader, SkipsCommentsAndBlankLines) {
  const std::string doc =
      "# header comment\n"
      "\n"
      "a: 1\n"
      "\n"
      "b: 2\n";
  const auto root = util::yaml::parse(doc);
  EXPECT_EQ(value_of(root, "a"), "1");
  EXPECT_EQ(value_of(root, "b"), "2");
}

TEST(YamlReader, MissingKeysAreNull) {
  const auto root = util::yaml::parse("a: 1\n");
  EXPECT_EQ(root.find("nope"), nullptr);
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

std::vector<std::string> ids(const std::vector<advisor::Recommendation>& recs) {
  std::vector<std::string> out;
  for (const auto& r : recs) out.push_back(r.id);
  return out;
}

/// The six registry workloads' characterizations at test scale.
const std::vector<charz::WorkloadCharacterization>& registry_charz() {
  static const auto runs = [] {
    std::vector<charz::WorkloadCharacterization> out;
    for (const auto& entry : workloads::paper_workloads()) {
      out.push_back(workloads::run(cluster::lassen(4), entry.make_test())
                        .characterization);
    }
    return out;
  }();
  return runs;
}

TEST(YamlLoader, RegistryWorkloadsAdviseTheSameFromTheFile) {
  advisor::RuleEngine rules;
  ASSERT_EQ(registry_charz().size(), 6u);
  for (const auto& c : registry_charz()) {
    SCOPED_TRACE(c.workload);
    EXPECT_EQ(ids(rules.evaluate(charz::from_yaml(c.to_yaml()))),
              ids(rules.evaluate(c)));
  }
}

// Every field of every entity holds a distinct non-default value and loads
// back: exactly for strings, integers and flags, within the printed
// precision (three significant digits, whole percents) otherwise.
TEST(YamlLoader, EveryFieldLoadsBack) {
  using namespace charz;
  WorkloadCharacterization c;
  c.workload = "every: field #1";
  c.job = {.nodes = 3,
           .cpu_cores_per_node = 5,
           .gpus_per_node = 7,
           .node_local_bb_dirs = "/dev/shm,/tmp",
           .shared_bb_dir = "/bb",
           .pfs_dir = "/p/lustre",
           .job_time_limit_hours = 2.5};
  c.workflow = {.cpu_cores_used_per_node = 11,
                .gpus_used_per_node = 13,
                .num_apps = 2,
                .has_app_data_dependency = true,
                .fpp_files = 17,
                .shared_files = 19,
                .io_amount = 23 * util::kGB,
                .data_ops_fraction = 0.29,
                .runtime_sec = 31};
  c.applications = {{.name = "sim",
                     .num_processes = 37,
                     .has_process_data_dependency = true,
                     .fpp_files = 41,
                     .shared_files = 43,
                     .io_amount = 47 * util::kMB,
                     .data_ops_fraction = 0.53,
                     .interface = "MPI-IO",
                     .runtime_sec = 0.059},
                    {.name = "viz",
                     .num_processes = 61,
                     .fpp_files = 67,
                     .shared_files = 71,
                     .io_amount = 73 * util::kKB,
                     .data_ops_fraction = 0.79,
                     .interface = "STDIO",
                     .runtime_sec = 83}};
  c.phases = {{.app = "viz",
               .index = 89,
               .io_amount = 97 * util::kMB,
               .data_ops_fraction = 0.011,
               .frequency = "Iterative (1MB)",
               .runtime_sec = 101}};
  c.high_level_io = {.data_repr = "3D",
                     .data_granularity = 103 * util::kKB,
                     .meta_granularity = 107,
                     .access_pattern = "Random",
                     .data_distribution = "gamma"};
  c.middleware = {.extra_io_cores_per_node = 109,
                  .data_granularity = 113 * util::kMB,
                  .meta_granularity = 127 * util::kKB,
                  .memory_per_node = 131 * util::kGB,
                  .access_pattern = "Mixed"};
  c.node_local = {{.dir = "/dev/shm",
                   .parallel_ops = 137,
                   .capacity_per_node = 139 * util::kGB,
                   .max_bandwidth_bps = 149e9},
                  {.dir = "/tmp",
                   .parallel_ops = 151,
                   .capacity_per_node = 157 * util::kGB,
                   .max_bandwidth_bps = 163e6}};
  c.shared_storage = {.dir = "/p/gpfs1",
                      .parallel_servers = 167,
                      .capacity = 173 * util::kTB,
                      .max_bandwidth_bps = 179e9};
  c.dataset = {.format = "HDF5",
               .size = 181 * util::kTB,
               .num_files = 191,
               .io_amount = 193 * util::kGB,
               .io_time_sec = 197,
               .data_ops_fraction = 0.02,
               .file_size_dist = "1GB data / 16MB config"};
  c.file = {.path = "/p/gpfs1/x \"0\".h5",
            .format = "npy",
            .size = 199 * util::kMB,
            .io_amount = 211 * util::kMB,
            .io_time_sec = 0.223,
            .data_ops_fraction = 0.227,
            .format_attributes = "#datasets: 1, #dims: 3"};

  const WorkloadCharacterization l = from_yaml(c.to_yaml());
  const auto near = [](double loaded, double original) {
    EXPECT_NEAR(loaded, original, original * 0.005);
  };
  const auto near_bytes = [&near](util::Bytes loaded, util::Bytes original) {
    near(static_cast<double>(loaded), static_cast<double>(original));
  };
  const auto near_fraction = [](double loaded, double original) {
    EXPECT_NEAR(loaded, original, 0.005);
  };

  EXPECT_EQ(l.workload, c.workload);
  EXPECT_EQ(l.job.nodes, c.job.nodes);
  EXPECT_EQ(l.job.cpu_cores_per_node, c.job.cpu_cores_per_node);
  EXPECT_EQ(l.job.gpus_per_node, c.job.gpus_per_node);
  EXPECT_EQ(l.job.node_local_bb_dirs, c.job.node_local_bb_dirs);
  EXPECT_EQ(l.job.shared_bb_dir, c.job.shared_bb_dir);
  EXPECT_EQ(l.job.pfs_dir, c.job.pfs_dir);
  near(l.job.job_time_limit_hours, c.job.job_time_limit_hours);

  EXPECT_EQ(l.workflow.cpu_cores_used_per_node,
            c.workflow.cpu_cores_used_per_node);
  EXPECT_EQ(l.workflow.gpus_used_per_node, c.workflow.gpus_used_per_node);
  EXPECT_EQ(l.workflow.num_apps, c.workflow.num_apps);
  EXPECT_EQ(l.workflow.has_app_data_dependency,
            c.workflow.has_app_data_dependency);
  EXPECT_EQ(l.workflow.fpp_files, c.workflow.fpp_files);
  EXPECT_EQ(l.workflow.shared_files, c.workflow.shared_files);
  near_bytes(l.workflow.io_amount, c.workflow.io_amount);
  near_fraction(l.workflow.data_ops_fraction, c.workflow.data_ops_fraction);
  near(l.workflow.runtime_sec, c.workflow.runtime_sec);

  ASSERT_EQ(l.applications.size(), c.applications.size());
  for (std::size_t i = 0; i < c.applications.size(); ++i) {
    const auto& a = l.applications[i];
    const auto& o = c.applications[i];
    EXPECT_EQ(a.name, o.name);
    EXPECT_EQ(a.num_processes, o.num_processes);
    EXPECT_EQ(a.has_process_data_dependency, o.has_process_data_dependency);
    EXPECT_EQ(a.fpp_files, o.fpp_files);
    EXPECT_EQ(a.shared_files, o.shared_files);
    near_bytes(a.io_amount, o.io_amount);
    near_fraction(a.data_ops_fraction, o.data_ops_fraction);
    EXPECT_EQ(a.interface, o.interface);
    near(a.runtime_sec, o.runtime_sec);
  }

  ASSERT_EQ(l.phases.size(), 1u);
  EXPECT_EQ(l.phases[0].app, c.phases[0].app);
  EXPECT_EQ(l.phases[0].index, c.phases[0].index);
  near_bytes(l.phases[0].io_amount, c.phases[0].io_amount);
  near_fraction(l.phases[0].data_ops_fraction, c.phases[0].data_ops_fraction);
  EXPECT_EQ(l.phases[0].frequency, c.phases[0].frequency);
  near(l.phases[0].runtime_sec, c.phases[0].runtime_sec);

  EXPECT_EQ(l.high_level_io.data_repr, c.high_level_io.data_repr);
  near_bytes(l.high_level_io.data_granularity,
             c.high_level_io.data_granularity);
  near_bytes(l.high_level_io.meta_granularity,
             c.high_level_io.meta_granularity);
  EXPECT_EQ(l.high_level_io.access_pattern, c.high_level_io.access_pattern);
  EXPECT_EQ(l.high_level_io.data_distribution,
            c.high_level_io.data_distribution);

  EXPECT_EQ(l.middleware.extra_io_cores_per_node,
            c.middleware.extra_io_cores_per_node);
  near_bytes(l.middleware.data_granularity, c.middleware.data_granularity);
  near_bytes(l.middleware.meta_granularity, c.middleware.meta_granularity);
  near_bytes(l.middleware.memory_per_node, c.middleware.memory_per_node);
  EXPECT_EQ(l.middleware.access_pattern, c.middleware.access_pattern);

  ASSERT_EQ(l.node_local.size(), c.node_local.size());
  for (std::size_t i = 0; i < c.node_local.size(); ++i) {
    EXPECT_EQ(l.node_local[i].dir, c.node_local[i].dir);
    EXPECT_EQ(l.node_local[i].parallel_ops, c.node_local[i].parallel_ops);
    near_bytes(l.node_local[i].capacity_per_node,
               c.node_local[i].capacity_per_node);
    near(l.node_local[i].max_bandwidth_bps,
         c.node_local[i].max_bandwidth_bps);
  }

  EXPECT_EQ(l.shared_storage.dir, c.shared_storage.dir);
  EXPECT_EQ(l.shared_storage.parallel_servers,
            c.shared_storage.parallel_servers);
  near_bytes(l.shared_storage.capacity, c.shared_storage.capacity);
  near(l.shared_storage.max_bandwidth_bps,
       c.shared_storage.max_bandwidth_bps);

  EXPECT_EQ(l.dataset.format, c.dataset.format);
  near_bytes(l.dataset.size, c.dataset.size);
  EXPECT_EQ(l.dataset.num_files, c.dataset.num_files);
  near_bytes(l.dataset.io_amount, c.dataset.io_amount);
  near(l.dataset.io_time_sec, c.dataset.io_time_sec);
  near_fraction(l.dataset.data_ops_fraction, c.dataset.data_ops_fraction);
  EXPECT_EQ(l.dataset.file_size_dist, c.dataset.file_size_dist);

  EXPECT_EQ(l.file.path, c.file.path);
  EXPECT_EQ(l.file.format, c.file.format);
  near_bytes(l.file.size, c.file.size);
  near_bytes(l.file.io_amount, c.file.io_amount);
  near(l.file.io_time_sec, c.file.io_time_sec);
  near_fraction(l.file.data_ops_fraction, c.file.data_ops_fraction);
  EXPECT_EQ(l.file.format_attributes, c.file.format_attributes);
}

TEST(YamlLoader, AbsentKeysKeepStructDefaults) {
  const auto l = charz::from_yaml("job:\nsoftware:\ndata:\n");
  const charz::WorkloadCharacterization c;
  EXPECT_EQ(l.to_yaml(), c.to_yaml());
  EXPECT_EQ(l.workload, "");
  EXPECT_EQ(l.job.node_local_bb_dirs, "");
  EXPECT_EQ(l.job.shared_bb_dir, "NA");
  // The defaults' own document, with its empty strings, loads back too.
  EXPECT_EQ(charz::from_yaml(c.to_yaml()).to_yaml(), c.to_yaml());
}

/// The SimError from_yaml throws on `yaml`, or "" when it loads.
std::string load_error(const std::string& yaml) {
  try {
    charz::from_yaml(yaml);
  } catch (const util::SimError& e) {
    return e.what();
  }
  return "";
}

// A value outside its attribute's format is diagnosed with its section,
// key and value, never read as 0 or dropped.
TEST(YamlLoader, RejectsValuesOutsideTheirFormat) {
  const std::string yaml = registry_charz().at(2).to_yaml();
  ASSERT_EQ(registry_charz().at(2).workload, "Cosmoflow");
  ASSERT_EQ(load_error(yaml), "");
  const struct {
    const char* key;
    const char* value;
    const char* section;
  } cases[] = {
      {"nodes", "banana", "job.job_configuration"},
      {"io_amount", "lots", "job.workflow"},
      {"io_ops_dist", "mostly meta", "job.workflow"},
      {"granularity_data", "1.05QB", "software.high_level_io"},
      {"app_data_dependency", "no", "job.workflow"},
      {"fpp_shared_file_access", "1x/16", "job.workflow"},
      {"num_files", "-17", "data.dataset"},
      {"parallel_ops", "99999999999", "software.node_local_storage[0]"},
  };
  for (const auto& [key, value, section] : cases) {
    SCOPED_TRACE(key);
    const std::string what =
        load_error(testutil::with_value(yaml, key, value));
    EXPECT_NE(what.find(std::string(section) + "." + key + " cannot be '" +
                        value + "'"),
              std::string::npos)
        << what;
  }
}

TEST(YamlLoader, RejectsSectionsOfTheWrongShape) {
  const std::pair<const char*, const char*> cases[] = {
      {"job:\n  applications: x\nsoftware:\ndata:\n",
       "job.applications must be a sequence of maps, not 'x'"},
      {"job:\n  io_phases:\n    - a\nsoftware:\ndata:\n",
       "job.io_phases[0] must be a map, not 'a'"},
      {"job:\n  job_configuration: 4\nsoftware:\ndata:\n",
       "job.job_configuration must be a map, not '4'"},
      {"job:\nsoftware:\n  shared_storage:\n    - dir: /p\ndata:\n",
       "software.shared_storage must be a map, not a sequence"},
      {"job:\n  workflow:\n    num_apps:\n      - 1\nsoftware:\ndata:\n",
       "job.workflow.num_apps cannot be a sequence"},
      {"job: x\nsoftware:\ndata:\n", "job must be a map, not 'x'"},
      {"job:\nsoftware:\n", "missing 'data'"},
      {"- job\n", "the document must be a map, not a sequence"},
  };
  for (const auto& [yaml, what] : cases) {
    SCOPED_TRACE(yaml);
    EXPECT_NE(load_error(yaml).find(what), std::string::npos)
        << load_error(yaml);
  }
}

TEST(YamlLoader, RejectsNonCharacterizationDocuments) {
  EXPECT_THROW(charz::from_yaml("just: a map\n"), util::SimError);
  EXPECT_THROW(charz::load_yaml_file("/nonexistent.yaml"), util::SimError);
}

}  // namespace
}  // namespace wasp
