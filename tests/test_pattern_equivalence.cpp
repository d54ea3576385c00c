// Golden fingerprints of every workload's simulated output. Each row runs
// one (workload, params, RunConfig, fault plan) input through the full
// pipeline and pins {engine events, trace rows, job seconds, digest}, where
// the digest covers the tracer's app names, every trace::Record field and
// the characterization YAML. A pin fails when a change in any layer the
// run touches alters its output: the pattern compilers, the replayer, io,
// fs, mpi, the engine, the analyzer and the characterizer.
//
// A change that alters a simulated result on purpose re-pins: the failure
// message prints the measured row as a literal to paste over the old pin.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "advisor/pattern_rewrites.hpp"
#include "profile_test_util.hpp"
#include "trace/log_io.hpp"
#include "workloads/ior.hpp"
#include "workloads/registry.hpp"

namespace wasp::workloads {
namespace {

cluster::ClusterSpec test_cluster(int nodes = 4) {
  auto spec = cluster::lassen(nodes);
  spec.node.cpu_cores = 8;
  return spec;
}

/// The same workload replaying a fixed (e.g. rewritten) pattern.
Workload with_pattern(Workload w, const pattern::JobPattern& pat) {
  w.compile = [pat](runtime::Simulation&, const advisor::RunConfig&) {
    return pat;
  };
  return w;
}

// ---- Pinned fingerprints --------------------------------------------------

struct Fingerprint {
  std::uint64_t engine_events = 0;
  std::uint64_t trace_rows = 0;
  double job_seconds = 0.0;
  std::uint64_t digest = 0;
  bool operator==(const Fingerprint&) const = default;
};

std::string to_string(const Fingerprint& f) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "{%llu, %llu, %a, 0x%016llxULL}",
                static_cast<unsigned long long>(f.engine_events),
                static_cast<unsigned long long>(f.trace_rows), f.job_seconds,
                static_cast<unsigned long long>(f.digest));
  return buf;
}

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv1a(std::uint64_t& h, const std::string& s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
}

/// Hashes the eight little-endian bytes of `v`, so a field's digest does not
/// depend on its width, the struct's padding or the host's byte order.
void fnv1a(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

void fnv1a(std::uint64_t& h, const trace::Record& r) {
  for (const std::uint64_t field :
       {std::uint64_t{r.app}, static_cast<std::uint64_t>(r.rank),
        static_cast<std::uint64_t>(r.node),
        static_cast<std::uint64_t>(r.iface), static_cast<std::uint64_t>(r.op),
        static_cast<std::uint64_t>(r.file.fs), r.file.file, r.offset, r.size,
        std::uint64_t{r.count}, r.tstart, r.tend}) {
    fnv1a(h, field);
  }
}

Fingerprint fingerprint(const cluster::ClusterSpec& spec, const Workload& w,
                        const advisor::RunConfig& cfg) {
  runtime::Simulation sim(spec);
  const RunOutput out = run_with(sim, w, cfg, analysis::Analyzer::Options{});
  const auto& tracer = sim.tracer();
  Fingerprint fp{out.engine_events, tracer.records().size(), out.job_seconds,
                 0xcbf29ce484222325ULL};
  for (std::size_t a = 0; a < tracer.num_apps(); ++a) {
    fnv1a(fp.digest, tracer.app_name(static_cast<std::uint16_t>(a)) + "\n");
  }
  for (const trace::Record& r : tracer.records()) fnv1a(fp.digest, r);
  fnv1a(fp.digest, out.characterization.to_yaml());
  return fp;
}

struct Golden {
  std::string name;
  std::function<Workload()> make;
  advisor::RunConfig cfg;
  Fingerprint pin;
};

void expect_pinned(const cluster::ClusterSpec& spec,
                   const std::vector<Golden>& rows) {
  for (const Golden& row : rows) {
    const Fingerprint fp = fingerprint(spec, row.make(), row.cfg);
    EXPECT_TRUE(fp == row.pin) << "row \"" << row.name << "\" measured "
                               << to_string(fp) << "; pinned "
                               << to_string(row.pin);
  }
}

std::function<Workload()> test_scale(const char* id) {
  return paper_workloads()[static_cast<std::size_t>(find_workload(id))]
      .make_test;
}

std::function<Workload()> paper_scale(const char* id) {
  return paper_workloads()[static_cast<std::size_t>(find_workload(id))]
      .make_paper;
}

/// Moderate PFS faults by default: every workload sees latency spikes,
/// HACC and both Montages also retry EIOs, and none exhausts its retry
/// budget.
advisor::RunConfig faulted(
    const char* spec = "seed=7; gpfs: eio=0.05, slow=0.5, spike=20ms") {
  advisor::RunConfig cfg;
  cfg.faults = sim::FaultPlan::parse(spec);
  return cfg;
}

// ---- PatternEquivalence: test-scale inputs ---------------------------------
//
// The inputs on which replay was compared against the hand-written
// imperative models. Each pin is the output both launch paths produced
// (they agreed on every row) before the imperative models were deleted, so
// a replay that still matches it is still equivalent to them.

// {engine events, trace rows, job seconds (hex float), digest}
TEST(PatternEquivalence, AllSixWorkloadsBaselineConfig) {
  expect_pinned(
      test_cluster(),
      {
          {"cm1", test_scale("cm1"), {},
           {463, 350, 0x1.70fd0b1ab2ab3p+2, 0xd010fb95083556edULL}},
          {"hacc-fpp", test_scale("hacc-fpp"), {},
           {320, 176, 0x1.5408ae608c43p-3, 0xd239496137aa88f0ULL}},
          {"cosmoflow", test_scale("cosmoflow"), {},
           {798, 240, 0x1.0299fffdc9108p+0, 0x39811f2cf34ced7aULL}},
          {"jag", test_scale("jag"), {},
           {187, 122, 0x1.585ad484489cp+2, 0x6e0eaa5e36348c64ULL}},
          {"montage-mpi", test_scale("montage-mpi"), {},
           {343, 176, 0x1.46ebe9dbd9e3ap+1, 0xf7c7c2a8cfe3c9d0ULL}},
          {"montage-pegasus", test_scale("montage-pegasus"), {},
           {727, 389, 0x1.0e4e025b3dd82p+1, 0x5798d08d220abc93ULL}},
      });
}

TEST(PatternEquivalence, IorBenchmark) {
  expect_pinned(
      test_cluster(),
      {
          {"ior", [] { return make_ior(IorParams::test()); }, {},
           {64, 36, 0x1.6d68611b00951p-6, 0x46c638a4993e18aeULL}},
          {"ior-shared",
           [] {
             auto P = IorParams::test();
             P.file_per_process = false;
             P.read_back = true;
             return make_ior(P);
           },
           {},
           {66, 36, 0x1.75998804796a1p-6, 0xce339a5a4f0f9d48ULL}},
      });
}

// The compilers consume the RunConfig, so each workload is also pinned with
// the configuration its case study turns on (§IV-D).
TEST(PatternEquivalence, HaccCompressedAsyncDrain) {
  advisor::RunConfig cfg;
  cfg.compress_checkpoints = true;
  cfg.compress_on_gpu = true;
  cfg.async_checkpoint_drain = true;
  expect_pinned(test_cluster(),
                {{"hacc-fpp compressed async drain", test_scale("hacc-fpp"),
                  cfg,
                  {312, 224, 0x1.2747ee6ff97bfp-3, 0x0c7491fec51178c1ULL}}});
}

TEST(PatternEquivalence, CosmoflowChunkedAndPreloaded) {
  advisor::RunConfig cfg;
  cfg.hdf5_chunk_size = util::kMiB;
  cfg.preload_input_to_node_local = true;
  expect_pinned(test_cluster(),
                {{"cosmoflow chunked preloaded", test_scale("cosmoflow"), cfg,
                  {850, 356, 0x1.ecfa66630b682p-1, 0xce015c7975b10fa6ULL}}});
}

TEST(PatternEquivalence, JagLargeStdioBuffer) {
  advisor::RunConfig cfg;
  cfg.stdio_buffer = util::kMiB;
  expect_pinned(test_cluster(),
                {{"jag 1MiB stdio buffer", test_scale("jag"), cfg,
                  {187, 122, 0x1.41eb2cc8a4b8dp+2, 0xff9870b6bbe6826eULL}}});
}

TEST(PatternEquivalence, MontageMpiShmIntermediates) {
  advisor::RunConfig cfg;
  cfg.intermediates_to_node_local = true;
  cfg.stdio_buffer = 64 * util::kKiB;
  expect_pinned(test_cluster(),
                {{"montage-mpi shm intermediates", test_scale("montage-mpi"),
                  cfg,
                  {285, 188, 0x1.f40e43ee1f0aap+0, 0x54de6f269a387382ULL}}});
}

TEST(PatternEquivalence, MontagePegasusLocalityAware) {
  advisor::RunConfig cfg;
  cfg.locality_aware_placement = true;
  cfg.stdio_buffer = 64 * util::kKiB;
  expect_pinned(test_cluster(),
                {{"montage-pegasus locality aware",
                  test_scale("montage-pegasus"), cfg,
                  {708, 389, 0x1.f274b94fed533p+0, 0x55d276f5418c15fbULL}}});
}

// ---- PatternGolden: faults and paper scale ---------------------------------

TEST(PatternGolden, TestScaleUnderFaults) {
  expect_pinned(
      test_cluster(),
      {
          {"cm1", test_scale("cm1"), faulted(),
           {510, 350, 0x1.892bf7a42ab1p+2, 0x5ac4fb6ba94d5558ULL}},
          {"hacc-fpp", test_scale("hacc-fpp"), faulted(),
           {372, 177, 0x1.45328a8e30515p-2, 0x8728d1284ecefd56ULL}},
          {"cosmoflow", test_scale("cosmoflow"), faulted(),
           {858, 240, 0x1.b1e3a3f1eac72p+0, 0xaa4f58401843b103ULL}},
          {"jag", test_scale("jag"), faulted(),
           {213, 122, 0x1.66dad78fd1f84p+2, 0x618e969b242f17f3ULL}},
          {"montage-mpi", test_scale("montage-mpi"), faulted(),
           {401, 176, 0x1.81e9ee4c349d3p+1, 0x51c881e9dafd51c8ULL}},
          {"montage-pegasus", test_scale("montage-pegasus"), faulted(),
           {877, 389, 0x1.72b690ab0881ep+1, 0x499e4f6355c85465ULL}},
          // test_faults' heavier plan; at eio=0.3 CM1 exhausts its retries.
          {"hacc-fpp eio=0.3", test_scale("hacc-fpp"),
           faulted("seed=7; gpfs: eio=0.3, slow=0.5, spike=20ms"),
           {407, 190, 0x1.40a247236647dp-2, 0x4e451bc3e5d98f5bULL}},
      });
}

// The paper's job sizes on a 32-node Lassen. They take seconds, not
// minutes, so they run in the default ctest.
TEST(PatternGolden, PaperScale) {
  expect_pinned(
      cluster::lassen(32),
      {
          {"cm1", paper_scale("cm1"), {},
           {279506, 263850, 0x1.42621be32efdcp+9, 0x4cee14ab627b5bc7ULL}},
          {"hacc-fpp", paper_scale("hacc-fpp"), {},
           {248085, 85760, 0x1.0cb4b4a08eb3fp+5, 0x0544c49bf3961151ULL}},
          {"cosmoflow", paper_scale("cosmoflow"), {},
           {3948576, 1390738, 0x1.cb2ad77415da1p+11, 0x476fc0ac996f51dbULL}},
          {"jag", paper_scale("jag"), {},
           {335870, 327849, 0x1.3a8122a1f7476p+10, 0x0fb2504125187a27ULL}},
          {"montage-mpi", paper_scale("montage-mpi"), {},
           {47273, 19328, 0x1.fc25a7315cc46p+7, 0xa6a4fa576fd58e82ULL}},
          {"montage-pegasus", paper_scale("montage-pegasus"), {},
           {318997, 102448, 0x1.1a2d3f61f11dp+10, 0x9a182328183aaca1ULL}},
      });
}

// Test-scale sweeps whose cluster changes from cell to cell: CosmoFlow and
// Montage-MPI at 2-16 nodes (the Fig. 7/8 node axis) and Montage-MPI over
// PFS stripe counts, each on a plain lassen(n).
TEST(PatternGolden, SweepCells) {
  struct Cell {
    cluster::ClusterSpec spec;
    Golden row;
  };
  const auto cosmoflow = [](int nodes) {
    auto P = CosmoflowParams::test();
    P.nodes = nodes;
    return [P] { return make_cosmoflow(P); };
  };
  const auto montage = [](int nodes) {
    auto P = MontageMpiParams::test();
    P.nodes = nodes;
    return [P] { return make_montage_mpi(P); };
  };
  const auto striped = [](int count) {
    auto spec = cluster::lassen(4);
    spec.pfs.stripe_count = count;
    return spec;
  };
  // {engine events, trace rows, job seconds (hex float), digest}
  const std::vector<Cell> cells = {
      {cluster::lassen(2),
       {"cosmoflow nodes=2", cosmoflow(2), {},
        {798, 240, 0x1.0299fffdc9108p+0, 0xb5f98f977f2c7d23ULL}}},
      {cluster::lassen(4),
       {"cosmoflow nodes=4", cosmoflow(4), {},
        {806, 244, 0x1.1a4eb5897e076p-1, 0xdb0af2776cebe4dcULL}}},
      {cluster::lassen(8),
       {"cosmoflow nodes=8", cosmoflow(8), {},
        {812, 246, 0x1.3e000a335711ep-2, 0xa53771d48aebbb7aULL}}},
      {cluster::lassen(16),
       {"cosmoflow nodes=16", cosmoflow(16), {},
        {855, 259, 0x1.7c0fcd74dfc85p-3, 0xbb09b56f2be17221ULL}}},
      {cluster::lassen(2),
       {"montage-mpi nodes=2", montage(2), {},
        {343, 176, 0x1.46ebe9dbd9e3ap+1, 0xe50fa0c9d5e46bfbULL}}},
      {cluster::lassen(4),
       {"montage-mpi nodes=4", montage(4), {},
        {573, 304, 0x1.105e1509269a5p+1, 0x14df797cce127581ULL}}},
      {cluster::lassen(8),
       {"montage-mpi nodes=8", montage(8), {},
        {1049, 560, 0x1.ee3a58fd835f3p+0, 0x125408fff8e69e56ULL}}},
      {cluster::lassen(16),
       {"montage-mpi nodes=16", montage(16), {},
        {1937, 1008, 0x1.02c3268a1c3cfp+1, 0x45e2f049e906bc46ULL}}},
      {striped(1),
       {"montage-mpi stripe_count=1", test_scale("montage-mpi"), {},
        {313, 176, 0x1.5c76a6c9f296bp+1, 0xc87b288f1403c1a8ULL}}},
      {striped(2),
       {"montage-mpi stripe_count=2", test_scale("montage-mpi"), {},
        {323, 176, 0x1.4e1a28d5e21f5p+1, 0x3681bc85b4ef5df4ULL}}},
      {striped(4),
       {"montage-mpi stripe_count=4", test_scale("montage-mpi"), {},
        {343, 176, 0x1.46ebe9dbd9e3ap+1, 0x7adf92098ec83fcdULL}}},
      {striped(8),
       {"montage-mpi stripe_count=8", test_scale("montage-mpi"), {},
        {351, 176, 0x1.4390eb88824dbp+1, 0xf382482276e29f82ULL}}},
  };
  for (const Cell& c : cells) expect_pinned(c.spec, {c.row});
}

// ---- PatternEquivalence: replay invariants -------------------------------

// Replayed runs analyzed offline through the spill-to-disk trace backend
// must match the in-memory profile (the backends are profile-identical by
// contract; the replayer must not disturb that).
TEST(PatternEquivalence, SpillBackendMatchesReferenceProfile) {
  for (const auto& entry : {paper_workloads()[1], paper_workloads()[4]}) {
    SCOPED_TRACE(entry.id);
    const Workload workload = entry.make_test();
    runtime::Simulation sim(test_cluster());
    const auto in_memory = run_with(sim, workload, advisor::RunConfig{},
                                    analysis::Analyzer::Options{});
    const std::string path =
        ::testing::TempDir() + "pattern_spill_" + entry.id + ".wtrc";
    trace::write_log(path, sim.tracer());
    analysis::SpillColumnStore store(
        {.dir = ::testing::TempDir() + "pattern_spill",
         .chunk_rows = 256,
         .max_resident_chunks = 2});
    const auto spilled = testutil::analyze_log(path, store);
    analysis::ColumnStore memory;
    testutil::expect_profiles_identical(testutil::analyze_log(path, memory),
                                        spilled);
    const auto characterization =
        charz::Characterizer().characterize(workload.decl, sim.spec(), spilled);
    EXPECT_EQ(characterization.to_yaml(),
              in_memory.characterization.to_yaml());
    EXPECT_EQ(spilled.job_runtime_sec, in_memory.job_seconds);
    std::remove(path.c_str());
  }
}

// run_many must stay bit-identical whether the replayed scenarios execute
// sequentially or on four worker threads, and equal a plain run().
TEST(PatternEquivalence, RunManyIdenticalAcrossJobCounts) {
  std::vector<Scenario> scenarios;
  for (const auto& entry : paper_workloads()) {
    Scenario s;
    s.name = entry.id;
    s.spec = test_cluster();
    s.make = entry.make_test;
    scenarios.push_back(std::move(s));
  }
  auto one = run_many(scenarios, 1);
  auto four = run_many(scenarios, 4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    SCOPED_TRACE(scenarios[i].name);
    EXPECT_EQ(one[i].job_seconds, four[i].job_seconds);
    EXPECT_EQ(one[i].characterization.to_yaml(),
              four[i].characterization.to_yaml());
    auto single = run(test_cluster(), scenarios[i].make());
    EXPECT_EQ(one[i].characterization.to_yaml(),
              single.characterization.to_yaml());
  }
}

// §IV-D.1 as a pure IR mutation: applying the shm-preload rewrite to the
// compiled CosmoFlow pattern must reproduce the Fig. 7 speedup direction
// (training reads move off the PFS, the job gets faster), and must match
// what the compiler emits when the RunConfig asks for preloading.
TEST(PatternEquivalence, CosmoflowPreloadRewriteReproducesFig7Direction) {
  auto w = make_cosmoflow(CosmoflowParams::test());
  runtime::Simulation compile_sim(test_cluster());
  auto baseline_pat = w.compile(compile_sim, advisor::RunConfig{});

  advisor::PreloadSpec spec;
  ASSERT_TRUE(
      advisor::preload_spec_from_meta(baseline_pat, "/dev/shm", &spec));
  auto rewritten = baseline_pat;
  advisor::apply_preload(rewritten, spec);

  // The rewrite equals recompiling with the knob on.
  advisor::RunConfig preload_cfg;
  preload_cfg.preload_input_to_node_local = true;
  runtime::Simulation compile_sim2(test_cluster());
  EXPECT_EQ(pattern::to_yaml(rewritten),
            pattern::to_yaml(w.compile(compile_sim2, preload_cfg)));

  auto replay_pattern = [&](const pattern::JobPattern& pat) {
    return run(test_cluster(), with_pattern(w, pat));
  };
  auto base = replay_pattern(baseline_pat);
  auto fast = replay_pattern(rewritten);
  // Fig. 7: node-local training reads shrink both the job and its I/O
  // share of runtime.
  EXPECT_LT(fast.job_seconds, base.job_seconds);
  EXPECT_LT(fast.profile.io_time_fraction * fast.job_seconds,
            base.profile.io_time_fraction * base.job_seconds);
}

// What-if rewrites preserve total bytes while changing op shape.
TEST(PatternRewrite, TransferSizeKeepsBytes) {
  auto w = make_hacc(HaccParams::test());
  runtime::Simulation compile_sim(test_cluster());
  auto pat = w.compile(compile_sim, advisor::RunConfig{});
  auto rewritten = pat;
  const int changed = advisor::set_transfer_size(rewritten, util::kMiB);
  EXPECT_GT(changed, 0);

  auto run_pattern = [&](const pattern::JobPattern& p) {
    return run(test_cluster(), with_pattern(w, p));
  };
  auto base = run_pattern(pat);
  auto variant = run_pattern(rewritten);
  EXPECT_EQ(variant.profile.totals.io_bytes(),
            base.profile.totals.io_bytes());
  EXPECT_NE(variant.profile.totals.total_ops(),
            base.profile.totals.total_ops());
}

TEST(PatternRewrite, InterfaceSwapRespectsPinnedHandles) {
  auto w = make_jag(JagParams::test());
  runtime::Simulation compile_sim(test_cluster());
  auto pat = w.compile(compile_sim, advisor::RunConfig{});
  auto rewritten = pat;
  // JAG's dataset handles are pinned by scattered reads and wrap seeks;
  // only the plain posix checkpoint chain may move to stdio.
  const int changed =
      advisor::set_interface(rewritten, pattern::Layer::kStdio);
  EXPECT_GT(changed, 0);
  auto out = run(test_cluster(), with_pattern(w, rewritten));
  EXPECT_GT(out.profile.totals.io_bytes(), 0u);
}

}  // namespace
}  // namespace wasp::workloads
