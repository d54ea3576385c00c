// Pattern IR unit tests: the expression mini-language, the canonical YAML
// round trip (dump -> load -> dump is byte-identical), and diagnostics on
// malformed input and on patterns the replayer cannot run.
#include <gtest/gtest.h>

#include "pattern/pattern.hpp"
#include "pattern/replayer.hpp"
#include "util/error.hpp"
#include "workloads/registry.hpp"

namespace wasp::pattern {
namespace {

TEST(PatternExpr, EvaluatesLaneEnvironment) {
  Env env;
  env.set("rank", 5);
  env.set("node", 2);
  EvalContext ctx{&env, nullptr};
  EXPECT_EQ(Expr("rank * 3 + node").eval(ctx), 17);
  EXPECT_EQ(Expr("max(rank - 7, 1)").eval(ctx), 1);
  EXPECT_EQ(Expr("min(rank, node)").eval(ctx), 2);
  EXPECT_EQ(Expr("ceil_div(rank, node)").eval(ctx), 3);
  EXPECT_EQ(Expr("7 / 2").eval(ctx), 3);  // truncating division
  EXPECT_EQ(Expr("-7 / 2").eval(ctx), -3);
  EXPECT_EQ(Expr("rank == 5 && node < 3").eval(ctx), 1);
  EXPECT_EQ(Expr("rank != 5 || node >= 9").eval(ctx), 0);
}

TEST(PatternExpr, SizeOfExpandsTemplateAndAsksProvider) {
  Env env;
  env.set("rank", 3);
  EvalContext ctx{&env, [](const std::string& path) -> std::int64_t {
                    EXPECT_EQ(path, "/p/x/3.ckpt");
                    return 4096;
                  }};
  EXPECT_EQ(Expr("size_of(\"/p/x/{rank}.ckpt\") / 1024").eval(ctx), 4);
  EXPECT_EQ(PathTemplate("/p/x/{rank + 1}.out").expand(ctx), "/p/x/4.out");
}

// A malformed size_of() template still parses; the template's diagnostic
// surfaces when the expression is evaluated.
TEST(PatternExpr, MalformedSizeOfTemplateThrowsWhenEvaluated) {
  Env env;
  EvalContext ctx{&env, [](const std::string&) -> std::int64_t { return 1; }};
  const Expr e("size_of(\"/p/{\")");
  try {
    (void)e.eval(ctx);
    ADD_FAILURE() << "evaluated a size_of() with an unmatched '{'";
  } catch (const util::SimError& err) {
    EXPECT_NE(std::string(err.what()).find("unmatched '{' in path template"),
              std::string::npos)
        << err.what();
  }
}

TEST(PatternExpr, RejectsMalformedSource) {
  EXPECT_THROW(Expr("1 +"), util::SimError);
  EXPECT_THROW(Expr("max(1)"), util::SimError);
  EXPECT_THROW(Expr("(2 * 3"), util::SimError);
  EXPECT_THROW(Expr("size_of(rank)"), util::SimError);
}

TEST(PatternExpr, EvalErrorsAreDiagnosed) {
  Env env;
  EvalContext ctx{&env, nullptr};
  EXPECT_THROW(Expr("bogus_var + 1").eval(ctx), util::SimError);
  EXPECT_THROW(Expr("1 / 0").eval(ctx), util::SimError);
  EXPECT_THROW(Expr().eval(ctx), util::SimError);
  // size_of without a provider.
  EXPECT_THROW(Expr("size_of(\"/p/x\")").eval(ctx), util::SimError);
}

// Every workload compiler's output must survive the YAML round trip
// byte-identically: dump -> load -> dump reproduces the first dump.
TEST(PatternYaml, CompiledPatternsRoundTripByteIdentical) {
  auto spec = cluster::lassen(4);
  spec.node.cpu_cores = 8;
  for (const auto& entry : workloads::paper_workloads()) {
    SCOPED_TRACE(entry.id);
    runtime::Simulation sim(spec);
    auto w = entry.make_test();
    ASSERT_TRUE(static_cast<bool>(w.compile));
    const auto pat = w.compile(sim, advisor::RunConfig{});
    EXPECT_EQ(pat.name, entry.id);
    const std::string once = to_yaml(pat);
    const JobPattern loaded = pattern_from_yaml(once);
    EXPECT_EQ(to_yaml(loaded), once);
  }
}

TEST(PatternYaml, RoundTripPreservesStructure) {
  runtime::Simulation sim(cluster::lassen(2));
  auto w = workloads::make_montage_pegasus(
      workloads::MontagePegasusParams::test());
  const auto pat = w.compile(sim, advisor::RunConfig{});
  const JobPattern loaded = pattern_from_yaml(to_yaml(pat));
  EXPECT_EQ(loaded.name, pat.name);
  EXPECT_EQ(loaded.apps, pat.apps);
  EXPECT_EQ(loaded.comms.size(), pat.comms.size());
  EXPECT_EQ(loaded.groups.size(), pat.groups.size());
  ASSERT_EQ(loaded.dag.stages.size(), pat.dag.stages.size());
  for (std::size_t i = 0; i < pat.dag.stages.size(); ++i) {
    EXPECT_EQ(loaded.dag.stages[i].app, pat.dag.stages[i].app);
    EXPECT_EQ(loaded.dag.stages[i].count, pat.dag.stages[i].count);
    EXPECT_EQ(loaded.dag.stages[i].deps.size(),
              pat.dag.stages[i].deps.size());
  }
}

TEST(PatternYaml, MalformedInputsThrowDiagnostics) {
  // Root must be a map.
  EXPECT_THROW(pattern_from_yaml("- 1\n- 2\n"), util::SimError);
  // Unknown op kind.
  EXPECT_THROW(pattern_from_yaml("name: x\n"
                                 "groups:\n"
                                 "  - comm: world\n"
                                 "    phases:\n"
                                 "      - app: a\n"
                                 "        ops:\n"
                                 "          - op: frobnicate\n"),
               util::SimError);
  // Group without a communicator.
  EXPECT_THROW(pattern_from_yaml("name: x\ngroups:\n  - rng_seed: 1\n"),
               util::SimError);
  // Non-integer where an integer is required.
  EXPECT_THROW(pattern_from_yaml("name: x\n"
                                 "comms:\n"
                                 "  - name: world\n"
                                 "    procs: many\n"),
               util::SimError);
  // Broken expression inside an op field.
  EXPECT_THROW(pattern_from_yaml("name: x\n"
                                 "groups:\n"
                                 "  - comm: world\n"
                                 "    phases:\n"
                                 "      - app: a\n"
                                 "        ops:\n"
                                 "          - op: pread\n"
                                 "            handle: f\n"
                                 "            size: \"1 +\"\n"),
               util::SimError);
  try {
    pattern_from_yaml("name: x\ngroups:\n  - rng_seed: 1\n");
    FAIL() << "expected SimError";
  } catch (const util::SimError& e) {
    EXPECT_NE(std::string(e.what()).find("comm"), std::string::npos);
  }
}

// A handle keeps the layer it was opened on. mShrink's STDIO handle `in`,
// opened as POSIX instead (a pattern file with that open's `layer: stdio`
// line deleted), is diagnosed at its first STDIO read.
TEST(PatternReplay, HandleUsedOnAnotherLayerIsDiagnosed) {
  auto spec = cluster::lassen(4);
  spec.node.cpu_cores = 8;
  runtime::Simulation sim(spec);
  auto w = workloads::make_montage_mpi(workloads::MontageMpiParams::test());
  JobPattern pat = w.compile(sim, advisor::RunConfig{});
  Op* open = nullptr;
  for (PhasePattern& ph : pat.groups.at(0).phases) {
    if (ph.app == "mShrink") open = &ph.ops.at(0);
  }
  ASSERT_NE(open, nullptr);
  ASSERT_EQ(open->kind, OpKind::kOpen);
  ASSERT_EQ(open->handle, "in");
  ASSERT_EQ(open->layer, Layer::kStdio);
  open->layer = Layer::kPosix;
  w.compile = [pat](runtime::Simulation&, const advisor::RunConfig&) {
    return pat;
  };
  try {
    workloads::run_with(sim, w, advisor::RunConfig{},
                        analysis::Analyzer::Options{});
    FAIL() << "expected SimError";
  } catch (const util::SimError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "handle 'in' used on a layer it was not opened on"),
              std::string::npos)
        << e.what();
  }
}

// Names bind once per replay, but an undeclared one is still diagnosed
// only when (and if) the op using it runs.
TEST(PatternReplay, UndeclaredNamesFailWhenTheirOpRuns) {
  auto run = [](const char* guard, Op op) {
    runtime::Simulation sim(cluster::tiny(1));
    JobPattern pat;
    pat.name = "undeclared";
    pat.apps = {"a"};
    pat.comms.push_back({"world", 1, 1, false});
    LaneGroup g;
    g.comm = "world";
    PhasePattern ph;
    ph.app = "a";
    std::vector<Op> body;
    body.push_back(std::move(op));
    ph.ops.push_back(ops::when(Expr(guard), std::move(body)));
    g.phases.push_back(std::move(ph));
    pat.groups.push_back(std::move(g));
    replay(sim, pat);
    sim.engine().run();
  };
  const std::pair<Op, const char*> cases[] = {
      {ops::signal("nope"), "event 'nope' is not declared"},
      {ops::wait_event("nope"), "event 'nope' is not declared"},
      {ops::allreduce("nowhere", Expr::lit(8)),
       "comm 'nowhere' is not declared"},
      {ops::stat("/p/{"), "unmatched '{' in path template"},
  };
  for (const auto& [op, diagnosis] : cases) {
    SCOPED_TRACE(diagnosis);
    EXPECT_NO_THROW(run("0", op));
    try {
      run("1", op);
      ADD_FAILURE() << "expected SimError";
    } catch (const util::SimError& e) {
      EXPECT_NE(std::string(e.what()).find(diagnosis), std::string::npos)
          << e.what();
    }
  }
}

// Record::app is 16 bits: a pattern naming more apps than that must fail
// loudly instead of wrapping ids and charging records to the wrong app.
TEST(PatternReplay, MoreAppsThanTraceIdsIsDiagnosed) {
  runtime::Simulation sim(cluster::tiny(1));
  JobPattern pat;
  pat.name = "many-apps";
  for (int i = 0; i < 65537; ++i) {
    pat.apps.push_back("app" + std::to_string(i));
  }
  try {
    replay(sim, pat);
    FAIL() << "expected SimError";
  } catch (const util::SimError& e) {
    EXPECT_NE(std::string(e.what()).find("65536"), std::string::npos)
        << e.what();
  }
}

TEST(PatternEnums, RoundTripAndRejectUnknown) {
  for (auto k : {OpKind::kGroup, OpKind::kOpen, OpKind::kReadScattered,
                 OpKind::kPacedRead, OpKind::kSpawn}) {
    EXPECT_EQ(op_kind_from(to_string(k)), k);
  }
  for (auto l : {Layer::kPosix, Layer::kStdio, Layer::kHdf5,
                 Layer::kCompressed}) {
    EXPECT_EQ(layer_from(to_string(l)), l);
  }
  EXPECT_THROW(op_kind_from("nope"), util::SimError);
  EXPECT_THROW(layer_from("nope"), util::SimError);
  EXPECT_THROW(open_mode_from("nope"), util::SimError);
}

}  // namespace
}  // namespace wasp::pattern
