// wasp_run — run an exemplar workload on the simulated cluster, write its
// Recorder-style trace log, characterization YAML, and advisor report.
//
//   wasp_run <workload> [--nodes N] [--optimized] [--trace out.wtrc]
//            [--yaml out.yaml] [--csv out.csv] [--test-scale] [--jobs N]
//            [--faults SPEC] [--trace-out out.trace.json]
//            [--report out.manifest.json]
//
// <workload> is a registry id; `wasp_run --list` prints them all.
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>

#include "advisor/rules.hpp"
#include "sim/faults.hpp"
#include "telemetry_cli.hpp"
#include "trace/log_io.hpp"
#include "util/parallel.hpp"
#include "util/parse.hpp"
#include "workloads/registry.hpp"

using namespace wasp;

namespace {

void list_workloads(std::ostream& os) {
  os << "available workloads:\n";
  for (const auto& e : workloads::paper_workloads()) {
    os << "  " << e.id << "  (" << e.name << ")\n";
  }
}

void usage() {
  std::cerr
      << "usage: wasp_run <workload> [options]\n"
         "  --list          print the registered workload ids and exit\n"
         "  --nodes N       cluster size (default 32)\n"
         "  --optimized     apply the advisor's recommendations and re-run\n"
         "  --test-scale    use the reduced test-scale parameters\n"
         "  --trace FILE    write the Recorder-style binary trace log\n"
         "  --csv FILE      write the trace as CSV\n"
         "  --yaml FILE     write the characterization YAML"
         " (default: stdout)\n"
         "  --jobs N        worker threads for the analysis pipeline\n"
         "  --faults SPEC   deterministic fault schedule, e.g.\n"
         "                  'seed=7; pfs: eio=0.01, slow=0.05, spike=20ms'\n"
         "  --trace-out F   write pipeline spans as Chrome trace-event"
         " JSON\n"
         "  --report F      write the run-manifest digest JSON\n";
  list_workloads(std::cerr);
}

/// Checked file sink for --yaml/--csv: a full disk or bad path is diagnosed
/// here instead of silently producing an empty or truncated file.
void write_file_or_die(const std::string& path, const std::string& what,
                       const std::function<void(std::ostream&)>& emit) {
  std::ofstream os(path);
  if (!os.good()) {
    std::cerr << "wasp_run: cannot open " << what << " for write: " << path
              << "\n";
    std::exit(1);
  }
  emit(os);
  os.flush();
  if (!os.good()) {
    std::cerr << "wasp_run: short write to " << what << ": " << path << "\n";
    std::exit(1);
  }
}

/// The stderr line is rendered from the injector's registry-backed cells,
/// so it always matches the faults.* counters in --report.
void print_fault_stats(const sim::FaultInjector& inj) {
  const auto st = inj.stats();
  std::cerr << "faults: " << st.io_errors << " EIO, " << st.enospc_errors
            << " ENOSPC, " << st.meta_errors << " metadata errors, "
            << st.spikes << " latency spikes ("
            << util::format_seconds(static_cast<double>(st.spike_ns) / 1e9)
            << "), " << st.retries << " retries, " << st.exhausted
            << " ops exhausted retry budget\n";
}

int run_main(int argc, char** argv) {
  const auto wall_t0 = std::chrono::steady_clock::now();
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string name = argv[1];
  if (name == "--list") {
    list_workloads(std::cout);
    return 0;
  }
  const int index = workloads::find_workload(name);
  if (index < 0) {
    std::cerr << "unknown workload: " << name << "\n";
    list_workloads(std::cerr);
    return 2;
  }

  int nodes = 32;
  bool optimized = false;
  bool test_scale = false;
  std::string trace_out;
  std::string csv_out;
  std::string yaml_out;
  std::string spans_out;
  std::string report_out;
  advisor::RunConfig cfg;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--nodes") {
      nodes = static_cast<int>(util::cli_int(arg, next(), &usage));
    } else if (arg == "--optimized") {
      optimized = true;
    } else if (arg == "--test-scale") {
      test_scale = true;
    } else if (arg == "--trace") {
      trace_out = next();
    } else if (arg == "--csv") {
      csv_out = next();
    } else if (arg == "--yaml") {
      yaml_out = next();
    } else if (arg == "--jobs") {
      util::set_default_jobs(static_cast<int>(util::cli_int(arg, next(),
                                                            &usage)));
    } else if (arg == "--faults") {
      const std::string spec = next();
      try {
        cfg.faults = sim::FaultPlan::parse(spec);
      } catch (const util::SimError& e) {
        std::cerr << "wasp_run: " << e.what() << "\n";
        usage();
        return 2;
      }
    } else if (arg == "--trace-out") {
      spans_out = next();
    } else if (arg == "--report") {
      report_out = next();
    } else {
      usage();
      return 2;
    }
  }
  toolcli::enable_telemetry(spans_out, report_out);

  const auto entry =
      workloads::paper_workloads()[static_cast<std::size_t>(index)];
  auto workload = test_scale ? entry.make_test() : entry.make_paper();

  std::cerr << "running " << entry.name << " on " << nodes << " nodes...\n";
  runtime::Simulation sim(cluster::lassen(nodes));
  auto out = workloads::run_with(sim, workload, cfg,
                                 analysis::Analyzer::Options{});
  if (sim.faults() != nullptr) print_fault_stats(*sim.faults());

  if (optimized) {
    std::cerr << "advisor:\n"
              << advisor::RuleEngine::report(out.recommendations);
    auto opt_cfg = advisor::RuleEngine::configure(out.recommendations);
    // The advisor never tunes the fault schedule: the optimized re-run must
    // face the same faults the baseline did, or the comparison is apples
    // to oranges.
    opt_cfg.faults = cfg.faults;
    std::cerr << "re-running optimized...\n";
    runtime::Simulation sim2(cluster::lassen(nodes));
    auto opt = workloads::run_with(sim2, workload, opt_cfg,
                                   analysis::Analyzer::Options{});
    if (sim2.faults() != nullptr) print_fault_stats(*sim2.faults());
    std::cerr << "baseline  I/O time: "
              << util::format_seconds(out.profile.io_time_fraction *
                                      out.job_seconds)
              << "\noptimized I/O time: "
              << util::format_seconds(opt.profile.io_time_fraction *
                                      opt.job_seconds)
              << "\n";
    if (!trace_out.empty()) trace::write_log(trace_out, sim2.tracer());
    if (!csv_out.empty()) {
      write_file_or_die(csv_out, "CSV trace", [&](std::ostream& os) {
        trace::write_csv(os, sim2.tracer());
      });
    }
    out = std::move(opt);
  } else {
    if (!trace_out.empty()) trace::write_log(trace_out, sim.tracer());
    if (!csv_out.empty()) {
      write_file_or_die(csv_out, "CSV trace", [&](std::ostream& os) {
        trace::write_csv(os, sim.tracer());
      });
    }
  }

  std::cerr << "job " << util::format_seconds(out.job_seconds) << ", "
            << util::format_bytes(out.profile.totals.io_bytes()) << " I/O, "
            << out.profile.files.size() << " files\n";

  const std::string yaml = out.characterization.to_yaml();
  if (yaml_out.empty()) {
    std::cout << yaml;
  } else {
    write_file_or_die(yaml_out, "characterization YAML",
                      [&](std::ostream& os) { os << yaml; });
    std::cerr << "characterization written to " << yaml_out << "\n";
  }
  toolcli::write_trace(spans_out);
  toolcli::write_report(report_out, "wasp_run", util::default_jobs(), "memory",
                        wall_t0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const util::SimError& e) {
    std::cerr << "wasp_run: " << e.what() << "\n";
    return 1;
  }
}
