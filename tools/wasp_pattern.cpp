// wasp_pattern — dump, replay, and mutate the declarative I/O-pattern IR.
//
//   wasp_pattern dump   <workload|pattern.yaml> [options]
//   wasp_pattern replay <workload|pattern.yaml> [options]
//   wasp_pattern whatif <workload|pattern.yaml> <rewrites...> [options]
//
// `dump` compiles a registry workload (or re-parses a dumped file) and
// prints the pattern YAML. `replay` drives the pattern through the generic
// replayer and prints the characterization, exactly as wasp_run would for
// the registry workload. `whatif` applies §IV-D rewrites as pure IR -> IR
// transforms, then replays baseline and variant and reports the delta.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "advisor/pattern_rewrites.hpp"
#include "sim/faults.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"
#include "workloads/registry.hpp"

using namespace wasp;

namespace {

void usage() {
  std::cerr
      << "usage: wasp_pattern <dump|replay|whatif> <workload|file.yaml>"
         " [options]\n"
         "  common options:\n"
         "    --test-scale       use the reduced test-scale parameters\n"
         "    --nodes N          cluster size (default 32)\n"
         "    --faults SPEC      deterministic fault schedule for the\n"
         "                       replay (also serialized by dump)\n"
         "    --out FILE         write the pattern YAML here (dump/whatif)\n"
         "    --yaml FILE        write the characterization YAML here\n"
         "  whatif rewrites (applied in order given):\n"
         "    --transfer SIZE    rescale constant transfers (e.g. 16MB)\n"
         "    --interface LAYER  posix|stdio for plain open/IO chains\n"
         "    --stdio-buffer SIZE  setvbuf size for stdio lanes\n"
         "    --hdf5-chunk SIZE  HDF5 dataset chunk size (0 = off)\n"
         "    --redirect FROM TO rewrite path prefixes (shm staging)\n"
         "    --preload MOUNT    stage inputs into the node-local tier\n"
         "                       mounted at MOUNT (e.g. /dev/shm)\n"
         "    --dump             print the rewritten pattern, don't replay\n"
         "  workloads: ";
  for (const auto& e : workloads::paper_workloads()) {
    std::cerr << e.id << " ";
  }
  std::cerr << "\n";
}

[[noreturn]] void die(const std::string& msg) {
  std::cerr << "wasp_pattern: " << msg << "\n";
  std::exit(2);
}

util::Bytes bytes_arg(const std::string& text) {
  // Accept both plain byte counts and the tables' "16MB" format.
  if (auto b = util::parse_bytes(text)) return *b;
  if (auto n = util::parse_uint(text)) return static_cast<util::Bytes>(*n);
  die("bad size: " + text);
}

struct PatternSource {
  std::string yaml_text;    ///< non-empty when loaded from a file
  int registry_index = -1;  ///< >= 0 when naming a registry workload
};

PatternSource resolve_source(const std::string& spec) {
  PatternSource src;
  src.registry_index = workloads::find_workload(spec);
  if (src.registry_index >= 0) return src;
  std::ifstream is(spec);
  if (!is) die("not a workload id or readable file: " + spec);
  std::ostringstream buf;
  buf << is.rdbuf();
  src.yaml_text = buf.str();
  return src;
}

/// Compile or parse the pattern. File-loaded patterns still need a live
/// Simulation only for replay, not for parsing.
pattern::JobPattern make_pattern(const PatternSource& src,
                                 runtime::Simulation& sim,
                                 const workloads::Workload& w,
                                 const advisor::RunConfig& cfg) {
  if (!src.yaml_text.empty()) return pattern::pattern_from_yaml(src.yaml_text);
  WASP_CHECK_MSG(static_cast<bool>(w.compile),
                 "workload has no pattern compiler");
  return w.compile(sim, cfg);
}

/// The registry workload whose setup/decl frame the replay: the one named
/// on the command line, or — for file-loaded patterns — the one whose id
/// matches the pattern's name.
workloads::RegistryEntry frame_entry(const PatternSource& src,
                                     const pattern::JobPattern* pat) {
  int index = src.registry_index;
  if (index < 0 && pat) index = workloads::find_workload(pat->name);
  if (index < 0) {
    die("pattern names no registry workload (name: " +
        (pat ? pat->name : std::string("?")) + ")");
  }
  return workloads::paper_workloads()[static_cast<std::size_t>(index)];
}

workloads::RunOutput replay_pattern(const pattern::JobPattern& pat,
                                    const workloads::Workload& frame,
                                    int nodes) {
  workloads::Workload w = frame;
  w.compile = [&pat](runtime::Simulation&, const advisor::RunConfig&) {
    return pat;
  };
  runtime::Simulation sim(cluster::lassen(nodes));
  return workloads::run_with(sim, w, advisor::RunConfig{},
                             analysis::Analyzer::Options{});
}

void emit(const std::string& text, const std::string& path,
          const char* what) {
  if (path.empty()) {
    std::cout << text;
  } else {
    std::ofstream os(path);
    os << text;
    std::cerr << what << " written to " << path << "\n";
  }
}

void report(const char* tag, const workloads::RunOutput& out) {
  std::cerr << tag << ": job " << util::format_seconds(out.job_seconds)
            << ", I/O " << util::format_bytes(out.profile.totals.io_bytes())
            << ", io-time "
            << util::format_seconds(out.profile.io_time_fraction *
                                    out.job_seconds)
            << ", " << out.profile.files.size() << " files\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  if (command != "dump" && command != "replay" && command != "whatif") {
    usage();
    return 2;
  }

  int nodes = 32;
  bool test_scale = false;
  bool dump_only = false;
  std::string out_file;
  std::string yaml_file;
  sim::FaultPlan faults;
  // Rewrites are queued and applied in command-line order.
  std::vector<std::function<void(pattern::JobPattern&)>> rewrites;

  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--nodes") {
      nodes = static_cast<int>(util::cli_int(arg, next(), &usage));
    } else if (arg == "--faults") {
      try {
        faults = sim::FaultPlan::parse(next());
      } catch (const util::SimError& e) {
        die(e.what());
      }
    } else if (arg == "--test-scale") {
      test_scale = true;
    } else if (arg == "--out") {
      out_file = next();
    } else if (arg == "--yaml") {
      yaml_file = next();
    } else if (arg == "--dump") {
      dump_only = true;
    } else if (arg == "--transfer") {
      const auto size = bytes_arg(next());
      rewrites.push_back([size](pattern::JobPattern& p) {
        std::cerr << "rewrite: transfer -> " << util::format_bytes(size)
                  << " (" << advisor::set_transfer_size(p, size)
                  << " ops)\n";
      });
    } else if (arg == "--interface") {
      const auto layer = pattern::layer_from(next());
      rewrites.push_back([layer](pattern::JobPattern& p) {
        std::cerr << "rewrite: interface -> " << pattern::to_string(layer)
                  << " (" << advisor::set_interface(p, layer) << " ops)\n";
      });
    } else if (arg == "--stdio-buffer") {
      const auto size = bytes_arg(next());
      rewrites.push_back([size](pattern::JobPattern& p) {
        advisor::set_stdio_buffer(p, size);
      });
    } else if (arg == "--hdf5-chunk") {
      const auto size = bytes_arg(next());
      rewrites.push_back([size](pattern::JobPattern& p) {
        advisor::set_hdf5_chunking(p, size);
      });
    } else if (arg == "--redirect") {
      const std::string from = next();
      const std::string to = next();
      rewrites.push_back([from, to](pattern::JobPattern& p) {
        advisor::redirect_prefix(p, from, to);
      });
    } else if (arg == "--preload") {
      const std::string mount = next();
      rewrites.push_back([mount](pattern::JobPattern& p) {
        advisor::PreloadSpec spec;
        if (!advisor::preload_spec_from_meta(p, mount, &spec)) {
          die("pattern carries no preload metadata");
        }
        advisor::apply_preload(p, spec);
      });
    } else {
      die("unknown option: " + arg);
    }
  }
  if (command != "whatif" && (!rewrites.empty() || dump_only)) {
    die("rewrite options are only valid with the whatif command");
  }

  try {
    const PatternSource src = resolve_source(argv[2]);
    // A throwaway Simulation gives compilers their mount table; replays
    // always run on a fresh one.
    runtime::Simulation compile_sim(cluster::lassen(nodes));
    workloads::Workload frame;
    pattern::JobPattern pat;
    if (src.registry_index >= 0) {
      const auto entry = frame_entry(src, nullptr);
      frame = test_scale ? entry.make_test() : entry.make_paper();
      pat = make_pattern(src, compile_sim, frame, advisor::RunConfig{});
    } else {
      pat = pattern::pattern_from_yaml(src.yaml_text);
      const auto entry = frame_entry(src, &pat);
      frame = test_scale ? entry.make_test() : entry.make_paper();
    }
    // --faults overrides any plan the pattern already carries; dump then
    // serializes it, and replay installs it (replay() honors pat.faults).
    if (faults.enabled()) pat.faults = faults;

    if (command == "dump") {
      emit(pattern::to_yaml(pat), out_file, "pattern");
      return 0;
    }

    if (command == "replay") {
      auto out = replay_pattern(pat, frame, nodes);
      report("replay", out);
      emit(out.characterization.to_yaml(), yaml_file, "characterization");
      return 0;
    }

    // whatif: keep the baseline, rewrite a copy, compare.
    pattern::JobPattern variant = pat;
    for (const auto& rw : rewrites) rw(variant);
    if (dump_only) {
      emit(pattern::to_yaml(variant), out_file, "pattern");
      return 0;
    }
    auto base = replay_pattern(pat, frame, nodes);
    auto what = replay_pattern(variant, frame, nodes);
    report("baseline", base);
    report("what-if ", what);
    const double speedup =
        what.job_seconds > 0 ? base.job_seconds / what.job_seconds : 0.0;
    std::cerr << "speedup: " << speedup << "x\n";
    emit(what.characterization.to_yaml(), yaml_file, "characterization");
    return 0;
  } catch (const util::SimError& e) {
    std::cerr << "wasp_pattern: " << e.what() << "\n";
    return 1;
  }
}
