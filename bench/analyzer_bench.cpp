// analyzer_bench — map-step throughput of the analyzer: batched columnar
// kernels vs the scalar reference row loop, on either store backend.
//
// Generates a synthetic trace (every interface/op, file-less rows — the
// same generator the store tests use), stable-sorts it by end time as a
// tracer writes it, analyzes it with both scan paths, and reports rows/sec
// per pipeline pass from the telemetry counter deltas (analyze.scan_ns
// etc.), plus the kernel-vs-reference scan speedup. The scan also bins the
// timeline; the resolve line times the file reduce (merge, path and size
// resolution, sharing counts, app edges), and the unions and phases lines
// the merges of the chunks' union segments and phase clusters. In end-time
// order no row takes the segment and cluster stacks' sort-and-sweep
// fallback, as in a traced or logged trace.
//
//   analyzer_bench [--rows N] [--repeat N] [--jobs N] [--chunk-rows N]
//                  [--backend memory|spill] [--spill-dir DIR]
//
// Registered as the `ctest -L perf` smoke test with a small --rows so a
// throughput regression (or a broken kernel) shows up in CI wall-clock.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/spill_store.hpp"
#include "obs/obs.hpp"
#include "trace/synthetic.hpp"
#include "util/parse.hpp"

namespace {

struct Args {
  std::size_t rows = 2'000'000;
  int repeat = 3;
  int jobs = 0;
  std::size_t chunk_rows = 65536;
  std::string backend = "memory";
  std::string spill_dir;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: analyzer_bench [--rows N] [--repeat N] [--jobs N]\n"
               "                      [--chunk-rows N] "
               "[--backend memory|spill] [--spill-dir DIR]\n");
  std::exit(2);
}

/// Per-pass nanoseconds of one analyze() call, from the registry delta.
struct PassTimes {
  std::uint64_t total = 0;
  std::uint64_t scan = 0;
  std::uint64_t merge = 0;
  std::uint64_t resolve = 0;
  std::uint64_t unions = 0;
  std::uint64_t phases = 0;
};

double rows_per_sec(std::size_t rows, std::uint64_t ns) {
  return ns == 0 ? 0.0
                 : static_cast<double>(rows) * 1e9 / static_cast<double>(ns);
}

PassTimes run_once(const wasp::analysis::TraceInput& input, const Args& a,
                   bool reference) {
  wasp::analysis::Analyzer::Options opts;
  opts.jobs = a.jobs;
  opts.chunk_rows = a.chunk_rows;
  opts.reference_scan = reference;
  const wasp::obs::Snapshot before =
      wasp::obs::Registry::instance().snapshot();
  const auto profile = wasp::analysis::Analyzer(opts).analyze(input);
  // Keep the profile alive past the snapshot so its teardown isn't timed.
  const wasp::obs::Snapshot d =
      wasp::obs::Registry::instance().snapshot().delta(before);
  if (profile.num_procs < 0) std::abort();  // defeat over-eager DCE
  PassTimes t;
  t.total = d.value("analyze.ns");
  t.scan = d.value("analyze.scan_ns");
  t.merge = d.value("analyze.merge_ns");
  t.resolve = d.value("analyze.resolve_ns");
  t.unions = d.value("analyze.unions_ns");
  t.phases = d.value("analyze.phases_ns");
  return t;
}

/// Best-of-N (minimum ns per pass, independently — each pass's best run).
PassTimes run_best(const wasp::analysis::TraceInput& input, const Args& a,
                   bool reference) {
  PassTimes best = run_once(input, a, reference);
  for (int r = 1; r < a.repeat; ++r) {
    const PassTimes t = run_once(input, a, reference);
    best.total = std::min(best.total, t.total);
    best.scan = std::min(best.scan, t.scan);
    best.merge = std::min(best.merge, t.merge);
    best.resolve = std::min(best.resolve, t.resolve);
    best.unions = std::min(best.unions, t.unions);
    best.phases = std::min(best.phases, t.phases);
  }
  return best;
}

void report(const char* label, std::size_t rows, const PassTimes& t) {
  std::printf("%s:\n", label);
  const auto line = [rows](const char* pass, std::uint64_t ns) {
    std::printf("  %-22s %10.3f ms   %12.0f rows/sec\n", pass,
                static_cast<double>(ns) / 1e6, rows_per_sec(rows, ns));
  };
  line("scan", t.scan);
  line("merge", t.merge);
  line("resolve", t.resolve);
  line("unions (segment merge)", t.unions);
  line("phases (cluster merge)", t.phases);
  line("total", t.total);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--rows") {
      a.rows = static_cast<std::size_t>(
          wasp::util::cli_uint(arg, value(), &usage));
    } else if (arg == "--repeat") {
      a.repeat = static_cast<int>(wasp::util::cli_int(arg, value(), &usage));
    } else if (arg == "--jobs") {
      a.jobs = static_cast<int>(wasp::util::cli_int(arg, value(), &usage));
    } else if (arg == "--chunk-rows") {
      a.chunk_rows = static_cast<std::size_t>(
          wasp::util::cli_uint(arg, value(), &usage));
    } else if (arg == "--backend") {
      a.backend = value();
    } else if (arg == "--spill-dir") {
      a.spill_dir = value();
    } else {
      usage();
    }
  }
  if (a.rows == 0 || a.repeat < 1 ||
      (a.backend != "memory" && a.backend != "spill")) {
    usage();
  }
  wasp::obs::Registry::set_timing_enabled(true);

  wasp::trace::SyntheticOpts gen;
  gen.ifaces = 7;  // include CPU/GPU/MPI spans
  gen.ops = 14;
  gen.files_per_invalid = 5;
  auto records = wasp::trace::synthetic_records(a.rows, gen);
  std::stable_sort(records.begin(), records.end(),
                   [](const wasp::trace::Record& x,
                      const wasp::trace::Record& y) { return x.tend < y.tend; });

  std::unique_ptr<wasp::analysis::TraceStore> store;
  if (a.backend == "spill") {
    const std::string dir =
        a.spill_dir.empty()
            ? (std::filesystem::temp_directory_path() / "analyzer_bench.spill")
                  .string()
            : a.spill_dir;
    auto spill = std::make_unique<wasp::analysis::SpillColumnStore>(
        wasp::analysis::SpillColumnStore::Options{.dir = dir});
    spill->append(records);
    spill->finalize();
    store = std::move(spill);
  } else {
    auto memory = std::make_unique<wasp::analysis::ColumnStore>();
    for (const wasp::trace::Record& r : records) memory->push_back(r);
    store = std::move(memory);
  }

  wasp::analysis::TraceInput input;
  input.store = store.get();
  input.app_names = {"a0", "a1", "a2", "a3", "a4"};
  input.path_at = [](std::size_t i) { return "/f/" + std::to_string(i); };
  input.size_at = [](std::size_t i) -> wasp::fs::Bytes { return i + 1; };
  input.fs_shared = [](std::int16_t f) { return f == 0; };

  std::printf(
      "analyzer_bench: rows=%zu backend=%s jobs=%d chunk_rows=%zu "
      "repeat=%d (best-of)\n",
      a.rows, a.backend.c_str(), a.jobs, a.chunk_rows, a.repeat);
  const PassTimes ref = run_best(input, a, /*reference=*/true);
  const PassTimes ker = run_best(input, a, /*reference=*/false);
  report("reference (scalar row loop)", a.rows, ref);
  report("kernels (batched columnar)", a.rows, ker);
  if (ker.scan > 0) {
    std::printf("scan speedup: %.2fx   end-to-end speedup: %.2fx\n",
                static_cast<double>(ref.scan) / static_cast<double>(ker.scan),
                static_cast<double>(ref.total) /
                    static_cast<double>(ker.total));
  }
  return 0;
}
