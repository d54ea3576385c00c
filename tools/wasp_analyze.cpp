// wasp_analyze — the offline Vani Analyzer: read a Recorder-style trace log
// produced by wasp_run (or trace::write_log) and print the workload profile
// summary; optionally emit figure-style panels.
//
//   wasp_analyze <trace.wtrc> [--phases] [--files N] [--hist] [--jobs N]
//                [--backend memory|spill] [--spill-dir DIR]
//                [--chunk-rows N] [--max-resident-chunks N]
//                [--stats] [--trace-out out.trace.json]
//                [--report out.manifest.json]
//
// The log streams into an in-memory ColumnStore, or with --backend spill
// into a SpillColumnStore (compressed WSPCHK02 chunk files + bounded LRU +
// sequential prefetch) that never holds it whole; the profile output is
// byte-identical across backends. --stats appends the backend's IoStats:
// cache behavior, prefetch hit rate, and per-column compression ratios. A
// log that cannot be read is diagnosed on stderr with exit status 1.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>

#include "analysis/analyzer.hpp"
#include "analysis/spill_store.hpp"
#include "telemetry_cli.hpp"
#include "trace/log_io.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

using namespace wasp;

namespace {

void print_io_stats(const analysis::IoStats& io) {
  std::cout << "\nspill backend I/O:\n"
            << "  chunk loads:    " << io.chunk_loads << " ("
            << io.cache_hits << " cache hits, "
            << util::format_percent(io.hit_rate()) << " hit rate)\n"
            << "  evictions:      " << io.evictions << "\n"
            << "  prefetch:       " << io.prefetch_issued << " issued, "
            << io.prefetch_hits << " hits ("
            << util::format_percent(io.prefetch_hit_rate())
            << " hit rate), " << io.prefetch_wasted << " wasted\n"
            << "  chunk bytes:    " << util::format_bytes(io.bytes_written)
            << " written, " << util::format_bytes(io.bytes_read)
            << " read back\n"
            << "  compression:    " << util::format_bytes(io.raw_bytes)
            << " raw -> " << util::format_bytes(io.bytes_written)
            << " on disk ("
            << util::format_percent(io.compressed_ratio()) << " of raw)\n";
  if (!io.columns.empty()) {
    util::TablePrinter cols("per-column compression");
    cols.set_header({"column", "raw", "stored", "ratio"});
    for (const auto& c : io.columns) {
      cols.add_row({c.name, util::format_bytes(c.raw_bytes),
                    util::format_bytes(c.stored_bytes),
                    util::format_percent(
                        c.raw_bytes == 0
                            ? 1.0
                            : static_cast<double>(c.stored_bytes) /
                                  static_cast<double>(c.raw_bytes))});
    }
    cols.print(std::cout);
  }
}

void usage() {
  std::cerr << "usage: wasp_analyze <trace.wtrc> [--phases] [--files N]"
               " [--hist] [--jobs N] [--backend memory|spill]"
               " [--spill-dir DIR] [--chunk-rows N]"
               " [--max-resident-chunks N] [--stats]"
               " [--trace-out FILE] [--report FILE]\n";
}

int run_main(int argc, char** argv) {
  const auto wall_t0 = std::chrono::steady_clock::now();
  if (argc < 2) {
    usage();
    return 2;
  }
  bool show_phases = false;
  bool show_hist = false;
  bool show_stats = false;
  std::size_t show_files = 0;
  std::string backend = "memory";
  std::string spill_dir;
  std::string spans_out;
  std::string report_out;
  std::size_t chunk_rows = 65536;
  std::size_t max_resident = 8;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--phases") {
      show_phases = true;
    } else if (arg == "--hist") {
      show_hist = true;
    } else if (arg == "--stats") {
      show_stats = true;
    } else if (arg == "--files") {
      show_files =
          static_cast<std::size_t>(util::cli_uint(arg, next(), &usage));
    } else if (arg == "--jobs") {
      util::set_default_jobs(
          static_cast<int>(util::cli_int(arg, next(), &usage)));
    } else if (arg == "--backend") {
      backend = next();
    } else if (arg == "--spill-dir") {
      spill_dir = next();
    } else if (arg == "--chunk-rows") {
      chunk_rows =
          static_cast<std::size_t>(util::cli_uint(arg, next(), &usage));
    } else if (arg == "--max-resident-chunks") {
      max_resident =
          static_cast<std::size_t>(util::cli_uint(arg, next(), &usage));
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
  if (backend != "memory" && backend != "spill") {
    std::cerr << "unknown --backend (want memory|spill): " << backend << "\n";
    return 2;
  }

  // The two backends differ only in the store the log streams into.
  trace::LogReader reader(argv[1]);
  std::unique_ptr<analysis::TraceStore> store;
  analysis::SpillColumnStore* spill = nullptr;
  if (backend == "spill") {
    if (spill_dir.empty()) {
      spill_dir = (std::filesystem::temp_directory_path() /
                   ("wasp_spill_" + std::to_string(::getpid())))
                      .string();
    }
    auto s = std::make_unique<analysis::SpillColumnStore>(
        analysis::SpillColumnStore::Options{
            .dir = spill_dir,
            .chunk_rows = chunk_rows,
            .max_resident_chunks = max_resident});
    spill = s.get();
    store = std::move(s);
  } else {
    store = std::make_unique<analysis::ColumnStore>();
  }
  analysis::load_log(reader, *store);
  std::cerr << "loaded " << store->size() << " records, "
            << reader.header().apps.size() << " apps";
  if (spill != nullptr) {
    std::cerr << " (spill: " << spill->spilled_chunks() << " chunks in "
              << spill_dir << ")";
  }
  std::cerr << "\n";
  const analysis::WorkloadProfile profile = analysis::Analyzer().analyze(
      analysis::log_input(reader.header(), *store));
  if (spill != nullptr) {
    std::cerr << "spill cache: peak " << spill->peak_resident_chunks() << "/"
              << max_resident << " resident chunks, " << spill->chunk_loads()
              << " loads, " << spill->chunk_evictions() << " evictions\n";
  }

  std::cout << "job runtime:   " << util::format_seconds(profile.job_runtime_sec)
            << "\nI/O time:      "
            << util::format_percent(profile.io_time_fraction) << " of runtime"
            << "\nread:          " << util::format_bytes(profile.totals.read_bytes)
            << " in " << profile.totals.read_ops << " ops"
            << "\nwrite:         "
            << util::format_bytes(profile.totals.write_bytes) << " in "
            << profile.totals.write_ops << " ops"
            << "\nmetadata ops:  " << profile.totals.meta_ops << " ("
            << util::format_percent(profile.totals.meta_time_fraction())
            << " of I/O time)"
            << "\nfiles:         " << profile.files.size() << " ("
            << profile.shared_files << " shared, " << profile.fpp_files
            << " FPP)"
            << "\naccess:        "
            << (profile.sequential_fraction >= 0.8 ? "sequential" : "mixed")
            << "\n\n";

  util::TablePrinter apps("per-application");
  apps.set_header({"app", "procs", "I/O", "data ops", "meta ops", "iface",
                   "runtime"});
  for (const auto& a : profile.apps) {
    apps.add_row({a.name, std::to_string(a.num_procs),
                  util::format_bytes(a.ops.io_bytes()),
                  std::to_string(a.ops.data_ops()),
                  std::to_string(a.ops.meta_ops),
                  trace::to_string(a.interface),
                  util::format_seconds(a.runtime_sec())});
  }
  apps.print(std::cout);

  if (show_phases) {
    std::cout << "\nI/O phases:\n";
    for (const auto& ph : profile.phases) {
      std::cout << "  [" << util::format_seconds(sim::to_seconds(ph.t0))
                << " .. " << util::format_seconds(sim::to_seconds(ph.t1))
                << "] app=" << profile.app_name(ph.app) << " "
                << util::format_bytes(ph.ops.io_bytes()) << " "
                << ph.frequency_label() << "\n";
    }
  }
  if (show_files > 0) {
    std::vector<const analysis::FileStats*> files;
    for (const auto& f : profile.files) files.push_back(&f);
    std::sort(files.begin(), files.end(),
              [](const analysis::FileStats* a, const analysis::FileStats* b) {
                return a->ops.io_bytes() > b->ops.io_bytes();
              });
    std::cout << "\ntop files by I/O volume:\n";
    for (std::size_t i = 0; i < std::min(show_files, files.size()); ++i) {
      std::cout << "  " << files[i]->path << "  "
                << util::format_bytes(files[i]->ops.io_bytes()) << "  ("
                << files[i]->reader_ranks << "r/" << files[i]->writer_ranks
                << "w)\n";
    }
  }
  if (show_hist) {
    std::cout << "\nrequest-size histogram (reads | writes):\n";
    for (std::size_t b = 0; b < profile.read_hist.num_buckets(); ++b) {
      std::cout << "  " << profile.read_hist.bucket_label(b) << ": "
                << profile.read_hist.count(b) << " | "
                << profile.write_hist.count(b) << "\n";
    }
  }
  if (show_stats) {
    if (spill != nullptr) {
      print_io_stats(spill->io_stats());
    } else {
      std::cout << "\nspill backend I/O: none (memory backend)\n";
    }
  }
  toolcli::write_trace(spans_out);
  toolcli::write_report(report_out, "wasp_analyze", util::default_jobs(),
                        backend, wall_t0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const util::SimError& e) {
    std::cerr << "wasp_analyze: " << e.what() << "\n";
    return 1;
  }
}
