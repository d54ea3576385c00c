// The bandwidth timeline (Figs. 1c-6c) against an oracle that bins it the
// way a separate pass over the trace would: the job's time range from every
// row, bins of Options::timeline_bin (coarser past 2048 bins), each analysis
// chunk's data rows binned in row order into bins of its own, the chunks'
// bins added in chunk order, then divided by the bin width. No golden pins
// the timeline, and the analyzer's kernel and its reference row loop bin
// through one helper, so this oracle is what would catch a binning mistake.
// Every bin is compared with operator==.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/spill_store.hpp"
#include "trace/synthetic.hpp"
#include "util/parallel.hpp"
#include "workloads/registry.hpp"

namespace wasp {
namespace {

constexpr std::size_t kMaxBins = 2048;

analysis::Timeline oracle_timeline(const std::vector<trace::Record>& rows,
                                   const analysis::Analyzer::Options& opts) {
  sim::Time first = rows.front().tstart;
  sim::Time last = rows.front().tend;
  for (const trace::Record& r : rows) {
    first = std::min(first, r.tstart);
    last = std::max(last, r.tend);
  }
  sim::Time bin = opts.timeline_bin;
  const sim::Time span = last - first;
  if (span / bin + 1 > kMaxBins) bin = span / kMaxBins + 1;
  const auto nbins = static_cast<std::size_t>(span / bin) + 1;

  analysis::Timeline tl;
  tl.bin_width = bin;
  tl.read_bps.assign(nbins, 0.0);
  tl.write_bps.assign(nbins, 0.0);
  for (const util::ChunkRange& c :
       util::make_chunks(rows.size(), opts.chunk_rows)) {
    std::vector<double> read(nbins, 0.0);
    std::vector<double> write(nbins, 0.0);
    for (std::size_t i = c.begin; i < c.end; ++i) {
      const trace::Record& r = rows[i];
      if (!trace::is_data(r.op)) continue;
      const double bytes =
          static_cast<double>(r.size * static_cast<fs::Bytes>(r.count));
      if (bytes <= 0) continue;
      const sim::Time t0 = r.tstart - first;
      const sim::Time t1 = std::max(r.tend - first, t0 + 1);
      const auto b0 = static_cast<std::size_t>(t0 / bin);
      const auto b1 =
          std::min(static_cast<std::size_t>((t1 - 1) / bin), nbins - 1);
      const double per_bin = bytes / static_cast<double>(b1 - b0 + 1);
      auto& series = r.op == trace::Op::kRead ? read : write;
      for (std::size_t b = b0; b <= b1; ++b) series[b] += per_bin;
    }
    for (std::size_t b = 0; b < nbins; ++b) {
      tl.read_bps[b] += read[b];
      tl.write_bps[b] += write[b];
    }
  }
  const double bin_sec = sim::to_seconds(bin);
  for (double& v : tl.read_bps) v /= bin_sec;
  for (double& v : tl.write_bps) v /= bin_sec;
  return tl;
}

void expect_timeline_identical(const analysis::Timeline& want,
                               const analysis::Timeline& got) {
  EXPECT_EQ(want.bin_width, got.bin_width);
  ASSERT_EQ(want.read_bps.size(), got.read_bps.size());
  ASSERT_EQ(want.write_bps.size(), got.write_bps.size());
  for (std::size_t b = 0; b < want.read_bps.size(); ++b) {
    EXPECT_EQ(want.read_bps[b], got.read_bps[b]) << "read bin " << b;
    EXPECT_EQ(want.write_bps[b], got.write_bps[b]) << "write bin " << b;
  }
}

/// Analyze `input` in chunks of `chunk_rows` at jobs 1 and 4 for each bin
/// width, with both scan paths, and compare each timeline with the
/// oracle's over `rows`.
void expect_oracle_timelines(const std::vector<trace::Record>& rows,
                             const analysis::TraceInput& input,
                             std::size_t chunk_rows,
                             const std::vector<sim::Time>& bin_widths) {
  for (const sim::Time width : bin_widths) {
    for (const int jobs : {1, 4}) {
      for (const bool reference : {false, true}) {
        analysis::Analyzer::Options opts;
        opts.jobs = jobs;
        opts.chunk_rows = chunk_rows;
        opts.timeline_bin = width;
        opts.reference_scan = reference;
        SCOPED_TRACE("bin=" + std::to_string(width) +
                     " jobs=" + std::to_string(jobs) +
                     " reference=" + std::to_string(reference));
        const auto tl = analysis::Analyzer(opts).analyze(input).timeline;
        expect_timeline_identical(oracle_timeline(rows, opts), tl);
      }
    }
  }
}

std::string spill_dir(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(Timeline, MatchesChunkedBinningOracleOnSimulatedWorkload) {
  runtime::Simulation sim(cluster::lassen(4));
  workloads::run_with(
      sim, workloads::make_montage_mpi(workloads::MontageMpiParams::test()),
      advisor::RunConfig{}, analysis::Analyzer::Options{});
  const std::vector<trace::Record> rows(sim.tracer().records().begin(),
                                        sim.tracer().records().end());
  ASSERT_GT(rows.size(), 100u);
  // Between 2 and 3 s of trace: three bins at the default 1 s, a few
  // hundred at 10 ms, and the bin cap at 1 ms. Chunks of 23 rows: many
  // chunks, each binning its own rows.
  const std::vector<sim::Time> widths = {sim::kSec, 10 * sim::kMs, sim::kMs};

  expect_oracle_timelines(rows, analysis::tracer_input(sim.tracer()), 23,
                          widths);

  analysis::SpillColumnStore store({.dir = spill_dir("timeline_sim.spill"),
                                    .chunk_rows = 16,
                                    .max_resident_chunks = 2});
  store.append(rows);
  store.finalize();
  auto input = analysis::tracer_input(sim.tracer());
  input.store = &store;
  expect_oracle_timelines(rows, input, 23, widths);
}

TEST(Timeline, MatchesChunkedBinningOracleOnShuffledRows) {
  // Every interface (CPU/GPU lanes' data rows count), every op, file-less
  // rows, in no time order.
  trace::SyntheticOpts o;
  o.ifaces = 7;
  o.ops = 14;
  o.files_per_invalid = 5;
  auto rows = trace::synthetic_records(5003, o);
  std::mt19937_64 rng(23);
  std::shuffle(rows.begin(), rows.end(), rng);
  // About 2.6 s of trace, binned as the simulated one.
  const std::vector<sim::Time> widths = {sim::kSec, 10 * sim::kMs, sim::kMs};

  analysis::TraceInput input;
  input.app_names = {"a", "b", "c", "d", "e"};
  input.path_at = [](std::size_t i) { return "/row/" + std::to_string(i); };
  input.size_at = [](std::size_t i) -> fs::Bytes { return i + 1; };
  input.fs_shared = [](std::int16_t f) { return f == 0; };

  analysis::ColumnStore memory;
  for (const trace::Record& r : rows) memory.push_back(r);
  input.store = &memory;
  expect_oracle_timelines(rows, input, 97, widths);

  analysis::SpillColumnStore store({.dir = spill_dir("timeline_rows.spill"),
                                    .chunk_rows = 64,
                                    .max_resident_chunks = 3});
  store.append(rows);
  store.finalize();
  input.store = &store;
  expect_oracle_timelines(rows, input, 97, widths);
}

}  // namespace
}  // namespace wasp
