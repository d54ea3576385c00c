// The batched columnar scan kernels vs the scalar reference row loop: the
// two map steps must produce byte-identical profiles — same doubles, same
// ordering, same everything — on both store backends, at every job count,
// and for analysis chunk sizes that deliberately misalign with the storage
// chunking (so spans get clipped at both kinds of boundary).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/spill_store.hpp"
#include "profile_test_util.hpp"
#include "trace/synthetic.hpp"
#include "workloads/registry.hpp"

namespace wasp {
namespace {

using testutil::expect_profiles_identical;

std::string spill_dir(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// Synthetic records that hit every kernel path: all interfaces (CPU/GPU
/// compute spans included), all ops (data, meta, compute, communication),
/// and file-less rows.
std::vector<trace::Record> kernel_coverage_records(std::size_t n) {
  trace::SyntheticOpts o;
  o.ifaces = 7;
  o.ops = 14;
  o.files_per_invalid = 5;
  return trace::synthetic_records(n, o);
}

/// TraceInput over a store with row-dependent path/size callbacks: a
/// file's resolved path and size depend on its *first* row, so a kernel
/// that gets file_first_row wrong produces a visibly different profile
/// instead of silently resolving the same constant string.
analysis::TraceInput synthetic_input(const analysis::TraceStore& store) {
  analysis::TraceInput input;
  input.store = &store;
  input.app_names = {"alpha", "beta", "gamma", "delta", "epsilon"};
  input.path_at = [](std::size_t i) { return "/row/" + std::to_string(i); };
  input.size_at = [](std::size_t i) -> fs::Bytes { return (i * 131) + 1; };
  // fs 0 shared, fs 1 node-local: both ScopedFile scoping branches run.
  input.fs_shared = [](std::int16_t f) { return f == 0; };
  return input;
}

analysis::WorkloadProfile profile_of(const analysis::TraceInput& input,
                                     int jobs, std::size_t chunk_rows,
                                     bool reference) {
  analysis::Analyzer::Options opts;
  opts.jobs = jobs;
  opts.chunk_rows = chunk_rows;
  opts.reference_scan = reference;
  return analysis::Analyzer(opts).analyze(input);
}

TEST(ScanKernel, MatchesReferenceOnMemoryBackend) {
  const auto records = kernel_coverage_records(10007);
  analysis::ColumnStore memory;
  for (const trace::Record& r : records) memory.push_back(r);
  const auto input = synthetic_input(memory);

  // chunk_rows values chosen to misalign with everything: 1000 splits the
  // trace mid-pattern, 97 makes every analysis chunk straddle boundaries.
  for (const std::size_t chunk_rows : {1000ul, 97ul}) {
    for (const int jobs : {1, 4}) {
      const auto ref = profile_of(input, jobs, chunk_rows, true);
      const auto ker = profile_of(input, jobs, chunk_rows, false);
      SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                   " chunk_rows=" + std::to_string(chunk_rows));
      expect_profiles_identical(ref, ker);
    }
  }

  // And the kernels stay bit-identical to themselves across job counts /
  // chunkings that share chunk_rows (the existing determinism contract).
  expect_profiles_identical(profile_of(input, 1, 1000, false),
                            profile_of(input, 4, 1000, false));
}

TEST(ScanKernel, MatchesReferenceOnSpillBackend) {
  const auto records = kernel_coverage_records(10007);

  // Storage chunks of 128 rows vs analysis chunks of 1000/97 rows: spans
  // clip at storage boundaries mid-analysis-chunk and vice versa.
  analysis::SpillColumnStore store({.dir = spill_dir("scan_kernel.spill"),
                                    .chunk_rows = 128,
                                    .max_resident_chunks = 3});
  store.append(records);
  store.finalize();
  ASSERT_GT(store.num_chunks(), 3u);

  const auto input = synthetic_input(store);

  analysis::ColumnStore memory;
  for (const trace::Record& r : records) memory.push_back(r);
  const auto mem_ref = profile_of(synthetic_input(memory), 1, 1000, true);
  for (const std::size_t chunk_rows : {1000ul, 97ul}) {
    for (const int jobs : {1, 4}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                   " chunk_rows=" + std::to_string(chunk_rows));
      const auto ker = profile_of(input, jobs, chunk_rows, false);
      expect_profiles_identical(profile_of(input, jobs, chunk_rows, true),
                                ker);
      if (chunk_rows == 1000) {
        // Same rows => same profile as the in-memory reference too.
        expect_profiles_identical(mem_ref, ker);
      }
    }
  }
}

TEST(ScanKernel, MatchesReferenceOnSimulatedWorkload) {
  // A real multi-app trace (shared + fpp files, CPU spans, barriers) rather
  // than synthetic noise: the montage test workload.
  runtime::Simulation sim(cluster::lassen(4));
  workloads::run_with(
      sim, workloads::make_montage_mpi(workloads::MontageMpiParams::test()),
      advisor::RunConfig{}, analysis::Analyzer::Options{});

  for (const int jobs : {1, 4}) {
    analysis::Analyzer::Options ref_opts;
    ref_opts.jobs = jobs;
    ref_opts.chunk_rows = 23;  // many tiny chunks, lots of merge traffic
    analysis::Analyzer::Options ker_opts = ref_opts;
    ref_opts.reference_scan = true;
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    expect_profiles_identical(
        analysis::Analyzer(ref_opts).analyze(sim.tracer()),
        analysis::Analyzer(ker_opts).analyze(sim.tracer()));
  }
}

}  // namespace
}  // namespace wasp
