// Montage mosaic workflow with MPI (paper §III-B.5, Figure 5; case study
// §V-B / Figure 8).
//
// Five applications per the paper, driven stage-by-stage:
//   mProject (1/node)  reads input FITS (64KB), writes projected images in
//                      4KB STDIO transfers            [intermediate]
//   mImgtbl  (1/node)  header scans, writes .tbl      [metadata-ish]
//   mAddMPI  (40/node) parallel MPI job: reads projected (4KB), writes the
//                      mosaic segments (32KB)         [bulk of write I/O]
//   mShrink  (1/node)  reads mosaic sample, writes shrunk overview
//   mViewer  (1/node)  reads a *neighbor node's* mosaic segment (8KB) and
//                      writes the final PNG           [bulk of read I/O]
//
// Intermediate files (projected/mosaic/shrunk) live on the PFS in the
// baseline and on node-local shm when RunConfig::intermediates_to_node_local
// is set — except the mosaic, which mViewer consumes cross-node and
// therefore stays where the consumer can reach it; with shm redirection the
// viewer is placed locality-aware so its input *is* node-local (§IV-D.4).
#pragma once

#include "workloads/workload.hpp"

namespace wasp::workloads {

struct MontageMpiParams {
  int nodes = 32;
  int add_ranks_per_node = 40;
  int fits_files = 960;
  util::Bytes fits_size = 1600 * util::kKB;
  util::Bytes fits_read_transfer = 64 * util::kKiB;
  util::Bytes projected_per_node = 120 * util::kMB;
  util::Bytes projected_write_transfer = 4 * util::kKiB;
  util::Bytes mosaic_per_node = 640 * util::kMB;
  util::Bytes mosaic_write_transfer = 32 * util::kKiB;
  util::Bytes add_read_transfer = 4 * util::kKiB;
  util::Bytes viewer_read_transfer = 8 * util::kKiB;
  util::Bytes shrunk_per_node = 4 * util::kMB;
  util::Bytes png_per_node = 3600 * util::kKB;
  util::Bytes png_write_transfer = 64 * util::kKiB;
  sim::Time project_compute_per_file = sim::seconds(4.0);
  sim::Time imgtbl_compute = sim::seconds(5.0);
  sim::Time add_compute = sim::seconds(55.0);
  sim::Time shrink_compute = sim::seconds(6.0);
  sim::Time viewer_compute = sim::seconds(28.0);

  static MontageMpiParams paper() { return MontageMpiParams{}; }
  static MontageMpiParams test();
};

Workload make_montage_mpi(const MontageMpiParams& params = MontageMpiParams{});

}  // namespace wasp::workloads
