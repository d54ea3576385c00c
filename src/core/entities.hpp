// The paper's contribution: a systematic characterization of workload I/O
// behavior as three entity groups — Job, Software, Data — each with typed
// attributes (Tables II–XI). Storage systems consume these to configure
// themselves for the workload.
//
// Each entity's attributes are declared once, in one table per entity
// (entities.cpp): a row gives the attribute's YAML key, how its value prints
// and how that text reads back. `attributes()` (name/value string pairs for
// the table-reproduction benches), `to_yaml()` (the Vani Analyzer's output
// format) and `from_yaml()` (what a storage system loads) all walk those
// tables, so a new attribute is one row, written and read.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace wasp::charz {

using AttrList = std::vector<std::pair<std::string, std::string>>;

// --------------------------------------------------------------------------
// Job entity group
// --------------------------------------------------------------------------

/// Table II: job scheduling/allocation attributes.
struct JobConfigEntity {
  int nodes = 0;
  int cpu_cores_per_node = 0;
  int gpus_per_node = 0;
  std::string node_local_bb_dirs;  ///< e.g. "/dev/shm,/tmp"
  std::string shared_bb_dir = "NA";
  std::string pfs_dir;
  double job_time_limit_hours = 0;

  AttrList attributes() const;
};

/// Table III: workflow-level behavior.
struct WorkflowEntity {
  int cpu_cores_used_per_node = 0;
  int gpus_used_per_node = 0;
  int num_apps = 0;
  bool has_app_data_dependency = false;
  std::uint64_t fpp_files = 0;
  std::uint64_t shared_files = 0;
  util::Bytes io_amount = 0;
  double data_ops_fraction = 0;  ///< remainder is metadata ops
  double runtime_sec = 0;

  AttrList attributes() const;
};

/// Table IV: one per application in the workload.
struct ApplicationEntity {
  std::string name;
  int num_processes = 0;
  bool has_process_data_dependency = false;
  std::uint64_t fpp_files = 0;
  std::uint64_t shared_files = 0;
  util::Bytes io_amount = 0;
  double data_ops_fraction = 0;
  std::string interface;  ///< POSIX / STDIO / MPI-IO / HDF5
  double runtime_sec = 0;

  AttrList attributes() const;
};

/// Table V: one per detected I/O phase.
struct IoPhaseEntity {
  std::string app;
  int index = 0;
  util::Bytes io_amount = 0;
  double data_ops_fraction = 0;
  std::string frequency;  ///< "1 op" / "7 ops/rank" / "Iterative (1MB)" ...
  double runtime_sec = 0;

  AttrList attributes() const;
};

// --------------------------------------------------------------------------
// Software entity group
// --------------------------------------------------------------------------

/// Table VI: high-level I/O library view.
struct HighLevelIoEntity {
  std::string data_repr;      ///< "1D"/"2D"/"3D"/"4D" logical representation
  util::Bytes data_granularity = 0;
  util::Bytes meta_granularity = 0;
  std::string access_pattern;  ///< "Seq" / "Random" / "Mixed"
  std::string data_distribution;  ///< "normal"/"uniform"/"gamma"

  AttrList attributes() const;
};

/// Table VII: middleware layer view.
struct MiddlewareEntity {
  int extra_io_cores_per_node = 0;
  util::Bytes data_granularity = 0;
  util::Bytes meta_granularity = 0;
  util::Bytes memory_per_node = 0;
  std::string access_pattern;

  AttrList attributes() const;
};

/// Table VIII: node-local storage tier.
struct NodeLocalStorageEntity {
  std::string dir;
  int parallel_ops = 0;
  util::Bytes capacity_per_node = 0;
  double max_bandwidth_bps = 0;

  AttrList attributes() const;
};

/// Table IX: shared storage system.
struct SharedStorageEntity {
  std::string dir;
  int parallel_servers = 0;
  util::Bytes capacity = 0;
  double max_bandwidth_bps = 0;

  AttrList attributes() const;
};

// --------------------------------------------------------------------------
// Data entity group
// --------------------------------------------------------------------------

/// Table X: the dataset as a whole.
struct DatasetEntity {
  std::string format;  ///< "bin" / "HDF5" / "npy" ...
  util::Bytes size = 0;
  std::uint64_t num_files = 0;
  util::Bytes io_amount = 0;
  double io_time_sec = 0;
  double data_ops_fraction = 0;
  std::string file_size_dist;  ///< e.g. "1GB data / 16MB config"

  AttrList attributes() const;
};

/// Table XI: one representative data file.
struct FileEntity {
  std::string path;
  std::string format;
  util::Bytes size = 0;
  util::Bytes io_amount = 0;
  double io_time_sec = 0;
  double data_ops_fraction = 0;
  std::string format_attributes;  ///< "#datasets: 1, #dims: 3" etc.

  AttrList attributes() const;
};

// --------------------------------------------------------------------------

/// Complete characterization of one workload run — what the Vani suite's
/// YAML file contains and what the storage system loads to configure itself.
struct WorkloadCharacterization {
  std::string workload;
  JobConfigEntity job;
  WorkflowEntity workflow;
  std::vector<ApplicationEntity> applications;
  std::vector<IoPhaseEntity> phases;  ///< first phase per app, in time order
  HighLevelIoEntity high_level_io;
  MiddlewareEntity middleware;
  std::vector<NodeLocalStorageEntity> node_local;
  SharedStorageEntity shared_storage;
  DatasetEntity dataset;
  FileEntity file;

  /// Vani-style YAML document of all entities and attributes.
  std::string to_yaml() const;
};

/// Load a characterization back from its YAML document, the paper's end
/// vision: "these features can be loaded by any storage system and perform
/// automatic configurations for optimizing I/O". An absent section or key
/// keeps the struct default. Throws util::SimError naming the section, key
/// and value when a value is not in its attribute's format, and on a
/// section of the wrong shape or a missing entity group.
WorkloadCharacterization from_yaml(const std::string& text);

/// from_yaml() of a file's contents.
WorkloadCharacterization load_yaml_file(const std::string& path);

}  // namespace wasp::charz
