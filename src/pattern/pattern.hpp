// Declarative I/O-pattern IR.
//
// A JobPattern is a complete, self-contained description of a job's I/O
// behavior: which communicators exist, which lane groups run which phases,
// and — per phase — the exact op sequence (opens, transfers, seeks, compute
// spans, barriers, loops) each lane performs. Workload models *compile*
// their parameters + RunConfig into a JobPattern; a generic Replayer (see
// replayer.hpp) drives the pattern through the existing io:: layers, and
// that replay is the only way a workload runs. Golden fingerprints
// (tests/test_pattern_equivalence.cpp) pin what each compiler's pattern
// produces.
//
// The IR is the what-if surface: advisor optimizations (§IV-D) become pure
// IR->IR rewrites (advisor/pattern_rewrites.hpp), and patterns round-trip
// through YAML (to_yaml/from_yaml) so tools can dump, mutate, and replay
// them (tools/wasp_pattern).
//
// Everything a compiler can fold from workload params is baked to integer
// literals; fields that genuinely vary per lane, per loop iteration, or
// with runtime file sizes are Exprs over the lane environment
// (rank/node/local/leader + loop variables + size_of()).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "io/compression.hpp"
#include "io/hdf5.hpp"
#include "io/mpiio.hpp"
#include "io/posix.hpp"
#include "sim/faults.hpp"
#include "pattern/expr.hpp"
#include "util/units.hpp"

namespace wasp::pattern {

enum class OpKind : std::uint8_t {
  kGroup,          ///< loop (var set) or guarded block (var empty)
  kOpen,
  kClose,
  kRead,           ///< sequential from current offset (hdf5: at `offset`)
  kWrite,
  kPread,          ///< positional, posix layer
  kPwrite,
  kPreadSync,
  kPwriteSync,
  kSeek,
  kSeekBatch,
  kSeekIfWrap,     ///< stdio: rewind when offset + wrap_bytes > wrap_limit
  kReadScattered,  ///< stdio fread_scattered
  kStat,
  kCompute,
  kGpuCompute,
  kBarrier,        ///< lane communicator barrier
  kAllreduce,      ///< on a named communicator, optional manual MPI record
  kSignal,         ///< decrement a countdown event; last signaler sets it
  kWaitEvent,
  kSpawn,          ///< detach body as an engine root task (async drain)
  kPacedRead,      ///< suppressed read + pacing floor + one manual record
};

/// Which io:: interface executes the op.
enum class Layer : std::uint8_t { kPosix, kStdio, kHdf5, kCompressed };

const char* to_string(OpKind k) noexcept;
const char* to_string(Layer l) noexcept;
const char* to_string(io::OpenMode m) noexcept;
/// Throw SimError naming the offending token on unknown strings.
OpKind op_kind_from(const std::string& s);
Layer layer_from(const std::string& s);
io::OpenMode open_mode_from(const std::string& s);

/// One replayable operation. Which fields are meaningful depends on `kind`
/// (see the per-kind field table in pattern_yaml.cpp); unused fields keep
/// their defaults and are not serialized.
struct Op {
  OpKind kind = OpKind::kBarrier;
  Layer layer = Layer::kPosix;
  std::string handle;          ///< file-handle slot name
  std::string path;            ///< file-name template ("{rank}.ckpt")
  io::OpenMode mode = io::OpenMode::kRead;
  Expr offset;                 ///< defaults to 0 when empty
  Expr size;
  Expr count;                  ///< defaults to 1 when empty
  Expr fetch_ops;              ///< kReadScattered
  Expr wrap_bytes, wrap_limit; ///< kSeekIfWrap
  std::uint64_t duration_ns = 0;  ///< compute base / kPacedRead floor
  double jitter_lo = 1.0;      ///< compute duration multiplier low bound
  double jitter_span = 0.0;    ///< >0 consumes one rng.uniform() per exec
  std::string comm;            ///< kAllreduce target communicator
  bool record = true;          ///< kAllreduce: emit the manual MPI record
  std::string event;           ///< kSignal / kWaitEvent
  std::string app;             ///< kSpawn app name
  std::string var;             ///< kGroup loop variable
  Expr begin, end, step;       ///< kGroup loop bounds [begin, end) by step
  Expr when;                   ///< kGroup guard; false breaks the loop
  std::vector<Op> body;        ///< kGroup / kSpawn children
};

/// Communicator declaration. per_node=false: one comm, `procs` ranks
/// block-distributed over `nodes`. per_node=true: a family of `nodes`
/// comms, each with `procs` local ranks all mapped to that node
/// (CosmoFlow's per-node collective-I/O groups).
struct CommDecl {
  std::string name;
  int procs = 0;
  int nodes = 1;
  bool per_node = false;
};

/// Countdown broadcast event: the countdown-th kSignal sets it.
struct EventDecl {
  std::string name;
  int countdown = 1;
};

/// One stage of a lane's life, run under its own Proc/app identity
/// (Montage's drivers change app per stage).
struct PhasePattern {
  std::string app;
  std::vector<Op> ops;
};

/// A set of lanes (simulated processes) sharing a communicator and phase
/// list. Lane l of a regular comm is rank l; lane l of a per_node family
/// is rank l with node l/procs and comm rank l%procs. Lane expressions see
/// rank, node, local (rank within the node) and leader (1 for the node's
/// lowest rank).
struct LaneGroup {
  std::string comm;
  std::uint64_t rng_seed = 0;   ///< lane rng = Rng(seed).fork(rank)
  util::Bytes stdio_buffer = 4 * util::kKiB;
  io::Hdf5Config hdf5;          ///< config for kOpen on the hdf5 layer
  io::MpiIoConfig mpiio;
  io::CompressionModel codec;   ///< model for the compressed layer
  std::vector<PhasePattern> phases;
};

/// Dependency of a DAG stage instance: on instance `index` (an Expr over
/// `id`, this task's instance number) of stage `stage`, or on every
/// instance when `index` is empty.
struct DagDep {
  int stage = -1;
  Expr index;
};

/// `count` single-process tasks sharing an op list; task expressions see
/// `id` (instance number) plus rank/node assigned by the slot scheduler.
struct DagStage {
  std::string app;
  int count = 1;
  std::uint64_t rng_seed = 0;  ///< task rng = Rng(seed).fork(id)
  std::vector<DagDep> deps;
  std::vector<Op> ops;
};

/// Pegasus-style workflow section: stages compiled to patterns, the slot
/// scheduler itself stays imperative (workflow::PegasusScheduler).
struct DagDecl {
  int slots = 0;
  int nodes = 1;
  util::Bytes stdio_buffer = 4 * util::kKiB;
  std::vector<DagStage> stages;

  bool empty() const noexcept { return stages.empty(); }
};

struct JobPattern {
  std::string name;                 ///< registry id (e.g. "hacc-fpp")
  /// Apps registered up front, in this order (tracer app ids are
  /// registration-ordered). DAG apps register lazily instead.
  std::vector<std::string> apps;
  std::vector<CommDecl> comms;
  std::vector<EventDecl> events;
  std::vector<LaneGroup> groups;
  DagDecl dag;
  /// Free-form compile provenance (workload params, rewrite hints) so
  /// tools and rewrites can act on a dumped pattern without the compiler.
  std::vector<std::pair<std::string, std::string>> meta;
  /// Deterministic fault schedule to install at replay (empty = none);
  /// carried through the YAML as its canonical spec string. A plan already
  /// installed on the Simulation (e.g. from RunConfig) takes precedence.
  sim::FaultPlan faults;

  const std::string* find_meta(const std::string& key) const;
  void set_meta(const std::string& key, const std::string& value);
};

/// Serialize to the util::yaml subset. Deterministic: a loaded pattern
/// dumps back byte-identically.
std::string to_yaml(const JobPattern& pat);
/// Parse a dumped pattern; throws util::SimError with a diagnostic on
/// malformed input.
JobPattern pattern_from_yaml(const std::string& text);

// ---- Builder helpers -----------------------------------------------------
// Thin constructors so compile functions read like the op stream they emit.
namespace ops {

Op open(Layer l, std::string handle, std::string path, io::OpenMode mode);
Op close(Layer l, std::string handle);
Op read(Layer l, std::string handle, Expr size, Expr count, Expr offset = {});
Op write(Layer l, std::string handle, Expr size, Expr count,
         Expr offset = {});
Op pread(std::string handle, Expr offset, Expr size, Expr count);
Op pwrite(std::string handle, Expr offset, Expr size, Expr count);
Op pread_sync(std::string handle, Expr offset, Expr size, Expr count);
Op pwrite_sync(std::string handle, Expr offset, Expr size, Expr count);
Op seek(Layer l, std::string handle, Expr offset);
Op seek_batch(Layer l, std::string handle, Expr count);
Op seek_if_wrap(std::string handle, Expr bytes, Expr limit);
Op read_scattered(std::string handle, Expr size, Expr count, Expr fetch_ops);
Op stat(std::string path);
Op compute(std::uint64_t ns, double jitter_lo = 1.0, double jitter_span = 0.0);
Op gpu_compute(std::uint64_t ns, double jitter_lo = 1.0,
               double jitter_span = 0.0);
Op barrier();
Op allreduce(std::string comm, Expr bytes, bool record = true);
Op signal(std::string event);
Op wait_event(std::string event);
Op spawn(std::string app, std::vector<Op> body);
Op paced_read(std::string handle, Expr size, Expr count,
              std::uint64_t floor_ns);
Op loop(std::string var, Expr begin, Expr end, std::vector<Op> body,
        Expr step = {}, Expr when = {});
Op when(Expr cond, std::vector<Op> body);

}  // namespace ops

}  // namespace wasp::pattern
