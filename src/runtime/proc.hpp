// Per-rank execution context: identity (app, rank, node), communicator,
// and traced compute / MPI helpers. Interface layers (io::Posix etc.) are
// constructed over a Proc.
#pragma once

#include <cstdint>

#include "mpi/comm.hpp"
#include "runtime/simulation.hpp"
#include "sim/task.hpp"
#include "trace/record.hpp"

namespace wasp::runtime {

class Proc {
 public:
  /// `rank` is the globally-unique trace identity; `comm_rank` the rank
  /// within `comm` (defaults to `rank` — they differ only when the process
  /// belongs to a subcommunicator, e.g. CosmoFlow's per-node groups).
  Proc(Simulation& sim, std::uint16_t app, int rank, int node,
       mpi::Comm* comm = nullptr, int comm_rank = -1)
      : sim_(sim),
        app_(app),
        rank_(rank),
        node_(node),
        comm_(comm),
        comm_rank_(comm_rank < 0 ? rank : comm_rank) {}

  Simulation& simulation() noexcept { return sim_; }
  sim::Engine& engine() noexcept { return sim_.engine(); }
  sim::Time now() const noexcept { return sim_.engine().now(); }
  trace::Tracer& tracer() noexcept { return sim_.tracer(); }

  std::uint16_t app() const noexcept { return app_; }
  int rank() const noexcept { return rank_; }
  int comm_rank() const noexcept { return comm_rank_; }
  int node() const noexcept { return node_; }
  fs::ProcSite site() const noexcept { return {node_, rank_}; }

  mpi::Comm& comm();

  /// Traced CPU compute span.
  sim::Task<void> compute(sim::Time duration);
  /// Traced GPU compute span.
  sim::Task<void> gpu_compute(sim::Time duration);

  /// Traced barrier on the process's communicator.
  sim::Task<void> barrier();

  /// Append a fully-specified record stamped with this process's identity.
  /// No-op while this process is inside a Suppression scope. Inline: every
  /// traced I/O op ends here, so the call sits on the simulation hot path.
  void record(trace::Iface iface, trace::Op op, trace::FileKey file,
              fs::Bytes offset, fs::Bytes size, std::uint32_t count,
              sim::Time tstart) {
    if (suppressed()) return;
    trace::Record r;
    r.app = app_;
    r.rank = rank_;
    r.node = node_;
    r.iface = iface;
    r.op = op;
    r.file = file;
    r.offset = offset;
    r.size = size;
    r.count = count;
    r.tstart = tstart;
    r.tend = now();
    tracer().add(r);
  }

  bool suppressed() const noexcept { return suppression_ > 0; }

  /// Per-process trace suppression. Suppression must be per process (not on
  /// the shared tracer): coroutines interleave at co_await points, so a
  /// global counter would mute records of concurrently-running ranks.
  class Suppression {
   public:
    explicit Suppression(Proc& p) noexcept : p_(p) { ++p_.suppression_; }
    ~Suppression() { --p_.suppression_; }
    Suppression(const Suppression&) = delete;
    Suppression& operator=(const Suppression&) = delete;

   private:
    Proc& p_;
  };

 private:
  sim::Task<void> timed_span(trace::Iface iface, sim::Time duration);

  Simulation& sim_;
  std::uint16_t app_;
  int rank_;
  int node_;
  mpi::Comm* comm_;
  int comm_rank_;
  int suppression_ = 0;
};

}  // namespace wasp::runtime
