#include "pattern/replayer.hpp"

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "io/compression.hpp"
#include "io/hdf5.hpp"
#include "io/stdio.hpp"
#include "obs/obs.hpp"
#include "sim/sync.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workflow/dag.hpp"

namespace wasp::pattern {
namespace {

/// Per-op-kind latency histograms (`replay.op_ns.<kind>`). The sample is
/// *virtual* time elapsed across the op — a function of the simulation, so
/// the histograms are byte-identical across --jobs counts, backends, and
/// reruns, and belong to the manifest's deterministic subset. No wall
/// clock is read; accumulation is always on, like every counter.
obs::Histogram replay_op_hist(OpKind k) {
  constexpr int kNumKinds = static_cast<int>(OpKind::kPacedRead) + 1;
  static const std::array<obs::Histogram, kNumKinds> hists = [] {
    std::array<obs::Histogram, kNumKinds> h;
    for (int i = 0; i < kNumKinds; ++i) {
      h[static_cast<std::size_t>(i)] = obs::Registry::instance().histogram(
          std::string("replay.op_ns.") +
          to_string(static_cast<OpKind>(i)));
    }
    return h;
  }();
  return hists[static_cast<std::size_t>(k)];
}

struct EventState {
  sim::Event ev;
  int remaining;
  EventState(sim::Engine& eng, int countdown)
      : ev(eng), remaining(countdown) {}
};

struct CommSet {
  CommDecl decl;
  std::vector<mpi::Comm*> comms;  ///< [0] regular, [node] per_node family
};

/// An op with the names it uses resolved once per replay: its communicator
/// (kAllreduce), event (kSignal / kWaitEvent) and compiled path template
/// (kOpen / kStat), over a bound body. A name the pattern does not declare
/// binds to null, and the op raises the diagnostic when it runs.
struct BoundOp {
  const Op* op = nullptr;
  CommSet* comm = nullptr;
  EventState* event = nullptr;
  std::optional<PathTemplate> path;
  std::vector<BoundOp> body;
};

/// Everything one replay shares; lane coroutines keep it alive.
struct RunState {
  runtime::Simulation& sim;
  JobPattern pat;
  std::map<std::string, std::uint16_t> app_ids;
  std::map<std::string, CommSet> comms;
  std::map<std::string, std::unique_ptr<EventState>> events;
  /// Bound op lists: phase_ops[group][phase] and stage_ops[dag stage].
  std::vector<std::vector<std::vector<BoundOp>>> phase_ops;
  std::vector<std::vector<BoundOp>> stage_ops;

  RunState(runtime::Simulation& s, JobPattern p) : sim(s), pat(std::move(p)) {}

  std::uint16_t app_id(const std::string& name) const {
    auto it = app_ids.find(name);
    WASP_CHECK_MSG(it != app_ids.end(),
                   "pattern: app '" + name + "' is not declared in apps");
    return it->second;
  }

  CommSet& comm_set(const std::string& name) {
    auto it = comms.find(name);
    WASP_CHECK_MSG(it != comms.end(),
                   "pattern: comm '" + name + "' is not declared");
    return it->second;
  }

  std::vector<BoundOp> bind(const std::vector<Op>& ops) {
    std::vector<BoundOp> out(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Op& o = ops[i];
      BoundOp& b = out[i];
      b.op = &o;
      switch (o.kind) {
        case OpKind::kOpen:
        case OpKind::kStat:
          b.path.emplace(o.path);
          break;
        case OpKind::kAllreduce:
          if (auto it = comms.find(o.comm); it != comms.end()) {
            b.comm = &it->second;
          }
          break;
        case OpKind::kSignal:
        case OpKind::kWaitEvent:
          if (auto it = events.find(o.event); it != events.end()) {
            b.event = it->second.get();
          }
          break;
        default:
          break;
      }
      b.body = bind(o.body);
    }
    return out;
  }
};

CommSet& comm_of(const BoundOp& b) {
  WASP_CHECK_MSG(b.comm != nullptr,
                 "pattern: comm '" + b.op->comm + "' is not declared");
  return *b.comm;
}

EventState& event_of(const BoundOp& b) {
  WASP_CHECK_MSG(b.event != nullptr,
                 "pattern: event '" + b.op->event + "' is not declared");
  return *b.event;
}

/// All interface layers a phase might drive. Construction is side-effect
/// free, so building the unused ones costs nothing and keeps dispatch flat.
struct Layers {
  io::Posix posix;
  io::Stdio stdio;
  io::Hdf5 hdf5;
  io::CompressedPosix compressed;

  Layers(runtime::Proc& p, util::Bytes stdio_buffer, io::MpiIoConfig mpiio,
         io::CompressionModel codec)
      : posix(p), stdio(p, stdio_buffer), hdf5(p, mpiio),
        compressed(p, codec) {}
};

/// Per-layer configuration a spawned body inherits from its group/stage.
struct LaneCfg {
  util::Bytes stdio_buffer = 4 * util::kKiB;
  io::Hdf5Config hdf5;
  io::MpiIoConfig mpiio;
  io::CompressionModel codec;
  std::uint64_t rng_seed = 0;
};

/// One named file-handle slot; which member is live follows the layer of
/// the op that opened it, and `live` records it.
struct Slot {
  enum class Member : std::uint8_t { kNone, kFile, kStdio, kH5 };
  io::File file;
  io::StdioFile stdio;
  io::H5File h5;
  Member live = Member::kNone;
};

/// The Slot member an op on a handle uses (for kOpen: the one it fills).
Slot::Member member_of(const Op& o) {
  switch (o.kind) {
    case OpKind::kPread:
    case OpKind::kPwrite:
    case OpKind::kPreadSync:
    case OpKind::kPwriteSync:
    case OpKind::kPacedRead:
      return Slot::Member::kFile;
    case OpKind::kSeekIfWrap:
    case OpKind::kReadScattered:
      return Slot::Member::kStdio;
    case OpKind::kSeek:
    case OpKind::kSeekBatch:
      return o.layer == Layer::kStdio ? Slot::Member::kStdio
                                      : Slot::Member::kFile;
    default:  // open, close, read, write
      switch (o.layer) {
        case Layer::kStdio:
          return Slot::Member::kStdio;
        case Layer::kHdf5:
          return Slot::Member::kH5;
        default:
          return Slot::Member::kFile;
      }
  }
}

struct ExecCtx {
  std::shared_ptr<RunState> st;
  const LaneCfg* cfg;
  runtime::Proc& p;
  Layers& L;
  Env& env;
  util::Rng& rng;
  std::map<std::string, Slot>& slots;
  // One-entry slot memo keyed by Op identity: loop bodies re-execute the
  // same Op node millions of times, and std::map references are stable, so
  // the repeat lookups collapse to a pointer compare.
  const Op* last_slot_op = nullptr;
  Slot* last_slot = nullptr;
};

EvalContext eval_ctx(ExecCtx& c) {
  EvalContext e;
  e.env = &c.env;
  e.size_of = [&c](const std::string& path) {
    return static_cast<std::int64_t>(c.L.posix.size_of(path));
  };
  return e;
}

std::int64_t eval_or(const Expr& e, const EvalContext& ctx,
                     std::int64_t fallback) {
  return e.empty() ? fallback : e.eval(ctx);
}

util::Bytes eval_bytes(const Expr& e, const EvalContext& ctx) {
  const std::int64_t v = e.eval(ctx);
  WASP_CHECK_MSG(v >= 0, "pattern: negative byte count from '" + e.text() +
                             "'");
  return static_cast<util::Bytes>(v);
}

std::uint32_t eval_count(const Expr& e, const EvalContext& ctx) {
  const std::int64_t v = eval_or(e, ctx, 1);
  WASP_CHECK_MSG(v >= 0,
                 "pattern: negative op count from '" + e.text() + "'");
  return static_cast<std::uint32_t>(v);
}

/// The slot `o` acts on. A memo hit skips the layer check: the previous
/// lookup was this op's own, and no open has run since.
Slot& slot_of(ExecCtx& c, const Op& o) {
  if (c.last_slot_op == &o) return *c.last_slot;
  Slot* s;
  if (o.kind == OpKind::kOpen) {
    s = &c.slots[o.handle];
    s->live = member_of(o);
  } else {
    auto it = c.slots.find(o.handle);
    WASP_CHECK_MSG(it != c.slots.end(), "pattern: handle '" + o.handle +
                                            "' used before open");
    s = &it->second;
    WASP_CHECK_MSG(s->live == member_of(o),
                   "pattern: handle '" + o.handle +
                       "' used on a layer it was not opened on");
  }
  c.last_slot_op = &o;
  c.last_slot = s;
  return *s;
}

sim::Time jittered(const Op& o, util::Rng& rng) {
  if (o.jitter_span == 0.0) return o.duration_ns;
  return static_cast<sim::Time>(
      static_cast<double>(o.duration_ns) *
      (o.jitter_lo + o.jitter_span * rng.uniform()));
}

sim::Task<void> spawn_body(std::shared_ptr<RunState> st, const BoundOp* op,
                           LaneCfg cfg, Env env, int rank, int node);

sim::Task<void> exec_ops(ExecCtx& c, const std::vector<BoundOp>& ops) {
  // One context for the whole op list: it only carries pointers into `c`
  // (env bindings mutate underneath it, which eval() sees), and building
  // the size_of std::function per op showed up in profiles.
  const EvalContext ec = eval_ctx(c);
  for (const BoundOp& b : ops) {
    const Op& o = *b.op;
    const sim::Time op_vt0 = c.p.now();
    switch (o.kind) {
      case OpKind::kGroup: {
        if (o.var.empty()) {
          if (o.when.empty() || o.when.eval(ec) != 0) {
            co_await exec_ops(c, b.body);
          }
          break;
        }
        const std::int64_t begin = eval_or(o.begin, ec, 0);
        const std::int64_t end = o.end.eval(ec);
        const std::int64_t step = eval_or(o.step, ec, 1);
        WASP_CHECK_MSG(step > 0, "pattern: loop step must be positive");
        for (std::int64_t i = begin; i < end; i += step) {
          c.env.set(o.var, i);
          if (!o.when.empty() && o.when.eval(ec) == 0) break;
          co_await exec_ops(c, b.body);
        }
        break;
      }
      case OpKind::kOpen: {
        const std::string path = b.path->expand(ec);
        Slot& s = slot_of(c, o);
        switch (o.layer) {
          case Layer::kPosix:
            s.file = co_await c.L.posix.open(path, o.mode);
            break;
          case Layer::kStdio:
            s.stdio = co_await c.L.stdio.fopen(path, o.mode);
            break;
          case Layer::kHdf5:
            s.h5 = co_await c.L.hdf5.open(path, o.mode, c.cfg->hdf5);
            break;
          case Layer::kCompressed:
            s.file = co_await c.L.compressed.open(path, o.mode);
            break;
        }
        break;
      }
      case OpKind::kClose: {
        Slot& s = slot_of(c, o);
        switch (o.layer) {
          case Layer::kPosix:
            co_await c.L.posix.close(s.file);
            break;
          case Layer::kStdio:
            co_await c.L.stdio.fclose(s.stdio);
            break;
          case Layer::kHdf5:
            co_await c.L.hdf5.close(s.h5);
            break;
          case Layer::kCompressed:
            co_await c.L.compressed.close(s.file);
            break;
        }
        break;
      }
      case OpKind::kRead:
      case OpKind::kWrite: {
        Slot& s = slot_of(c, o);
        const util::Bytes size = eval_bytes(o.size, ec);
        const std::uint32_t count = eval_count(o.count, ec);
        const bool rd = o.kind == OpKind::kRead;
        switch (o.layer) {
          case Layer::kPosix:
            if (rd) {
              co_await c.L.posix.read(s.file, size, count);
            } else {
              co_await c.L.posix.write(s.file, size, count);
            }
            break;
          case Layer::kStdio:
            if (rd) {
              co_await c.L.stdio.fread(s.stdio, size, count);
            } else {
              co_await c.L.stdio.fwrite(s.stdio, size, count);
            }
            break;
          case Layer::kHdf5: {
            const util::Bytes at =
                static_cast<util::Bytes>(eval_or(o.offset, ec, 0));
            if (rd) {
              co_await c.L.hdf5.read(s.h5, at, size, count);
            } else {
              co_await c.L.hdf5.write(s.h5, at, size, count);
            }
            break;
          }
          case Layer::kCompressed:
            if (rd) {
              co_await c.L.compressed.read(s.file, size, count);
            } else {
              co_await c.L.compressed.write(s.file, size, count);
            }
            break;
        }
        break;
      }
      case OpKind::kPread:
      case OpKind::kPwrite:
      case OpKind::kPreadSync:
      case OpKind::kPwriteSync: {
        Slot& s = slot_of(c, o);
        const util::Bytes at =
            static_cast<util::Bytes>(eval_or(o.offset, ec, 0));
        const util::Bytes size = eval_bytes(o.size, ec);
        const std::uint32_t count = eval_count(o.count, ec);
        switch (o.kind) {
          case OpKind::kPread:
            co_await c.L.posix.pread(s.file, at, size, count);
            break;
          case OpKind::kPwrite:
            co_await c.L.posix.pwrite(s.file, at, size, count);
            break;
          case OpKind::kPreadSync:
            co_await c.L.posix.pread_sync(s.file, at, size, count);
            break;
          default:
            co_await c.L.posix.pwrite_sync(s.file, at, size, count);
            break;
        }
        break;
      }
      case OpKind::kSeek: {
        Slot& s = slot_of(c, o);
        const util::Bytes at =
            static_cast<util::Bytes>(eval_or(o.offset, ec, 0));
        if (o.layer == Layer::kStdio) {
          co_await c.L.stdio.fseek(s.stdio, at);
        } else {
          co_await c.L.posix.seek(s.file, at);
        }
        break;
      }
      case OpKind::kSeekBatch: {
        Slot& s = slot_of(c, o);
        const std::uint32_t count = eval_count(o.count, ec);
        if (o.layer == Layer::kStdio) {
          co_await c.L.stdio.fseek_batch(s.stdio, count);
        } else {
          co_await c.L.posix.seek_batch(s.file, count);
        }
        break;
      }
      case OpKind::kSeekIfWrap: {
        Slot& s = slot_of(c, o);
        const util::Bytes ahead = eval_bytes(o.wrap_bytes, ec);
        const util::Bytes limit = eval_bytes(o.wrap_limit, ec);
        if (s.stdio.logical_offset + ahead > limit) {
          co_await c.L.stdio.fseek(s.stdio, 0);
        }
        break;
      }
      case OpKind::kReadScattered: {
        Slot& s = slot_of(c, o);
        co_await c.L.stdio.fread_scattered(s.stdio, eval_bytes(o.size, ec),
                                           eval_count(o.count, ec),
                                           eval_count(o.fetch_ops, ec));
        break;
      }
      case OpKind::kStat:
        co_await c.L.posix.stat(b.path->expand(ec));
        break;
      case OpKind::kCompute:
        co_await c.p.compute(jittered(o, c.rng));
        break;
      case OpKind::kGpuCompute:
        co_await c.p.gpu_compute(jittered(o, c.rng));
        break;
      case OpKind::kBarrier:
        co_await c.p.barrier();
        break;
      case OpKind::kAllreduce: {
        mpi::Comm& comm = *comm_of(b).comms.at(0);
        const util::Bytes n = eval_bytes(o.size, ec);
        const sim::Time t0 = c.p.now();
        co_await comm.allreduce(n);
        if (o.record) {
          c.p.record(trace::Iface::kMpi, trace::Op::kSendRecv, {}, 0, n, 1,
                     t0);
        }
        break;
      }
      case OpKind::kSignal: {
        EventState& es = event_of(b);
        if (--es.remaining == 0) es.ev.set();
        break;
      }
      case OpKind::kWaitEvent:
        co_await event_of(b).ev.wait();
        break;
      case OpKind::kSpawn: {
        const std::int64_t* r = c.env.find("rank");
        const std::int64_t* n = c.env.find("node");
        c.p.engine().spawn(spawn_body(c.st, &b, *c.cfg, c.env,
                                      r != nullptr ? static_cast<int>(*r)
                                                   : c.p.rank(),
                                      n != nullptr ? static_cast<int>(*n)
                                                   : c.p.node()));
        break;
      }
      case OpKind::kPacedRead: {
        Slot& s = slot_of(c, o);
        const util::Bytes size = eval_bytes(o.size, ec);
        const std::uint32_t count = eval_count(o.count, ec);
        const sim::Time t0 = c.p.now();
        {
          runtime::Proc::Suppression mute(c.p);
          co_await c.L.posix.read(s.file, size, count);
        }
        const sim::Time elapsed = c.p.now() - t0;
        if (elapsed < o.duration_ns) {
          co_await sim::Delay(c.p.engine(), o.duration_ns - elapsed);
        }
        c.p.record(trace::Iface::kPosix, trace::Op::kRead, s.file.key(), 0,
                   size, count, t0);
        break;
      }
    }
    // Groups are containers (their body ops record themselves) and spawns
    // detach — neither has a meaningful inline latency.
    if (o.kind != OpKind::kGroup && o.kind != OpKind::kSpawn) {
      replay_op_hist(o.kind).add(
          static_cast<std::uint64_t>(c.p.now() - op_vt0));
    }
  }
}

sim::Task<void> spawn_body(std::shared_ptr<RunState> st, const BoundOp* op,
                           LaneCfg cfg, Env env, int rank, int node) {
  runtime::Proc p(st->sim, st->app_id(op->op->app), rank, node);
  Layers L(p, cfg.stdio_buffer, cfg.mpiio, cfg.codec);
  util::Rng rng =
      util::Rng(cfg.rng_seed).fork(static_cast<std::uint64_t>(rank));
  std::map<std::string, Slot> slots;
  ExecCtx c{st, &cfg, p, L, env, rng, slots};
  co_await exec_ops(c, op->body);
}

sim::Task<void> lane_body(std::shared_ptr<RunState> st, std::size_t gi,
                          int lane) {
  const LaneGroup& g = st->pat.groups[gi];
  CommSet& cs = st->comm_set(g.comm);
  int rank = lane;
  int node = 0;
  int comm_rank = -1;
  int local = 0;
  bool leader = false;
  mpi::Comm* comm = nullptr;
  if (cs.decl.per_node) {
    node = lane / cs.decl.procs;
    local = lane % cs.decl.procs;
    comm_rank = local;
    comm = cs.comms.at(static_cast<std::size_t>(node));
    leader = local == 0;
  } else {
    comm = cs.comms.at(0);
    node = comm->node_of(rank);
    local = rank - comm->node_leader(rank);
    leader = comm->is_node_leader(rank);
  }

  util::Rng rng =
      util::Rng(g.rng_seed).fork(static_cast<std::uint64_t>(rank));
  Env env;
  env.set("rank", rank);
  env.set("node", node);
  env.set("local", local);
  env.set("leader", leader ? 1 : 0);
  LaneCfg cfg{g.stdio_buffer, g.hdf5, g.mpiio, g.codec, g.rng_seed};

  for (std::size_t pi = 0; pi < g.phases.size(); ++pi) {
    runtime::Proc p(st->sim, st->app_id(g.phases[pi].app), rank, node, comm,
                    comm_rank);
    Layers L(p, g.stdio_buffer, g.mpiio, g.codec);
    std::map<std::string, Slot> slots;
    ExecCtx c{st, &cfg, p, L, env, rng, slots};
    co_await exec_ops(c, st->phase_ops[gi][pi]);
  }
}

sim::Task<void> dag_task_body(std::shared_ptr<RunState> st,
                              std::size_t si, int instance,
                              runtime::Proc& p) {
  const DagStage* stage = &st->pat.dag.stages[si];
  const DagDecl& dag = st->pat.dag;
  LaneCfg cfg;
  cfg.stdio_buffer = dag.stdio_buffer;
  cfg.rng_seed = stage->rng_seed;
  Layers L(p, cfg.stdio_buffer, cfg.mpiio, cfg.codec);
  util::Rng rng =
      util::Rng(stage->rng_seed).fork(static_cast<std::uint64_t>(instance));
  Env env;
  env.set("id", instance);
  env.set("rank", p.rank());
  env.set("node", p.node());
  std::map<std::string, Slot> slots;
  ExecCtx c{st, &cfg, p, L, env, rng, slots};
  co_await exec_ops(c, st->stage_ops[si]);
}

sim::Task<void> dag_driver(std::shared_ptr<RunState> st) {
  const DagDecl& D = st->pat.dag;
  workflow::Dag dag;
  std::vector<std::vector<int>> task_ids(D.stages.size());
  for (std::size_t si = 0; si < D.stages.size(); ++si) {
    const DagStage* stage = &D.stages[si];
    for (int inst = 0; inst < stage->count; ++inst) {
      workflow::TaskSpec spec;
      spec.app = stage->app;
      spec.body = [st, si, inst](runtime::Proc& p) {
        return dag_task_body(st, si, inst, p);
      };
      const int id = dag.add_task(std::move(spec));
      task_ids[si].push_back(id);
      for (const DagDep& dep : stage->deps) {
        WASP_CHECK_MSG(dep.stage >= 0 &&
                           static_cast<std::size_t>(dep.stage) < si,
                       "pattern: dag dep must reference an earlier stage");
        const auto& producers = task_ids[static_cast<std::size_t>(dep.stage)];
        if (dep.index.empty()) {
          for (int t : producers) dag.add_dependency(id, t);
        } else {
          Env env;
          env.set("id", inst);
          EvalContext ec;
          ec.env = &env;
          const std::int64_t idx = dep.index.eval(ec);
          dag.add_dependency(id,
                             producers.at(static_cast<std::size_t>(idx)));
        }
      }
    }
  }

  workflow::PegasusScheduler::Options opts;
  opts.slots = D.slots;
  opts.nodes = D.nodes;
  opts.locality_aware = D.locality_aware;
  workflow::PegasusScheduler sched(st->sim, opts);
  auto& tracer = st->sim.tracer();
  std::map<std::string, std::uint16_t> app_ids;
  co_await sched.run(dag, [&tracer, &app_ids](const std::string& name) {
    auto it = app_ids.find(name);
    if (it == app_ids.end()) {
      it = app_ids.emplace(name, tracer.register_app(name)).first;
    }
    return it->second;
  });
}

}  // namespace

void replay(runtime::Simulation& sim, const JobPattern& pat) {
  // A pattern-borne fault plan installs here unless the runner already
  // installed one (RunConfig.faults wins).
  if (pat.faults.enabled() && sim.faults() == nullptr) {
    sim.install_faults(pat.faults);
  }
  auto st = std::make_shared<RunState>(sim, pat);
  for (const std::string& name : st->pat.apps) {
    st->app_ids.emplace(name, sim.tracer().register_app(name));
  }
  for (const CommDecl& decl : st->pat.comms) {
    CommSet cs;
    cs.decl = decl;
    if (decl.per_node) {
      for (int n = 0; n < decl.nodes; ++n) {
        cs.comms.push_back(&sim.add_comm_mapped(
            std::vector<int>(static_cast<std::size_t>(decl.procs), n)));
      }
    } else {
      cs.comms.push_back(&sim.add_comm(decl.procs, decl.nodes));
    }
    st->comms.emplace(decl.name, std::move(cs));
  }
  for (const EventDecl& decl : st->pat.events) {
    st->events.emplace(decl.name, std::make_unique<EventState>(
                                      sim.engine(), decl.countdown));
  }
  for (const LaneGroup& g : st->pat.groups) {
    auto& bound = st->phase_ops.emplace_back();
    for (const PhasePattern& ph : g.phases) bound.push_back(st->bind(ph.ops));
  }
  for (const DagStage& stage : st->pat.dag.stages) {
    st->stage_ops.push_back(st->bind(stage.ops));
  }
  for (std::size_t gi = 0; gi < st->pat.groups.size(); ++gi) {
    const LaneGroup& g = st->pat.groups[gi];
    const CommSet& cs = st->comm_set(g.comm);
    const int lanes = cs.decl.per_node ? cs.decl.nodes * cs.decl.procs
                                       : cs.decl.procs;
    for (int lane = 0; lane < lanes; ++lane) {
      sim.engine().spawn(lane_body(st, gi, lane));
    }
  }
  if (!st->pat.dag.empty()) {
    sim.engine().spawn(dag_driver(st));
  }
}

}  // namespace wasp::pattern
