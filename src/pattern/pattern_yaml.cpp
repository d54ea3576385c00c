// YAML serialization of the pattern IR.
//
// The dump is deterministic and canonical: fields appear in a fixed order,
// expression fields are emitted verbatim (their source text), and fields
// that are irrelevant to an op kind — or carry their default — are omitted.
// Loading a dumped pattern and dumping it again reproduces the bytes
// exactly; that property is what makes `wasp_pattern dump | edit | replay`
// trustworthy and is locked in by tests/test_pattern.cpp.
#include <concepts>
#include <cstdlib>
#include <limits>
#include <type_traits>
#include <utility>

#include "pattern/pattern.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"
#include "util/yaml.hpp"
#include "util/yaml_reader.hpp"

namespace wasp::pattern {
namespace {

using util::yaml::Node;
using util::yaml::Writer;

// ---- dump ----------------------------------------------------------------

void dump_expr(Writer& y, const char* key, const Expr& e) {
  if (!e.empty()) y.scalar(key, e.text());
}

void dump_ops(Writer& y, const char* key, const std::vector<Op>& ops);

void dump_op(Writer& y, const Op& o) {
  y.begin_seq_item_map();
  y.scalar("op", to_string(o.kind));
  switch (o.kind) {
    case OpKind::kGroup:
      if (!o.var.empty()) y.scalar("var", o.var);
      dump_expr(y, "begin", o.begin);
      dump_expr(y, "end", o.end);
      dump_expr(y, "step", o.step);
      dump_expr(y, "when", o.when);
      break;
    case OpKind::kOpen:
      y.scalar("layer", to_string(o.layer));
      y.scalar("handle", o.handle);
      y.scalar("path", o.path);
      y.scalar("mode", to_string(o.mode));
      break;
    case OpKind::kClose:
      y.scalar("layer", to_string(o.layer));
      y.scalar("handle", o.handle);
      break;
    case OpKind::kRead:
    case OpKind::kWrite:
      y.scalar("layer", to_string(o.layer));
      y.scalar("handle", o.handle);
      dump_expr(y, "offset", o.offset);
      dump_expr(y, "size", o.size);
      dump_expr(y, "count", o.count);
      break;
    case OpKind::kPread:
    case OpKind::kPwrite:
    case OpKind::kPreadSync:
    case OpKind::kPwriteSync:
      y.scalar("handle", o.handle);
      dump_expr(y, "offset", o.offset);
      dump_expr(y, "size", o.size);
      dump_expr(y, "count", o.count);
      break;
    case OpKind::kSeek:
      y.scalar("layer", to_string(o.layer));
      y.scalar("handle", o.handle);
      dump_expr(y, "offset", o.offset);
      break;
    case OpKind::kSeekBatch:
      y.scalar("layer", to_string(o.layer));
      y.scalar("handle", o.handle);
      dump_expr(y, "count", o.count);
      break;
    case OpKind::kSeekIfWrap:
      y.scalar("handle", o.handle);
      dump_expr(y, "wrap_bytes", o.wrap_bytes);
      dump_expr(y, "wrap_limit", o.wrap_limit);
      break;
    case OpKind::kReadScattered:
      y.scalar("handle", o.handle);
      dump_expr(y, "size", o.size);
      dump_expr(y, "count", o.count);
      dump_expr(y, "fetch_ops", o.fetch_ops);
      break;
    case OpKind::kStat:
      y.scalar("path", o.path);
      break;
    case OpKind::kCompute:
    case OpKind::kGpuCompute:
      y.scalar("duration_ns", o.duration_ns);
      if (o.jitter_span != 0.0) {
        y.scalar("jitter_lo", o.jitter_lo);
        y.scalar("jitter_span", o.jitter_span);
      }
      break;
    case OpKind::kBarrier:
      break;
    case OpKind::kAllreduce:
      y.scalar("comm", o.comm);
      dump_expr(y, "size", o.size);
      if (!o.record) y.scalar("record", false);
      break;
    case OpKind::kSignal:
    case OpKind::kWaitEvent:
      y.scalar("event", o.event);
      break;
    case OpKind::kSpawn:
      y.scalar("app", o.app);
      break;
    case OpKind::kPacedRead:
      y.scalar("handle", o.handle);
      dump_expr(y, "size", o.size);
      dump_expr(y, "count", o.count);
      y.scalar("floor_ns", o.duration_ns);
      break;
  }
  if (!o.body.empty()) dump_ops(y, "body", o.body);
  y.end_map();
}

void dump_ops(Writer& y, const char* key, const std::vector<Op>& ops) {
  y.begin_seq(key);
  for (const Op& o : ops) dump_op(y, o);
  y.end_seq();
}

// ---- load ----------------------------------------------------------------

[[noreturn]] void bad(const std::string& what) {
  throw util::SimError("pattern yaml: " + what);
}

// Each parse() overload reads one field's text into its type, diagnosing a
// value the type cannot hold.
void parse(const std::string& s, const std::string&, std::string& out) {
  out = s;
}

void parse(const std::string& s, const std::string& key, bool& out) {
  if (s != "true" && s != "false") {
    bad("field '" + key + "' is not a bool: '" + s + "'");
  }
  out = s == "true";
}

void parse(const std::string& s, const std::string& key, double& out) {
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    bad("field '" + key + "' is not a number: '" + s + "'");
  }
}

template <std::integral T>
  requires(!std::same_as<T, bool>)
void parse(const std::string& s, const std::string& key, T& out) {
  const auto v = [&s] {
    if constexpr (std::is_signed_v<T>) return util::parse_int(s);
    else return util::parse_uint(s);
  }();
  if (!v || !std::in_range<T>(*v)) {
    bad("field '" + key + "' is not an integer in [" +
        std::to_string(std::numeric_limits<T>::min()) + ", " +
        std::to_string(std::numeric_limits<T>::max()) + "]: '" + s + "'");
  }
  out = static_cast<T>(*v);
}

void parse(const std::string& s, const std::string& key, Expr& out) {
  try {
    out = Expr(s);
  } catch (const util::SimError& e) {
    bad("field '" + key + "': " + e.what());
  }
}

/// Override `out` when `key` is present. An absent key leaves the default
/// of the struct being loaded, which every loader default-constructs.
template <class T>
void load(const Node& n, const std::string& key, T& out) {
  if (const Node* f = n.find(key)) parse(f->scalar(), key, out);
}

std::vector<Op> load_ops(const Node* seq, const std::string& where);

Op load_op(const Node& n, const std::string& where) {
  if (!n.is_map()) bad(where + ": op entry is not a map");
  const Node* kind = n.find("op");
  if (kind == nullptr || !kind->is_scalar()) {
    bad(where + ": op entry missing 'op' kind");
  }
  Op o;
  o.kind = op_kind_from(kind->scalar());
  if (const Node* f = n.find("layer")) o.layer = layer_from(f->scalar());
  load(n, "handle", o.handle);
  load(n, "path", o.path);
  if (const Node* f = n.find("mode")) o.mode = open_mode_from(f->scalar());
  load(n, "offset", o.offset);
  load(n, "size", o.size);
  load(n, "count", o.count);
  load(n, "fetch_ops", o.fetch_ops);
  load(n, "wrap_bytes", o.wrap_bytes);
  load(n, "wrap_limit", o.wrap_limit);
  load(n, o.kind == OpKind::kPacedRead ? "floor_ns" : "duration_ns",
       o.duration_ns);
  load(n, "jitter_lo", o.jitter_lo);
  load(n, "jitter_span", o.jitter_span);
  load(n, "comm", o.comm);
  load(n, "record", o.record);
  load(n, "event", o.event);
  load(n, "app", o.app);
  load(n, "var", o.var);
  load(n, "begin", o.begin);
  load(n, "end", o.end);
  load(n, "step", o.step);
  load(n, "when", o.when);
  o.body = load_ops(n.find("body"), where);
  return o;
}

std::vector<Op> load_ops(const Node* seq, const std::string& where) {
  std::vector<Op> ops;
  if (seq == nullptr) return ops;
  if (!seq->is_seq()) bad(where + ": ops is not a sequence");
  for (const Node& item : seq->items()) ops.push_back(load_op(item, where));
  return ops;
}

}  // namespace

std::string to_yaml(const JobPattern& pat) {
  Writer y;
  y.scalar("name", pat.name);
  if (pat.faults.enabled()) y.scalar("faults", pat.faults.to_spec());
  if (!pat.apps.empty()) {
    y.begin_seq("apps");
    for (const auto& a : pat.apps) y.scalar_item(a);
    y.end_seq();
  }
  if (!pat.comms.empty()) {
    y.begin_seq("comms");
    for (const CommDecl& c : pat.comms) {
      y.begin_seq_item_map();
      y.scalar("name", c.name);
      y.scalar("procs", c.procs);
      y.scalar("nodes", c.nodes);
      if (c.per_node) y.scalar("per_node", true);
      y.end_map();
    }
    y.end_seq();
  }
  if (!pat.events.empty()) {
    y.begin_seq("events");
    for (const EventDecl& e : pat.events) {
      y.begin_seq_item_map();
      y.scalar("name", e.name);
      y.scalar("countdown", e.countdown);
      y.end_map();
    }
    y.end_seq();
  }
  if (!pat.meta.empty()) {
    y.begin_seq("meta");
    for (const auto& [k, v] : pat.meta) {
      y.begin_seq_item_map();
      y.scalar("key", k);
      y.scalar("value", v);
      y.end_map();
    }
    y.end_seq();
  }
  if (!pat.groups.empty()) {
    y.begin_seq("groups");
    for (const LaneGroup& g : pat.groups) {
      y.begin_seq_item_map();
      y.scalar("comm", g.comm);
      y.scalar("rng_seed", g.rng_seed);
      y.scalar("stdio_buffer", static_cast<std::uint64_t>(g.stdio_buffer));
      y.begin_map("hdf5");
      y.scalar("chunk_size", static_cast<std::uint64_t>(g.hdf5.chunk_size));
      y.scalar("use_mpiio", g.hdf5.use_mpiio);
      y.scalar("meta_reads_per_open", g.hdf5.meta_reads_per_open);
      y.scalar("meta_reads_per_access", g.hdf5.meta_reads_per_access);
      y.end_map();
      y.begin_map("mpiio");
      y.scalar("cb_buffer", static_cast<std::uint64_t>(g.mpiio.cb_buffer));
      y.scalar("aggregators_per_node", g.mpiio.aggregators_per_node);
      y.end_map();
      y.begin_map("codec");
      y.scalar("cpu_bps", g.codec.cpu_bps);
      y.scalar("gpu_bps", g.codec.gpu_bps);
      y.scalar("use_gpu", g.codec.use_gpu);
      y.scalar("ratio", g.codec.ratio);
      y.end_map();
      y.begin_seq("phases");
      for (const PhasePattern& ph : g.phases) {
        y.begin_seq_item_map();
        y.scalar("app", ph.app);
        dump_ops(y, "ops", ph.ops);
        y.end_map();
      }
      y.end_seq();
      y.end_map();
    }
    y.end_seq();
  }
  if (!pat.dag.empty()) {
    y.begin_map("dag");
    y.scalar("slots", pat.dag.slots);
    y.scalar("nodes", pat.dag.nodes);
    y.scalar("stdio_buffer",
             static_cast<std::uint64_t>(pat.dag.stdio_buffer));
    y.begin_seq("stages");
    for (const DagStage& s : pat.dag.stages) {
      y.begin_seq_item_map();
      y.scalar("app", s.app);
      y.scalar("count", s.count);
      y.scalar("rng_seed", s.rng_seed);
      if (!s.deps.empty()) {
        y.begin_seq("deps");
        for (const DagDep& d : s.deps) {
          y.begin_seq_item_map();
          y.scalar("stage", d.stage);
          dump_expr(y, "index", d.index);
          y.end_map();
        }
        y.end_seq();
      }
      dump_ops(y, "ops", s.ops);
      y.end_map();
    }
    y.end_seq();
    y.end_map();
  }
  return y.str();
}

JobPattern pattern_from_yaml(const std::string& text) {
  const Node root = util::yaml::parse(text);
  if (!root.is_map()) bad("document root is not a map");
  JobPattern pat;
  load(root, "name", pat.name);
  if (const Node* faults = root.find("faults")) {
    if (!faults->is_scalar()) bad("'faults' is not a scalar spec string");
    pat.faults = sim::FaultPlan::parse(faults->scalar());
  }
  if (const Node* apps = root.find("apps")) {
    if (!apps->is_seq()) bad("'apps' is not a sequence");
    for (const Node& a : apps->items()) pat.apps.push_back(a.scalar());
  }
  if (const Node* comms = root.find("comms")) {
    if (!comms->is_seq()) bad("'comms' is not a sequence");
    for (const Node& c : comms->items()) {
      CommDecl& d = pat.comms.emplace_back();
      load(c, "name", d.name);
      if (d.name.empty()) bad("comm missing 'name'");
      load(c, "procs", d.procs);
      load(c, "nodes", d.nodes);
      load(c, "per_node", d.per_node);
    }
  }
  if (const Node* events = root.find("events")) {
    if (!events->is_seq()) bad("'events' is not a sequence");
    for (const Node& e : events->items()) {
      EventDecl& d = pat.events.emplace_back();
      load(e, "name", d.name);
      if (d.name.empty()) bad("event missing 'name'");
      load(e, "countdown", d.countdown);
    }
  }
  if (const Node* meta = root.find("meta")) {
    if (!meta->is_seq()) bad("'meta' is not a sequence");
    for (const Node& m : meta->items()) {
      auto& [key, value] = pat.meta.emplace_back();
      load(m, "key", key);
      load(m, "value", value);
    }
  }
  if (const Node* groups = root.find("groups")) {
    if (!groups->is_seq()) bad("'groups' is not a sequence");
    for (const Node& gn : groups->items()) {
      LaneGroup& g = pat.groups.emplace_back();
      load(gn, "comm", g.comm);
      if (g.comm.empty()) bad("group missing 'comm'");
      load(gn, "rng_seed", g.rng_seed);
      load(gn, "stdio_buffer", g.stdio_buffer);
      if (const Node* h5 = gn.find("hdf5")) {
        load(*h5, "chunk_size", g.hdf5.chunk_size);
        load(*h5, "use_mpiio", g.hdf5.use_mpiio);
        load(*h5, "meta_reads_per_open", g.hdf5.meta_reads_per_open);
        load(*h5, "meta_reads_per_access", g.hdf5.meta_reads_per_access);
      }
      if (const Node* m = gn.find("mpiio")) {
        load(*m, "cb_buffer", g.mpiio.cb_buffer);
        load(*m, "aggregators_per_node", g.mpiio.aggregators_per_node);
      }
      if (const Node* c = gn.find("codec")) {
        load(*c, "cpu_bps", g.codec.cpu_bps);
        load(*c, "gpu_bps", g.codec.gpu_bps);
        load(*c, "use_gpu", g.codec.use_gpu);
        load(*c, "ratio", g.codec.ratio);
      }
      if (const Node* phases = gn.find("phases")) {
        if (!phases->is_seq()) bad("group 'phases' is not a sequence");
        for (const Node& pn : phases->items()) {
          PhasePattern& ph = g.phases.emplace_back();
          load(pn, "app", ph.app);
          if (ph.app.empty()) bad("phase missing 'app'");
          ph.ops = load_ops(pn.find("ops"), "phase '" + ph.app + "'");
        }
      }
    }
  }
  if (const Node* dag = root.find("dag")) {
    if (!dag->is_map()) bad("'dag' is not a map");
    load(*dag, "slots", pat.dag.slots);
    load(*dag, "nodes", pat.dag.nodes);
    load(*dag, "stdio_buffer", pat.dag.stdio_buffer);
    if (const Node* stages = dag->find("stages")) {
      if (!stages->is_seq()) bad("dag 'stages' is not a sequence");
      for (const Node& sn : stages->items()) {
        DagStage& s = pat.dag.stages.emplace_back();
        load(sn, "app", s.app);
        if (s.app.empty()) bad("dag stage missing 'app'");
        load(sn, "count", s.count);
        load(sn, "rng_seed", s.rng_seed);
        if (const Node* deps = sn.find("deps")) {
          if (!deps->is_seq()) bad("stage 'deps' is not a sequence");
          for (const Node& dn : deps->items()) {
            DagDep& d = s.deps.emplace_back();
            load(dn, "stage", d.stage);
            if (d.stage < 0) bad("dag dep missing 'stage'");
            load(dn, "index", d.index);
          }
        }
        s.ops = load_ops(sn.find("ops"), "dag stage '" + s.app + "'");
      }
    }
  }
  return pat;
}

}  // namespace wasp::pattern
