#include "core/entities.hpp"

#include <concepts>
#include <fstream>
#include <optional>
#include <sstream>
#include <tuple>
#include <type_traits>

#include "util/error.hpp"
#include "util/parse.hpp"
#include "util/yaml.hpp"
#include "util/yaml_reader.hpp"

namespace wasp::charz {
namespace {

using util::yaml::Node;

// ---- value formats ----------------------------------------------------

/// How one kind of attribute value prints, and how its text reads back
/// (nullopt when the text is not in the format).
template <class T>
struct Format {
  std::string (*print)(T);
  std::optional<T> (*read)(const std::string&);
};

const Format<std::string> kText{
    [](std::string v) { return v; },
    [](const std::string& s) -> std::optional<std::string> { return s; }};

const Format<int> kInt{
    [](int v) { return std::to_string(v); },
    [](const std::string& s) -> std::optional<int> {
      const auto v = util::parse_int(s);
      if (!v || !std::in_range<int>(*v)) return {};
      return static_cast<int>(*v);
    }};

const Format<std::uint64_t> kCount{
    [](std::uint64_t v) { return std::to_string(v); },
    [](const std::string& s) -> std::optional<std::uint64_t> {
      return util::parse_uint(s);
    }};

const Format<bool> kFlag{
    [](bool v) -> std::string { return v ? "yes" : "NA"; },
    [](const std::string& s) -> std::optional<bool> {
      if (s == "yes") return true;
      if (s == "NA") return false;
      return {};
    }};

const Format<util::Bytes> kBytes{util::format_bytes, util::parse_bytes};
const Format<double> kSeconds{util::format_seconds, util::parse_seconds};
const Format<double> kRate{util::format_rate, util::parse_rate};

const Format<double> kHours{
    [](double h) { return util::format_seconds(h * 3600); },
    [](const std::string& s) -> std::optional<double> {
      const auto sec = util::parse_seconds(s);
      if (!sec) return {};
      return *sec / 3600.0;
    }};

/// "75% data, 25% meta" from the data-op fraction.
const Format<double> kOpsDist{
    [](double data_fraction) {
      return util::format_percent(data_fraction) + " data, " +
             util::format_percent(1.0 - data_fraction) + " meta";
    },
    util::parse_ops_dist};

/// An attribute's text: its field in its format, or the "737/37"
/// file-per-process/shared file counts, one attribute over two fields.
template <class T>
std::string text_of(const T& field, const Format<T>& format) {
  return format.print(field);
}

std::string text_of(std::uint64_t fpp, std::uint64_t shared) {
  return std::to_string(fpp) + "/" + std::to_string(shared);
}

/// Inverse of text_of(); false when the text is not in the format.
template <class T>
bool read_into(const std::string& text, T& field, const Format<T>& format) {
  const std::optional<T> v = format.read(text);
  if (v) field = *v;
  return v.has_value();
}

bool read_into(const std::string& text, std::uint64_t& fpp,
               std::uint64_t& shared) {
  const auto v = util::parse_fpp_shared(text);
  if (v) std::tie(fpp, shared) = *v;
  return v.has_value();
}

// ---- attribute tables -------------------------------------------------
// One table per entity: a row v(key, field(s), format) per attribute, in
// print order. A table takes its entity const to print and mutable to read.

template <class T, class E>
concept Of = std::same_as<std::remove_const_t<T>, E>;

void visit(Of<JobConfigEntity> auto& e, auto&& v) {
  v("nodes", e.nodes, kInt);
  v("cpu_cores_per_node", e.cpu_cores_per_node, kInt);
  v("gpus_per_node", e.gpus_per_node, kInt);
  v("node_local_bb_dir", e.node_local_bb_dirs, kText);
  v("shared_bb_dir", e.shared_bb_dir, kText);
  v("pfs_dir", e.pfs_dir, kText);
  v("job_time_limit", e.job_time_limit_hours, kHours);
}

void visit(Of<WorkflowEntity> auto& e, auto&& v) {
  v("cpu_cores_used_per_node", e.cpu_cores_used_per_node, kInt);
  v("gpus_used_per_node", e.gpus_used_per_node, kInt);
  v("num_apps", e.num_apps, kInt);
  v("app_data_dependency", e.has_app_data_dependency, kFlag);
  v("fpp_shared_file_access", e.fpp_files, e.shared_files);
  v("io_amount", e.io_amount, kBytes);
  v("io_ops_dist", e.data_ops_fraction, kOpsDist);
  v("runtime", e.runtime_sec, kSeconds);
}

void visit(Of<ApplicationEntity> auto& e, auto&& v) {
  v("name", e.name, kText);
  v("num_processes", e.num_processes, kInt);
  v("process_data_dependency", e.has_process_data_dependency, kFlag);
  v("fpp_shared_file_access", e.fpp_files, e.shared_files);
  v("io_amount", e.io_amount, kBytes);
  v("io_ops_dist", e.data_ops_fraction, kOpsDist);
  v("interface", e.interface, kText);
  v("runtime", e.runtime_sec, kSeconds);
}

void visit(Of<IoPhaseEntity> auto& e, auto&& v) {
  v("app", e.app, kText);
  v("phase", e.index, kInt);
  v("io_amount", e.io_amount, kBytes);
  v("io_ops_dist", e.data_ops_fraction, kOpsDist);
  v("frequency", e.frequency, kText);
  v("runtime", e.runtime_sec, kSeconds);
}

void visit(Of<HighLevelIoEntity> auto& e, auto&& v) {
  v("data_repr", e.data_repr, kText);
  v("granularity_data", e.data_granularity, kBytes);
  v("granularity_meta", e.meta_granularity, kBytes);
  v("access_pattern", e.access_pattern, kText);
  v("data_dist", e.data_distribution, kText);
}

void visit(Of<MiddlewareEntity> auto& e, auto&& v) {
  v("extra_io_cores_per_node", e.extra_io_cores_per_node, kInt);
  v("granularity_data", e.data_granularity, kBytes);
  v("granularity_meta", e.meta_granularity, kBytes);
  v("memory_per_node", e.memory_per_node, kBytes);
  v("access_pattern", e.access_pattern, kText);
}

void visit(Of<NodeLocalStorageEntity> auto& e, auto&& v) {
  v("dir", e.dir, kText);
  v("parallel_ops", e.parallel_ops, kInt);
  v("capacity_per_node", e.capacity_per_node, kBytes);
  v("max_io_bw_per_node", e.max_bandwidth_bps, kRate);
}

void visit(Of<SharedStorageEntity> auto& e, auto&& v) {
  v("dir", e.dir, kText);
  v("parallel_servers", e.parallel_servers, kInt);
  v("capacity", e.capacity, kBytes);
  v("max_io_bw", e.max_bandwidth_bps, kRate);
}

void visit(Of<DatasetEntity> auto& e, auto&& v) {
  v("format", e.format, kText);
  v("size", e.size, kBytes);
  v("num_files", e.num_files, kCount);
  v("io_amount", e.io_amount, kBytes);
  v("io_time", e.io_time_sec, kSeconds);
  v("io_ops_dist", e.data_ops_fraction, kOpsDist);
  v("file_size_dist", e.file_size_dist, kText);
}

void visit(Of<FileEntity> auto& e, auto&& v) {
  v("path", e.path, kText);
  v("format", e.format, kText);
  v("size", e.size, kBytes);
  v("io_amount", e.io_amount, kBytes);
  v("io_time", e.io_time_sec, kSeconds);
  v("io_ops_dist", e.data_ops_fraction, kOpsDist);
  v("format_attributes", e.format_attributes, kText);
}

/// The document: the workload's name, then each entity group's sections in
/// print order. A section is one entity (a map) or a list of them (a
/// sequence of maps).
void visit(Of<WorkloadCharacterization> auto& c, auto&& v) {
  v("workload", c.workload, kText);
  v.group("job", [&](auto& g) {
    g.one("job_configuration", c.job);
    g.one("workflow", c.workflow);
    g.many("applications", c.applications);
    g.many("io_phases", c.phases);
  });
  v.group("software", [&](auto& g) {
    g.one("high_level_io", c.high_level_io);
    g.one("middleware", c.middleware);
    g.many("node_local_storage", c.node_local);
    g.one("shared_storage", c.shared_storage);
  });
  v.group("data", [&](auto& g) {
    g.one("dataset", c.dataset);
    g.one("file", c.file);
  });
}

template <class E>
AttrList print(const E& e) {
  AttrList out;
  visit(e, [&out](const char* key, const auto&... field) {
    out.emplace_back(key, text_of(field...));
  });
  return out;
}

// ---- YAML -------------------------------------------------------------

struct YamlWriter {
  util::yaml::Writer y;

  void operator()(const char* key, const auto&... field) {
    y.scalar(key, text_of(field...));
  }
  void group(const char* key, auto&& sections) {
    y.begin_map(key);
    sections(*this);
    y.end_map();
  }
  void one(const char* key, const auto& e) {
    y.begin_map(key);
    visit(e, *this);
    y.end_map();
  }
  void many(const char* key, const auto& list) {
    y.begin_seq(key);
    for (const auto& e : list) {
      y.begin_seq_item_map();
      visit(e, *this);
      y.end_map();
    }
    y.end_seq();
  }
};

[[noreturn]] void bad(const std::string& what) {
  throw util::SimError("characterization YAML: " + what);
}

std::string shape_of(const Node& n) {
  if (n.is_scalar()) return "'" + n.scalar() + "'";
  return n.is_map() ? "a map" : "a sequence";
}

/// Reads the keys present in one map of the document into their fields,
/// entities and lists; an absent key keeps the struct default.
struct YamlReader {
  const Node& map;
  std::string where;  ///< the map's path in the document, "" at the root

  static YamlReader of(const Node& n, std::string where) {
    if (!n.is_map()) {
      bad((where.empty() ? "the document" : where) + " must be a map, not " +
          shape_of(n));
    }
    return {n, std::move(where)};
  }
  std::string path(const char* key) const {
    return where.empty() ? key : where + "." + key;
  }

  void operator()(const char* key, auto&... field) {
    const Node* n = map.find(key);
    if (n == nullptr) return;
    if (!n->is_scalar() || !read_into(n->scalar(), field...)) {
      bad(path(key) + " cannot be " + shape_of(*n));
    }
  }
  void group(const char* key, auto&& sections) {
    const Node* n = map.find(key);
    if (n == nullptr) bad("missing '" + path(key) + "'");
    YamlReader g = of(*n, path(key));
    sections(g);
  }
  void one(const char* key, auto& e) {
    if (const Node* n = map.find(key)) visit(e, of(*n, path(key)));
  }
  void many(const char* key, auto& list) {
    const Node* n = map.find(key);
    // An empty list is written as a bare key, which reads as an empty map.
    if (n == nullptr || (n->is_map() && n->entries().empty())) return;
    if (!n->is_seq()) {
      bad(path(key) + " must be a sequence of maps, not " + shape_of(*n));
    }
    for (std::size_t i = 0; i < n->items().size(); ++i) {
      const std::string at = path(key) + "[" + std::to_string(i) + "]";
      visit(list.emplace_back(), of(n->items()[i], at));
    }
  }
};

}  // namespace

AttrList JobConfigEntity::attributes() const { return print(*this); }
AttrList WorkflowEntity::attributes() const { return print(*this); }
AttrList ApplicationEntity::attributes() const { return print(*this); }
AttrList IoPhaseEntity::attributes() const { return print(*this); }
AttrList HighLevelIoEntity::attributes() const { return print(*this); }
AttrList MiddlewareEntity::attributes() const { return print(*this); }
AttrList NodeLocalStorageEntity::attributes() const { return print(*this); }
AttrList SharedStorageEntity::attributes() const { return print(*this); }
AttrList DatasetEntity::attributes() const { return print(*this); }
AttrList FileEntity::attributes() const { return print(*this); }

std::string WorkloadCharacterization::to_yaml() const {
  YamlWriter w;
  visit(*this, w);
  return w.y.str();
}

WorkloadCharacterization from_yaml(const std::string& text) {
  const Node root = util::yaml::parse(text);
  WorkloadCharacterization c;
  visit(c, YamlReader::of(root, ""));
  return c;
}

WorkloadCharacterization load_yaml_file(const std::string& path) {
  std::ifstream is(path);
  WASP_CHECK_MSG(is.good(), "cannot open characterization file: " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  return from_yaml(buf.str());
}

}  // namespace wasp::charz
