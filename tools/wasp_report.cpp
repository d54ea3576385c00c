// wasp_report — read run artifacts back in: summarize a run manifest or
// Chrome trace, or diff two manifests with tolerance bands.
//
//   wasp_report summarize <manifest.json|trace.json> [--top N]
//   wasp_report diff <a.manifest.json> <b.manifest.json>
//               [--tolerance X] [--tolerance NAME=X] [--all]
//
// Exit codes: 0 ok; diff: 1 on a tolerance breach; 2 on usage errors,
// bad flag values and unreadable inputs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "obs/report.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

using namespace wasp;
namespace rep = wasp::obs::report;

namespace {

int usage() {
  std::cerr
      << "usage:\n"
         "  wasp_report summarize <manifest.json|trace.json> [--top N]\n"
         "  wasp_report diff <a.json> <b.json> [--tolerance X]"
         " [--tolerance NAME=X] [--all]\n";
  return 2;
}

/// Like util::cli_int: diagnose a malformed flag value, print usage, exit 2.
[[noreturn]] void bad_value(const std::string& flag, const std::string& text,
                            const char* expected) {
  std::cerr << "bad value for " << flag << ": '" << text << "' (expected "
            << expected << ")\n";
  std::exit(usage());
}

/// The band in a --tolerance value from `pos` on (all of "0.1", the X of
/// "NAME=X"): the rest of the string must be a finite number >= 0.
double tolerance_value(const std::string& text, std::size_t pos) {
  const char* begin = text.c_str() + pos;
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin || end != text.c_str() + text.size() ||
      !std::isfinite(v) || v < 0.0) {
    bad_value("--tolerance", text, "a finite number >= 0");
  }
  return v;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string fmt_pct(double rel) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.2f%%", rel * 100.0);
  return buf;
}

void print_span_table(std::ostream& os, std::vector<obs::SpanAgg> spans,
                      std::size_t top) {
  std::uint64_t grand_self = 0;
  for (const auto& s : spans) grand_self += s.self_ns;
  std::sort(spans.begin(), spans.end(),
            [](const obs::SpanAgg& a, const obs::SpanAgg& b) {
              if (a.self_ns != b.self_ns) return a.self_ns > b.self_ns;
              return a.name < b.name;
            });
  util::TablePrinter t("hot spans (by self time)");
  t.set_header({"span", "count", "total", "self", "self%"});
  for (std::size_t i = 0; i < std::min(top, spans.size()); ++i) {
    const auto& s = spans[i];
    const double share =
        grand_self == 0 ? 0.0
                        : static_cast<double>(s.self_ns) /
                              static_cast<double>(grand_self);
    t.add_row({s.name, std::to_string(s.count),
               fmt(static_cast<double>(s.total_ns) / 1e6) + "ms",
               fmt(static_cast<double>(s.self_ns) / 1e6) + "ms",
               fmt(share * 100.0) + "%"});
  }
  t.print(os);
  if (spans.size() > top) {
    os << "(" << spans.size() - top << " more spans; --top N to widen)\n";
  }
}

int cmd_summarize(const std::vector<std::string>& args) {
  std::string path;
  std::size_t top = 20;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--top" && i + 1 < args.size()) {
      const auto n = util::parse_uint(args[++i]);
      if (!n || *n == 0) bad_value("--top", args[i], "a positive integer");
      top = static_cast<std::size_t>(*n);
    } else if (path.empty() && args[i][0] != '-') {
      path = args[i];
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();

  // Sniff the document: a Chrome trace has "traceEvents", a manifest has
  // the wasp-run-manifest schema tag. Anything else is a diagnostic.
  const util::json::Value doc = util::json::parse_file(path);
  if (doc.is_object() && doc.get("traceEvents") != nullptr) {
    print_span_table(std::cout, rep::aggregate_chrome_trace(path), top);
    return 0;
  }
  const rep::ManifestView m = rep::load_manifest(path);
  std::cout << "manifest:      " << m.path << "\n"
            << "tool:          " << m.tool << " (jobs=" << m.jobs
            << ", backend=" << m.backend << ")\n"
            << "git:           " << m.git_sha << "\n"
            << "timestamp:     " << m.timestamp << "\n"
            << "hw threads:    " << m.hardware_threads << "\n"
            << "wall seconds:  " << fmt(m.wall_seconds) << "\n"
            << "metrics:       " << m.metrics.size() << " flattened entries\n";
  std::cout << "\n";
  print_span_table(std::cout, m.spans, top);
  return 0;
}

int cmd_diff(const std::vector<std::string>& args) {
  std::vector<std::string> paths;
  rep::DiffOptions opts;
  bool show_all = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--tolerance" && i + 1 < args.size()) {
      const std::string v = args[++i];
      const auto eq = v.find('=');
      if (eq == std::string::npos) {
        opts.tolerance = tolerance_value(v, 0);
      } else {
        opts.overrides.emplace_back(v.substr(0, eq),
                                    tolerance_value(v, eq + 1));
      }
    } else if (args[i] == "--all") {
      show_all = true;
    } else if (args[i][0] != '-') {
      paths.push_back(args[i]);
    } else {
      return usage();
    }
  }
  if (paths.size() != 2) return usage();

  const rep::ManifestView a = rep::load_manifest(paths[0]);
  const rep::ManifestView b = rep::load_manifest(paths[1]);
  const auto deltas = rep::diff_manifests(a, b, opts);

  util::TablePrinter t("manifest diff: " + paths[0] + " -> " + paths[1]);
  t.set_header({"metric", "a", "b", "delta", "band", "verdict"});
  std::size_t breaches = 0;
  std::size_t changed = 0;
  for (const auto& d : deltas) {
    if (d.breach) ++breaches;
    if (d.a != d.b) ++changed;
    if (!show_all && d.a == d.b && !d.breach) continue;
    const std::string band = d.deterministic ? "exact"
                             : d.tolerance < 0 ? "report"
                                               : fmt(d.tolerance * 100.0) + "%";
    t.add_row({d.name, fmt(d.a), fmt(d.b), fmt_pct(d.rel), band,
               d.breach ? "BREACH" : "ok"});
  }
  t.print(std::cout);
  std::cout << deltas.size() << " metrics compared, " << changed
            << " changed, " << breaches << " breached\n";
  return breaches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  for (const auto& a : args) {
    if (a.empty()) return usage();
  }
  try {
    if (cmd == "summarize") return cmd_summarize(args);
    if (cmd == "diff") return cmd_diff(args);
  } catch (const util::SimError& e) {
    std::cerr << "wasp_report: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "wasp_report: " << e.what() << "\n";
    return 2;
  }
  return usage();
}
