#include "obs/span.hpp"

#include <cstdio>
#include <ostream>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace wasp::obs {

namespace {

struct Event {
  const char* name;
  std::uint64_t ts;
  char ph;  // 'B' or 'E'
};

/// One track = one thread. The owner thread appends under the buffer mutex
/// (uncontended except during export); the exporter locks each buffer in
/// turn. Buffers are retained after thread exit so transient pool workers
/// survive into the export.
struct ThreadBuf {
  std::mutex mu;
  std::uint32_t tid = 0;
  std::string name;
  std::vector<Event> events;
  std::size_t open = 0;  // spans begun but not yet ended
  std::uint64_t dropped = 0;
};

struct TracerState {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  std::deque<std::string> interned;
  std::map<std::string, const char*, std::less<>> intern_index;
  std::uint32_t next_tid = 1;
  std::size_t max_events = std::size_t{1} << 18;
};

TracerState& tstate() {
  static TracerState* s = new TracerState;  // leaked like the registry
  return *s;
}

ThreadBuf& tls_buf() {
  thread_local std::shared_ptr<ThreadBuf> buf = [] {
    auto b = std::make_shared<ThreadBuf>();
    TracerState& s = tstate();
    std::lock_guard<std::mutex> lk(s.mu);
    b->tid = s.next_tid++;
    b->name = "thread-" + std::to_string(b->tid);
    s.bufs.push_back(b);
    return b;
  }();
  return *buf;
}

void write_json_escaped(std::ostream& os, std::string_view str) {
  os << '"';
  for (const char c : str) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
  os << '"';
}

}  // namespace

SpanTracer& SpanTracer::instance() {
  static SpanTracer* inst = new SpanTracer;
  return *inst;
}

bool SpanTracer::begin(const char* name) {
  ThreadBuf& b = tls_buf();
  std::lock_guard<std::mutex> lk(b.mu);
  const std::size_t cap = tstate().max_events;
  // This B plus one reserved E slot per open span (including ours) must
  // fit — so an accepted begin can always record its end.
  if (b.events.size() + b.open + 2 > cap) {
    ++b.dropped;
    return false;
  }
  b.events.push_back({name, now_ns(), 'B'});
  ++b.open;
  return true;
}

void SpanTracer::end(const char* name) {
  ThreadBuf& b = tls_buf();
  std::lock_guard<std::mutex> lk(b.mu);
  b.events.push_back({name, now_ns(), 'E'});
  --b.open;
}

const char* SpanTracer::intern(std::string_view name) {
  TracerState& s = tstate();
  std::lock_guard<std::mutex> lk(s.mu);
  if (auto it = s.intern_index.find(name); it != s.intern_index.end()) {
    return it->second;
  }
  s.interned.emplace_back(name);
  const char* p = s.interned.back().c_str();
  s.intern_index.emplace(s.interned.back(), p);
  return p;
}

void SpanTracer::set_thread_name(std::string_view name) {
  ThreadBuf& b = tls_buf();
  std::lock_guard<std::mutex> lk(b.mu);
  b.name.assign(name);
}

void SpanTracer::set_max_events_per_thread(std::size_t cap) noexcept {
  TracerState& s = tstate();
  std::lock_guard<std::mutex> lk(s.mu);
  s.max_events = cap < 2 ? 2 : cap;
}

std::uint64_t SpanTracer::dropped_events() const {
  TracerState& s = tstate();
  std::lock_guard<std::mutex> lk(s.mu);
  std::uint64_t total = 0;
  for (const auto& b : s.bufs) {
    std::lock_guard<std::mutex> blk(b->mu);
    total += b->dropped;
  }
  return total;
}

void SpanTracer::write_chrome_trace(std::ostream& os) const {
  TracerState& s = tstate();
  std::lock_guard<std::mutex> lk(s.mu);
  os << "{\"traceEvents\":[";
  bool first = true;
  char ts_buf[32];
  for (const auto& b : s.bufs) {
    std::lock_guard<std::mutex> blk(b->mu);
    if (b->events.empty()) continue;
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
       << b->tid << ",\"args\":{\"name\":";
    write_json_escaped(os, b->name);
    os << "}}";
    for (const Event& e : b->events) {
      // Chrome trace timestamps are microseconds; keep ns resolution via
      // three decimals.
      std::snprintf(ts_buf, sizeof(ts_buf), "%.3f",
                    static_cast<double>(e.ts) / 1000.0);
      os << ",\n{\"name\":";
      write_json_escaped(os, e.name);
      os << ",\"ph\":\"" << e.ph << "\",\"ts\":" << ts_buf
         << ",\"pid\":1,\"tid\":" << b->tid << "}";
    }
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

std::vector<SpanAgg> SpanTracer::aggregate() const {
  TracerState& s = tstate();
  std::lock_guard<std::mutex> lk(s.mu);
  std::map<std::string_view, SpanAgg> by_name;
  // Replay each track's event stream against a stack, charging a child's
  // duration against its parent's self time on close. Unbalanced opens at
  // the end of a buffer (spans still live, or torn by clear()) are dropped.
  struct Open {
    const char* name;
    std::uint64_t t0;
    std::uint64_t child_ns = 0;
  };
  for (const auto& b : s.bufs) {
    std::lock_guard<std::mutex> blk(b->mu);
    std::vector<Open> stack;
    for (const Event& e : b->events) {
      if (e.ph == 'B') {
        stack.push_back({e.name, e.ts});
        continue;
      }
      if (stack.empty() || stack.back().name != e.name) continue;
      const Open top = stack.back();
      stack.pop_back();
      const std::uint64_t dur = e.ts - top.t0;
      SpanAgg& agg = by_name[top.name];
      agg.count += 1;
      agg.total_ns += dur;
      agg.self_ns += dur - std::min(top.child_ns, dur);
      if (!stack.empty()) stack.back().child_ns += dur;
    }
  }
  std::vector<SpanAgg> out;
  out.reserve(by_name.size());
  for (auto& [name, agg] : by_name) {
    agg.name.assign(name);
    out.push_back(std::move(agg));
  }
  return out;
}

void SpanTracer::clear() {
  TracerState& s = tstate();
  std::lock_guard<std::mutex> lk(s.mu);
  for (const auto& b : s.bufs) {
    std::lock_guard<std::mutex> blk(b->mu);
    b->events.clear();
    b->dropped = 0;
    // open spans keep their reservation; their E events land in the
    // cleared buffer, unbalanced — tests clear() only between spans.
  }
}

}  // namespace wasp::obs
