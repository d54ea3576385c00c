#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

#include <array>
#include <map>
#include <memory>
#include <mutex>

namespace wasp::obs {

std::uint64_t now_ns() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

const Snapshot::Entry* Snapshot::find(std::string_view name) const noexcept {
  for (const Entry& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::uint64_t Snapshot::value(std::string_view name) const noexcept {
  const Entry* e = find(name);
  return e != nullptr ? e->value : 0;
}

std::uint64_t Snapshot::hist_count(std::string_view name) const noexcept {
  const Entry* e = find(name);
  return e != nullptr ? e->count : 0;
}

Snapshot Snapshot::delta(const Snapshot& earlier) const {
  Snapshot out;
  out.entries.reserve(entries.size());
  for (const Entry& e : entries) {
    Entry d = e;
    if (e.kind != Kind::kGauge) {
      if (const Entry* b = earlier.find(e.name); b != nullptr) {
        d.value -= std::min(b->value, d.value);
        d.count -= std::min(b->count, d.count);
        for (auto& [bucket, n] : d.buckets) {
          for (const auto& [bb, bn] : b->buckets) {
            if (bb == bucket) {
              n -= std::min(bn, n);
              break;
            }
          }
        }
        d.buckets.erase(
            std::remove_if(d.buckets.begin(), d.buckets.end(),
                           [](const auto& p) { return p.second == 0; }),
            d.buckets.end());
      }
    }
    out.entries.push_back(std::move(d));
  }
  return out;
}

std::atomic<bool> Registry::timing_{false};

namespace detail {

std::uint32_t value_bucket(std::uint64_t v) noexcept {
  return v == 0 ? 0u
               : static_cast<std::uint32_t>(64 - std::countl_zero(v));
}

}  // namespace detail

namespace {

struct Shard {
  std::array<std::atomic<std::uint64_t>, detail::kMaxSlots> v{};
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

struct MetricInfo {
  std::string name;
  MetricKind kind;
  std::uint32_t slot;  // first shard slot (counter/histogram), gauge index
};

/// All registry state, at file scope (leaked singleton: thread-exit hooks
/// may fold shards in after static destruction began).
struct State {
  mutable std::mutex mu;
  std::vector<MetricInfo> metrics;
  std::map<std::string, std::size_t, std::less<>> by_name;
  std::uint32_t next_slot = 0;
  std::uint32_t next_gauge = 0;
  std::vector<std::shared_ptr<Shard>> shards;              // live threads
  std::array<std::uint64_t, detail::kMaxSlots> retired{};  // exited threads
  std::vector<std::pair<std::uint32_t, const std::atomic<std::uint64_t>*>>
      cells;  // live CounterCells: (slot, value)
  std::array<std::atomic<std::int64_t>, detail::kMaxGauges> gauges{};

  std::size_t metric(std::string_view name, MetricKind kind,
                     std::uint32_t slots_needed) {
    std::lock_guard<std::mutex> lk(mu);
    if (auto it = by_name.find(name); it != by_name.end()) {
      // Kind mismatch yields an inert handle rather than corrupting slots.
      return metrics[it->second].kind == kind ? it->second : metrics.size();
    }
    std::uint32_t slot = detail::kInvalidSlot;
    if (kind == MetricKind::kGauge) {
      if (next_gauge >= detail::kMaxGauges) return metrics.size();
      slot = next_gauge++;
    } else {
      if (next_slot + slots_needed > detail::kMaxSlots) return metrics.size();
      slot = next_slot;
      next_slot += slots_needed;
    }
    metrics.push_back({std::string(name), kind, slot});
    by_name.emplace(std::string(name), metrics.size() - 1);
    return metrics.size() - 1;
  }
};

State& state() {
  static State* s = new State;
  return *s;
}

/// Thread-local shard lifetime: register on first use, fold into the
/// retired accumulator on thread exit so totals persist.
struct ShardOwner {
  std::shared_ptr<Shard> shard = std::make_shared<Shard>();
  ShardOwner() {
    State& s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    s.shards.push_back(shard);
  }
  ~ShardOwner() {
    State& s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    for (std::uint32_t i = 0; i < s.next_slot; ++i) {
      s.retired[i] += shard->v[i].load(std::memory_order_relaxed);
    }
    s.shards.erase(std::remove(s.shards.begin(), s.shards.end(), shard),
                   s.shards.end());
  }
};

}  // namespace

namespace detail {

std::atomic<std::uint64_t>* tls_slots() {
  thread_local ShardOwner owner;
  return owner.shard->v.data();
}

}  // namespace detail

Registry& Registry::instance() {
  static Registry* inst = new Registry;  // leaked, see State
  return *inst;
}

Counter Registry::counter(std::string_view name) {
  State& s = state();
  const std::size_t idx = s.metric(name, MetricKind::kCounter, 1);
  if (idx >= s.metrics.size()) return Counter{};
  return Counter{s.metrics[idx].slot};
}

Gauge Registry::gauge(std::string_view name) {
  State& s = state();
  const std::size_t idx = s.metric(name, MetricKind::kGauge, 1);
  if (idx >= s.metrics.size()) return Gauge{};
  return Gauge{s.metrics[idx].slot};
}

Histogram Registry::histogram(std::string_view name) {
  State& s = state();
  const std::size_t idx =
      s.metric(name, MetricKind::kHistogram, detail::kHistSlots);
  if (idx >= s.metrics.size()) return Histogram{};
  return Histogram{s.metrics[idx].slot};
}

void Gauge::set(std::int64_t v) const noexcept {
  if (idx_ == detail::kInvalidSlot) return;
  state().gauges[idx_].store(v, std::memory_order_relaxed);
}

void Gauge::set_max(std::int64_t v) const noexcept {
  if (idx_ == detail::kInvalidSlot) return;
  auto& g = state().gauges[idx_];
  std::int64_t cur = g.load(std::memory_order_relaxed);
  while (v > cur &&
         !g.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

CounterCell::CounterCell(std::string_view name) {
  const Counter c = Registry::instance().counter(name);
  slot_ = c.slot_;
  if (slot_ == detail::kInvalidSlot) return;
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.cells.emplace_back(slot_, &v_);
}

CounterCell::~CounterCell() {
  if (slot_ == detail::kInvalidSlot) return;
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.retired[slot_] += v_.load(std::memory_order_relaxed);
  s.cells.erase(std::remove_if(
                    s.cells.begin(), s.cells.end(),
                    [this](const auto& p) { return p.second == &v_; }),
                s.cells.end());
}

Snapshot Registry::snapshot() const {
  State& im = state();
  Snapshot out;
  std::lock_guard<std::mutex> lk(im.mu);
  auto slot_total = [&](std::uint32_t slot) {
    std::uint64_t total = im.retired[slot];
    for (const auto& sh : im.shards) {
      total += sh->v[slot].load(std::memory_order_relaxed);
    }
    for (const auto& [cslot, cv] : im.cells) {
      if (cslot == slot) total += cv->load(std::memory_order_relaxed);
    }
    return total;
  };
  out.entries.reserve(im.metrics.size());
  for (const MetricInfo& m : im.metrics) {
    Snapshot::Entry e;
    e.name = m.name;
    switch (m.kind) {
      case MetricKind::kCounter:
        e.kind = Snapshot::Kind::kCounter;
        e.value = slot_total(m.slot);
        break;
      case MetricKind::kGauge:
        e.kind = Snapshot::Kind::kGauge;
        e.value = static_cast<std::uint64_t>(
            im.gauges[m.slot].load(std::memory_order_relaxed));
        break;
      case MetricKind::kHistogram: {
        e.kind = Snapshot::Kind::kHistogram;
        e.value = slot_total(m.slot);  // sum slot
        for (std::uint32_t b = 0; b < detail::kHistBuckets; ++b) {
          const std::uint64_t n = slot_total(m.slot + 1 + b);
          if (n == 0) continue;
          e.count += n;
          e.buckets.emplace_back(b, n);
        }
        break;
      }
    }
    out.entries.push_back(std::move(e));
  }
  std::sort(out.entries.begin(), out.entries.end(),
            [](const Snapshot::Entry& a, const Snapshot::Entry& b) {
              return a.name < b.name;
            });
  return out;
}

}  // namespace wasp::obs
