// Ablation: hierarchical buffering middleware (Hermes-style, §II-B) on a
// produce-then-consume pipeline — direct PFS vs write-back staging, and
// the eviction-policy configuration the paper lists for this middleware
// class (FIFO vs LRU under capacity pressure with a hot working set).
#include <cstdio>
#include <iostream>

#include "io/tiered_buffer.hpp"
#include "util/table.hpp"

namespace {

using namespace wasp;
using runtime::Proc;
using runtime::Simulation;
using sim::Task;

constexpr int kFiles = 12;
constexpr fs::Bytes kFileBytes = 64 * util::kMiB;
constexpr fs::Bytes kTransfer = 32 * util::kKiB;

/// Produce kFiles, then interleave hot-subset re-reads with fresh
/// production — the access mix where eviction policy matters.
Task<void> pipeline_direct(Simulation& s, std::uint16_t a) {
  Proc p(s, a, 0, 0);
  io::Posix posix(p);
  const auto ops = static_cast<std::uint32_t>(kFileBytes / kTransfer);
  int next = 0;
  for (int i = 0; i < kFiles; ++i, ++next) {
    auto f = co_await posix.open("/p/gpfs1/tb/" + std::to_string(next),
                                 io::OpenMode::kWrite);
    co_await posix.write(f, kTransfer, ops);
    co_await posix.close(f);
  }
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 4; ++i) {  // hot subset
      auto f = co_await posix.open("/p/gpfs1/tb/" + std::to_string(i),
                                   io::OpenMode::kRead);
      co_await posix.read(f, kTransfer, ops);
      co_await posix.close(f);
    }
    for (int k = 0; k < 3; ++k, ++next) {  // streaming production
      auto f = co_await posix.open("/p/gpfs1/tb/" + std::to_string(next),
                                   io::OpenMode::kWrite);
      co_await posix.write(f, kTransfer, ops);
      co_await posix.close(f);
    }
  }
}

Task<void> pipeline_buffered(Simulation& s, std::uint16_t a,
                             io::TieredBuffer& tb) {
  Proc p(s, a, 0, 0);
  const auto ops = static_cast<std::uint32_t>(kFileBytes / kTransfer);
  int next = 0;
  for (int i = 0; i < kFiles; ++i, ++next) {
    auto f = co_await tb.open(p, "/p/gpfs1/tb/" + std::to_string(next),
                              io::OpenMode::kWrite);
    co_await tb.write(p, f, kTransfer, ops);
    co_await tb.close(p, f);
  }
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 4; ++i) {
      auto f = co_await tb.open(p, "/p/gpfs1/tb/" + std::to_string(i),
                                io::OpenMode::kRead);
      co_await tb.read(p, f, kTransfer, ops);
      co_await tb.close(p, f);
    }
    for (int k = 0; k < 3; ++k, ++next) {
      auto f = co_await tb.open(p, "/p/gpfs1/tb/" + std::to_string(next),
                                io::OpenMode::kWrite);
      co_await tb.write(p, f, kTransfer, ops);
      co_await tb.close(p, f);
    }
  }
  co_await tb.flush_all(p);
}

}  // namespace

int main() {
  util::TablePrinter table(
      "Ablation — hierarchical buffering (24 x 64MiB produce/consume, "
      "hot subset re-read 4x)");
  table.set_header({"configuration", "job s", "tier hits", "evictions",
                    "PFS data ops"});

  // Every configuration runs with the PFS client cache off, so the table
  // isolates the buffering tier.
  cluster::ClusterSpec spec = cluster::lassen(2);
  spec.pfs.client_cache_bytes = 0;
  {
    Simulation sim(spec);
    const auto app = sim.tracer().register_app("pipe");
    sim.engine().spawn(pipeline_direct(sim, app));
    sim.engine().run();
    char job[32];
    std::snprintf(job, sizeof(job), "%.2f",
                  sim::to_seconds(sim.engine().now()));
    table.add_row({"direct PFS", job, "-", "-",
                   std::to_string(sim.pfs().counters().data_ops)});
  }

  struct Case {
    const char* label;
    util::Bytes capacity;
    io::TieredBufferConfig::Eviction policy;
  };
  for (const Case c :
       {Case{"buffered, ample pool", 4 * util::kGiB,
             io::TieredBufferConfig::Eviction::kLru},
        Case{"buffered, tight pool, LRU", 512 * util::kMiB,
             io::TieredBufferConfig::Eviction::kLru},
        Case{"buffered, tight pool, FIFO", 512 * util::kMiB,
             io::TieredBufferConfig::Eviction::kFifo}}) {
    Simulation sim(spec);
    io::TieredBufferConfig cfg;
    cfg.capacity_per_node = c.capacity;
    cfg.eviction = c.policy;
    io::TieredBuffer tb(sim, cfg);
    const auto app = sim.tracer().register_app("pipe");
    sim.engine().spawn(pipeline_buffered(sim, app, tb));
    sim.engine().run();
    char job[32];
    std::snprintf(job, sizeof(job), "%.2f",
                  sim::to_seconds(sim.engine().now()));
    table.add_row({c.label, job, std::to_string(tb.hits()),
                   std::to_string(tb.evictions()),
                   std::to_string(sim.pfs().counters().data_ops)});
  }
  table.print(std::cout);
  return 0;
}
