// Filesystem substrate tests: namespaces, mounts, the GPFS-like parallel FS
// timing model, node-local tiers and capacity accounting.
#include <gtest/gtest.h>

#include "fs/mount_table.hpp"
#include "fs/namespace.hpp"
#include "fs/node_local.hpp"
#include "fs/pfs.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"

namespace wasp::fs {
namespace {

using sim::Engine;
using sim::Task;

TEST(Namespace, CreateLookupRoundTrip) {
  Namespace ns;
  const FileId id = ns.create("/p/gpfs1/a", 5, 3, 1);
  EXPECT_EQ(ns.lookup("/p/gpfs1/a"), id);
  EXPECT_FALSE(ns.lookup("/p/gpfs1/b").has_value());
  EXPECT_EQ(ns.inode(id).creator_rank, 3);
  EXPECT_EQ(ns.inode(id).creator_node, 1);
  EXPECT_EQ(ns.inode(id).size, 0u);
}

TEST(Namespace, CreateIsIdempotent) {
  Namespace ns;
  const FileId a = ns.create("/x", 0, 0, 0);
  const FileId b = ns.create("/x", 9, 1, 1);
  EXPECT_EQ(a, b);
  EXPECT_EQ(ns.file_count(), 1u);
}

TEST(Namespace, UnlinkKeepsInodeResolvable) {
  Namespace ns;
  const FileId id = ns.create("/x", 0, 0, 0);
  EXPECT_TRUE(ns.unlink("/x"));
  EXPECT_FALSE(ns.unlink("/x"));
  EXPECT_FALSE(ns.exists("/x"));
  // Traces recorded before the unlink still resolve.
  EXPECT_EQ(ns.inodes()[id].path, "/x");
}

TEST(Namespace, ListByPrefix) {
  Namespace ns;
  ns.create("/data/a", 0, 0, 0);
  ns.create("/data/b", 0, 0, 0);
  ns.create("/other/c", 0, 0, 0);
  EXPECT_EQ(ns.list("/data/").size(), 2u);
  EXPECT_EQ(ns.list("/").size(), 3u);
}

TEST(Namespace, TotalBytesTracksLiveFilesOnly) {
  Namespace ns;
  const FileId a = ns.create("/a", 0, 0, 0);
  ns.create("/b", 0, 0, 0);
  ns.inode(a).size = 100;
  ns.inode(*ns.lookup("/b")).size = 50;
  EXPECT_EQ(ns.total_bytes(), 150u);
  ns.unlink("/a");
  EXPECT_EQ(ns.total_bytes(), 50u);
}

cluster::PfsSpec small_pfs() {
  cluster::PfsSpec spec;
  spec.num_servers = 4;
  spec.server_bandwidth_bps = 1e9;
  spec.per_stream_bps = 1e9;
  spec.data_latency = 0;
  spec.efficiency_bytes = 64 * util::kKiB;
  spec.metadata.concurrency = 2;
  spec.metadata.base_service = 100 * sim::kUs;
  spec.metadata.interference_per_waiter = 0.1;
  spec.metadata.max_inflation = 10.0;
  spec.client_cache_bytes = util::kMiB;
  spec.client_cache_bandwidth_bps = 10e9;
  return spec;
}

TEST(ParallelFs, MetadataOpsTakeBaseServiceWhenIdle) {
  Engine eng;
  ParallelFS pfs(eng, small_pfs(), 2);
  auto op = [](Engine&, ParallelFS& fs) -> Task<void> {
    co_await fs.meta(ProcSite{0, 0}, MetaOp::kOpen, 0);
  };
  eng.spawn(op(eng, pfs));
  eng.run();
  EXPECT_EQ(eng.now(), 100 * sim::kUs);
  EXPECT_EQ(pfs.counters().meta_ops, 1u);
}

TEST(ParallelFs, MetadataStormInflatesServiceTime) {
  // 64 concurrent clients on a 2-slot MDS: later ops see a deep queue and
  // their service time inflates, so the total is superlinear vs the
  // no-interference baseline (64 * 100us / 2 slots = 3.2ms).
  Engine eng;
  ParallelFS pfs(eng, small_pfs(), 2);
  auto op = [](Engine&, ParallelFS& fs) -> Task<void> {
    co_await fs.meta(ProcSite{0, 0}, MetaOp::kOpen, 0);
  };
  for (int i = 0; i < 64; ++i) eng.spawn(op(eng, pfs));
  eng.run();
  EXPECT_GT(eng.now(), 2 * 3200 * sim::kUs);
}

TEST(ParallelFs, LargeTransfersFasterPerByteThanSmall) {
  Engine eng;
  auto spec = small_pfs();
  ParallelFS pfs(eng, spec, 2);
  Namespace& ns = pfs.ns({0, 0});
  const FileId f = ns.create("/p/gpfs1/f", 0, 0, 0);
  ns.inode(f).size = 64 * util::kMiB;

  auto io = [](ParallelFS& fs, FileId file, util::Bytes size,
               std::uint32_t count) -> Task<void> {
    IoRequest req;
    req.site = {0, 0};
    req.file = file;
    req.size = size;
    req.op_count = count;
    req.kind = IoKind::kRead;
    co_await fs.io(req);
  };

  // 64MiB in 4KiB ops vs 64MiB in 16MiB ops.
  eng.spawn(io(pfs, f, 4 * util::kKiB, 16384));
  eng.run();
  const double small_time = sim::to_seconds(eng.now());

  Engine eng2;
  ParallelFS pfs2(eng2, spec, 2);
  Namespace& ns2 = pfs2.ns({0, 0});
  const FileId f2 = ns2.create("/p/gpfs1/f", 0, 0, 0);
  ns2.inode(f2).size = 64 * util::kMiB;
  eng2.spawn(io(pfs2, f2, 16 * util::kMiB, 4));
  eng2.run();
  const double large_time = sim::to_seconds(eng2.now());

  EXPECT_GT(small_time, 5.0 * large_time);
}

TEST(ParallelFs, ClientCacheAcceleratesRereadOnSameNode) {
  Engine eng;
  ParallelFS pfs(eng, small_pfs(), 2);
  Namespace& ns = pfs.ns({0, 0});
  const FileId f = ns.create("/p/gpfs1/f", 0, 0, 0);

  auto scenario = [](Engine& e, ParallelFS& fs, FileId file,
                     double& write_sec, double& reread_sec) -> Task<void> {
    IoRequest w;
    w.site = {0, 0};
    w.file = file;
    w.size = 256 * util::kKiB;
    w.kind = IoKind::kWrite;
    fs.ns(w.site).inode(file).size = w.size;
    const sim::Time t0 = e.now();
    co_await fs.io(w);
    write_sec = sim::to_seconds(e.now() - t0);

    IoRequest r = w;
    r.kind = IoKind::kRead;
    const sim::Time t1 = e.now();
    co_await fs.io(r);
    reread_sec = sim::to_seconds(e.now() - t1);
  };
  double write_sec = 0, reread_sec = 0;
  eng.spawn(scenario(eng, pfs, f, write_sec, reread_sec));
  eng.run();
  EXPECT_EQ(pfs.counters().cache_hits, 1u);
  EXPECT_LT(reread_sec, write_sec / 2.0);
}

TEST(ParallelFs, CacheMissWhenReadFromOtherNode) {
  Engine eng;
  ParallelFS pfs(eng, small_pfs(), 2);
  Namespace& ns = pfs.ns({0, 0});
  const FileId f = ns.create("/p/gpfs1/f", 0, 0, 0);
  ns.inode(f).size = 256 * util::kKiB;

  auto scenario = [](ParallelFS& fs, FileId file) -> Task<void> {
    IoRequest w;
    w.site = {0, 0};
    w.file = file;
    w.size = 256 * util::kKiB;
    w.kind = IoKind::kWrite;
    co_await fs.io(w);
    IoRequest r = w;
    r.kind = IoKind::kRead;
    r.site = {1, 1};  // different node: no cached copy there
    co_await fs.io(r);
  };
  eng.spawn(scenario(pfs, f));
  eng.run();
  EXPECT_EQ(pfs.counters().cache_hits, 0u);
}

TEST(ParallelFs, WriteTokenRevocationOnCrossNodeWrite) {
  Engine eng;
  auto spec = small_pfs();
  spec.data_latency = 0;
  ParallelFS pfs(eng, spec, 2);
  Namespace& ns = pfs.ns({0, 0});
  const FileId f = ns.create("/p/gpfs1/f", 0, 0, 0);
  ns.inode(f).size = 8 * util::kKiB;

  auto write_from = [](ParallelFS& fs, FileId file, int node) -> Task<void> {
    IoRequest w;
    w.site = {node, node};
    w.file = file;
    w.size = 4 * util::kKiB;
    w.kind = IoKind::kWrite;
    co_await fs.io(w);
  };

  // Same-node writes: no revocation.
  auto same = [&](Engine&) -> Task<void> {
    co_await write_from(pfs, f, 0);
    co_await write_from(pfs, f, 0);
    co_return;
  };
  eng.spawn(same(eng));
  eng.run();
  const sim::Time same_node = eng.now();

  Engine eng2;
  ParallelFS pfs2(eng2, spec, 2);
  Namespace& ns2 = pfs2.ns({0, 0});
  const FileId f2 = ns2.create("/p/gpfs1/f", 0, 0, 0);
  ns2.inode(f2).size = 8 * util::kKiB;
  auto cross = [&](Engine&) -> Task<void> {
    co_await write_from(pfs2, f2, 0);
    co_await write_from(pfs2, f2, 1);
    co_return;
  };
  eng2.spawn(cross(eng2));
  eng2.run();
  EXPECT_GT(eng2.now(), same_node + 400 * sim::kUs);
}

TEST(ParallelFs, FreeBytesTracksGrowth) {
  Engine eng;
  auto spec = small_pfs();
  spec.capacity = 1000;
  ParallelFS pfs(eng, spec, 1);
  EXPECT_EQ(pfs.free_bytes({0, 0}), 1000u);
  pfs.note_growth({0, 0}, 600);
  EXPECT_EQ(pfs.free_bytes({0, 0}), 400u);
  pfs.note_growth({0, 0}, -200);
  EXPECT_EQ(pfs.free_bytes({0, 0}), 600u);
}

TEST(NodeLocalFs, NamespacesAreIndependentPerNode) {
  Engine eng;
  cluster::NodeLocalSpec spec;
  NodeLocalFS shm(eng, spec, 3);
  shm.ns({0, 0}).create("/dev/shm/x", 0, 0, 0);
  EXPECT_TRUE(shm.ns({0, 0}).exists("/dev/shm/x"));
  EXPECT_FALSE(shm.ns({1, 0}).exists("/dev/shm/x"));
  EXPECT_FALSE(shm.shared());
}

TEST(NodeLocalFs, CapacityIsPerNode) {
  Engine eng;
  cluster::NodeLocalSpec spec;
  spec.capacity = 1000;
  NodeLocalFS shm(eng, spec, 2);
  shm.note_growth({0, 0}, 900);
  EXPECT_EQ(shm.free_bytes({0, 0}), 100u);
  EXPECT_EQ(shm.free_bytes({1, 0}), 1000u);
}

TEST(NodeLocalFs, MuchFasterThanPfsForSmallOps) {
  Engine eng;
  cluster::NodeLocalSpec spec;
  NodeLocalFS shm(eng, spec, 1);
  auto io = [](NodeLocalFS& fs) -> Task<void> {
    auto& ns = fs.ns({0, 0});
    const FileId f = ns.create("/dev/shm/f", 0, 0, 0);
    ns.inode(f).size = 4 * util::kMiB;
    IoRequest r;
    r.site = {0, 0};
    r.file = f;
    r.size = 4 * util::kKiB;
    r.op_count = 1024;
    r.kind = IoKind::kRead;
    co_await fs.io(r);
  };
  eng.spawn(io(shm));
  eng.run();
  // 4MiB of 4KiB reads in well under a millisecond-per-op regime.
  EXPECT_LT(sim::to_seconds(eng.now()), 0.05);
}

TEST(MountTable, LongestPrefixWinsAndBoundariesRespected) {
  Engine eng;
  ParallelFS pfs(eng, small_pfs(), 1);
  cluster::NodeLocalSpec shm_spec;  // /dev/shm
  NodeLocalFS shm(eng, shm_spec, 1);
  MountTable mt;
  mt.add(pfs);
  mt.add(shm);
  EXPECT_EQ(&mt.resolve("/p/gpfs1/data/file"), &pfs);
  EXPECT_EQ(&mt.resolve("/dev/shm/tmp1"), &shm);
  EXPECT_EQ(mt.try_resolve("/p/gpfs1x/evil"), nullptr);
  EXPECT_EQ(mt.try_resolve("/unmounted/file"), nullptr);
  EXPECT_THROW(mt.resolve("/unmounted/file"), util::SimError);
}

}  // namespace
}  // namespace wasp::fs
