// Admission back-pressure under real concurrency: four clients run
// multi-page ops (random-destination updates, which leave their leaf,
// and inserts, which split) through ConcurrentIndex on the file store
// with a WAL, a buffer of a few dozen frames, and a checkpoint threshold
// so small that the committer checkpoints after every commit window.
// Eviction parks undurable victims and asks the next op scope to flush
// the log while checkpoints flush and sync the same pool; the run must
// finish (no hang), leave a valid tree, and make every frame durable on
// FlushAll. Labeled `concurrency`, so the TSan leg runs it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "cc/concurrent_index.h"
#include "harness/experiment.h"
#include "storage/wal/wal_manager.h"

namespace burtree {
namespace {

TEST(WalBackpressureTest, ConcurrentOpsWithConstantCheckpointsStayDurable) {
  constexpr uint64_t kObjects = 2000;
  constexpr int kThreads = 4;
  constexpr uint64_t kMinOpsPerThread = 200;
  constexpr uint64_t kOidStride = 1u << 20;

  ExperimentConfig cfg;
  cfg.strategy = StrategyKind::kGeneralizedBottomUp;
  cfg.workload.num_objects = kObjects;
  cfg.workload.seed = 77;
  cfg.page_size = 512;  // small fanout: splits and multi-page ops
  cfg.buffer_shards = 4;
  cfg.storage.backend = StorageBackend::kFile;
  cfg.storage.wal.enabled = true;
  // A window long enough for the undurable backlog to outgrow the bound
  // between commits even in a sanitizer build; the committer checkpoints
  // after every window.
  cfg.storage.wal.group_commit_us = 100000;
  cfg.storage.wal.checkpoint_log_bytes = 8u << 10;
  WorkloadGenerator workload(cfg.workload);
  StrategyFixture fx = MakeFixture(cfg);
  ASSERT_TRUE(BuildIndex(cfg, workload, &fx).ok());
  IndexSystem& sys = *fx.system;
  sys.buffer().Resize(48);
  sys.buffer().ResetStats();
  WalManager* wal = sys.wal();
  const uint64_t checkpoints_before = wal->stats().checkpoints;

  ConcurrencyOptions copts;
  copts.latch_mode = LatchMode::kCoupled;
  ConcurrentIndex index(fx.system.get(), fx.strategy.get(),
                        fx.executor.get(), copts);

  // Clients run until the admission waits and the checkpoints have
  // overlapped: a few checkpoints and at least one wait during the
  // concurrent phase, and every client past its minimum op count.
  std::atomic<bool> ok{true};
  std::atomic<bool> stop{false};
  std::atomic<int> warmed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(500 + static_cast<uint64_t>(t));
      const uint64_t lo = kObjects * static_cast<uint64_t>(t) / kThreads;
      const uint64_t hi = kObjects * static_cast<uint64_t>(t + 1) / kThreads;
      std::vector<Point> pos(
          workload.initial_positions().begin() + static_cast<long>(lo),
          workload.initial_positions().begin() + static_cast<long>(hi));
      uint64_t inserted = 0;
      for (uint64_t i = 0; !stop.load() && ok.load(); ++i) {
        if (i == kMinOpsPerThread) warmed.fetch_add(1);
        Status st;
        if (rng.NextBool(0.7)) {
          const uint64_t k = rng.NextBelow(hi - lo);
          const Point to{rng.NextDouble(), rng.NextDouble()};
          st = index.Update(lo + k, pos[k], to);
          if (st.ok()) pos[k] = to;
        } else {
          const ObjectId oid =
              kObjects + static_cast<uint64_t>(t) * kOidStride + inserted;
          st = index.Insert(oid, Point{rng.NextDouble(), rng.NextDouble()});
          if (st.ok()) ++inserted;
        }
        if (!st.ok()) ok = false;
      }
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  bool overlapped = false;
  while (ok.load() && std::chrono::steady_clock::now() < deadline) {
    overlapped = warmed.load() == kThreads &&
                 wal->stats().checkpoints >= checkpoints_before + 3 &&
                 sys.buffer().stats().backpressure_waits > 0;
    if (overlapped) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop = true;
  for (auto& th : threads) th.join();
  ASSERT_TRUE(ok.load());
  EXPECT_TRUE(overlapped) << "no admission wait overlapped the checkpoints";

  ASSERT_TRUE(sys.FlushAll().ok());
  EXPECT_TRUE(sys.tree().Validate().ok());
  // Quiescent FlushAll made the whole log durable and wrote every dirty
  // frame: a second one has nothing left to write, and no frame still
  // owes the log a record.
  EXPECT_EQ(wal->durable_lsn(), wal->appended_lsn());
  const uint64_t flushes = sys.buffer().stats().flushes;
  ASSERT_TRUE(sys.buffer().FlushAll().ok());
  EXPECT_EQ(sys.buffer().stats().flushes, flushes);
  sys.buffer().WalCheckpointBeginSync();
  EXPECT_EQ(sys.buffer().WalDirtyRecFloor(), UINT64_MAX);
}

}  // namespace
}  // namespace burtree
