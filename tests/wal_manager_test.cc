// WalManager unit tests: group-commit durability and fsync batching,
// the log-before-flush invariant through a real BufferPool (including
// the parking of undurable victims and the admission back-pressure that
// bounds them), checkpoint truncation with LSN continuity, deferred
// frees, and the auto-scope fallback. The fsync-ordering test reads the
// log back through an independent file descriptor after WaitDurable —
// the same discipline the FilePageStore fsync test applies to data
// pages, extended here to the WAL append path.
#include "storage/wal/wal_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "storage/page_store.h"

namespace burtree {
namespace {

constexpr size_t kPageSize = 256;

std::string TempWalPath(const char* tag) {
  const char* tmp = ::getenv("TMPDIR");
  std::string dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  return dir + "/burtree-walmgr-" + tag + "-" +
         std::to_string(::getpid()) + ".wal";
}

WalManagerOptions BareOptions(const char* tag) {
  WalManagerOptions o;
  o.path = TempWalPath(tag);
  o.page_size = kPageSize;
  o.group_commit_us = 200;
  o.delete_on_close = true;
  return o;
}

StorageOptions MemStorage() {
  StorageOptions s;
  return s;  // default backend: counted in-memory disk
}

/// Reads the whole log through its own fd — bytes the OS would have
/// after a crash at this instant (fdatasync already ran for them).
std::vector<uint8_t> ReadLogIndependently(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  EXPECT_GE(fd, 0);
  std::vector<uint8_t> bytes;
  uint8_t buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  ::close(fd);
  return bytes;
}

TEST(WalManagerTest, AppendsAreDecodableThroughIndependentFdAfterWaitDurable) {
  auto wal = WalManager::MustOpen(BareOptions("fsync"));
  // Standalone root records: the simplest append that needs no pool.
  for (PageId r = 1; r <= 5; ++r) wal->NoteRootChange(r, 2);
  const uint64_t end = wal->appended_lsn();
  ASSERT_TRUE(wal->WaitDurable(end).ok());
  EXPECT_GE(wal->durable_lsn(), end);

  const std::vector<uint8_t> bytes = ReadLogIndependently(wal->path());
  size_t page_size = 0;
  uint64_t base_lsn = 0;
  ASSERT_TRUE(DecodeWalFileHeader(bytes.data(), bytes.size(), &page_size,
                                  &base_lsn)
                  .ok());
  EXPECT_EQ(page_size, kPageSize);
  EXPECT_EQ(base_lsn, 0u);

  size_t off = kWalFileHeaderSize;
  PageId expect_root = 1;
  while (off < bytes.size()) {
    WalRecord rec;
    size_t consumed = 0;
    ASSERT_EQ(DecodeWalRecord(bytes.data() + off, bytes.size() - off,
                              kPageSize, off - kWalFileHeaderSize, &rec,
                              &consumed),
              WalDecodeResult::kOk);
    ASSERT_TRUE(rec.has_root);
    EXPECT_EQ(rec.root, expect_root++);
    off += consumed;
  }
  EXPECT_EQ(expect_root, 6u);
  EXPECT_EQ(off - kWalFileHeaderSize, end);
}

TEST(WalManagerTest, GroupCommitBatchesFsyncs) {
  WalManagerOptions o = BareOptions("group");
  o.group_commit_us = 5000;  // wide window: many appends per fsync
  auto wal = WalManager::MustOpen(o);
  constexpr int kRecords = 200;
  for (int i = 0; i < kRecords; ++i) {
    wal->NoteRootChange(static_cast<PageId>(i + 1), 1);
  }
  ASSERT_TRUE(wal->WaitDurable(wal->appended_lsn()).ok());
  const WalStats st = wal->stats();
  EXPECT_EQ(st.records, static_cast<uint64_t>(kRecords));
  // The point of group commit: far fewer fsyncs than records.
  EXPECT_LT(st.fsyncs, static_cast<uint64_t>(kRecords) / 4);
  EXPECT_GT(st.max_group_bytes, 0u);
}

TEST(WalManagerTest, ScopedCaptureStampsPageLsnAndLogsOneRecord) {
  auto wal = WalManager::MustOpen(BareOptions("scope"));
  auto store = MustMakePageStore(MemStorage(), kPageSize);
  BufferPool pool(store.get(), /*capacity=*/8);
  pool.set_wal(wal.get());

  PageId a, b;
  {
    WalOpScope scope(wal.get());
    Page* pa = pool.NewPage();
    a = pa->page_id();
    std::memset(pa->data(), 0x11, kPageSize);
    pool.UnpinPage(a, /*dirty=*/true);
    Page* pb = pool.NewPage();
    b = pb->page_id();
    std::memset(pb->data(), 0x22, kPageSize);
    pool.UnpinPage(b, /*dirty=*/true);
    // Re-dirty a within the same scope: the record gains a third image
    // (a delta against the first capture); ordered replay reconverges.
    auto ra = pool.FetchPage(a);
    ASSERT_TRUE(ra.ok());
    std::memset(ra.value()->data(), 0x33, kPageSize);
    pool.UnpinPage(a, /*dirty=*/true);
  }  // destructor commits

  const WalStats st = wal->stats();
  EXPECT_EQ(st.records, 1u);
  EXPECT_EQ(st.images, 3u);
  EXPECT_EQ(st.auto_scopes, 0u);

  ASSERT_TRUE(wal->WaitDurable(wal->appended_lsn()).ok());
  const std::vector<uint8_t> bytes = ReadLogIndependently(wal->path());
  WalRecord rec;
  size_t consumed = 0;
  ASSERT_EQ(DecodeWalRecord(bytes.data() + kWalFileHeaderSize,
                            bytes.size() - kWalFileHeaderSize, kPageSize,
                            0, &rec, &consumed),
            WalDecodeResult::kOk);
  ASSERT_EQ(rec.images.size(), 3u);
  // Apply the images in order, the way Replay does, and check the final
  // state of both pages — the re-dirtied page must end at 0x33.
  std::map<PageId, std::vector<uint8_t>> applied;
  for (const auto& img : rec.images) {
    std::vector<uint8_t>& page = applied[img.id];
    if (!img.delta) {
      page = img.bytes;
    } else {
      ASSERT_EQ(page.size(), kPageSize) << "delta before any full image";
      const uint8_t* src = img.bytes.data();
      for (const WalExtent& e : img.extents) {
        std::memcpy(page.data() + e.offset, src, e.length);
        src += e.length;
      }
    }
  }
  ASSERT_EQ(applied.count(a), 1u);
  ASSERT_EQ(applied.count(b), 1u);
  EXPECT_EQ(applied[a], std::vector<uint8_t>(kPageSize, 0x33));
  EXPECT_EQ(applied[b], std::vector<uint8_t>(kPageSize, 0x22));
}

TEST(WalManagerTest, UnbracketedDirtyUnpinFallsBackToAutoScope) {
  auto wal = WalManager::MustOpen(BareOptions("auto"));
  auto store = MustMakePageStore(MemStorage(), kPageSize);
  BufferPool pool(store.get(), /*capacity=*/8);
  pool.set_wal(wal.get());

  Page* p = pool.NewPage();
  const PageId id = p->page_id();
  pool.UnpinPage(id, /*dirty=*/true);  // no scope on this thread
  const WalStats st = wal->stats();
  EXPECT_EQ(st.records, 1u);
  EXPECT_EQ(st.auto_scopes, 1u);
}

TEST(WalManagerTest, LogBeforeFlushHoldsDirtyFramesUntilDurable) {
  WalManagerOptions o = BareOptions("lbf");
  o.group_commit_us = 60ull * 1000 * 1000;  // park the committer
  auto wal = WalManager::MustOpen(o);
  auto store = MustMakePageStore(MemStorage(), kPageSize);
  BufferPool pool(store.get(), /*capacity=*/4);
  pool.set_wal(wal.get());

  constexpr int kPages = 8;
  {
    WalOpScope scope(wal.get());
    for (int i = 0; i < kPages; ++i) {
      Page* p = pool.NewPage();
      const PageId id = p->page_id();
      std::memset(p->data(), i + 1, kPageSize);
      pool.UnpinPage(id, /*dirty=*/true);
    }
  }
  // All 8 frames carry an undurable page LSN (the committer is parked),
  // so eviction must have skipped every victim: the shard stays over
  // budget rather than flushing ahead of the log.
  EXPECT_GT(wal->appended_lsn(), wal->durable_lsn());
  EXPECT_GT(pool.resident_frames(), pool.capacity());

  // Once the log is durable the same pass reclaims down to capacity.
  ASSERT_TRUE(wal->WaitDurable(wal->appended_lsn()).ok());
  pool.Resize(4);
  EXPECT_LE(pool.resident_frames(), pool.capacity());
}

TEST(WalManagerTest, EvictionWorkIsLinearAndTheUndurableBacklogIsBounded) {
  WalManagerOptions o = BareOptions("bound");
  o.group_commit_us = 60ull * 1000 * 1000;  // park the committer
  auto wal = WalManager::MustOpen(o);
  auto store = MustMakePageStore(MemStorage(), kPageSize);
  constexpr size_t kShards = 4;
  BufferPool pool(store.get(), /*capacity=*/16, kShards);
  pool.set_wal(wal.get());
  const size_t limit =
      pool.capacity() + kShards * BufferPool::kMaxUndurableOvershoot;

  // Every unpin happens inside a scope, so each victim is undurable when
  // eviction first sees it and only the admission waits flush the log.
  constexpr uint64_t kScopes = 2000;
  for (uint64_t i = 0; i < kScopes; ++i) {
    WalOpScope scope(wal.get());
    Page* p = pool.NewPage();
    ASSERT_LE(pool.resident_frames(), limit + 1);  // + this op's pin
    std::memset(p->data(), static_cast<int>(i & 0xFF), kPageSize);
    pool.UnpinPage(p->page_id(), /*dirty=*/true);
    scope.Commit();
    ASSERT_LE(pool.resident_frames(), limit);
  }

  const BufferStats st = pool.stats();
  // A parked frame is looked at again only after the log moved, so the
  // parks grow with the unpins, not with unpins x backlog.
  EXPECT_GT(st.undurable_parks, 0u);
  EXPECT_LE(st.undurable_parks, 2 * kScopes);
  // The committer never woke: every fsync is an admission wait's own
  // flush, one per request the pool raised (the last may be untaken).
  const uint64_t fsyncs = wal->stats().fsyncs;
  EXPECT_GT(st.backpressure_waits, 0u);
  EXPECT_LE(fsyncs, st.backpressure_waits);
  EXPECT_GE(fsyncs + 1, st.backpressure_waits);
}

TEST(WalManagerTest, FlushPageInsideScopeIsRejected) {
  auto wal = WalManager::MustOpen(BareOptions("flushscope"));
  auto store = MustMakePageStore(MemStorage(), kPageSize);
  BufferPool pool(store.get(), /*capacity=*/8);
  pool.set_wal(wal.get());

  WalOpScope scope(wal.get());
  Page* p = pool.NewPage();
  const PageId id = p->page_id();
  pool.UnpinPage(id, /*dirty=*/true);
  // The frame is wal-pending until Commit(): flushing it now would
  // write ahead of the log.
  EXPECT_EQ(pool.FlushPage(id).code(), StatusCode::kInvalidArgument);
  scope.Commit();
  ASSERT_TRUE(pool.FlushPage(id).ok());
}

TEST(WalManagerTest, CheckpointTruncatesAndPreservesLsnContinuity) {
  WalManagerOptions o = BareOptions("ckpt");
  o.delete_on_close = true;
  auto wal = WalManager::MustOpen(o);
  auto store = MustMakePageStore(MemStorage(), kPageSize);
  BufferPool pool(store.get(), /*capacity=*/8);
  pool.set_wal(wal.get());
  wal->SetCheckpointHooks(WalManager::CheckpointHooks{
      [&] { return pool.FlushAll(); },
      [&] { pool.WalCheckpointBeginSync(); },
      [] { return Status::OK(); },
      [&] { return pool.WalDirtyRecFloor(); }});

  {
    WalOpScope scope(wal.get());
    Page* p = pool.NewPage();
    std::memset(p->data(), 0x5A, kPageSize);
    pool.UnpinPage(p->page_id(), /*dirty=*/true);
    // Through the manager, as the tree observer does: updates the
    // last-noted root (which the checkpoint record carries) and rides
    // this scope's record.
    wal->NoteRootChange(p->page_id(), 0);
  }
  const uint64_t pre_ckpt = wal->appended_lsn();
  ASSERT_GT(pre_ckpt, 0u);
  ASSERT_TRUE(wal->Checkpoint().ok());
  // A fuzzy checkpoint rewrites the file but does not itself append: the
  // stream position is unchanged and everything in it is durable.
  const uint64_t post_ckpt = wal->appended_lsn();
  EXPECT_EQ(post_ckpt, pre_ckpt);
  EXPECT_GE(wal->durable_lsn(), post_ckpt);
  EXPECT_EQ(wal->stats().checkpoints, 1u);

  // The fresh file carries one checkpoint record holding the last-noted
  // root, stamped so that the stream resumes exactly at the old end:
  // base + record size == pre-checkpoint end LSN.
  const std::vector<uint8_t> bytes = ReadLogIndependently(wal->path());
  size_t page_size = 0;
  uint64_t base_lsn = 0;
  ASSERT_TRUE(DecodeWalFileHeader(bytes.data(), bytes.size(), &page_size,
                                  &base_lsn)
                  .ok());
  EXPECT_LT(base_lsn, pre_ckpt);
  WalRecord rec;
  size_t consumed = 0;
  ASSERT_EQ(DecodeWalRecord(bytes.data() + kWalFileHeaderSize,
                            bytes.size() - kWalFileHeaderSize, kPageSize,
                            base_lsn, &rec, &consumed),
            WalDecodeResult::kOk);
  EXPECT_EQ(rec.type, WalRecordType::kCheckpoint);
  ASSERT_TRUE(rec.has_root);
  EXPECT_EQ(base_lsn + consumed, pre_ckpt);

  // New appends after the checkpoint land right after the record.
  wal->NoteRootChange(42, 1);
  ASSERT_TRUE(wal->WaitDurable(wal->appended_lsn()).ok());
  EXPECT_GT(wal->appended_lsn(), post_ckpt);
}

TEST(WalManagerTest, DeferredFreeReleasesOnlyOnceDurable) {
  WalManagerOptions o = BareOptions("free");
  o.group_commit_us = 60ull * 1000 * 1000;  // park the committer
  auto wal = WalManager::MustOpen(o);
  auto store = MustMakePageStore(MemStorage(), kPageSize);
  BufferPool pool(store.get(), /*capacity=*/8);
  pool.set_wal(wal.get());

  int freed = 0;
  wal->SetFreeFn([&](PageId) { ++freed; });

  PageId id;
  {
    WalOpScope scope(wal.get());
    Page* p = pool.NewPage();
    id = p->page_id();
    pool.UnpinPage(id, /*dirty=*/true);
    scope.Commit();
    ASSERT_TRUE(pool.DeletePage(id).ok());
  }
  // The record is appended but not durable: the slot must not have been
  // handed back to the store yet.
  EXPECT_EQ(freed, 0);
  EXPECT_EQ(wal->stats().deferred_frees, 1u);

  ASSERT_TRUE(wal->WaitDurable(wal->appended_lsn()).ok());
  // The flush that made it durable also drained the release queue.
  EXPECT_EQ(freed, 1);
}

}  // namespace
}  // namespace burtree
