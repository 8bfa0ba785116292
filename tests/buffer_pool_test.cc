#include "buffer/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "buffer/page_guard.h"
#include "common/random.h"
#include "storage/page_file.h"

namespace burtree {
namespace {

constexpr size_t kPageSize = 256;

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : file_(kPageSize) {}
  PageFile file_;
};

TEST_F(BufferPoolTest, NewPageIsPinnedAndDirty) {
  BufferPool pool(&file_, 4);
  Page* p = pool.NewPage();
  EXPECT_EQ(p->pin_count(), 1);
  EXPECT_TRUE(p->is_dirty());
  pool.UnpinPage(p->page_id(), false);
}

TEST_F(BufferPoolTest, FetchHitAvoidsDiskRead) {
  BufferPool pool(&file_, 4);
  Page* p = pool.NewPage();
  const PageId id = p->page_id();
  pool.UnpinPage(id, true);
  const uint64_t reads_before = file_.io_stats().reads();
  auto res = pool.FetchPage(id);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(file_.io_stats().reads(), reads_before);  // buffer hit
  EXPECT_EQ(pool.stats().hits, 1u);
  pool.UnpinPage(id, false);
}

TEST_F(BufferPoolTest, PassThroughModeAlwaysHitsDisk) {
  BufferPool pool(&file_, 0);
  Page* p = pool.NewPage();
  const PageId id = p->page_id();
  std::memset(p->data(), 0x5A, kPageSize);
  pool.UnpinPage(id, true);  // immediate eviction + write in 0-capacity
  EXPECT_EQ(file_.io_stats().writes(), 1u);
  for (int i = 1; i <= 3; ++i) {
    auto res = pool.FetchPage(id);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.value()->data()[0], 0x5A);
    pool.UnpinPage(id, false);
    EXPECT_EQ(file_.io_stats().reads(), static_cast<uint64_t>(i));
  }
  EXPECT_EQ(pool.stats().hits, 0u);
}

TEST_F(BufferPoolTest, EvictsLruVictim) {
  BufferPool pool(&file_, 2);
  PageId ids[3];
  for (int i = 0; i < 3; ++i) {
    Page* p = pool.NewPage();
    ids[i] = p->page_id();
    p->data()[0] = static_cast<uint8_t>(i + 1);
    pool.UnpinPage(ids[i], true);
  }
  // Capacity 2: creating the third page evicted the least recent (ids[0]).
  EXPECT_EQ(pool.resident_frames(), 2u);
  EXPECT_GE(file_.io_stats().writes(), 1u);
  // Refetch ids[0]: must come from disk with its content intact.
  const uint64_t reads_before = file_.io_stats().reads();
  auto res = pool.FetchPage(ids[0]);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value()->data()[0], 1);
  EXPECT_EQ(file_.io_stats().reads(), reads_before + 1);
  pool.UnpinPage(ids[0], false);
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  BufferPool pool(&file_, 1);
  Page* a = pool.NewPage();
  Page* b = pool.NewPage();  // over capacity, but `a` is pinned
  EXPECT_EQ(pool.resident_frames(), 2u);
  pool.UnpinPage(a->page_id(), true);
  pool.UnpinPage(b->page_id(), true);
  EXPECT_LE(pool.resident_frames(), 1u);
}

TEST_F(BufferPoolTest, DirtyEvictionWritesBack) {
  BufferPool pool(&file_, 1);
  Page* a = pool.NewPage();
  const PageId id_a = a->page_id();
  std::memset(a->data(), 0x77, kPageSize);
  pool.UnpinPage(id_a, true);
  Page* b = pool.NewPage();  // evicts a
  pool.UnpinPage(b->page_id(), true);
  uint8_t raw[kPageSize];
  ASSERT_TRUE(file_.Read(id_a, raw).ok());
  EXPECT_EQ(raw[0], 0x77);
}

TEST_F(BufferPoolTest, FlushAllPersistsDirtyFrames) {
  BufferPool pool(&file_, 8);
  Page* p = pool.NewPage();
  const PageId id = p->page_id();
  std::memset(p->data(), 0x11, kPageSize);
  pool.UnpinPage(id, true);
  EXPECT_EQ(file_.io_stats().writes(), 0u);  // still buffered
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(file_.io_stats().writes(), 1u);
  // Second flush is a no-op (page now clean).
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(file_.io_stats().writes(), 1u);
}

TEST_F(BufferPoolTest, DeletePageFreesDiskPage) {
  BufferPool pool(&file_, 4);
  Page* p = pool.NewPage();
  const PageId id = p->page_id();
  pool.UnpinPage(id, true);
  ASSERT_TRUE(pool.DeletePage(id).ok());
  EXPECT_EQ(file_.live_pages(), 0u);
  EXPECT_FALSE(pool.FetchPage(id).ok());
}

TEST_F(BufferPoolTest, DeletePinnedPageFails) {
  BufferPool pool(&file_, 4);
  EXPECT_EQ(pool.delete_pin_timeout(), std::chrono::seconds(10));
  pool.set_delete_pin_timeout(std::chrono::milliseconds(50));
  Page* p = pool.NewPage();
  const auto start = std::chrono::steady_clock::now();
  const Status s = pool.DeletePage(p->page_id());
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_GE(waited, std::chrono::milliseconds(50));
  EXPECT_LT(waited, std::chrono::seconds(5));
  pool.UnpinPage(p->page_id(), false);
  EXPECT_TRUE(pool.DeletePage(p->page_id()).ok());
}

TEST_F(BufferPoolTest, ResizeShrinksResidency) {
  BufferPool pool(&file_, 8);
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    Page* p = pool.NewPage();
    ids.push_back(p->page_id());
    pool.UnpinPage(p->page_id(), true);
  }
  EXPECT_EQ(pool.resident_frames(), 8u);
  pool.Resize(2);
  EXPECT_LE(pool.resident_frames(), 2u);
  // Everything must still be readable after eviction.
  for (PageId id : ids) {
    auto res = pool.FetchPage(id);
    ASSERT_TRUE(res.ok());
    pool.UnpinPage(id, false);
  }
}

TEST_F(BufferPoolTest, RepinKeepsFrameAlive) {
  BufferPool pool(&file_, 4);
  Page* p = pool.NewPage();
  const PageId id = p->page_id();
  auto res = pool.FetchPage(id);  // second pin
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(p->pin_count(), 2);
  pool.UnpinPage(id, false);
  pool.UnpinPage(id, true);
  EXPECT_EQ(p->pin_count(), 0);
}

TEST_F(BufferPoolTest, PageGuardUnpinsOnScopeExit) {
  BufferPool pool(&file_, 4);
  PageId id;
  {
    PageGuard g = PageGuard::New(&pool);
    id = g.id();
    EXPECT_EQ(g.page()->pin_count(), 1);
  }
  auto res = pool.FetchPage(id);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value()->pin_count(), 1);  // guard released its pin
  pool.UnpinPage(id, false);
}

TEST_F(BufferPoolTest, PageGuardMovePreservesSinglePin) {
  BufferPool pool(&file_, 4);
  PageGuard a = PageGuard::New(&pool);
  const PageId id = a.id();
  PageGuard b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.page()->pin_count(), 1);
  b.Release();
  auto res = pool.FetchPage(id);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value()->pin_count(), 1);
  pool.UnpinPage(id, false);
}

TEST_F(BufferPoolTest, GuardDirtyPropagation) {
  BufferPool pool(&file_, 1);
  PageId id;
  {
    PageGuard g = PageGuard::New(&pool);
    id = g.id();
    g.data()[0] = 0x42;
    g.MarkDirty();
  }
  // Force eviction by creating another page.
  {
    PageGuard g2 = PageGuard::New(&pool);
  }
  uint8_t raw[kPageSize];
  ASSERT_TRUE(file_.Read(id, raw).ok());
  EXPECT_EQ(raw[0], 0x42);
}

// ---- Dense frame table ----

void Stamp(Page* p, uint8_t value) {
  std::memset(p->data(), value, p->size());
}

bool HasStamp(const Page* p, uint8_t value) {
  for (size_t i = 0; i < p->size(); ++i) {
    if (p->data()[i] != value) return false;
  }
  return true;
}

/// Both stores: page ids are dense slots reused through the free list.
class BufferPoolStoreTest : public ::testing::TestWithParam<StorageBackend> {
 protected:
  void SetUp() override {
    StorageOptions opts;
    opts.backend = GetParam();
    opts.file_dir = ::testing::TempDir();
    auto store = MakePageStore(opts, kPageSize);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(store).value();
  }
  std::unique_ptr<PageStore> store_;
};

TEST_P(BufferPoolStoreTest, DeletedIdIsReusedWithAFreshFrame) {
  BufferPool pool(store_.get(), 4, 2);
  std::vector<PageId> ids;
  for (int i = 0; i < 6; ++i) {
    Page* p = pool.NewPage();
    Stamp(p, static_cast<uint8_t>(0x10 + i));
    ids.push_back(p->page_id());
    pool.UnpinPage(p->page_id(), true);
  }
  // One victim still resident and one evicted to the store: both slots
  // must come back empty after the delete and hold the new page after
  // the reuse.
  const PageId resident = ids.back();
  const PageId evicted = ids.front();
  ASSERT_TRUE(pool.DeletePage(resident).ok());
  ASSERT_TRUE(pool.DeletePage(evicted).ok());
  const size_t frames_after_delete = pool.resident_frames();
  for (int round = 0; round < 2; ++round) {
    Page* p = pool.NewPage();
    const PageId id = p->page_id();
    EXPECT_TRUE(id == resident || id == evicted) << id;
    EXPECT_EQ(p->pin_count(), 1);
    EXPECT_TRUE(p->is_dirty());
    EXPECT_TRUE(HasStamp(p, 0)) << "reused id " << id << " kept stale bytes";
    Stamp(p, static_cast<uint8_t>(0xA0 + round));
    pool.UnpinPage(id, true);
  }
  EXPECT_LE(pool.resident_frames(), 4u);
  EXPECT_GE(pool.resident_frames(), frames_after_delete);
  ASSERT_TRUE(pool.FlushAll().ok());
  Page* a = pool.FetchPage(resident).value();
  Page* b = pool.FetchPage(evicted).value();
  EXPECT_TRUE(HasStamp(a, 0xA0) || HasStamp(a, 0xA1));
  EXPECT_TRUE(HasStamp(b, 0xA0) || HasStamp(b, 0xA1));
  EXPECT_NE(a->data()[0], b->data()[0]);
  pool.UnpinPage(resident, false);
  pool.UnpinPage(evicted, false);
  for (size_t i = 1; i + 1 < ids.size(); ++i) {
    Page* p = pool.FetchPage(ids[i]).value();
    EXPECT_TRUE(HasStamp(p, static_cast<uint8_t>(0x10 + i)));
    pool.UnpinPage(ids[i], false);
  }
}

TEST_P(BufferPoolStoreTest, FetchPastTheTableEndGrowsIt) {
  BufferPool pool(store_.get(), 8, 4);
  Page* first = pool.NewPage();
  const PageId low = first->page_id();
  pool.UnpinPage(low, true);
  // Allocate far past anything the pool has seen, behind its back.
  PageId high = kInvalidPageId;
  std::vector<uint8_t> bytes(kPageSize, 0x5C);
  for (int i = 0; i < 200; ++i) high = store_->Allocate();
  ASSERT_TRUE(store_->Write(high, bytes.data()).ok());
  auto fetched = pool.FetchPage(high);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_EQ(fetched.value()->page_id(), high);
  EXPECT_TRUE(HasStamp(fetched.value(), 0x5C));
  pool.UnpinPage(high, false);
  EXPECT_EQ(pool.stats().misses, 1u);
  // A second fetch is a hit from the grown table.
  ASSERT_TRUE(pool.FetchPage(high).ok());
  pool.UnpinPage(high, false);
  EXPECT_EQ(pool.stats().hits, 1u);
  // An id past the store's end fails without publishing anything.
  const size_t frames = pool.resident_frames();
  EXPECT_FALSE(pool.FetchPage(high + 1000).ok());
  EXPECT_EQ(pool.resident_frames(), frames);
  ASSERT_TRUE(pool.FetchPage(low).ok());
  pool.UnpinPage(low, false);
}

TEST_P(BufferPoolStoreTest, ResizeShrinksAndGrows) {
  BufferPool pool(store_.get(), 8, 2);
  std::vector<PageId> ids;
  for (int i = 0; i < 16; ++i) {
    Page* p = pool.NewPage();
    Stamp(p, static_cast<uint8_t>(i + 1));
    ids.push_back(p->page_id());
    pool.UnpinPage(p->page_id(), true);
  }
  EXPECT_EQ(pool.resident_frames(), 8u);
  pool.Resize(2);
  EXPECT_EQ(pool.capacity(), 2u);
  EXPECT_LE(pool.resident_frames(), 2u);
  for (size_t i = 0; i < ids.size(); ++i) {
    Page* p = pool.FetchPage(ids[i]).value();
    EXPECT_TRUE(HasStamp(p, static_cast<uint8_t>(i + 1)));
    pool.UnpinPage(ids[i], false);
  }
  EXPECT_LE(pool.resident_frames(), 2u);
  pool.Resize(32);
  const uint64_t evictions = pool.stats().evictions;
  for (size_t i = 0; i < ids.size(); ++i) {
    Page* p = pool.FetchPage(ids[i]).value();
    EXPECT_TRUE(HasStamp(p, static_cast<uint8_t>(i + 1)));
    pool.UnpinPage(ids[i], false);
  }
  EXPECT_EQ(pool.resident_frames(), ids.size());
  EXPECT_EQ(pool.stats().evictions, evictions);  // grown: nothing leaves
  const uint64_t hits = pool.stats().hits;
  for (PageId id : ids) {
    ASSERT_TRUE(pool.FetchPage(id).ok());
    pool.UnpinPage(id, false);
  }
  EXPECT_EQ(pool.stats().hits, hits + ids.size());
}

INSTANTIATE_TEST_SUITE_P(BothStores, BufferPoolStoreTest,
                         ::testing::Values(StorageBackend::kMem,
                                           StorageBackend::kFile),
                         [](const auto& info) {
                           return std::string(StorageBackendName(info.param));
                         });

// 16 threads pin, unpin, miss, evict and delete/re-create pages over a
// 12-frame, 4-shard pool, so frames keep entering and leaving the dense
// tables (and ids keep being reused) while other threads hit them.
TEST_F(BufferPoolTest, SixteenThreadsChurnTheDenseTables) {
  constexpr int kThreads = 16;
  constexpr int kShared = 32;
  constexpr int kOpsPerThread = 3000;
  BufferPool pool(&file_, 12, 4);
  pool.set_delete_pin_timeout(std::chrono::milliseconds(2000));
  // Shared pages are read-only after setup: their bytes must never move.
  std::vector<PageId> shared;
  for (int i = 0; i < kShared; ++i) {
    Page* p = pool.NewPage();
    Stamp(p, static_cast<uint8_t>(p->page_id() % 200));
    shared.push_back(p->page_id());
    pool.UnpinPage(p->page_id(), true);
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      // Each thread owns a few private pages; only it writes or deletes
      // them, and it stamps them with a per-thread value.
      const uint8_t mine = static_cast<uint8_t>(201 + t % 50);
      std::vector<PageId> own;
      for (int op = 0; op < kOpsPerThread; ++op) {
        const uint64_t dice = rng.Next() % 10;
        if (dice < 6) {
          const PageId id = shared[rng.Next() % shared.size()];
          auto res = pool.FetchPage(id);
          if (!res.ok() || !HasStamp(res.value(), id % 200)) ++failures;
          if (res.ok()) pool.UnpinPage(id, false);
        } else if (dice < 8 || own.empty()) {
          Page* p = pool.NewPage();
          Stamp(p, mine);
          own.push_back(p->page_id());
          pool.UnpinPage(p->page_id(), true);
        } else if (dice < 9) {
          const PageId id = own[rng.Next() % own.size()];
          auto res = pool.FetchPage(id);
          if (!res.ok() || !HasStamp(res.value(), mine)) ++failures;
          if (res.ok()) pool.UnpinPage(id, true);
        } else {
          const size_t k = rng.Next() % own.size();
          if (!pool.DeletePage(own[k]).ok()) ++failures;
          own[k] = own.back();
          own.pop_back();
        }
      }
      for (PageId id : own) {
        auto res = pool.FetchPage(id);
        if (!res.ok() || !HasStamp(res.value(), mine)) ++failures;
        if (res.ok()) pool.UnpinPage(id, false);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(pool.resident_frames(), pool.capacity());
  ASSERT_TRUE(pool.FlushAll().ok());
  for (PageId id : shared) {
    Page* p = pool.FetchPage(id).value();
    EXPECT_TRUE(HasStamp(p, id % 200));
    pool.UnpinPage(id, false);
  }
}

}  // namespace
}  // namespace burtree
