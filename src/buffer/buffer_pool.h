// Sharded LRU buffer pool over a PageStore. Sized as a fraction of the
// database (paper §5: buffers of 0%..10% of database size, default 1%).
// Capacity 0 degenerates to pass-through: every access is a disk access,
// matching the paper's "no buffer" configuration.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "storage/page.h"
#include "storage/page_store.h"

namespace burtree {

class WalManager;

/// N-way sharded buffer pool: page `id` lives in shard `id % N`, and each
/// shard owns its own latch, frame table, LRU list, and BufferStats. The
/// global capacity is split evenly across shards, so shard count 1 is
/// exactly the classic single-latch LRU pool.
///
/// A shard's frame table is a dense array indexed by `id / N`, grown on
/// demand: page ids are dense slots reused through the store's free list
/// (the PageStore contract), so the array stays as long as the store's
/// slot count divided by N, and a lookup is one bounds check and one
/// load.
///
/// Thread-safety: fully thread-safe. Every per-page operation takes only
/// that page's shard latch, so operations on pages in different shards
/// never contend; pool-wide operations (FlushAll, Resize, stats) visit
/// shards one at a time and hold at most one latch at once. A returned
/// Page* stays valid while the caller holds a pin; its pin count is only
/// mutated under the owning shard's latch, but concurrent writers to the
/// page *data* must be serialized by a higher layer (the R-tree latch or
/// DGL locks).
///
/// All disk I/O runs with no shard latch held (the full protocol tables
/// live in docs/STORAGE.md):
///
/// - **Miss path**: a fetch that misses registers the page in a
///   per-shard miss-in-flight table, drops the latch, reads the page
///   from the store, re-latches and publishes the frame (condition
///   variable notify). Concurrent fetches of the *same* page wait on the
///   shard's cv instead of issuing a duplicate read; fetches of other
///   pages in the shard — hits or misses — proceed during the read, so a
///   slow page read stalls only waiters on that page, not the shard.
/// - **Eviction write-back**: clean victims are dropped with no I/O;
///   dirty victims leave the LRU and are marked write-back in their
///   table slot under the latch, written back latch-free as one
///   PageStore::FlushDirtyBatch group write, then their slots are
///   cleared. Only a fetch/delete of a page whose write-back is still in
///   flight waits (it can never observe stale disk bytes).
///
/// The LRU is intrusive (links live in the frames), so a hit, unpin or
/// eviction never allocates.
///
/// With a WalManager attached (set_wal), the pool additionally enforces
/// the **log-before-flush** invariant: a dirty frame whose page LSN is
/// not yet durable — or that an open WalOpScope has captured but not
/// committed (wal_pending) — is never written back. Eviction *parks*
/// such a victim on a per-shard list (running over budget if need be)
/// instead of blocking on the log, so eviction never waits and a parked
/// frame is not re-examined on every later eviction; the whole parked
/// list returns to the LRU's hot end once the durable LSN has moved past
/// the value seen when the list began. A shard that runs
/// kMaxUndurableOvershoot frames over budget with frames parked asks
/// the WalManager for **admission back-pressure**: the next outermost
/// WalOpScope makes the log durable before its op captures anything —
/// the one point where the waiting thread holds no shard latch, captured
/// frame or write-back. FlushAll/FlushPage wait for durability first and
/// must therefore not be called from inside an op scope. Dirty unpins
/// outside any scope get a pool-created single-page auto scope;
/// DeletePage defers the store-level Free until the freeing record is
/// durable. Protocol details in docs/STORAGE.md §WAL.
class BufferPool {
 public:
  /// `capacity` is the maximum number of resident unpinned+pinned frames
  /// across all shards; 0 means pass-through (no caching). `shards` is
  /// clamped to at least 1.
  BufferPool(PageStore* file, size_t capacity, size_t shards = 1);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// How far (in frames) a shard may run over its budget with undurable
  /// victims parked before it asks for admission back-pressure. A larger
  /// bound means fewer admission fsyncs but more resident frames. On the
  /// churn benchmark's WAL insertion build (200k objects, 4 shards, pool
  /// capacity 0, 5 ms group commit; 4-vCPU Xeon VM, virtio disk) bounds
  /// of 16 / 32 / 64 / 128 gave 3.4 / 2.8 / 2.4 / 2.0 s and a peak RSS
  /// of 11.6 / 12.2 / 12.8 / 13.5 MB. The rescanning eviction that
  /// parking replaced took 4.9 s at 12.7 MB. 32 is the largest of these
  /// that stays below the old memory.
  static constexpr size_t kMaxUndurableOvershoot = 32;

  /// Returns the pinned page image for `id`, reading from disk on a miss
  /// (with no shard latch held — see above). Callers must Unpin()
  /// exactly once.
  StatusOr<Page*> FetchPage(PageId id);

  /// Allocates a new page on disk and returns it pinned and dirty.
  Page* NewPage();

  /// Drops the pin. `dirty` marks the frame as modified; it will be
  /// written back on eviction or flush.
  void UnpinPage(PageId id, bool dirty);

  /// Writes the frame back if dirty. No-op if not resident.
  Status FlushPage(PageId id);

  /// Writes back all dirty frames, one batched group write per shard
  /// (call before reading final I/O stats so buffered writes are
  /// accounted). With a WAL attached it first makes the log durable and
  /// skips frames a running op still holds (pinned or captured), so a
  /// checkpoint's flush never writes bytes an op is still changing.
  Status FlushAll();

  /// Discards the frame (must be unpinned) and frees the disk page. A
  /// transient pin is waited out; one still held after
  /// delete_pin_timeout() fails with InvalidArgument.
  Status DeletePage(PageId id);

  /// How long DeletePage waits for a pinned frame to drain before it
  /// reports the pin as leaked (default 10 s). Set before concurrent use.
  std::chrono::milliseconds delete_pin_timeout() const {
    return delete_pin_timeout_;
  }
  void set_delete_pin_timeout(std::chrono::milliseconds timeout) {
    delete_pin_timeout_ = timeout;
  }

  /// Advisory read-ahead: asynchronously loads `ids` into the pool when
  /// the store has an async I/O engine; a no-op on a synchronous store
  /// or a pass-through pool. Only free shard room is filled — prefetch
  /// completions never evict — and pages already resident or mid-I/O
  /// are skipped. Completions that lose a race (read failed, page
  /// landed some other way, room ran out) are dropped and counted in
  /// stats.prefetch_dropped; published pages count as stats.prefetched.
  /// A demand FetchPage of an in-flight prefetch waits on the shard's
  /// miss table instead of issuing a duplicate read.
  void PrefetchPages(const std::vector<PageId>& ids);

  /// Re-sizes the pool; excess unpinned frames are evicted immediately
  /// (dirty victims leave in one group write per shard).
  void Resize(size_t capacity);

  size_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }
  size_t num_shards() const { return shards_.size(); }
  /// Which shard serves `id` (exposed for the eviction-order tests).
  size_t shard_of(PageId id) const { return id % shards_.size(); }
  /// Frame budget of shard `s` under the current capacity split.
  size_t shard_capacity(size_t s) const;

  size_t resident_frames() const;
  /// Merged counters across shards (the classic single-pool view).
  BufferStats stats() const;
  /// Per-shard counters plus totals, for the benches and metrics layer.
  BufferPoolStats pool_stats() const;
  void ResetStats();

  PageStore* file() { return file_; }

  /// Attaches the write-ahead log (null detaches). Must be called before
  /// any page traffic; the pool does not own the manager, and the
  /// manager must outlive the pool (the destructor's FlushAll waits on
  /// it).
  void set_wal(WalManager* wal) { wal_ = wal; }
  WalManager* wal() const { return wal_; }

  /// Called by WalOpScope::Commit() after its record is appended: stamps
  /// the frame's page LSN (monotone max) and releases one wal-pending
  /// mark. Takes the Page pointer the scope captured — the frame cannot
  /// have moved or been evicted while wal_pending > 0, and DeletePage
  /// routes through WalOpScope::DeferFree which drops the scope's
  /// pointer, so no frame-table lookup is needed here.
  void StampWalLsn(Page* page, uint64_t lsn);

  /// Fuzzy-checkpoint support (WalManager::Checkpoint runs concurrently
  /// with operations; see the protocol there). BeginSync is called after
  /// FlushAll and immediately before the store sync: it drains in-flight
  /// eviction write-backs (their pwrites must precede the fsync they
  /// rely on) and resets the unsynced-write floor accumulator — every
  /// floor entry discarded here is covered by that upcoming sync.
  void WalCheckpointBeginSync();
  /// The pool's recovery floor: the minimum wal_rec_lsn over all dirty
  /// frames (resident or mid-write-back) combined with the accumulator
  /// of frames whose bytes were written to the store since BeginSync but
  /// not yet synced. Truncating the log below this LSN can lose the only
  /// durable copy of a page's changes. UINT64_MAX when nothing is owed.
  uint64_t WalDirtyRecFloor() const;

 private:
  class FrameList;

  struct Frame {
    explicit Frame(size_t page_size) : page(page_size) {}
    Page page;
    /// Intrusive links in the shard list named by `list` (the LRU or the
    /// parked list); `list` is null while pinned or detached.
    Frame* prev = nullptr;
    Frame* next = nullptr;
    FrameList* list = nullptr;
    /// Detached eviction victim whose batched write-back is running
    /// latch-free: not resident (no hit, no unpin, no flush), but it keeps
    /// its table slot until the batch lands, and fetches/deletes of the
    /// page wait on writeback_cv meanwhile.
    bool in_writeback = false;
  };

  /// Doubly-linked list threaded through Frame::prev/next; front = most
  /// recent. Nothing here allocates. Shard latch held for every call.
  class FrameList {
   public:
    bool empty() const { return head_ == nullptr; }
    Frame* back() const { return tail_; }
    void PushFront(Frame* f);
    void PushBack(Frame* f);
    void Erase(Frame* f);
    /// Moves all of `other` to the front of this list, order kept.
    void SpliceFront(FrameList& other);

   private:
    Frame* head_ = nullptr;
    Frame* tail_ = nullptr;
  };

  struct Shard {
    mutable std::mutex mu;
    /// Dense frame table: slot `id / num_shards()` holds the page's
    /// resident or write-back frame, null otherwise. Grows on publish;
    /// lookups past the end read as empty.
    std::vector<std::unique_ptr<Frame>> table;
    size_t resident = 0;    // frames in `table` with !in_writeback
    size_t writebacks = 0;  // frames in `table` with in_writeback
    FrameList lru;  // unpinned frames, front = most recent
    /// Undurable dirty victims set aside by eviction (unpinned, resident,
    /// not in `lru`), and the durable LSN eviction saw when the list went
    /// from empty to non-empty: they return to the LRU once the durable
    /// LSN passes it.
    FrameList parked;
    uint64_t parked_durable = 0;
    /// Notified once a write-back batch lands and its frames leave the
    /// table (or are re-adopted on error).
    std::condition_variable writeback_cv;
    /// Pages whose miss read is running latch-free; removed (and
    /// miss_cv notified) once the read lands or fails. Concurrent
    /// fetches of a listed page wait instead of reading twice.
    std::unordered_set<PageId> miss_inflight;
    std::condition_variable miss_cv;
    /// Signaled by UnpinPage when a pin count drops to zero while a
    /// DeletePage is waiting out a transient pin (see delete_waiters).
    std::condition_variable pin_cv;
    int delete_waiters = 0;
    /// Prefetch reads currently in flight for this shard (each also has
    /// a miss_inflight entry). Counted against the shard's free room at
    /// submit time so completions never have to evict.
    size_t prefetch_inflight = 0;
    BufferStats stats;
    size_t capacity = 0;

    /// The frame in `slot` (resident or write-back), or null.
    Frame* At(size_t slot) const {
      return slot < table.size() ? table[slot].get() : nullptr;
    }
    /// Installs `f` as a resident frame in the (empty) `slot`.
    Frame* Publish(size_t slot, std::unique_ptr<Frame> f);
    /// Removes the resident frame in `slot` from the table.
    std::unique_ptr<Frame> Detach(size_t slot);
  };

  Shard& ShardFor(PageId id) { return *shards_[shard_of(id)]; }
  /// Index of `id` in its shard's frame table.
  size_t slot_of(PageId id) const { return id / shards_.size(); }

  /// Detaches LRU victims under `lock`, then — if any were dirty —
  /// releases the latch, writes them back as one group write, re-latches
  /// and clears the in-flight table. `lock` is held again on return. On
  /// an async-capable store the group write is *submitted* instead and
  /// the engine's completion thread settles the write-back table; this
  /// call returns without waiting for the I/O.
  void EvictToCapacity(Shard& shard, std::unique_lock<std::mutex>& lock);
  /// Settles a landed (or failed) eviction write-back: clears the
  /// in-flight entries on success, re-adopts the victims as dirty
  /// resident frames on error, and notifies writeback_cv. Shard latch
  /// held; runs on the evicting thread (sync store) or the engine's
  /// completion thread (async store).
  void FinishWritebackLocked(Shard& shard,
                             const std::vector<PageId>& dirty_ids,
                             const Status& flush_status);
  /// Blocks until `id` has no write-back in flight (lock released while
  /// waiting, held again on return).
  void WaitForWriteback(Shard& shard, std::unique_lock<std::mutex>& lock,
                        PageId id);
  /// Waits out every write-back in flight on the shard (same locking).
  static void WaitForAllWritebacks(Shard& shard,
                                   std::unique_lock<std::mutex>& lock);
  /// Blocks until `id` has neither a write-back nor a miss read in
  /// flight (lock released while waiting, held again on return). On
  /// return the caller must re-inspect the frame table: the miss may
  /// have published a frame, or failed and published nothing.
  void WaitForPageIo(Shard& shard, std::unique_lock<std::mutex>& lock,
                     PageId id);
  // Assume the shard's mu is held.
  Status FlushFrameLocked(Shard& shard, Frame& f);
  /// After a frame's bytes were written to the store in place (frame
  /// stays resident): fold its recovery floor into the unsynced-write
  /// accumulator and clear it. Shard latch held.
  void NoteWalStoreWrite(Page& page);
  void RecomputeShardCapacities();

  PageStore* file_;
  WalManager* wal_ = nullptr;
  std::chrono::milliseconds delete_pin_timeout_{std::chrono::seconds(10)};
  /// Min wal_rec_lsn of frames whose bytes reached the store (in-place
  /// flush or eviction) since the last WalCheckpointBeginSync — writes
  /// the next store sync has not yet made durable. CAS-min updated under
  /// the owning shard's latch, read/reset by the checkpoint.
  std::atomic<uint64_t> wal_unsynced_rec_floor_{UINT64_MAX};
  // Atomic so a concurrent Resize() never races capacity()/
  // shard_capacity() readers; shard budgets are updated under each
  // shard's latch and may transiently disagree with a mid-resize total.
  // resize_mu_ serializes whole resizes so the disagreement is only
  // ever transient.
  std::mutex resize_mu_;
  std::atomic<size_t> capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace burtree
