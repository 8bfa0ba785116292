#include "buffer/buffer_pool.h"

#include <chrono>
#include <unordered_map>

#include "common/logging.h"
#include "storage/wal/wal_manager.h"

namespace burtree {

BufferPool::BufferPool(PageStore* file, size_t capacity, size_t shards)
    : file_(file), capacity_(capacity) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  RecomputeShardCapacities();
}

BufferPool::~BufferPool() {
  // Prefetch completions run on the store's engine threads and touch
  // shard state: wait them out before tearing anything down. (Demand
  // misses are caller-synchronous, so an empty miss table means no read
  // references this pool at all; FlushAll below drains write-backs.)
  for (auto& sp : shards_) {
    std::unique_lock lock(sp->mu);
    sp->miss_cv.wait(lock, [&] { return sp->miss_inflight.empty(); });
  }
  (void)FlushAll();
}

size_t BufferPool::shard_capacity(size_t s) const {
  // Even split with the remainder spread over the low shards, so the
  // shard budgets always sum to capacity(). With one shard this is the
  // whole capacity: identical to the classic unsharded pool.
  const size_t cap = capacity_.load(std::memory_order_relaxed);
  const size_t n = shards_.size();
  return cap / n + (s < cap % n ? 1 : 0);
}

void BufferPool::RecomputeShardCapacities() {
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::unique_lock lock(shards_[i]->mu);
    shards_[i]->capacity = shard_capacity(i);
  }
}

void BufferPool::FrameList::PushFront(Frame* f) {
  BURTREE_DCHECK(f->list == nullptr);
  f->list = this;
  f->prev = nullptr;
  f->next = head_;
  if (head_ != nullptr) {
    head_->prev = f;
  } else {
    tail_ = f;
  }
  head_ = f;
}

void BufferPool::FrameList::PushBack(Frame* f) {
  BURTREE_DCHECK(f->list == nullptr);
  f->list = this;
  f->next = nullptr;
  f->prev = tail_;
  if (tail_ != nullptr) {
    tail_->next = f;
  } else {
    head_ = f;
  }
  tail_ = f;
}

void BufferPool::FrameList::Erase(Frame* f) {
  BURTREE_DCHECK(f->list == this);
  (f->prev != nullptr ? f->prev->next : head_) = f->next;
  (f->next != nullptr ? f->next->prev : tail_) = f->prev;
  f->prev = f->next = nullptr;
  f->list = nullptr;
}

void BufferPool::FrameList::SpliceFront(FrameList& other) {
  if (other.empty()) return;
  for (Frame* f = other.head_; f != nullptr; f = f->next) f->list = this;
  other.tail_->next = head_;
  if (head_ != nullptr) {
    head_->prev = other.tail_;
  } else {
    tail_ = other.tail_;
  }
  head_ = other.head_;
  other.head_ = other.tail_ = nullptr;
}

BufferPool::Frame* BufferPool::Shard::Publish(size_t slot,
                                              std::unique_ptr<Frame> f) {
  if (slot >= table.size()) table.resize(slot + 1);
  BURTREE_CHECK(table[slot] == nullptr);
  table[slot] = std::move(f);
  ++resident;
  return table[slot].get();
}

std::unique_ptr<BufferPool::Frame> BufferPool::Shard::Detach(size_t slot) {
  BURTREE_DCHECK(table[slot] != nullptr && !table[slot]->in_writeback);
  --resident;
  return std::move(table[slot]);
}

void BufferPool::WaitForWriteback(Shard& shard,
                                  std::unique_lock<std::mutex>& lock,
                                  PageId id) {
  const size_t slot = slot_of(id);
  shard.writeback_cv.wait(lock, [&] {
    const Frame* f = shard.At(slot);
    return f == nullptr || !f->in_writeback;
  });
}

void BufferPool::WaitForAllWritebacks(Shard& shard,
                                      std::unique_lock<std::mutex>& lock) {
  shard.writeback_cv.wait(lock, [&] { return shard.writebacks == 0; });
}

void BufferPool::WaitForPageIo(Shard& shard,
                               std::unique_lock<std::mutex>& lock,
                               PageId id) {
  // Loop until one lock-held pass sees the page in neither table: while
  // this thread sleeps on miss_cv the latch is released, and the landed
  // miss can get published, dirtied, evicted, and enter a *write-back*
  // before the thread reacquires the latch — so each wake must re-check
  // both tables.
  for (;;) {
    WaitForWriteback(shard, lock, id);
    if (shard.miss_inflight.count(id) == 0) return;
    shard.miss_cv.wait(
        lock, [&] { return shard.miss_inflight.count(id) == 0; });
  }
}

StatusOr<Page*> BufferPool::FetchPage(PageId id) {
  Shard& shard = ShardFor(id);
  const size_t slot = slot_of(id);
  std::unique_lock lock(shard.mu);
  for (;;) {
    Frame* f = shard.At(slot);
    if (f != nullptr && f->in_writeback) {
      // A victim mid-write-back is not resident, but its disk image is
      // stale until the batch lands: wait it out before the miss path
      // reads disk.
      WaitForWriteback(shard, lock, id);
      continue;
    }
    if (f != nullptr) {
      ++shard.stats.hits;
      file_->io_stats().RecordBufferHit();
      if (f->list != nullptr) f->list->Erase(f);
      f->page.Pin();
      return &f->page;
    }
    if (shard.miss_inflight.count(id) == 0) break;
    // Another thread is already reading this page latch-free: wait for
    // its read to land (a hit on the next pass) or fail (this thread
    // becomes the loader), instead of issuing a duplicate disk read.
    shard.miss_cv.wait(
        lock, [&] { return shard.miss_inflight.count(id) == 0; });
  }
  // Become the loader: publish the in-flight marker, then read with the
  // shard latch *released*, so a slow page read stalls only waiters on
  // this page — hits and other misses on the shard proceed meanwhile.
  ++shard.stats.misses;
  shard.miss_inflight.insert(id);
  lock.unlock();
  auto f = std::make_unique<Frame>(file_->page_size());
  Status s;
  if (file_->supports_async_io()) {
    // Route the miss through the store's async engine so it overlaps
    // with queued prefetches and write-backs on the same device instead
    // of cutting ahead of them; the caller still blocks (it needs the
    // bytes), so the wait is a local rendezvous with the completion.
    std::mutex m;
    std::condition_variable cv;
    bool landed = false;
    std::vector<PageReadRequest> one;
    one.push_back(PageReadRequest{id, f->page.data()});
    file_->SubmitReadPages(
        std::move(one), [&](PageId, size_t, Status st) {
          std::lock_guard<std::mutex> g(m);
          s = st;
          landed = true;
          cv.notify_one();
        });
    std::unique_lock<std::mutex> g(m);
    cv.wait(g, [&] { return landed; });
  } else {
    s = file_->Read(id, f->page.data());
  }
  lock.lock();
  shard.miss_inflight.erase(id);
  shard.miss_cv.notify_all();
  if (!s.ok()) return s;
  f->page.set_page_id(id);
  f->page.set_dirty(false);
  if (wal_ != nullptr) {
    // Loaded bytes are some flushed — hence logged — state: a valid diff
    // base, so cold pages get delta captures too.
    f->page.CreateWalShadow(f->page.data());
  }
  f->page.Pin();
  Page* page = &shard.Publish(slot, std::move(f))->page;
  EvictToCapacity(shard, lock);
  return page;
}

Page* BufferPool::NewPage() {
  PageId id = file_->Allocate();  // the PageStore has its own latch
  Shard& shard = ShardFor(id);
  const size_t slot = slot_of(id);
  std::unique_lock lock(shard.mu);
  if (file_->supports_async_io()) {
    // A prefetch of this slot's previous incarnation can race the
    // free/reuse cycle: its read may still be in flight, or a stale
    // clean frame may already sit in the pool. Wait the I/O out and
    // drop any stale frame (waiting out a transient optimistic-reader
    // pin like DeletePage does) before publishing the fresh page into
    // its slot.
    for (;;) {
      WaitForPageIo(shard, lock, id);
      Frame* sf = shard.At(slot);
      if (sf == nullptr) break;
      if (sf->page.pin_count() == 0) {
        if (sf->list != nullptr) sf->list->Erase(sf);
        shard.Detach(slot);
        break;
      }
      ++shard.delete_waiters;
      shard.pin_cv.wait(lock, [&] {
        const Frame* f2 = shard.At(slot);
        return f2 == nullptr || f2->page.pin_count() == 0;
      });
      --shard.delete_waiters;
    }
  }
  auto f = std::make_unique<Frame>(file_->page_size());
  f->page.set_page_id(id);
  f->page.set_dirty(true);  // fresh page must reach disk eventually
  f->page.Pin();
  Page* page = &shard.Publish(slot, std::move(f))->page;
  EvictToCapacity(shard, lock);
  return page;
}

void BufferPool::PrefetchPages(const std::vector<PageId>& ids) {
  if (ids.empty() || !file_->supports_async_io() || capacity() == 0) {
    return;
  }
  // Bucket by shard so each shard pays one latch acquisition and the
  // store sees the whole bucket at once (contiguous ids fuse into
  // vectored runs down there).
  std::vector<std::vector<PageId>> buckets(shards_.size());
  for (PageId id : ids) buckets[shard_of(id)].push_back(id);
  for (size_t si = 0; si < buckets.size(); ++si) {
    if (buckets[si].empty()) continue;
    Shard* sp = shards_[si].get();
    // The frames ride from submit to completion in this closure-owned
    // map; completions extract their run's entries under the latch.
    auto pending = std::make_shared<
        std::unordered_map<PageId, std::unique_ptr<Frame>>>();
    std::vector<PageReadRequest> reqs;
    {
      std::unique_lock lock(sp->mu);
      for (PageId id : buckets[si]) {
        // Fill free room only — counting in-flight prefetches — so a
        // completion never has to evict to publish.
        if (sp->resident + sp->prefetch_inflight >= sp->capacity) {
          break;
        }
        if (sp->At(slot_of(id)) != nullptr ||
            sp->miss_inflight.count(id) != 0 || pending->count(id) != 0) {
          continue;
        }
        auto f = std::make_unique<Frame>(file_->page_size());
        reqs.push_back(PageReadRequest{id, f->page.data()});
        pending->emplace(id, std::move(f));
        sp->miss_inflight.insert(id);
        ++sp->prefetch_inflight;
      }
    }
    if (reqs.empty()) continue;
    file_->SubmitReadPages(
        std::move(reqs),
        [this, sp, pending](PageId first, size_t count, Status s) {
          std::unique_lock<std::mutex> lock(sp->mu);
          for (size_t i = 0; i < count; ++i) {
            const PageId id = first + static_cast<PageId>(i);
            auto it = pending->find(id);
            BURTREE_CHECK(it != pending->end());
            std::unique_ptr<Frame> f = std::move(it->second);
            pending->erase(it);
            sp->miss_inflight.erase(id);
            --sp->prefetch_inflight;
            if (s.ok() && sp->resident < sp->capacity &&
                sp->At(slot_of(id)) == nullptr) {
              f->page.set_page_id(id);
              f->page.set_dirty(false);
              if (wal_ != nullptr) {
                // Same rationale as the demand-miss path: loaded bytes
                // are a logged state, hence a valid diff base.
                f->page.CreateWalShadow(f->page.data());
              }
              sp->lru.PushFront(sp->Publish(slot_of(id), std::move(f)));
              ++sp->stats.prefetched;
            } else {
              // Read failed, the page landed some other way, or the
              // room promised at submit shrank (Resize): advisory read,
              // so just drop it.
              ++sp->stats.prefetch_dropped;
            }
          }
          sp->miss_cv.notify_all();
        });
  }
}

void BufferPool::UnpinPage(PageId id, bool dirty) {
  // A dirty unpin outside any WalOpScope (single-threaded build and
  // maintenance paths) gets a pool-created one-page scope so the
  // log-before-flush invariant holds for every mutation. Constructed
  // before the shard latch (gate → shard order) and committed by its
  // destructor after the latch drops.
  WalOpScope auto_scope(
      dirty && wal_ != nullptr && WalOpScope::Current() == nullptr ? wal_
                                                                   : nullptr);
  if (auto_scope.active()) auto_scope.MarkAuto();
  Shard& shard = ShardFor(id);
  std::unique_lock lock(shard.mu);
  Frame* f = shard.At(slot_of(id));
  BURTREE_CHECK(f != nullptr && !f->in_writeback);
  BURTREE_CHECK(f->page.pin_count() > 0);
  if (dirty) {
    f->page.set_dirty(true);
    if (wal_ != nullptr) {
      WalOpScope* scope = WalOpScope::Current();
      if (scope != nullptr && scope->active()) {
        scope->CapturePage(this, &f->page);
      }
    }
  }
  f->page.Unpin();
  if (f->page.pin_count() == 0) {
    shard.lru.PushFront(f);
    if (shard.delete_waiters > 0) shard.pin_cv.notify_all();
    EvictToCapacity(shard, lock);
  }
}

Status BufferPool::FlushPage(PageId id) {
  Shard& shard = ShardFor(id);
  const size_t slot = slot_of(id);
  std::unique_lock lock(shard.mu);
  for (;;) {
    Frame* fp = shard.At(slot);
    if (fp == nullptr || fp->in_writeback) return Status::OK();
    Frame& f = *fp;
    if (wal_ == nullptr || !f.page.is_dirty()) {
      return FlushFrameLocked(shard, f);
    }
    if (f.page.wal_pending() > 0) {
      // The caller sits inside an open op scope for this page — writing
      // it back now would flush bytes whose record is not even formed.
      return Status::InvalidArgument(
          "FlushPage of a page captured by an open WAL op scope");
    }
    const uint64_t lsn = f.page.wal_lsn();
    if (lsn <= wal_->durable_lsn()) return FlushFrameLocked(shard, f);
    // Log-before-flush: wait out the commit latch-free, then re-check —
    // the frame can be re-dirtied (or evicted) while we slept.
    lock.unlock();
    BURTREE_RETURN_IF_ERROR(wal_->WaitDurable(lsn));
    lock.lock();
  }
}

Status BufferPool::FlushAll() {
  // Log-before-flush: make everything appended so far durable up front
  // (latch-free), so under quiescence no frame is skipped below. Frames
  // dirtied by ops still running — pinned (the op may be changing the
  // bytes right now, ahead of its capture), captured by an open scope
  // (wal_pending), or with an LSN past the snapshot — are skipped; they
  // reach disk on a later flush or eviction, and their recovery floor
  // keeps a concurrent checkpoint from truncating their records. Must
  // not be called from inside a scope.
  uint64_t durable = 0;
  if (wal_ != nullptr) {
    BURTREE_RETURN_IF_ERROR(wal_->WaitDurable(wal_->appended_lsn()));
    durable = wal_->durable_lsn();
  }
  for (auto& sp : shards_) {
    Shard& shard = *sp;
    std::unique_lock lock(shard.mu);
    // Let in-flight eviction write-backs land first so the I/O counters
    // read after FlushAll() cover them.
    WaitForAllWritebacks(shard, lock);
    std::vector<PageWriteRequest> batch;
    std::vector<Frame*> dirty;
    for (const auto& f : shard.table) {
      if (f == nullptr || !f->page.is_dirty()) continue;
      if (wal_ != nullptr &&
          (f->page.pin_count() > 0 || f->page.wal_pending() > 0 ||
           f->page.wal_lsn() > durable)) {
        continue;
      }
      batch.push_back(PageWriteRequest{f->page.page_id(), f->page.data()});
      dirty.push_back(f.get());
    }
    BURTREE_RETURN_IF_ERROR(file_->FlushDirtyBatch(batch));
    for (Frame* f : dirty) {
      f->page.set_dirty(false);
      NoteWalStoreWrite(f->page);
    }
    shard.stats.flushes += dirty.size();
  }
  return Status::OK();
}

Status BufferPool::DeletePage(PageId id) {
  Shard& shard = ShardFor(id);
  const size_t slot = slot_of(id);
  std::unique_lock lock(shard.mu);
  // Freeing the disk page while its eviction write-back (or a miss read)
  // is in flight would make that latch-free I/O fail: wait for it to
  // land. A pinned frame is waited out too: the paths that pin a page
  // without holding any tree latch — escalation warming's pull-in, an
  // optimistic reader's snapshot copy — hold the pin only transiently
  // and block on nothing a structural deleter can hold, so the wait
  // always drains. The deadline keeps a genuinely leaked guard (a
  // caller deleting a page it still has pinned) a loud error instead of
  // a hang.
  const auto deadline = std::chrono::steady_clock::now() + delete_pin_timeout_;
  for (;;) {
    WaitForPageIo(shard, lock, id);
    Frame* f = shard.At(slot);
    if (f == nullptr) break;
    if (f->page.pin_count() == 0) {
      if (f->list != nullptr) f->list->Erase(f);
      shard.Detach(slot);  // dirty content intentionally discarded
      break;
    }
    ++shard.delete_waiters;
    const bool drained = shard.pin_cv.wait_until(lock, deadline, [&] {
      const Frame* f2 = shard.At(slot);
      return f2 == nullptr || f2->page.pin_count() == 0;
    });
    --shard.delete_waiters;
    if (!drained) {
      return Status::InvalidArgument("DeletePage of pinned page");
    }
    // Re-loop: while this thread slept the drained frame may have been
    // evicted into a write-back (unpin pushes it onto the LRU), so the
    // in-flight state must be re-checked before touching the slot.
  }
  if (wal_ != nullptr) {
    // Defer the store-level Free until the freeing record is durable:
    // Allocate() zeroes reused slots on disk, which would destroy bytes
    // a replay of the pre-crash log still needs. Inside a scope the free
    // rides the scope's record LSN; outside one, the current append
    // horizon is a safe (conservative) release point.
    WalOpScope* scope = WalOpScope::Current();
    if (scope != nullptr && scope->active()) {
      scope->DeferFree(id);
    } else {
      wal_->DeferFree(id, wal_->appended_lsn());
    }
    return Status::OK();
  }
  return file_->Free(id);
}

void BufferPool::Resize(size_t capacity) {
  // Serialize whole resizes: two interleaved Resize() calls could
  // otherwise each re-budget a different subset of shards and leave the
  // pool permanently over or under its configured capacity.
  std::unique_lock resize_lock(resize_mu_);
  capacity_.store(capacity, std::memory_order_relaxed);
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    std::unique_lock lock(shard.mu);
    shard.capacity = shard_capacity(i);
    EvictToCapacity(shard, lock);
  }
  if (wal_ != nullptr && resident_frames() > capacity) {
    // Eviction skipped undurable victims. An explicit shrink should
    // actually land: make the log durable and retry once.
    if (wal_->WaitDurable(wal_->appended_lsn()).ok()) {
      for (auto& sp : shards_) {
        std::unique_lock lock(sp->mu);
        EvictToCapacity(*sp, lock);
      }
    }
  }
}

size_t BufferPool::resident_frames() const {
  size_t n = 0;
  for (const auto& sp : shards_) {
    std::unique_lock lock(sp->mu);
    n += sp->resident;
  }
  return n;
}

BufferStats BufferPool::stats() const {
  BufferStats total;
  for (const auto& sp : shards_) {
    std::unique_lock lock(sp->mu);
    total += sp->stats;
  }
  return total;
}

BufferPoolStats BufferPool::pool_stats() const {
  BufferPoolStats ps;
  ps.shards.reserve(shards_.size());
  for (const auto& sp : shards_) {
    std::unique_lock lock(sp->mu);
    ps.shards.push_back(sp->stats);
  }
  return ps;
}

void BufferPool::ResetStats() {
  for (auto& sp : shards_) {
    std::unique_lock lock(sp->mu);
    sp->stats = BufferStats{};
  }
}

void BufferPool::EvictToCapacity(Shard& shard,
                                 std::unique_lock<std::mutex>& lock) {
  if (shard.resident <= shard.capacity) return;
  // Detach LRU victims under the latch (clean ones die right here with
  // zero I/O); dirty ones stay in their slots marked write-back so the
  // group write can run after the latch drops.
  //
  // Log-before-flush: a dirty victim inside an open op scope
  // (wal_pending) or with an LSN past the durable horizon is *parked* —
  // never waited for, so eviction inside an op scope cannot deadlock
  // against the committer or a checkpoint. Parked frames are not looked
  // at again until the durable LSN has moved past the value seen when
  // the first of them was parked; then all of them return to the LRU's
  // hot end in one pass. Meanwhile the shard runs over budget.
  const uint64_t durable = wal_ != nullptr ? wal_->durable_lsn() : 0;
  if (durable > shard.parked_durable) shard.lru.SpliceFront(shard.parked);
  std::vector<std::unique_ptr<Frame>> clean_victims;
  std::vector<PageWriteRequest> batch;
  std::vector<PageId> dirty_ids;
  while (shard.resident > shard.capacity && !shard.lru.empty()) {
    Frame* f = shard.lru.back();
    shard.lru.Erase(f);
    BURTREE_CHECK(!f->in_writeback);
    const PageId victim = f->page.page_id();
    if (wal_ != nullptr && f->page.is_dirty() &&
        (f->page.wal_pending() > 0 || f->page.wal_lsn() > durable)) {
      if (shard.parked.empty()) shard.parked_durable = durable;
      shard.parked.PushFront(f);
      ++shard.stats.undurable_parks;
      continue;
    }
    if (f->page.is_dirty()) {
      // The frame dies once the write-back lands, so fold its recovery
      // floor into the unsynced accumulator now (kept on the page too:
      // the error path below re-adopts the frame still dirty).
      const uint64_t rec = f->page.wal_rec_lsn();
      if (wal_ != nullptr && rec != 0) {
        uint64_t cur =
            wal_unsynced_rec_floor_.load(std::memory_order_relaxed);
        while (rec < cur && !wal_unsynced_rec_floor_.compare_exchange_weak(
                                cur, rec, std::memory_order_relaxed)) {
        }
      }
      batch.push_back(PageWriteRequest{victim, f->page.data()});
      dirty_ids.push_back(victim);
      f->in_writeback = true;
      --shard.resident;
      ++shard.writebacks;
      ++shard.stats.flushes;
    } else {
      clean_victims.push_back(shard.Detach(slot_of(victim)));
    }
    ++shard.stats.evictions;
  }
  // The undurable backlog is bounded at op admission, not here: eviction
  // holds the shard latch and may run inside an op scope, so it must
  // never wait on the log. The next outermost WalOpScope takes the flag
  // and makes the log durable before its op captures anything.
  if (shard.resident >= shard.capacity + kMaxUndurableOvershoot &&
      !shard.parked.empty() && wal_->RequestAdmissionFlush()) {
    ++shard.stats.backpressure_waits;
  }
  // If all remaining frames are pinned the shard grows past its budget
  // temporarily; correctness over strict accounting.
  if (batch.empty()) return;

  // Write back latch-free so hits on this shard proceed during the I/O.
  // The batch's data pointers stay valid: the in-flight frames keep their
  // table slots and nobody touches them until the cv fires.
  lock.unlock();
  if (file_->supports_async_io()) {
    // Submit-and-return: the engine's completion thread re-latches and
    // settles the write-back table, so this caller resumes immediately
    // while the group write overlaps its simulated seek in the queue.
    // Submitting latch-free matters even here — a validation failure
    // invokes the callback inline on this thread, which would
    // self-deadlock on a held latch.
    Shard* sp = &shard;
    file_->SubmitFlushDirtyBatch(
        std::move(batch),
        [this, sp, ids = std::move(dirty_ids)](Status s) {
          std::unique_lock<std::mutex> l2(sp->mu);
          FinishWritebackLocked(*sp, ids, s);
        });
    lock.lock();
    return;
  }
  const Status flush_status = file_->FlushDirtyBatch(batch);
  lock.lock();
  FinishWritebackLocked(shard, dirty_ids, flush_status);
}

void BufferPool::FinishWritebackLocked(Shard& shard,
                                       const std::vector<PageId>& dirty_ids,
                                       const Status& flush_status) {
  if (flush_status.ok()) {
    for (PageId id : dirty_ids) shard.table[slot_of(id)].reset();
  } else {
    // A resident frame always maps to a live disk page (DeletePage drops
    // the frame before freeing and waits out in-flight write-backs), so
    // only an environmental error on the file backend (ENOSPC, EIO) can
    // land here. Put the victims back as dirty resident frames — the
    // shard runs over budget until a later eviction or FlushAll (which
    // does surface the Status) retries the write.
    std::fprintf(stderr, "burtree: eviction write-back failed, re-adopting "
                         "%zu dirty frame(s): %s\n",
                 dirty_ids.size(), flush_status.ToString().c_str());
    shard.stats.flushes -= dirty_ids.size();    // they did not flush
    shard.stats.evictions -= dirty_ids.size();  // nor leave the pool
    for (PageId id : dirty_ids) {
      Frame* f = shard.At(slot_of(id));
      f->in_writeback = false;
      shard.lru.PushBack(f);  // back of the LRU: first victims next time
    }
    shard.resident += dirty_ids.size();
  }
  shard.writebacks -= dirty_ids.size();
  shard.writeback_cv.notify_all();
}

void BufferPool::StampWalLsn(Page* page, uint64_t lsn) {
  Shard& shard = ShardFor(page->page_id());
  std::unique_lock lock(shard.mu);
  if (lsn > page->wal_lsn()) page->set_wal_lsn(lsn);
  if (page->wal_pending() > 0) page->add_wal_pending(-1);
}

Status BufferPool::FlushFrameLocked(Shard& shard, Frame& f) {
  if (!f.page.is_dirty()) return Status::OK();
  BURTREE_RETURN_IF_ERROR(file_->Write(f.page.page_id(), f.page.data()));
  f.page.set_dirty(false);
  NoteWalStoreWrite(f.page);
  ++shard.stats.flushes;
  return Status::OK();
}

void BufferPool::NoteWalStoreWrite(Page& page) {
  if (wal_ == nullptr) return;
  const uint64_t rec = page.wal_rec_lsn();
  if (rec == 0) return;
  page.set_wal_rec_lsn(0);
  uint64_t cur = wal_unsynced_rec_floor_.load(std::memory_order_relaxed);
  while (rec < cur && !wal_unsynced_rec_floor_.compare_exchange_weak(
                          cur, rec, std::memory_order_relaxed)) {
  }
}

void BufferPool::WalCheckpointBeginSync() {
  // Reset first, then drain: an accumulator entry is discarded only if
  // its write-back was already in flight here, and the drain below makes
  // sure such a pwrite completes before the caller's store sync (an
  // in-flight pwrite can miss a concurrent fsync). A detach racing this
  // call lands in the fresh accumulator and stays conservative.
  wal_unsynced_rec_floor_.store(UINT64_MAX, std::memory_order_relaxed);
  for (auto& sp : shards_) {
    std::unique_lock lock(sp->mu);
    WaitForAllWritebacks(*sp, lock);
  }
}

uint64_t BufferPool::WalDirtyRecFloor() const {
  uint64_t floor = UINT64_MAX;
  for (const auto& sp : shards_) {
    std::unique_lock lock(sp->mu);
    for (const auto& f : sp->table) {
      if (f == nullptr) continue;
      // A frame dirtied before the checkpoint's FlushAll can be mid
      // write-back right now; its bytes are unsynced like any other
      // post-BeginSync store write.
      const uint64_t rec = f->page.wal_rec_lsn();
      if ((f->page.is_dirty() || f->in_writeback) && rec != 0) {
        floor = std::min(floor, rec);
      }
    }
  }
  return std::min(
      floor, wal_unsynced_rec_floor_.load(std::memory_order_relaxed));
}

}  // namespace burtree
