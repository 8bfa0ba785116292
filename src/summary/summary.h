// The main-memory summary structure of §3.2 (Figure 3):
//
//   1. a direct access table over the *internal* nodes of the R-tree —
//      per node: its own MBR, level, and child page ids — reached by page
//      id in O(1), and
//   2. a bit vector over the leaf nodes indicating whether they are full.
//
// Layout: page ids are dense slots (the PageStore contract), so the table
// is a page-id-indexed array of small slots (parent link + record index),
// a packed array of internal-node records, and a page-id-indexed bit
// vector. Leaves — the vast majority of pages — cost one slot and one bit;
// only internal nodes get a record.
//
// It is maintained through TreeObserver callbacks (MBR modifications and
// node splits, exactly the two triggers the paper identifies) and gives
// GBU zero-I/O access to the root MBR, any node's parent, parent MBRs for
// iExtendMBR, sibling lists, and the FindParent ascent of Algorithm 3.
//
// Thread-safe: the throughput experiment mutates it from many threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <utility>
#include <shared_mutex>
#include <vector>

#include "common/geometry.h"
#include "common/types.h"
#include "rtree/observer.h"

namespace burtree {

/// Result of the FindParent ascent: the root→ancestor page-id path (ready
/// for RTree::InsertDescendingFrom) — empty when no ancestor within the
/// level threshold bounds the new location.
struct AncestorPath {
  std::vector<PageId> path_from_root;
  Level ancestor_level = 0;
};

class SummaryStructure : public TreeObserver {
 public:
  SummaryStructure() = default;

  // ---- Read API (zero I/O by construction) ----

  PageId root() const;
  Level root_level() const;
  Rect root_mbr() const;

  /// Own MBR of an internal node. Leaves are not in the table.
  std::optional<Rect> NodeMbr(PageId page) const;

  /// Parent of `node` (internal or leaf; kInvalidPageId for the root).
  PageId ParentOf(PageId node) const;

  /// Children of internal node `page` (copy; empty when not tracked).
  /// Lets GBU's escalation warming predict a ChooseSubtree descent from
  /// the table alone.
  std::vector<PageId> ChildrenOf(PageId page) const;

  /// True when the leaf has no free entry slot (the bit vector).
  bool LeafIsFull(PageId leaf) const;
  /// Leaves currently tracked by the bit vector.
  size_t leaf_count() const;

  /// Algorithm 3 / generalized ascent: starting at `node` (a leaf),
  /// ascend at most `max_levels` levels looking for the lowest ancestor
  /// whose MBR contains `target`. Returns the full root→ancestor path, or
  /// nullopt when no qualifying ancestor exists within the threshold.
  std::optional<AncestorPath> FindAncestorContaining(
      PageId node, const Point& target, uint32_t max_levels) const;

  /// Root→node page-id path derived from parent links (node included).
  std::vector<PageId> PathFromRoot(PageId node) const;

  /// Literal Algorithm 3 (FindParent): scans the direct access table one
  /// level at a time starting just above the leaves, matching entries
  /// whose child list contains the current node, returning the first
  /// ancestor whose MBR contains `target`. Semantically identical to
  /// FindAncestorContaining (which uses the maintained parent links for
  /// O(height) ascent); kept for fidelity and cross-checked in tests.
  std::optional<AncestorPath> FindParentScan(PageId node,
                                             const Point& target,
                                             uint32_t max_levels) const;

  /// Internal nodes at `level` whose MBR intersects `window` — the
  /// in-memory pruning step of summary-assisted queries. When
  /// level == root_level the result is just the root (if overlapping).
  std::vector<PageId> OverlappingAtLevel(const Rect& window,
                                         Level level) const;

  /// Summary-assisted query planning: descends the table from the root
  /// and returns the level-1 nodes (parents of leaves) overlapping
  /// `window`. Precondition: root_level() >= 1.
  std::vector<PageId> OverlappingLeafParents(const Rect& window) const;

  /// Epoch-stamped variant for the concurrent pruned-query plans: the
  /// plan and `*epoch` are taken atomically (both under the table's
  /// shared lock), so ValidateEpoch(epoch) after the scan proves no
  /// structural change (node create/free, link change, internal MBR
  /// adjustment, root change) invalidated the plan while it was used.
  /// Any plan/tree divergence implies such a change, and every one of
  /// them fires an observer callback under the page X latches involved —
  /// i.e. before a query's S acquisition of the affected pages could
  /// succeed — so an unchanged epoch makes the pruned scan equivalent to
  /// a full-level scan.
  std::vector<PageId> OverlappingLeafParents(const Rect& window,
                                             uint64_t* epoch) const;

  /// Current structural epoch (acquire load).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  /// True iff no structural change was published since `epoch`.
  bool ValidateEpoch(uint64_t epoch) const { return this->epoch() == epoch; }

  // ---- Size accounting (paper §3.2 claims: entry ≈ 20.4% of a node,
  //      table ≈ 0.16% of the tree) ----

  /// Bytes used by the direct access table: the page-id-indexed slot
  /// array plus every internal-node record and its child list.
  size_t table_bytes() const;
  /// Bytes used by the full-leaf bit vector (one bit per page-id slot,
  /// in 64-bit words).
  size_t bitvector_bytes() const;
  size_t internal_node_count() const;

  // ---- TreeObserver ----

  void OnNodeCreated(PageId page, Level level) override;
  void OnNodeFreed(PageId page, Level level) override;
  void OnNodeMbrChanged(PageId page, Level level, const Rect& mbr) override;
  void OnChildLinked(PageId parent, PageId child) override;
  void OnChildUnlinked(PageId parent, PageId child) override;
  void OnLeafOccupancyChanged(PageId leaf, uint32_t count,
                              uint32_t capacity) override;
  void OnRootChanged(PageId new_root, Level new_level) override;

  /// Consistency probe for tests: table parent/child links are mutually
  /// consistent, every non-root internal node has a parent, slots and
  /// records point at each other, and full bits sit on leaves only.
  bool SelfCheck() const;

 private:
  /// Slot::rec values that are not record indices.
  static constexpr uint32_t kNoNode = UINT32_MAX;  // untracked page id
  static constexpr uint32_t kLeaf = UINT32_MAX - 1;

  /// Direct-access entry of one page id (8 bytes).
  struct Slot {
    PageId parent = kInvalidPageId;
    uint32_t rec = kNoNode;  // index into records_, kLeaf, or kNoNode
  };

  /// An internal node's entry, packed in records_ (order is arbitrary:
  /// a freed record is filled by moving the last one into its place).
  struct Record {
    Rect mbr;
    PageId page = kInvalidPageId;
    Level level = 0;
    std::vector<PageId> children;
  };

  // All helpers below assume mu_ is held (shared for the const ones).
  const Slot* SlotAt(PageId page) const {
    return page < slots_.size() ? &slots_[page] : nullptr;
  }
  /// Grows the slot array to cover `page`.
  Slot& SlotFor(PageId page);
  const Record* RecordOf(PageId page) const {
    const Slot* s = SlotAt(page);
    return s != nullptr && s->rec < kLeaf ? &records_[s->rec] : nullptr;
  }
  Record* RecordOf(PageId page) {
    return const_cast<Record*>(std::as_const(*this).RecordOf(page));
  }
  PageId ParentLocked(PageId page) const {
    const Slot* s = SlotAt(page);
    return s != nullptr ? s->parent : kInvalidPageId;
  }
  bool FullBit(PageId page) const {
    return page / 64 < full_bits_.size() &&
           ((full_bits_[page / 64] >> (page % 64)) & 1) != 0;
  }
  void SetFullBit(PageId page, bool full);
  /// The AncestorPath ending at internal node `ancestor`, assembled by
  /// following parent links up to a node that has none.
  AncestorPath PathToAncestor(PageId ancestor, Level level) const;
  /// Forgets everything about `page`: its record (if internal), leaf
  /// membership and full bit (if a leaf), and its parent link.
  void ClearSlot(PageId page);

  mutable std::shared_mutex mu_;
  /// Structural epoch: bumped (under mu_) by every mutation that can
  /// invalidate a pruned query plan. Leaf occupancy flips are excluded —
  /// they never change which level-1 nodes overlap a window.
  std::atomic<uint64_t> epoch_{0};
  std::vector<Slot> slots_;          // indexed by page id
  std::vector<Record> records_;      // internal nodes only
  std::vector<uint64_t> full_bits_;  // bit per page id: leaf is full
  size_t leaf_count_ = 0;            // slots with rec == kLeaf
  PageId root_ = kInvalidPageId;
  Level root_level_ = 0;
};

}  // namespace burtree
