#include "summary/summary.h"

#include <algorithm>
#include <mutex>

#include "common/logging.h"

namespace burtree {

SummaryStructure::Slot& SummaryStructure::SlotFor(PageId page) {
  if (page >= slots_.size()) slots_.resize(static_cast<size_t>(page) + 1);
  return slots_[page];
}

void SummaryStructure::SetFullBit(PageId page, bool full) {
  const size_t word = page / 64;
  const uint64_t mask = uint64_t{1} << (page % 64);
  if (word >= full_bits_.size()) {
    if (!full) return;
    full_bits_.resize(word + 1, 0);
  }
  if (full) {
    full_bits_[word] |= mask;
  } else {
    full_bits_[word] &= ~mask;
  }
}

void SummaryStructure::ClearSlot(PageId page) {
  if (page >= slots_.size()) return;
  Slot& slot = slots_[page];
  if (slot.rec == kLeaf) {
    --leaf_count_;
    SetFullBit(page, false);
  } else if (slot.rec != kNoNode) {
    // Keep records_ packed: move the last record into the hole.
    const uint32_t hole = slot.rec;
    if (hole + 1 != records_.size()) {
      records_[hole] = std::move(records_.back());
      slots_[records_[hole].page].rec = hole;
    }
    records_.pop_back();
  }
  slot = Slot{};
}

AncestorPath SummaryStructure::PathToAncestor(PageId ancestor,
                                              Level level) const {
  AncestorPath ap;
  ap.ancestor_level = level;
  std::vector<PageId> rev{ancestor};
  for (PageId up = ParentLocked(ancestor); up != kInvalidPageId;
       up = ParentLocked(up)) {
    rev.push_back(up);
  }
  ap.path_from_root.assign(rev.rbegin(), rev.rend());
  return ap;
}

PageId SummaryStructure::root() const {
  std::shared_lock lock(mu_);
  return root_;
}

Level SummaryStructure::root_level() const {
  std::shared_lock lock(mu_);
  return root_level_;
}

Rect SummaryStructure::root_mbr() const {
  std::shared_lock lock(mu_);
  if (const Record* r = RecordOf(root_)) return r->mbr;
  // Root is a leaf: the table intentionally holds no leaf MBRs, so a
  // single-leaf tree reports an empty root MBR and GBU degrades to
  // top-down — correct and cheap for degenerate trees (see DESIGN.md).
  return Rect::Empty();
}

std::optional<Rect> SummaryStructure::NodeMbr(PageId page) const {
  std::shared_lock lock(mu_);
  const Record* r = RecordOf(page);
  if (r == nullptr) return std::nullopt;
  return r->mbr;
}

std::vector<PageId> SummaryStructure::ChildrenOf(PageId page) const {
  std::shared_lock lock(mu_);
  const Record* r = RecordOf(page);
  if (r == nullptr) return {};
  return r->children;
}

PageId SummaryStructure::ParentOf(PageId node) const {
  std::shared_lock lock(mu_);
  return ParentLocked(node);
}

bool SummaryStructure::LeafIsFull(PageId leaf) const {
  std::shared_lock lock(mu_);
  return FullBit(leaf);
}

size_t SummaryStructure::leaf_count() const {
  std::shared_lock lock(mu_);
  return leaf_count_;
}

std::optional<AncestorPath> SummaryStructure::FindAncestorContaining(
    PageId node, const Point& target, uint32_t max_levels) const {
  std::shared_lock lock(mu_);
  PageId cur = node;
  for (uint32_t ascended = 0; ascended < max_levels; ++ascended) {
    cur = ParentLocked(cur);
    if (cur == kInvalidPageId) break;
    const Record* r = RecordOf(cur);
    if (r == nullptr) break;  // table desync would be a bug
    if (r->mbr.Contains(target)) return PathToAncestor(cur, r->level);
  }
  return std::nullopt;
}

std::optional<AncestorPath> SummaryStructure::FindParentScan(
    PageId node, const Point& target, uint32_t max_levels) const {
  std::shared_lock lock(mu_);
  PageId cur = node;
  // "l = 2; while l <= root level": level 1 in our numbering is the first
  // level of parents (the paper counts the leaf level as 1).
  for (Level l = 1; l <= root_level_ && l - 1 < max_levels + 0u; ++l) {
    PageId found = kInvalidPageId;
    for (const Record& r : records_) {
      if (r.level != l) continue;
      // "for each parent entry whose MBR contains node": cheap MBR test
      // first, then the child-offset match.
      if (std::find(r.children.begin(), r.children.end(), cur) ==
          r.children.end()) {
        continue;
      }
      found = r.page;
      if (r.mbr.Contains(target)) return PathToAncestor(r.page, l);
      break;  // parent found but MBR misses the target: ascend
    }
    if (found == kInvalidPageId) break;
    cur = found;
  }
  return std::nullopt;
}

std::vector<PageId> SummaryStructure::PathFromRoot(PageId node) const {
  std::shared_lock lock(mu_);
  std::vector<PageId> rev{node};
  PageId cur = node;
  while (cur != root_ && cur != kInvalidPageId) {
    cur = ParentLocked(cur);
    if (cur != kInvalidPageId) rev.push_back(cur);
  }
  return {rev.rbegin(), rev.rend()};
}

std::vector<PageId> SummaryStructure::OverlappingAtLevel(const Rect& window,
                                                         Level level) const {
  std::shared_lock lock(mu_);
  std::vector<PageId> out;
  for (const Record& r : records_) {
    if (r.level == level && r.mbr.Intersects(window)) out.push_back(r.page);
  }
  return out;
}

std::vector<PageId> SummaryStructure::OverlappingLeafParents(
    const Rect& window) const {
  return OverlappingLeafParents(window, nullptr);
}

std::vector<PageId> SummaryStructure::OverlappingLeafParents(
    const Rect& window, uint64_t* epoch) const {
  std::shared_lock lock(mu_);
  // Stamp under the same shared hold that reads the table: mutators bump
  // under the unique lock, so the plan below is exactly the table state
  // at this epoch.
  if (epoch != nullptr) *epoch = epoch_.load(std::memory_order_acquire);
  std::vector<PageId> frontier;
  const Record* root = RecordOf(root_);
  if (root == nullptr) return frontier;  // root is a leaf
  if (!root->mbr.Intersects(window)) return frontier;
  frontier.push_back(root_);
  std::vector<PageId> next;
  for (Level level = root_level_; level > 1; --level) {
    next.clear();
    for (PageId page : frontier) {
      const Record* r = RecordOf(page);
      BURTREE_DCHECK(r != nullptr);
      for (PageId child : r->children) {
        const Record* c = RecordOf(child);
        BURTREE_DCHECK(c != nullptr);
        if (c != nullptr && c->mbr.Intersects(window)) next.push_back(child);
      }
    }
    frontier.swap(next);
  }
  return frontier;
}

size_t SummaryStructure::table_bytes() const {
  std::shared_lock lock(mu_);
  size_t bytes = slots_.size() * sizeof(Slot);
  for (const Record& r : records_) {
    bytes += sizeof(Record) + r.children.size() * sizeof(PageId);
  }
  return bytes;
}

size_t SummaryStructure::bitvector_bytes() const {
  std::shared_lock lock(mu_);
  return full_bits_.size() * sizeof(uint64_t);
}

size_t SummaryStructure::internal_node_count() const {
  std::shared_lock lock(mu_);
  return records_.size();
}

void SummaryStructure::OnNodeCreated(PageId page, Level level) {
  std::unique_lock lock(mu_);
  // A reused page id starts from a clean slot, whatever it was before.
  if (RecordOf(page) != nullptr) {
    epoch_.fetch_add(1, std::memory_order_release);
  }
  ClearSlot(page);
  Slot& slot = SlotFor(page);
  if (level == 0) {
    slot.rec = kLeaf;
    ++leaf_count_;
  } else {
    slot.rec = static_cast<uint32_t>(records_.size());
    Record& r = records_.emplace_back();
    r.page = page;
    r.level = level;
    epoch_.fetch_add(1, std::memory_order_release);
  }
}

void SummaryStructure::OnNodeFreed(PageId page, Level level) {
  std::unique_lock lock(mu_);
  const bool internal = RecordOf(page) != nullptr;
  // A level mismatch leaves the other kind's entry alone (the table only
  // forgets what the callback names).
  if (internal == (level > 0)) ClearSlot(page);
  if (level > 0) epoch_.fetch_add(1, std::memory_order_release);
}

void SummaryStructure::OnNodeMbrChanged(PageId page, Level level,
                                        const Rect& mbr) {
  if (level == 0) return;  // the table holds internal nodes only
  std::unique_lock lock(mu_);
  if (Record* r = RecordOf(page)) r->mbr = mbr;
  epoch_.fetch_add(1, std::memory_order_release);
}

void SummaryStructure::OnChildLinked(PageId parent, PageId child) {
  std::unique_lock lock(mu_);
  epoch_.fetch_add(1, std::memory_order_release);
  Record* p = RecordOf(parent);
  BURTREE_DCHECK(p != nullptr);
  if (p == nullptr) return;
  p->children.push_back(child);
  SlotFor(child).parent = parent;
}

void SummaryStructure::OnChildUnlinked(PageId parent, PageId child) {
  std::unique_lock lock(mu_);
  epoch_.fetch_add(1, std::memory_order_release);
  if (Record* p = RecordOf(parent)) {
    auto& ch = p->children;
    auto it = std::find(ch.begin(), ch.end(), child);
    if (it != ch.end()) {
      *it = ch.back();
      ch.pop_back();
    }
  }
  if (child < slots_.size() && slots_[child].parent == parent) {
    slots_[child].parent = kInvalidPageId;
  }
}

void SummaryStructure::OnLeafOccupancyChanged(PageId leaf, uint32_t count,
                                              uint32_t capacity) {
  std::unique_lock lock(mu_);
  Slot& slot = SlotFor(leaf);
  if (slot.rec == kNoNode) {
    slot.rec = kLeaf;  // a leaf reported before its creation callback
    ++leaf_count_;
  }
  if (slot.rec != kLeaf) return;  // only leaves carry a full bit
  SetFullBit(leaf, count >= capacity);
}

void SummaryStructure::OnRootChanged(PageId new_root, Level new_level) {
  std::unique_lock lock(mu_);
  epoch_.fetch_add(1, std::memory_order_release);
  root_ = new_root;
  root_level_ = new_level;
  if (new_root < slots_.size()) slots_[new_root].parent = kInvalidPageId;
}

bool SummaryStructure::SelfCheck() const {
  std::shared_lock lock(mu_);
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const Slot* slot = SlotAt(r.page);
    if (slot == nullptr || slot->rec != i) return false;
    if (r.page != root_ && slot->parent == kInvalidPageId) return false;
    for (PageId child : r.children) {
      if (ParentLocked(child) != r.page) return false;
      const Record* c = RecordOf(child);
      if (c != nullptr ? c->level + 1 != r.level : r.level != 1) return false;
    }
  }
  size_t leaves = 0;
  for (PageId page = 0; page < slots_.size(); ++page) {
    const bool leaf = slots_[page].rec == kLeaf;
    leaves += leaf ? 1 : 0;
    if (FullBit(page) && !leaf) return false;
  }
  return leaves == leaf_count_;
}

}  // namespace burtree
