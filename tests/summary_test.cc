#include "summary/summary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/random.h"
#include "rtree/rtree.h"
#include "storage/page_file.h"

namespace burtree {
namespace {

struct TreeWithSummary {
  explicit TreeWithSummary(TreeOptions opts = {})
      : file(opts.page_size), pool(&file, 1024), tree(&pool, opts) {
    tree.set_observer(&summary);
    tree.ReplayStructureTo(&summary);
  }
  PageFile file;
  BufferPool pool;
  RTree tree;
  SummaryStructure summary;
};

TEST(SummaryTest, EmptyTreeBootstrap) {
  TreeWithSummary fx;
  EXPECT_EQ(fx.summary.root(), fx.tree.root());
  EXPECT_EQ(fx.summary.root_level(), 0u);
  EXPECT_EQ(fx.summary.leaf_count(), 1u);
  EXPECT_TRUE(fx.summary.root_mbr().IsEmpty());  // leaf root: no table entry
  EXPECT_TRUE(fx.summary.SelfCheck());
}

TEST(SummaryTest, TracksRootGrowth) {
  TreeWithSummary fx;
  Rng rng(1);
  for (ObjectId i = 0; i < 2000; ++i) {
    ASSERT_TRUE(fx.tree
                    .Insert(i, Rect::FromPoint(
                                   Point{rng.NextDouble(), rng.NextDouble()}))
                    .ok());
  }
  EXPECT_GE(fx.tree.height(), 3u);
  EXPECT_EQ(fx.summary.root(), fx.tree.root());
  EXPECT_EQ(fx.summary.root_level(), fx.tree.root_level());
  EXPECT_TRUE(fx.summary.SelfCheck());
  // Root MBR from the table equals the root page's own MBR, at zero I/O.
  EXPECT_EQ(fx.summary.root_mbr(), fx.tree.ReadRootMbr());
}

TEST(SummaryTest, InternalCountMatchesTree) {
  TreeWithSummary fx;
  Rng rng(2);
  for (ObjectId i = 0; i < 4000; ++i) {
    ASSERT_TRUE(fx.tree
                    .Insert(i, Rect::FromPoint(
                                   Point{rng.NextDouble(), rng.NextDouble()}))
                    .ok());
  }
  TreeShape shape = fx.tree.CollectShape();
  uint64_t internal_nodes = 0;
  for (size_t l = 1; l < shape.levels.size(); ++l) {
    internal_nodes += shape.levels[l].node_count;
  }
  EXPECT_EQ(fx.summary.internal_node_count(), internal_nodes);
  EXPECT_EQ(fx.summary.leaf_count(), shape.levels[0].node_count);
}

TEST(SummaryTest, ParentOfIsConsistentWithTree) {
  TreeOptions opts;
  opts.parent_pointers = true;  // lets us cross-check against the header
  TreeWithSummary fx(opts);
  Rng rng(3);
  for (ObjectId i = 0; i < 3000; ++i) {
    ASSERT_TRUE(fx.tree
                    .Insert(i, Rect::FromPoint(
                                   Point{rng.NextDouble(), rng.NextDouble()}))
                    .ok());
  }
  // Walk all leaves; their summary parent must match the stored parent
  // pointer.
  std::vector<std::pair<PageId, Level>> stack{
      {fx.tree.root(), fx.tree.root_level()}};
  int checked = 0;
  while (!stack.empty()) {
    auto [page, level] = stack.back();
    stack.pop_back();
    PageGuard g = PageGuard::Fetch(&fx.pool, page);
    NodeView v(g.data(), opts.page_size, opts.parent_pointers);
    if (page != fx.tree.root()) {
      EXPECT_EQ(fx.summary.ParentOf(page), v.parent()) << "page " << page;
      ++checked;
    }
    if (!v.is_leaf()) {
      for (uint32_t i = 0; i < v.count(); ++i) {
        stack.push_back({v.internal_entry(i).child, level - 1});
      }
    }
  }
  EXPECT_GT(checked, 10);
  EXPECT_TRUE(fx.summary.SelfCheck());
}

TEST(SummaryTest, LeafFullnessBitVector) {
  TreeWithSummary fx;
  const uint32_t cap = fx.tree.Capacity(true);
  // Fill exactly one leaf to capacity.
  for (ObjectId i = 0; i < cap; ++i) {
    ASSERT_TRUE(
        fx.tree.Insert(i, Rect::FromPoint(Point{0.001 * i, 0.5})).ok());
  }
  EXPECT_TRUE(fx.summary.LeafIsFull(fx.tree.root()));
  // One more insert splits: no leaf should be full afterwards.
  ASSERT_TRUE(fx.tree.Insert(cap, Rect::FromPoint(Point{0.9, 0.5})).ok());
  TreeShape shape = fx.tree.CollectShape();
  EXPECT_EQ(shape.levels[0].node_count, 2u);
  std::vector<std::pair<PageId, Level>> stack{
      {fx.tree.root(), fx.tree.root_level()}};
  while (!stack.empty()) {
    auto [page, level] = stack.back();
    stack.pop_back();
    PageGuard g = PageGuard::Fetch(&fx.pool, page);
    NodeView v(g.data(), 1024, false);
    if (v.is_leaf()) {
      EXPECT_EQ(fx.summary.LeafIsFull(page), v.full());
    } else {
      for (uint32_t i = 0; i < v.count(); ++i) {
        stack.push_back({v.internal_entry(i).child, level - 1});
      }
    }
  }
}

TEST(SummaryTest, NodeMbrMatchesPages) {
  TreeWithSummary fx;
  Rng rng(4);
  for (ObjectId i = 0; i < 3000; ++i) {
    ASSERT_TRUE(fx.tree
                    .Insert(i, Rect::FromPoint(
                                   Point{rng.NextDouble(), rng.NextDouble()}))
                    .ok());
  }
  std::vector<std::pair<PageId, Level>> stack{
      {fx.tree.root(), fx.tree.root_level()}};
  while (!stack.empty()) {
    auto [page, level] = stack.back();
    stack.pop_back();
    PageGuard g = PageGuard::Fetch(&fx.pool, page);
    NodeView v(g.data(), 1024, false);
    if (level >= 1) {
      auto mbr = fx.summary.NodeMbr(page);
      ASSERT_TRUE(mbr.has_value());
      EXPECT_EQ(*mbr, v.mbr()) << "page " << page;
      for (uint32_t i = 0; i < v.count(); ++i) {
        stack.push_back({v.internal_entry(i).child, level - 1});
      }
    } else {
      EXPECT_FALSE(fx.summary.NodeMbr(page).has_value());
    }
  }
}

TEST(SummaryTest, SurvivesDeletesAndCondense) {
  TreeWithSummary fx;
  Rng rng(5);
  std::vector<Point> pts;
  for (ObjectId i = 0; i < 3000; ++i) {
    const Point p{rng.NextDouble(), rng.NextDouble()};
    pts.push_back(p);
    ASSERT_TRUE(fx.tree.Insert(i, Rect::FromPoint(p)).ok());
  }
  for (ObjectId i = 0; i < 3000; i += 2) {
    ASSERT_TRUE(fx.tree.Delete(i, Rect::FromPoint(pts[i])).ok());
  }
  EXPECT_TRUE(fx.summary.SelfCheck());
  EXPECT_EQ(fx.summary.root(), fx.tree.root());
  TreeShape shape = fx.tree.CollectShape();
  EXPECT_EQ(fx.summary.leaf_count(), shape.levels[0].node_count);
}

TEST(SummaryTest, FindAncestorRespectsLevelThreshold) {
  TreeWithSummary fx;
  Rng rng(6);
  for (ObjectId i = 0; i < 4000; ++i) {
    ASSERT_TRUE(fx.tree
                    .Insert(i, Rect::FromPoint(
                                   Point{rng.NextDouble(), rng.NextDouble()}))
                    .ok());
  }
  ASSERT_GE(fx.tree.height(), 3u);
  // Pick some leaf.
  auto path = fx.tree.FindLeafPath(123, Rect::FromPoint(Point{0, 0}));
  // (The hint may fail; find via query instead.)
  PageId leaf = kInvalidPageId;
  Point pos;
  ASSERT_TRUE(fx.tree.Query(Rect(0, 0, 1, 1),
                            [&](ObjectId oid, const Rect& r) {
                              if (oid == 123) {
                                pos = Point{r.min_x, r.min_y};
                              }
                            })
                  .ok());
  auto found = fx.tree.FindLeafPath(123, Rect::FromPoint(pos));
  ASSERT_TRUE(found.ok());
  leaf = found.value().back();

  // With zero levels allowed, no ancestor is ever returned.
  EXPECT_FALSE(fx.summary
                   .FindAncestorContaining(leaf, Point{0.5, 0.5}, 0)
                   .has_value());

  // With enough levels, the target inside the root MBR must yield an
  // ancestor whose MBR contains the point, with a path starting at root.
  const Point target{0.5, 0.5};
  auto ap = fx.summary.FindAncestorContaining(leaf, target,
                                              fx.tree.root_level());
  ASSERT_TRUE(ap.has_value());
  EXPECT_EQ(ap->path_from_root.front(), fx.tree.root());
  const PageId anc = ap->path_from_root.back();
  auto anc_mbr = fx.summary.NodeMbr(anc);
  ASSERT_TRUE(anc_mbr.has_value());
  EXPECT_TRUE(anc_mbr->Contains(target));
  // The ancestor must lie on the leaf's root path.
  auto full_path = fx.summary.PathFromRoot(leaf);
  bool on_path = false;
  for (PageId p : full_path) on_path |= (p == anc);
  EXPECT_TRUE(on_path);
}

TEST(SummaryTest, FindParentScanMatchesParentLinks) {
  // Algorithm 3's literal level-scan and the O(height) parent-link ascent
  // must agree on every (leaf, target, threshold) combination.
  TreeWithSummary fx;
  Rng rng(42);
  for (ObjectId i = 0; i < 5000; ++i) {
    ASSERT_TRUE(fx.tree
                    .Insert(i, Rect::FromPoint(
                                   Point{rng.NextDouble(), rng.NextDouble()}))
                    .ok());
  }
  ASSERT_GE(fx.tree.height(), 3u);
  // Sample leaves via the tree walk.
  std::vector<PageId> leaves;
  std::vector<std::pair<PageId, Level>> stack{
      {fx.tree.root(), fx.tree.root_level()}};
  while (!stack.empty()) {
    auto [page, level] = stack.back();
    stack.pop_back();
    if (level == 0) {
      leaves.push_back(page);
      continue;
    }
    PageGuard g = PageGuard::Fetch(&fx.pool, page);
    NodeView v(g.data(), 1024, false);
    for (uint32_t i = 0; i < v.count(); ++i) {
      stack.push_back({v.internal_entry(i).child, level - 1});
    }
  }
  ASSERT_GT(leaves.size(), 10u);
  for (size_t i = 0; i < leaves.size(); i += 17) {
    for (uint32_t max_levels : {0u, 1u, 2u, 8u}) {
      const Point target{rng.NextDouble(), rng.NextDouble()};
      const auto a =
          fx.summary.FindAncestorContaining(leaves[i], target, max_levels);
      const auto b = fx.summary.FindParentScan(leaves[i], target, max_levels);
      ASSERT_EQ(a.has_value(), b.has_value())
          << "leaf " << leaves[i] << " max_levels " << max_levels;
      if (a.has_value()) {
        EXPECT_EQ(a->path_from_root, b->path_from_root);
        EXPECT_EQ(a->ancestor_level, b->ancestor_level);
      }
    }
  }
}

TEST(SummaryTest, PathFromRootIsConsistent) {
  TreeWithSummary fx;
  Rng rng(7);
  for (ObjectId i = 0; i < 2000; ++i) {
    ASSERT_TRUE(fx.tree
                    .Insert(i, Rect::FromPoint(
                                   Point{rng.NextDouble(), rng.NextDouble()}))
                    .ok());
  }
  auto probe = fx.tree.FindLeafPath(55, Rect(0, 0, 1, 1));
  // FindLeafPath needs the exact rect; query for it first.
  Point pos;
  ASSERT_TRUE(fx.tree.Query(Rect(0, 0, 1, 1),
                            [&](ObjectId oid, const Rect& r) {
                              if (oid == 55) pos = Point{r.min_x, r.min_y};
                            })
                  .ok());
  auto path = fx.tree.FindLeafPath(55, Rect::FromPoint(pos));
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(fx.summary.PathFromRoot(path.value().back()), path.value());
}

TEST(SummaryTest, OverlappingLeafParentsMatchesTreeDescent) {
  TreeWithSummary fx;
  Rng rng(8);
  for (ObjectId i = 0; i < 5000; ++i) {
    ASSERT_TRUE(fx.tree
                    .Insert(i, Rect::FromPoint(
                                   Point{rng.NextDouble(), rng.NextDouble()}))
                    .ok());
  }
  ASSERT_GE(fx.tree.height(), 3u);
  for (int q = 0; q < 20; ++q) {
    const double w = rng.NextDouble() * 0.3;
    const double h = rng.NextDouble() * 0.3;
    const double x = rng.NextDouble() * (1 - w);
    const double y = rng.NextDouble() * (1 - h);
    const Rect window(x, y, x + w, y + h);
    auto got = fx.summary.OverlappingLeafParents(window);
    std::sort(got.begin(), got.end());

    // Oracle: walk the tree for level-1 nodes whose own MBR intersects.
    std::vector<PageId> expect;
    std::vector<std::pair<PageId, Level>> stack{
        {fx.tree.root(), fx.tree.root_level()}};
    while (!stack.empty()) {
      auto [page, level] = stack.back();
      stack.pop_back();
      PageGuard g = PageGuard::Fetch(&fx.pool, page);
      NodeView v(g.data(), 1024, false);
      if (level == 1) {
        if (v.mbr().Intersects(window)) expect.push_back(page);
        continue;
      }
      for (uint32_t i = 0; i < v.count(); ++i) {
        stack.push_back({v.internal_entry(i).child, level - 1});
      }
    }
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(got, expect);
  }
}

TEST(SummaryTest, SizeAccountingIsCompact) {
  TreeWithSummary fx;
  Rng rng(9);
  for (ObjectId i = 0; i < 20000; ++i) {
    ASSERT_TRUE(fx.tree
                    .Insert(i, Rect::FromPoint(
                                   Point{rng.NextDouble(), rng.NextDouble()}))
                    .ok());
  }
  const size_t tree_bytes = fx.tree.CountNodes() * 1024;
  const size_t table = fx.summary.table_bytes();
  // §3.2: the table is a small fraction of the tree (the paper reports
  // 0.16% at fanout 204; our fanout 27 gives a few percent).
  EXPECT_LT(static_cast<double>(table), 0.1 * tree_bytes);
  EXPECT_GT(table, 0u);
  EXPECT_GT(fx.summary.bitvector_bytes(), 0u);
}

// ---- Page-id reuse across node kinds (direct access table slots) ----

TEST(SummaryTest, InternalIdReusedAsLeafLeavesNoStaleState) {
  SummaryStructure s;
  // root 1 (level 2) -> internal 2 (level 1) -> leaves 3, 4; root -> 5.
  s.OnNodeCreated(1, 2);
  s.OnRootChanged(1, 2);
  s.OnNodeCreated(2, 1);
  s.OnNodeCreated(5, 1);
  s.OnNodeCreated(3, 0);
  s.OnNodeCreated(4, 0);
  s.OnChildLinked(1, 2);
  s.OnChildLinked(1, 5);
  s.OnChildLinked(2, 3);
  s.OnChildLinked(2, 4);
  s.OnNodeMbrChanged(1, 2, Rect(0, 0, 1, 1));
  s.OnNodeMbrChanged(2, 1, Rect(0.1, 0.1, 0.2, 0.2));
  s.OnNodeMbrChanged(5, 1, Rect(0.5, 0.5, 0.6, 0.6));
  s.OnLeafOccupancyChanged(3, 4, 4);
  ASSERT_TRUE(s.SelfCheck());
  ASSERT_EQ(s.internal_node_count(), 3u);

  // Condense node 2 away, then hand its id out again as a leaf under 5.
  s.OnChildUnlinked(2, 3);
  s.OnChildUnlinked(2, 4);
  s.OnChildUnlinked(1, 2);
  s.OnNodeFreed(2, 1);
  s.OnNodeFreed(3, 0);
  s.OnNodeFreed(4, 0);
  s.OnNodeCreated(2, 0);
  s.OnChildLinked(5, 2);
  s.OnLeafOccupancyChanged(2, 1, 4);

  EXPECT_FALSE(s.NodeMbr(2).has_value());
  EXPECT_TRUE(s.ChildrenOf(2).empty());
  EXPECT_EQ(s.ParentOf(2), 5u);
  EXPECT_FALSE(s.LeafIsFull(2));
  EXPECT_EQ(s.internal_node_count(), 2u);
  EXPECT_EQ(s.leaf_count(), 1u);
  // The record that filled node 2's hole still resolves by page id.
  EXPECT_EQ(s.NodeMbr(5)->min_x, 0.5);
  EXPECT_EQ(s.ChildrenOf(5), std::vector<PageId>{2});
  EXPECT_EQ(s.ChildrenOf(1), std::vector<PageId>{5});
  // Freed leaves keep no parent link and no full bit.
  EXPECT_EQ(s.ParentOf(3), kInvalidPageId);
  EXPECT_FALSE(s.LeafIsFull(3));
  EXPECT_EQ(s.OverlappingLeafParents(Rect(0, 0, 1, 1)),
            std::vector<PageId>{5});
  EXPECT_TRUE(s.SelfCheck());
}

TEST(SummaryTest, LeafIdReusedAsInternalLeavesNoStaleState) {
  SummaryStructure s;
  // root 1 (level 1) -> full leaves 2, 3.
  s.OnNodeCreated(1, 1);
  s.OnRootChanged(1, 1);
  s.OnNodeCreated(2, 0);
  s.OnNodeCreated(3, 0);
  s.OnChildLinked(1, 2);
  s.OnChildLinked(1, 3);
  s.OnLeafOccupancyChanged(2, 4, 4);
  s.OnLeafOccupancyChanged(3, 4, 4);
  s.OnNodeMbrChanged(1, 1, Rect(0, 0, 1, 1));
  ASSERT_TRUE(s.LeafIsFull(3));

  // Leaf 3 is freed; its id comes back as a new root above node 1.
  s.OnChildUnlinked(1, 3);
  s.OnNodeFreed(3, 0);
  s.OnNodeCreated(3, 2);
  s.OnChildLinked(3, 1);
  s.OnRootChanged(3, 2);

  EXPECT_FALSE(s.LeafIsFull(3));
  EXPECT_EQ(s.ParentOf(3), kInvalidPageId);
  ASSERT_TRUE(s.NodeMbr(3).has_value());
  EXPECT_TRUE(s.NodeMbr(3)->IsEmpty());  // no MBR reported yet
  EXPECT_EQ(s.ChildrenOf(3), std::vector<PageId>{1});
  EXPECT_EQ(s.ParentOf(1), 3u);
  EXPECT_EQ(s.leaf_count(), 1u);
  EXPECT_TRUE(s.LeafIsFull(2));
  EXPECT_TRUE(s.SelfCheck());
  s.OnNodeMbrChanged(3, 2, Rect(0, 0, 1, 1));
  EXPECT_EQ(s.OverlappingLeafParents(Rect(0.4, 0.4, 0.5, 0.5)),
            std::vector<PageId>{1});
}

/// Level-1 nodes whose page MBR intersects `window`, found by reading
/// every node of the tree from the pages (no summary involved).
std::vector<PageId> BruteForceLeafParents(TreeWithSummary& fx,
                                          const Rect& window) {
  std::vector<PageId> out;
  if (fx.tree.root_level() == 0) return out;
  std::vector<std::pair<PageId, Level>> stack{
      {fx.tree.root(), fx.tree.root_level()}};
  while (!stack.empty()) {
    auto [page, level] = stack.back();
    stack.pop_back();
    PageGuard g = PageGuard::Fetch(&fx.pool, page);
    NodeView v(g.data(), 1024, false);
    if (level == 1) {
      if (v.mbr().Intersects(window)) out.push_back(page);
      continue;
    }
    for (uint32_t i = 0; i < v.count(); ++i) {
      stack.push_back({v.internal_entry(i).child, level - 1});
    }
  }
  return out;
}

/// The plan order OverlappingLeafParents promises: level by level from
/// the root, children in table order, pruned by the table MBRs.
std::vector<PageId> LevelOrderLeafParents(const SummaryStructure& s,
                                          const Rect& window) {
  std::vector<PageId> frontier;
  if (s.root_level() == 0) return frontier;
  if (!s.root_mbr().Intersects(window)) return frontier;
  frontier.push_back(s.root());
  for (Level level = s.root_level(); level > 1; --level) {
    std::vector<PageId> next;
    for (PageId page : frontier) {
      for (PageId child : s.ChildrenOf(page)) {
        if (s.NodeMbr(child)->Intersects(window)) next.push_back(child);
      }
    }
    frontier = std::move(next);
  }
  return frontier;
}

TEST(SummaryTest, OverlappingLeafParentsMatchesBruteForceAfterStorm) {
  TreeWithSummary fx;
  Rng rng(20250612);
  std::vector<std::pair<ObjectId, Point>> live;
  ObjectId next_oid = 0;
  auto random_point = [&] { return Point{rng.NextDouble(), rng.NextDouble()}; };
  for (int i = 0; i < 4000; ++i) {
    const Point p = random_point();
    ASSERT_TRUE(fx.tree.Insert(next_oid, Rect::FromPoint(p)).ok());
    live.push_back({next_oid++, p});
  }
  // Insert/update/delete storm: updates are delete + reinsert, and the
  // live set swings between ~1500 and ~4000 objects so leaves split and
  // condense and page ids are freed and reused across levels.
  const uint64_t splits_before = fx.tree.stats().leaf_splits;
  for (int op = 0; op < 24000; ++op) {
    const bool shrinking = (op / 6000) % 2 == 0;
    const uint64_t dice = rng.NextBelow(10);
    if (!live.empty() && dice < 4) {  // update
      const size_t k = rng.NextBelow(live.size());
      const Point p = random_point();
      ASSERT_TRUE(
          fx.tree.Delete(live[k].first, Rect::FromPoint(live[k].second)).ok());
      ASSERT_TRUE(fx.tree.Insert(live[k].first, Rect::FromPoint(p)).ok());
      live[k].second = p;
    } else if (!live.empty() && (dice < 7) == shrinking) {  // delete
      const size_t k = rng.NextBelow(live.size());
      ASSERT_TRUE(
          fx.tree.Delete(live[k].first, Rect::FromPoint(live[k].second)).ok());
      live[k] = live.back();
      live.pop_back();
    } else {  // insert
      const Point p = random_point();
      ASSERT_TRUE(fx.tree.Insert(next_oid, Rect::FromPoint(p)).ok());
      live.push_back({next_oid++, p});
    }
    if (op % 4000 == 3999) {
      ASSERT_TRUE(fx.summary.SelfCheck()) << op;
    }
  }
  EXPECT_GT(fx.tree.stats().leaf_splits, splits_before);
  EXPECT_GT(fx.tree.stats().underflow_condenses, 0u);
  ASSERT_TRUE(fx.summary.SelfCheck());
  ASSERT_GE(fx.tree.root_level(), 2u);
  ASSERT_EQ(fx.summary.root(), fx.tree.root());
  EXPECT_EQ(fx.summary.leaf_count(),
            fx.tree.CollectShape().levels[0].node_count);

  for (int q = 0; q < 200; ++q) {
    const double w = rng.NextDouble() * 0.2;
    const double h = rng.NextDouble() * 0.2;
    const double x = rng.NextDouble() * (1 - w);
    const double y = rng.NextDouble() * (1 - h);
    const Rect window(x, y, x + w, y + h);
    const std::vector<PageId> got = fx.summary.OverlappingLeafParents(window);
    EXPECT_EQ(got, LevelOrderLeafParents(fx.summary, window)) << q;
    std::vector<PageId> sorted_got = got;
    std::vector<PageId> expect = BruteForceLeafParents(fx, window);
    std::sort(sorted_got.begin(), sorted_got.end());
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(sorted_got, expect) << q;
  }
}

}  // namespace
}  // namespace burtree
