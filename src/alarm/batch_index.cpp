#include "alarm/batch_index.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/strings.hpp"

namespace simty::alarm {
namespace {

/// splitmix64 finalizer: turns the monotone insertion counter into
/// well-mixed treap priorities. Pure arithmetic on the counter, so the tree
/// shape is a function of the operation sequence alone — bit-reproducible.
std::uint64_t mix_priority(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

void BatchIndex::clear() {
  nodes_.clear();
  free_.clear();
  root_ = -1;
  count_ = 0;
}

void BatchIndex::pull(std::int32_t t) {
  Node& n = nodes_[static_cast<std::size_t>(t)];
  n.max_end_us = n.end_us;
  if (n.left >= 0) {
    n.max_end_us =
        std::max(n.max_end_us, nodes_[static_cast<std::size_t>(n.left)].max_end_us);
  }
  if (n.right >= 0) {
    n.max_end_us =
        std::max(n.max_end_us, nodes_[static_cast<std::size_t>(n.right)].max_end_us);
  }
}

std::int32_t BatchIndex::rotate_left(std::int32_t t) {
  const std::int32_t r = nodes_[static_cast<std::size_t>(t)].right;
  nodes_[static_cast<std::size_t>(t)].right = nodes_[static_cast<std::size_t>(r)].left;
  nodes_[static_cast<std::size_t>(r)].left = t;
  pull(t);
  pull(r);
  return r;
}

std::int32_t BatchIndex::rotate_right(std::int32_t t) {
  const std::int32_t l = nodes_[static_cast<std::size_t>(t)].left;
  nodes_[static_cast<std::size_t>(t)].left = nodes_[static_cast<std::size_t>(l)].right;
  nodes_[static_cast<std::size_t>(l)].right = t;
  pull(t);
  pull(l);
  return l;
}

std::int32_t BatchIndex::insert_node(std::int32_t t, std::int32_t n) {
  if (t < 0) {
    pull(n);
    return n;
  }
  auto& cur = nodes_[static_cast<std::size_t>(t)];
  if (key_less(nodes_[static_cast<std::size_t>(n)], cur)) {
    cur.left = insert_node(cur.left, n);
    if (nodes_[static_cast<std::size_t>(cur.left)].prio > cur.prio) {
      return rotate_right(t);
    }
  } else {
    cur.right = insert_node(cur.right, n);
    if (nodes_[static_cast<std::size_t>(cur.right)].prio > cur.prio) {
      return rotate_left(t);
    }
  }
  pull(t);
  return t;
}

std::int32_t BatchIndex::erase_node(std::int32_t t, const Node& victim) {
  SIMTY_CHECK_MSG(t >= 0, "BatchIndex: erasing an entry that is not indexed");
  Node& cur = nodes_[static_cast<std::size_t>(t)];
  if (cur.batch == victim.batch) {
    // Rotate the victim down toward the higher-priority child until it is
    // a leaf, then unlink and recycle its slot.
    if (cur.left < 0 && cur.right < 0) {
      cur.batch = nullptr;  // invalidates the batch's slot stamp
      free_.push_back(t);
      return -1;
    }
    const bool take_left =
        cur.right < 0 ||
        (cur.left >= 0 && nodes_[static_cast<std::size_t>(cur.left)].prio >
                              nodes_[static_cast<std::size_t>(cur.right)].prio);
    const std::int32_t top = take_left ? rotate_right(t) : rotate_left(t);
    Node& parent = nodes_[static_cast<std::size_t>(top)];
    if (take_left) {
      parent.right = erase_node(parent.right, victim);
    } else {
      parent.left = erase_node(parent.left, victim);
    }
    pull(top);
    return top;
  }
  if (key_less(victim, cur)) {
    cur.left = erase_node(cur.left, victim);
  } else {
    cur.right = erase_node(cur.right, victim);
  }
  pull(t);
  return t;
}

void BatchIndex::insert(Batch* batch) {
  SIMTY_CHECK(batch != nullptr);
  SIMTY_CHECK_MSG(!indexed(batch), "BatchIndex: entry already indexed");
  const TimeInterval grace = batch->grace_interval();
  SIMTY_CHECK_MSG(!grace.is_empty(),
                  "BatchIndex: entries must have a non-empty grace overlap");
  std::int32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  Node& n = nodes_[static_cast<std::size_t>(slot)];
  n.start_us = grace.start().us();
  n.end_us = grace.end().us();
  n.max_end_us = n.end_us;
  n.seq = next_seq_++;
  n.prio = mix_priority(n.seq);
  n.batch = batch;
  n.left = -1;
  n.right = -1;
  root_ = insert_node(root_, slot);
  batch->set_index_slot(slot);
  ++count_;
}

void BatchIndex::erase(const Batch* batch) {
  SIMTY_CHECK(batch != nullptr);
  SIMTY_CHECK_MSG(indexed(batch), "BatchIndex: erasing an unindexed entry");
  root_ = erase_node(root_, nodes_[static_cast<std::size_t>(batch->index_slot())]);
  --count_;
}

void BatchIndex::update(Batch* batch) {
  erase(batch);
  insert(batch);
}

void BatchIndex::collect_node(std::int32_t t, std::int64_t qs, std::int64_t qe,
                              const TimeInterval& interval,
                              EntryIntervalKind kind,
                              common::ArenaVector<std::size_t>& out) const {
  if (t < 0) return;
  const Node& n = nodes_[static_cast<std::size_t>(t)];
  // No grace interval in this subtree reaches the query's start.
  if (n.max_end_us < qs) return;
  collect_node(n.left, qs, qe, interval, kind, out);
  if (n.start_us <= qe && n.end_us >= qs &&
      (kind == EntryIntervalKind::kGrace ||
       n.batch->window_interval().overlaps(interval))) {
    out.push_back(n.batch->queue_pos());
  }
  // Keys right of this node all start at or after n.start_us; once that
  // passes the query end, the whole right spine is overlap-free.
  if (n.start_us <= qe) collect_node(n.right, qs, qe, interval, kind, out);
}

void BatchIndex::collect(const TimeInterval& interval, EntryIntervalKind kind,
                         common::ArenaVector<std::size_t>& out) const {
  if (interval.is_empty()) return;
  collect_node(root_, interval.start().us(), interval.end().us(), interval,
               kind, out);
  // In-order traversal yields grace-start order; the policies need queue
  // position order (first-found-wins determinism).
  std::sort(out.begin(), out.end());
}

std::vector<const Batch*> BatchIndex::entries_inorder() const {
  std::vector<const Batch*> out;
  out.reserve(count_);
  std::vector<std::int32_t> stack;
  std::int32_t t = root_;
  while (t >= 0 || !stack.empty()) {
    while (t >= 0) {
      stack.push_back(t);
      t = nodes_[static_cast<std::size_t>(t)].left;
    }
    t = stack.back();
    stack.pop_back();
    out.push_back(nodes_[static_cast<std::size_t>(t)].batch);
    t = nodes_[static_cast<std::size_t>(t)].right;
  }
  return out;
}

std::vector<std::string> BatchIndex::check_invariants() const {
  std::vector<std::string> issues;
  std::size_t visited = 0;
  // Iterative post-order over (node, parent-key) pairs would obscure the
  // checks; bounded recursion is fine here (audit path only).
  struct Walker {
    const BatchIndex* idx;
    std::vector<std::string>* issues;
    std::size_t* visited;

    /// Returns the subtree's max end, verifying structure along the way.
    std::int64_t walk(std::int32_t t) {
      const Node& n = idx->nodes_[static_cast<std::size_t>(t)];
      ++*visited;
      std::int64_t max_end = n.end_us;
      for (const std::int32_t child : {n.left, n.right}) {
        if (child < 0) continue;
        const Node& c = idx->nodes_[static_cast<std::size_t>(child)];
        if (c.prio > n.prio) {
          issues->push_back("heap order violated at seq " +
                            std::to_string(n.seq));
        }
        const bool left_child = child == n.left;
        if (left_child != idx->key_less(c, n)) {
          issues->push_back("BST order violated at seq " + std::to_string(n.seq));
        }
        max_end = std::max(max_end, walk(child));
      }
      if (max_end != n.max_end_us) {
        issues->push_back("stale max-end augmentation at seq " +
                          std::to_string(n.seq));
      }
      if (n.start_us != n.batch->grace_interval().start().us() ||
          n.end_us != n.batch->grace_interval().end().us()) {
        issues->push_back("stale grace key at seq " + std::to_string(n.seq));
      }
      if (n.batch->index_slot() != t) {
        issues->push_back("stale slot stamp at seq " + std::to_string(n.seq));
      }
      return max_end;
    }
  };
  if (root_ >= 0) Walker{this, &issues, &visited}.walk(root_);
  if (visited != count_) {
    issues.push_back(str_format("tree holds %zu nodes but %zu are indexed",
                                visited, count_));
  }
  if (nodes_.size() - free_.size() != count_) {
    issues.push_back(str_format("slab holds %zu live slots but %zu are indexed",
                                nodes_.size() - free_.size(), count_));
  }
  return issues;
}

}  // namespace simty::alarm
