#pragma once
// BatchIndex: an incrementally maintained interval index over the batch
// queue's entry intervals.
//
// The paper's search phase (§3.2.1) is an interval-overlap query: NATIVE
// joins an entry iff the entry's window overlap intersects the new alarm's
// window (§2.1), and SIMTY's applicability requires window-or-grace
// overlap. A full queue scan answers that in O(n) per insert — O(n²) across
// a dissolve or rebatch — which caps scaling well below the "hundreds of
// resident apps" target. This index answers it in O(log n + k) for k
// overlapping entries.
//
// Structure: an augmented treap (randomized BST; deterministic splitmix64
// priorities seeded by an insertion counter, so runs are bit-reproducible)
// keyed by (grace start, insertion seq), with each node carrying the max
// grace end in its subtree. Keying on the grace interval suffices for both
// query kinds: a batch's window overlap is contained in its grace overlap
// (every member's window is inside its grace, §3.1.2, and intersection
// preserves containment), so grace overlap is a superset of window overlap
// and kWindow queries just post-filter with the entry's cached window.
//
// Results are emitted in ascending queue position (each Batch carries its
// position, maintained by the AlarmManager) so the policies' first-found-
// wins tie-breaking is bit-identical to the linear scan they replace.

#include <cstdint>
#include <string>
#include <vector>

#include "alarm/batch.hpp"
#include "alarm/policy.hpp"
#include "common/arena.hpp"
#include "common/interval.hpp"

namespace simty::alarm {

/// Interval index over one batch queue. Holds non-owning pointers and
/// stamps each indexed batch with its node slot (Batch::index_slot), so
/// erase is a direct slot access. A node keeps the key it was inserted
/// under: the owner may mutate an entry's intervals and then re-key it with
/// update(), but must erase an entry before destroying it.
class BatchIndex {
 public:
  BatchIndex() = default;

  /// Backs the node slab with `arena` (per-shard in the fleet runner, so
  /// repeated runs reuse storage). Only legal before the first insert; the
  /// arena must outlive the index and must not be reset while it lives.
  void set_arena(common::Arena* arena) {
    nodes_.set_arena(arena);
    free_.set_arena(arena);
  }

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Drops every entry (the rebatch-all path).
  void clear();

  /// Indexes `batch` under its current grace interval, which must be
  /// non-empty (a queue invariant the manager asserts), and stamps its
  /// node slot on it.
  void insert(Batch* batch);

  /// Removes `batch`; it must be indexed. Locates the node through the
  /// stored key, so the batch's intervals may have changed since insert.
  void erase(const Batch* batch);

  /// Re-keys `batch` after its intervals changed (a member joined): erase
  /// under the old key, insert under the current one.
  void update(Batch* batch);

  /// Appends the queue positions of every indexed entry whose `kind`
  /// interval overlaps `interval`, in ascending queue position. O(log n + k)
  /// expected: the treap prunes subtrees whose max grace end precedes the
  /// query and subtrees whose keys start after it. An empty query interval
  /// overlaps nothing.
  void collect(const TimeInterval& interval, EntryIntervalKind kind,
               common::ArenaVector<std::size_t>& out) const;

  /// Insertion-counter position, carried across snapshot/restore so a
  /// restored index hands out the same priority stream as a straight run.
  /// (Tree shape never leaks into results — collect() sorts by queue
  /// position — but keeping the counter exact costs nothing.)
  std::uint64_t next_seq() const { return next_seq_; }
  void set_next_seq(std::uint64_t seq) { next_seq_ = seq; }

  /// Every indexed batch in key order — for invariant audits only.
  // simty-lint: allow(hot-path-owning)
  std::vector<const Batch*> entries_inorder() const;

  /// Verifies internal invariants (BST order, heap order, max-end
  /// augmentation, slot stamps, node accounting); returns human-readable
  /// violations.
  // simty-lint: allow(hot-path-owning)
  std::vector<std::string> check_invariants() const;

 private:
  struct Node {
    std::int64_t start_us = 0;    // grace interval start
    std::int64_t end_us = 0;      // grace interval end
    std::int64_t max_end_us = 0;  // max end over this subtree
    std::uint64_t seq = 0;        // insertion counter: deterministic tie-break
    std::uint64_t prio = 0;       // deterministic treap priority
    const Batch* batch = nullptr;
    std::int32_t left = -1;
    std::int32_t right = -1;
  };

  /// True when `batch`'s slot stamp names a live node of this index that
  /// holds it (freed nodes hold nullptr, so stale stamps never match).
  bool indexed(const Batch* batch) const {
    const std::int32_t slot = batch->index_slot();
    return slot >= 0 && static_cast<std::size_t>(slot) < nodes_.size() &&
           nodes_[static_cast<std::size_t>(slot)].batch == batch;
  }

  /// True when node `a`'s key precedes node `b`'s.
  bool key_less(const Node& a, const Node& b) const {
    return a.start_us < b.start_us ||
           (a.start_us == b.start_us && a.seq < b.seq);
  }

  void pull(std::int32_t t);
  std::int32_t rotate_left(std::int32_t t);
  std::int32_t rotate_right(std::int32_t t);
  std::int32_t insert_node(std::int32_t t, std::int32_t n);
  std::int32_t erase_node(std::int32_t t, const Node& victim);
  void collect_node(std::int32_t t, std::int64_t qs, std::int64_t qe,
                    const TimeInterval& interval, EntryIntervalKind kind,
                    common::ArenaVector<std::size_t>& out) const;

  common::ArenaVector<Node> nodes_;          // slab; free slots recycled
  common::ArenaVector<std::int32_t> free_;   // recyclable slots
  std::int32_t root_ = -1;
  std::uint64_t next_seq_ = 1;
  std::size_t count_ = 0;  // live (indexed) nodes
};

}  // namespace simty::alarm
