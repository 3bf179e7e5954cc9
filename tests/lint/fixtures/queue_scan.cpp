// queue-scan fixture: direct O(n) sweeps of the batch queue in
// alignment-policy files are flagged unless marked as the policy's one scan.
#include <cstddef>
#include <vector>

namespace fixture {

struct Batch {};

int bad_index_scan(const std::vector<Batch*>& queue) {
  int n = 0;
  for (std::size_t i = 0; i < queue.size(); ++i) ++n;  // LINT-EXPECT: queue-scan
  return n;
}

int bad_range_scan(const std::vector<Batch*>& queue) {
  int n = 0;
  for (const Batch* b : queue) {  // LINT-EXPECT: queue-scan
    if (b != nullptr) ++n;
  }
  return n;
}

int bad_pointer_bound(const std::vector<Batch*>* queue) {
  int n = 0;
  for (std::size_t i = 0; i < queue->size(); ++i) ++n;  // LINT-EXPECT: queue-scan
  return n;
}

int allowed_reference_scan(const std::vector<Batch*>& queue) {
  int n = 0;
  // Deliberate linear reference implementation.
  // simty-lint: allow(queue-scan)
  for (std::size_t i = 0; i < queue.size(); ++i) ++n;
  return n;
}

int fine_candidate_scan(const std::vector<std::size_t>& candidates) {
  int n = 0;
  for (const std::size_t i : candidates) n += static_cast<int>(i);
  return n;
}

int fine_plain_bound(std::size_t count) {
  int n = 0;
  for (std::size_t i = 0; i < count; ++i) ++n;
  return n;
}

}  // namespace fixture
