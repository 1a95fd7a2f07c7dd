#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace sdfmap {

/// Multiset of the active firings of one actor, held as absolute finish
/// times, run-length encoded and sorted ascending.
///
/// Self-timed executions of multi-rate graphs start many identical firings at
/// the same instant (e.g. all 2376 IQ firings of an H.263 iteration), so the
/// multiset typically holds a handful of distinct values with large counts;
/// every operation below is linear in the number of *distinct* values.
/// Absolute times mean advancing the clock touches no entry: the remaining
/// work `finish - now` is only worked out when a state key is encoded.
class RemainingMultiset {
 public:
  struct Entry {
    std::int64_t finish;
    std::int64_t count;
  };

  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Earliest finish time; requires non-empty.
  [[nodiscard]] std::int64_t front() const { return entries_.front().finish; }

  /// Number of firings finishing exactly at `now`.
  [[nodiscard]] std::int64_t due(std::int64_t now) const {
    return (!entries_.empty() && entries_.front().finish == now) ? entries_.front().count : 0;
  }

  /// Removes the firings with the earliest finish time (after they produced
  /// their tokens); requires non-empty.
  void pop_front() { entries_.erase(entries_.begin()); }

  /// Starts `count` firings finishing at `finish` each.
  void add(std::int64_t finish, std::int64_t count) {
    if (count <= 0) return;
    // Firings of one actor share an execution time, so a new start finishes
    // no earlier than every active one: the common case appends or merges at
    // the back.
    if (entries_.empty() || entries_.back().finish < finish) {
      entries_.push_back(Entry{finish, count});
      return;
    }
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), finish,
        [](const Entry& e, std::int64_t value) { return e.finish < value; });
    if (it->finish == finish) {
      it->count += count;
    } else {
      entries_.insert(it, Entry{finish, count});
    }
  }

  /// Total number of active firings.
  [[nodiscard]] std::int64_t total() const {
    std::int64_t sum = 0;
    for (const Entry& e : entries_) sum += e.count;
    return sum;
  }

  /// Appends (size, remaining, count, ...) words to a state key, with the
  /// remaining time of each entry measured from `now`.
  void encode(std::int64_t now, std::vector<std::int64_t>& words) const {
    words.push_back(static_cast<std::int64_t>(entries_.size()));
    for (const Entry& e : entries_) {
      words.push_back(e.finish - now);
      words.push_back(e.count);
    }
  }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

}  // namespace sdfmap
