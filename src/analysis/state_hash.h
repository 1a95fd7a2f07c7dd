#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace sdfmap {

/// Flat encoding of an execution state as a vector of 64-bit words. Every
/// state-space engine serializes its state into this key, and the shared
/// exploration core (src/analysis/explore.h) detects the recurrent state that
/// closes the periodic phase ([10]) with it. The throughput-check memoization
/// cache (src/analysis/cache.h) reuses the same key type for its canonical
/// configuration fingerprints.
struct StateKey {
  std::vector<std::int64_t> words;

  friend bool operator==(const StateKey& a, const StateKey& b) { return a.words == b.words; }
};

/// The splitmix64 output finalizer: a full-avalanche 64 -> 64 bit mixer
/// (every input bit flips each output bit with probability ~1/2).
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hashes whole 64-bit words through the splitmix64 mixer — one multiply
/// chain per word instead of the eight FNV-1a rounds a byte-at-a-time loop
/// costs. Chaining the previous digest into each mix keeps the hash sensitive
/// to word order; folding the length in up front separates keys that are
/// prefixes of one another.
struct StateKeyHash {
  std::size_t operator()(const StateKey& key) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ (key.words.size() * 0xff51afd7ed558ccdULL);
    for (const std::int64_t w : key.words) {
      h = splitmix64(h ^ static_cast<std::uint64_t>(w));
    }
    return static_cast<std::size_t>(h);
  }
};

/// A StateKey with its StateKeyHash, which the constructor computes. Code
/// that needs the hash more than once (the throughput cache's shard, bucket
/// and on-disk segment) takes this type, so the hash is computed once and
/// always belongs to the key it travels with.
class HashedKey {
 public:
  explicit HashedKey(StateKey key) : key_(std::move(key)), hash_(StateKeyHash{}(key_)) {}

  [[nodiscard]] const StateKey& key() const { return key_; }
  [[nodiscard]] std::size_t hash() const { return hash_; }

  friend bool operator==(const HashedKey& a, const HashedKey& b) {
    return a.hash_ == b.hash_ && a.key_ == b.key_;
  }

 private:
  StateKey key_;
  std::size_t hash_;
};

template <typename Snapshot>
using StateMap = std::unordered_map<StateKey, Snapshot, StateKeyHash>;

}  // namespace sdfmap
