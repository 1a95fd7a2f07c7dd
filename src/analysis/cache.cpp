#include "src/analysis/cache.h"

#include <cstdlib>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "src/analysis/persistent_cache.h"
#include "src/support/env.h"

namespace sdfmap {

namespace {

/// Leading tag words keep the two fingerprint families disjoint even if their
/// payloads ever coincide.
constexpr std::int64_t kSelfTimedTag = 0x53454c46'54494d45;    // "SELFTIME"
constexpr std::int64_t kConstrainedTag = 0x434f4e53'54524e44;  // "CONSTRND"

/// Graph structure + timing + the verdict-affecting count caps. Every
/// variable-length section is preceded by its length, so no two distinct
/// configurations share an encoding.
void encode_graph_and_limits(const Graph& g, const ExecutionLimits& limits,
                             std::vector<std::int64_t>& words) {
  words.push_back(static_cast<std::int64_t>(g.num_actors()));
  words.push_back(static_cast<std::int64_t>(g.num_channels()));
  for (const Actor& a : g.actors()) words.push_back(a.execution_time);
  for (const Channel& c : g.channels()) {
    words.push_back(c.src.value);
    words.push_back(c.dst.value);
    words.push_back(c.production_rate);
    words.push_back(c.consumption_rate);
    words.push_back(c.initial_tokens);
  }
  // The wall-clock budget is excluded on purpose: a completed result is valid
  // under any deadline, and aborted checks are never inserted.
  words.push_back(static_cast<std::int64_t>(limits.max_states));
  words.push_back(limits.max_tokens_per_channel);
  words.push_back(static_cast<std::int64_t>(limits.max_events_per_instant));
  words.push_back(static_cast<std::int64_t>(limits.max_time_steps));
}

}  // namespace

std::string CacheStats::summary() const {
  std::ostringstream os;
  os << hits << "/" << lookups() << " hits (";
  os.precision(1);
  os << std::fixed << hit_rate() * 100.0 << "%), " << inserts << " inserts, " << evictions
     << " evictions";
  if (disk_attached) {
    os << "; disk: " << memory_hits() << " memory + " << disk_hits << " disk hits, "
       << disk_recovered << " recovered, " << disk_discarded << " discarded, "
       << disk_evictions << " evicted, " << disk_appends << " appended";
    if (disk_io_errors > 0) os << ", " << disk_io_errors << " I/O errors";
    if (disk_degraded) os << " [degraded to memory-only]";
  }
  return os.str();
}

namespace {

/// A caller's unhashed key with the hash computed for it here: lets the
/// StateKey overload of lookup() probe the table without copying the key.
struct KeyRef {
  const StateKey& key;
  std::size_t hash;
};

/// Resident keys carry their hash, so neither a probe nor a rehash hashes a
/// key's words again.
struct StoredHash {
  using is_transparent = void;
  std::size_t operator()(const HashedKey& k) const noexcept { return k.hash(); }
  std::size_t operator()(const KeyRef& k) const noexcept { return k.hash; }
};

struct SameKey {
  using is_transparent = void;
  bool operator()(const HashedKey& a, const HashedKey& b) const { return a == b; }
  bool operator()(const KeyRef& a, const HashedKey& b) const {
    return a.hash == b.hash() && a.key == b.key();
  }
  bool operator()(const HashedKey& a, const KeyRef& b) const { return (*this)(b, a); }
};

}  // namespace

struct ThroughputCache::Shard {
  /// One resident result; from_disk marks records recovered from the
  /// attached persistent store (drives the memory-vs-disk hit breakout).
  struct Entry {
    ConstrainedResult result;
    bool from_disk = false;
  };
  mutable std::mutex mutex;
  std::unordered_map<HashedKey, Entry, StoredHash, SameKey> map;
};

ThroughputCache::ThroughputCache(std::size_t max_entries)
    : shards_(new Shard[kShards]),
      max_per_shard_(max_entries / kShards > 0 ? max_entries / kShards : 1) {}

ThroughputCache::~ThroughputCache() = default;

ThroughputCache::Shard& ThroughputCache::shard_for(std::size_t hash) const {
  // Top bits of the key hash: the map uses the low bits for buckets, so the
  // shard index stays decorrelated from intra-shard placement.
  return shards_[(hash >> 60) & (kShards - 1)];
}

template <typename Probe>
std::optional<ConstrainedResult> ThroughputCache::find(const Probe& probe,
                                                       bool* from_disk) const {
  if (from_disk) *from_disk = false;
  Shard& shard = shard_for(StoredHash{}(probe));
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.map.find(probe);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (it->second.from_disk) {
    disk_hits_.fetch_add(1, std::memory_order_relaxed);
    if (from_disk) *from_disk = true;
  }
  return it->second.result;
}

std::optional<ConstrainedResult> ThroughputCache::lookup(const StateKey& key,
                                                         bool* from_disk) const {
  return find(KeyRef{key, StateKeyHash{}(key)}, from_disk);
}

std::optional<ConstrainedResult> ThroughputCache::lookup(const HashedKey& key,
                                                         bool* from_disk) const {
  return find(key, from_disk);
}

std::size_t ThroughputCache::insert(const StateKey& key, ConstrainedResult value) {
  return insert(HashedKey(key), std::move(value));
}

std::size_t ThroughputCache::insert(const HashedKey& key, ConstrainedResult value) {
  Shard& shard = shard_for(key.hash());
  std::size_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.map.find(key) != shard.map.end()) return 0;  // racing miss: first writer won
    if (shard.map.size() >= max_per_shard_) {
      // Capacity bound: drop an arbitrary resident. Which entry goes only
      // moves future hit rates, never results, so no ordering bookkeeping is
      // kept.
      shard.map.erase(shard.map.begin());
      evicted = 1;
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    shard.map.emplace(key, Shard::Entry{value, false});
    inserts_.fetch_add(1, std::memory_order_relaxed);
  }
  // Outside the shard lock: appends serialize on the store's own mutex, and
  // a disk failure there degrades the tier without touching this shard.
  if (disk_) disk_->append(key, value);
  return evicted;
}

void ThroughputCache::attach_persistent(std::shared_ptr<PersistentCache> disk) {
  if (!disk || disk_) return;
  for (auto& [key, value] : disk->open_and_recover()) {
    HashedKey hashed(std::move(key));
    Shard& shard = shard_for(hashed.hash());
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.map.size() >= max_per_shard_) continue;  // memory bound beats warm-start
    shard.map.emplace(std::move(hashed), Shard::Entry{std::move(value), true});
  }
  disk_ = std::move(disk);
}

std::shared_ptr<PersistentCache> ThroughputCache::persistent() const { return disk_; }

void ThroughputCache::flush_persistent() {
  if (disk_) disk_->flush();
}

std::size_t ThroughputCache::size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mutex);
    total += shards_[s].map.size();
  }
  return total;
}

void ThroughputCache::clear() {
  for (std::size_t s = 0; s < kShards; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mutex);
    shards_[s].map.clear();
  }
}

CacheStats ThroughputCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  if (disk_) {
    const PersistentCacheStats d = disk_->stats();
    s.disk_attached = true;
    s.disk_hits = disk_hits_.load(std::memory_order_relaxed);
    s.disk_recovered = d.recovered_records;
    s.disk_discarded = d.discarded_records;
    s.disk_evictions = d.evicted_records;
    s.disk_appends = d.appended_records;
    s.disk_io_errors = d.io_errors;
    s.disk_degraded = d.degraded;
  }
  return s;
}

StateKey self_timed_cache_key(const Graph& g, const ExecutionLimits& limits) {
  StateKey key;
  key.words.reserve(7 + g.num_actors() + g.num_channels() * 5);
  key.words.push_back(kSelfTimedTag);
  encode_graph_and_limits(g, limits, key.words);
  return key;
}

StateKey constrained_cache_key(const Graph& g, const ConstrainedSpec& spec,
                               SchedulingMode mode, const ExecutionLimits& limits) {
  StateKey key;
  std::size_t schedule_words = 0;
  for (const TdmaTileSpec& tile : spec.tiles) schedule_words += tile.schedule.size();
  key.words.reserve(9 + g.num_actors() + g.num_channels() * 5 + spec.actor_tile.size() +
                    spec.tiles.size() * 5 + schedule_words);
  key.words.push_back(kConstrainedTag);
  encode_graph_and_limits(g, limits, key.words);
  key.words.push_back(mode == SchedulingMode::kStaticOrder ? 0 : 1);
  for (const std::int32_t t : spec.actor_tile) key.words.push_back(t);
  key.words.push_back(static_cast<std::int64_t>(spec.tiles.size()));
  for (const TdmaTileSpec& tile : spec.tiles) {
    key.words.push_back(tile.wheel_size);
    key.words.push_back(tile.slice);
    key.words.push_back(tile.slice_offset);
    key.words.push_back(static_cast<std::int64_t>(tile.schedule.loop_start));
    key.words.push_back(static_cast<std::int64_t>(tile.schedule.size()));
    for (const ActorId a : tile.schedule.firings) key.words.push_back(a.value);
  }
  return key;
}

namespace {

/// The one lookup path of the cached engines. Without a cache it only runs
/// the engine. Otherwise it serves a hit, or runs the engine on a miss and
/// inserts the result; `stats` counts either. Any engine error (deadline,
/// cancellation, count cap) throws through before the insert, so an aborted
/// check leaves the cache untouched. Observed runs pass no cache: a cached
/// result carries no transitions to replay into the observer.
template <typename MakeKey, typename Run>
ConstrainedResult lookup_or_run(ThroughputCache* cache, CacheStats* stats,
                                const MakeKey& make_key, const Run& run) {
  if (cache == nullptr) return run();
  if (stats && cache->persistent()) stats->disk_attached = true;
  const HashedKey key(make_key());  // the check's only hash
  bool from_disk = false;
  if (auto found = cache->lookup(key, &from_disk)) {
    if (stats) {
      ++stats->hits;
      if (from_disk) ++stats->disk_hits;
    }
    return std::move(*found);
  }
  if (stats) ++stats->misses;
  ConstrainedResult result = run();
  const std::size_t evicted = cache->insert(key, result);
  if (stats) {
    ++stats->inserts;
    stats->evictions += static_cast<long>(evicted);
  }
  return result;
}

}  // namespace

ConstrainedResult cached_execute_constrained(ThroughputCache* cache, CacheStats* stats,
                                             const Graph& g, const RepetitionVector& gamma,
                                             const ConstrainedSpec& spec, SchedulingMode mode,
                                             const ExecutionLimits& limits,
                                             const TraceObserver& observer) {
  return lookup_or_run(
      observer ? nullptr : cache, stats,
      [&] { return constrained_cache_key(g, spec, mode, limits); },
      [&] { return execute_constrained(g, gamma, spec, mode, limits, observer); });
}

SelfTimedResult cached_self_timed_throughput(ThroughputCache* cache, CacheStats* stats,
                                             const Graph& g, const RepetitionVector& gamma,
                                             const ExecutionLimits& limits,
                                             const TraceObserver& observer) {
  return lookup_or_run(observer ? nullptr : cache, stats,
                       [&] { return self_timed_cache_key(g, limits); },
                       [&] {
                         ConstrainedResult entry;
                         entry.base = self_timed_throughput(g, gamma, limits, observer);
                         return entry;
                       })
      .base;
}

bool cache_enabled_from_env(bool fallback) {
  const ParsedEnvBool parsed = parse_env_cache(std::getenv("SDFMAP_CACHE"), fallback);
  warn_env_once(parsed.diagnostic);
  return parsed.value;
}

}  // namespace sdfmap
