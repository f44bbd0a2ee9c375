#include "circuit/cache.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "circuit/registry.hpp"
#include "logic/pla.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace mcx {

namespace {

/// Source bytes behind the declaration: file content for File sources, the
/// exact cube-list serialization for Cover sources; empty otherwise
/// (registry/generator names and inline text are in the canonical string).
std::string contentSuffix(const CircuitSpec& spec) {
  switch (spec.source) {
    case CircuitSpec::Source::File:
      return '\n' + readPlaFileBytes(spec.name);
    case CircuitSpec::Source::Cover:
      MCX_REQUIRE(spec.cover.has_value(), "circuit spec: Cover source without a cover");
      // Serialized fresh on every lookup: a cached serialization living
      // next to a mutable `cover` field could go stale and silently key
      // the wrong circuit, and the O(products) string build is noise next
      // to the experiment the compile feeds.
      return '\n' + writePla(*spec.cover);
    default:
      return {};
  }
}

}  // namespace

std::string circuitContentKey(const CircuitSpec& spec) {
  return spec.canonical() + contentSuffix(spec);
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

CircuitCache& CircuitCache::global() {
  static CircuitCache cache;
  // Only the process-wide instance drives the registry gauge: tests build
  // private caches whose footprints would otherwise fight over one value.
  static const bool armed = (cache.publishGauge_ = true);
  (void)armed;
  return cache;
}

namespace {

template <typename Buckets>
auto* findEntry(Buckets& buckets, std::uint64_t hash, const std::string& key) {
  auto& bucket = buckets[hash];
  for (auto& entry : bucket)
    if (entry.key == key) return &entry;
  return static_cast<decltype(bucket.data())>(nullptr);
}

/// Registry mirrors of Stats. The struct stays the resettable per-cache
/// view (clear() zeroes it; tests pin that); the registry counters are the
/// process-monotonic view the stats snapshot exposes.
obs::Counter& cacheHitCounter() {
  static obs::Counter& c = obs::Registry::global().counter("circuit.cache.hits");
  return c;
}
obs::Counter& cacheMissCounter() {
  static obs::Counter& c = obs::Registry::global().counter("circuit.cache.misses");
  return c;
}
obs::Counter& coverHitCounter() {
  static obs::Counter& c = obs::Registry::global().counter("circuit.cache.cover_hits");
  return c;
}
obs::Counter& coverMissCounter() {
  static obs::Counter& c = obs::Registry::global().counter("circuit.cache.cover_misses");
  return c;
}
obs::Counter& evictionCounter() {
  static obs::Counter& c = obs::Registry::global().counter("circuit.cache.evictions");
  return c;
}
obs::Counter& evictedBytesCounter() {
  static obs::Counter& c = obs::Registry::global().counter("circuit.cache.evicted_bytes");
  return c;
}
obs::Gauge& cacheBytesGauge() {
  static obs::Gauge& g = obs::Registry::global().gauge("circuit.cache_bytes");
  return g;
}

/// Evict the least-recently-used entry across one bucket level; returns the
/// freed byte count (0 when the level is empty).
template <typename Buckets>
std::size_t evictOldest(Buckets& buckets, std::uint64_t* oldestStampOut) {
  std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
  typename Buckets::iterator oldestBucket = buckets.end();
  std::size_t oldestIndex = 0;
  for (auto it = buckets.begin(); it != buckets.end(); ++it) {
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      if (it->second[i].lastUse < oldest) {
        oldest = it->second[i].lastUse;
        oldestBucket = it;
        oldestIndex = i;
      }
    }
  }
  if (oldestBucket == buckets.end()) return 0;
  const std::size_t freed = oldestBucket->second[oldestIndex].bytes;
  oldestBucket->second.erase(oldestBucket->second.begin() +
                             static_cast<std::ptrdiff_t>(oldestIndex));
  if (oldestBucket->second.empty()) buckets.erase(oldestBucket);
  if (oldestStampOut) *oldestStampOut = oldest;
  return freed;
}

}  // namespace

void CircuitCache::publishBytesLocked() {
  if (publishGauge_) cacheBytesGauge().set(static_cast<std::int64_t>(totalBytes_));
}

void CircuitCache::enforceBudgetLocked() {
  // Joint LRU across both memo stages: whichever level holds the globally
  // oldest entry gives it up first. Handed-out shared_ptrs keep evicted
  // artifacts alive for their holders, so eviction can never corrupt a
  // result a concurrent compile() already returned — the bit-identity
  // guarantee costs nothing beyond the re-compile on the next miss.
  while (budget_ != 0 && totalBytes_ > budget_) {
    std::uint64_t circuitStamp = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t coverStamp = std::numeric_limits<std::uint64_t>::max();
    // Probe both levels' oldest stamps without erasing: scan, then evict
    // from the level holding the older one.
    for (const auto& [hash, bucket] : circuits_)
      for (const auto& entry : bucket) circuitStamp = std::min(circuitStamp, entry.lastUse);
    for (const auto& [hash, bucket] : covers_)
      for (const auto& entry : bucket) coverStamp = std::min(coverStamp, entry.lastUse);
    std::size_t freed = 0;
    if (circuitStamp <= coverStamp && circuitStamp != std::numeric_limits<std::uint64_t>::max()) {
      freed = evictOldest(circuits_, nullptr);
    } else if (coverStamp != std::numeric_limits<std::uint64_t>::max()) {
      freed = evictOldest(covers_, nullptr);
    } else {
      break;  // both levels empty; nothing left to free
    }
    totalBytes_ -= std::min(freed, totalBytes_);
    ++stats_.evictions;
    stats_.evictedBytes += freed;
    evictionCounter().add(1);
    evictedBytesCounter().add(freed);
  }
  publishBytesLocked();
}

std::shared_ptr<const Circuit> CircuitCache::compile(const CircuitSpec& spec) {
  // The source content is read once and keys both stages.
  const std::string suffix = contentSuffix(spec);
  const std::string key = spec.canonical() + suffix;

  // Build while holding the lock: compilation is a front-end cost, and
  // serializing it means concurrent requests for the same spec do the work
  // exactly once. Holding the lock across insert + eviction also makes the
  // budget invariant atomic: no caller can observe currentBytes() above the
  // budget after any compile() returns.
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto* entry = findEntry(circuits_, fnv1a64(key), key)) {
    ++stats_.hits;
    cacheHitCounter().add(1);
    entry->lastUse = ++useClock_;
    // The label is presentation, not identity: two specs differing only in
    // label share one compile, but each caller gets its own label back.
    // Relabeled variants are memoized under a label-discriminated key, so
    // the artifact copy happens once per distinct label, not per lookup.
    if (entry->value->label != spec.displayLabel()) {
      const std::string labeledKey = key + "\n#label=" + spec.displayLabel();
      const std::uint64_t labeledHash = fnv1a64(labeledKey);
      if (auto* labeled = findEntry(circuits_, labeledHash, labeledKey)) {
        labeled->lastUse = ++useClock_;
        return labeled->value;
      }
      auto relabeled = std::make_shared<Circuit>(*entry->value);
      relabeled->spec.label = spec.label;
      relabeled->label = spec.displayLabel();
      const std::size_t bytes = relabeled->estimatedBytes();
      circuits_[labeledHash].push_back({labeledKey, relabeled, bytes, ++useClock_});
      totalBytes_ += bytes;
      enforceBudgetLocked();
      return relabeled;
    }
    return entry->value;
  }
  ++stats_.misses;
  cacheMissCounter().add(1);

  // Synthesis stage, shared across realization variants of the declaration.
  const std::string synthKey = spec.synthCanonical() + suffix;
  const std::uint64_t synthHash = fnv1a64(synthKey);
  std::shared_ptr<const SynthesizedCover> synthesized;
  if (auto* entry = findEntry(covers_, synthHash, synthKey)) {
    ++stats_.coverHits;
    coverHitCounter().add(1);
    entry->lastUse = ++useClock_;
    synthesized = entry->value;
  } else {
    ++stats_.coverMisses;
    coverMissCounter().add(1);
    synthesized = std::make_shared<const SynthesizedCover>(buildSynthesizedCover(spec));
    const std::size_t bytes = synthesized->estimatedBytes();
    covers_[synthHash].push_back({synthKey, synthesized, bytes, ++useClock_});
    totalBytes_ += bytes;
  }

  auto circuit = std::make_shared<const Circuit>(realizeCircuit(spec, *synthesized));
  const std::size_t bytes = circuit->estimatedBytes();
  circuits_[fnv1a64(key)].push_back({key, circuit, bytes, ++useClock_});
  totalBytes_ += bytes;
  enforceBudgetLocked();
  return circuit;
}

CircuitCache::Stats CircuitCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t CircuitCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t entries = 0;
  for (const auto& [hash, bucket] : circuits_) entries += bucket.size();
  return entries;
}

void CircuitCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  circuits_.clear();
  covers_.clear();
  stats_ = {};
  totalBytes_ = 0;
  publishBytesLocked();
}

void CircuitCache::setByteBudget(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  budget_ = bytes;
  enforceBudgetLocked();
}

std::size_t CircuitCache::byteBudget() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return budget_;
}

std::size_t CircuitCache::currentBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return totalBytes_;
}

std::shared_ptr<const Circuit> compileCircuit(const CircuitSpec& spec, bool useCache) {
  if (!useCache) return std::make_shared<const Circuit>(buildCircuit(spec));
  return CircuitCache::global().compile(spec);
}

std::shared_ptr<const Circuit> compileCircuit(const std::string& nameOrSpec, bool useCache) {
  return compileCircuit(makeCircuitSpec(nameOrSpec), useCache);
}

}  // namespace mcx
