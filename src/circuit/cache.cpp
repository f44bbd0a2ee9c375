#include "circuit/cache.hpp"

#include <algorithm>
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

CircuitCache& CircuitCache::global() {
  static CircuitCache cache;
  // Only the process-wide instance drives the registry gauge: tests build
  // private caches whose footprints would otherwise fight over one value.
  static const bool armed = (cache.publishGauge_ = true);
  (void)armed;
  return cache;
}

namespace {

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

/// The least-recently-used entry of one memo stage (end() when empty).
template <typename Stage>
auto oldestEntry(Stage& stage) {
  return std::min_element(stage.begin(), stage.end(), [](const auto& a, const auto& b) {
    return a.second.lastUse < b.second.lastUse;
  });
}

}  // namespace

void CircuitCache::publishBytesLocked() {
  if (publishGauge_) cacheBytesGauge().set(static_cast<std::int64_t>(totalBytes_));
}

void CircuitCache::enforceBudgetLocked() {
  // Joint LRU across both memo stages: whichever stage holds the globally
  // oldest entry gives it up first. Handed-out shared_ptrs keep evicted
  // artifacts alive for their holders, so eviction can never corrupt a
  // result a concurrent compile() already returned — the bit-identity
  // guarantee costs nothing beyond the re-compile on the next miss.
  while (budget_ != 0 && totalBytes_ > budget_) {
    const auto circuit = oldestEntry(circuits_);
    const auto cover = oldestEntry(covers_);
    std::size_t freed = 0;
    if (circuit != circuits_.end() &&
        (cover == covers_.end() || circuit->second.lastUse < cover->second.lastUse)) {
      freed = circuit->second.bytes;
      circuits_.erase(circuit);
    } else if (cover != covers_.end()) {
      freed = cover->second.bytes;
      covers_.erase(cover);
    } else {
      break;  // both stages empty; nothing left to free
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
  std::string key = spec.canonical() + suffix;

  // Build while holding the lock: compilation is a front-end cost, and
  // serializing it means concurrent requests for the same spec do the work
  // exactly once. Holding the lock across insert + eviction also makes the
  // budget invariant atomic: no caller can observe currentBytes() above the
  // budget after any compile() returns.
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto hit = circuits_.find(key); hit != circuits_.end()) {
    ++stats_.hits;
    cacheHitCounter().add(1);
    hit->second.lastUse = ++useClock_;
    return hit->second.value;
  }
  ++stats_.misses;
  cacheMissCounter().add(1);

  // Synthesis stage, shared across realization variants of the declaration.
  std::string synthKey = spec.synthCanonical() + suffix;
  std::shared_ptr<const SynthesizedCover> synthesized;
  if (const auto hit = covers_.find(synthKey); hit != covers_.end()) {
    ++stats_.coverHits;
    coverHitCounter().add(1);
    hit->second.lastUse = ++useClock_;
    synthesized = hit->second.value;
  } else {
    ++stats_.coverMisses;
    coverMissCounter().add(1);
    synthesized = std::make_shared<const SynthesizedCover>(buildSynthesizedCover(spec));
    const std::size_t bytes = synthesized->estimatedBytes();
    covers_.emplace(std::move(synthKey), Entry<SynthesizedCover>{synthesized, bytes, ++useClock_});
    totalBytes_ += bytes;
  }

  auto circuit = std::make_shared<const Circuit>(realizeCircuit(spec, *synthesized));
  const std::size_t bytes = circuit->estimatedBytes();
  circuits_.emplace(std::move(key), Entry<Circuit>{circuit, bytes, ++useClock_});
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
  return circuits_.size();
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
