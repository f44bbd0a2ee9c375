// Memoized synthesis front-end: content-keyed circuit compilation.
//
// Synthesis dominates experiment start-up (espresso on a paper benchmark is
// milliseconds to seconds; the Monte Carlo engine then maps thousands of
// samples against the SAME FunctionMatrix). The cache memoizes
// buildCircuit by CONTENT: the key is the spec's canonical declaration
// plus the bytes behind it (the .pla file's content for File sources, the
// serialized cover for Cover sources), so an edited file re-synthesizes
// while a repeated declaration is a map lookup. Memoization is two-stage:
// the synthesized cover is keyed by source + synth alone, so the two-level
// and multi-level (or differently factored) realizations of one
// declaration share a single synthesis run. The label is presentation, not
// identity: the cached artifact carries none (realizeCircuit clears it), so
// every label of one declaration shares one entry, and callers print their
// own spec's displayLabel().
//
// RESOURCE GOVERNANCE: the cache is byte-accounted. Every entry (both
// stages) carries a cost estimate (Circuit::estimatedBytes), and a
// configurable budget (setByteBudget; 0 = unbounded) triggers LRU eviction
// on insert — an open-ended stream of distinct circuit specs can no longer
// grow memory without bound. The invariant is strict: after any compile()
// returns, currentBytes() <= byteBudget(). Eviction never invalidates a
// handed-out artifact (entries are shared_ptrs; callers keep theirs alive),
// and a re-compile after eviction is bit-identical to the evicted artifact
// — the deterministic-pipeline contract, hammer-tested concurrently.
// Evictions are counted in Stats and in the process registry
// ("circuit.cache.evictions" / "circuit.cache.evicted_bytes"); the global
// cache additionally publishes its footprint as the "circuit.cache_bytes"
// gauge.
//
// Thread-safe: compile() may be called from any thread; a compile in flight
// holds the cache lock, so concurrent requests for the same spec produce
// one build and share the artifact. Benchmarks that must measure the real
// pipeline bypass the cache with compileCircuit(spec, /*useCache=*/false).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "circuit/pipeline.hpp"

namespace mcx {

/// The memo key: canonical declaration + source content (file bytes for
/// File sources, serialized cover for Cover sources; inline text is already
/// part of the canonical string). Throws mcx::ParseError when a File
/// source's bytes cannot be read.
std::string circuitContentKey(const CircuitSpec& spec);

class CircuitCache {
public:
  /// The process-wide cache ExperimentBuilder and compileCircuit use.
  static CircuitCache& global();

  /// Compile @p spec, memoized by content key. Returns a shared immutable
  /// artifact; repeated calls with the same content return the same object
  /// (until the entry is evicted — the artifact a caller holds stays valid
  /// regardless, and a re-compile is bit-identical).
  std::shared_ptr<const Circuit> compile(const CircuitSpec& spec);

  struct Stats {
    std::uint64_t hits = 0;          ///< full-circuit lookups served
    std::uint64_t misses = 0;        ///< circuits realized
    std::uint64_t coverHits = 0;     ///< realizations that reused a synthesized cover
    std::uint64_t coverMisses = 0;   ///< synthesis runs (source + minimize)
    std::uint64_t evictions = 0;     ///< entries evicted to honor the budget
    std::uint64_t evictedBytes = 0;  ///< summed cost of evicted entries
  };
  Stats stats() const;
  std::size_t size() const;
  void clear();

  /// LRU eviction budget in estimated bytes (0 = unbounded, the default).
  /// Shrinking the budget evicts immediately; after this returns,
  /// currentBytes() <= bytes (when bytes > 0).
  void setByteBudget(std::size_t bytes);
  std::size_t byteBudget() const;
  /// Summed cost estimate of every resident entry, both stages.
  std::size_t currentBytes() const;

private:
  /// One memo stage, keyed by the full content string: realized circuits
  /// by circuitContentKey, synthesized covers by synthCanonical + source
  /// content — compiling the two-level and multi-level variants of one
  /// declaration synthesizes once. Each entry carries its byte cost and an
  /// LRU stamp.
  template <typename T>
  struct Entry {
    std::shared_ptr<const T> value;
    std::size_t bytes = 0;
    std::uint64_t lastUse = 0;
  };
  template <typename T>
  using Stage = std::unordered_map<std::string, Entry<T>>;

  void enforceBudgetLocked();
  void publishBytesLocked();

  mutable std::mutex mutex_;
  Stage<Circuit> circuits_;
  Stage<SynthesizedCover> covers_;
  Stats stats_;
  std::size_t budget_ = 0;      ///< 0 = unbounded
  std::size_t totalBytes_ = 0;  ///< summed entry costs, both stages
  std::uint64_t useClock_ = 0;  ///< monotonic LRU stamp source
  bool publishGauge_ = false;   ///< only the global cache drives the gauge
};

/// Compile through the global cache (default), or run the raw pipeline when
/// @p useCache is false (benchmarking bypass: no lookup, no insertion).
std::shared_ptr<const Circuit> compileCircuit(const CircuitSpec& spec, bool useCache = true);

/// Resolve a circuit string (circuit/registry.hpp) and compile it.
std::shared_ptr<const Circuit> compileCircuit(const std::string& nameOrSpec,
                                              bool useCache = true);

}  // namespace mcx
