#include "circuit/cache.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "circuit/registry.hpp"
#include "util/error.hpp"

namespace mcx {
namespace {

/// A private cache per test: the global one is shared with other suites.
class CircuitCacheTest : public ::testing::Test {
protected:
  CircuitCache cache;
};

TEST_F(CircuitCacheTest, RepeatedSpecSharesTheArtifact) {
  const CircuitSpec spec = makeCircuitSpec("rd53-min");
  const auto first = cache.compile(spec);
  const auto second = cache.compile(spec);
  EXPECT_EQ(first.get(), second.get()) << "a cache hit must not re-synthesize";
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(CircuitCacheTest, CachedAndFreshCompilesAreBitIdentical) {
  const CircuitSpec spec =
      makeCircuitSpec(R"({"circuit":"rd53-min","realize":"multilevel"})");
  const auto cached = cache.compile(spec);
  const auto fresh = compileCircuit(spec, /*useCache=*/false);
  EXPECT_NE(cached.get(), fresh.get());
  EXPECT_EQ(cached->cover, fresh->cover);
  EXPECT_EQ(cached->fm.bits(), fresh->fm.bits());
  EXPECT_EQ(cached->layout->connOfGate, fresh->layout->connOfGate);
}

TEST_F(CircuitCacheTest, BypassDoesNotTouchTheCache) {
  const CircuitSpec spec = makeCircuitSpec("fig5");
  const auto fresh = compileCircuit(spec, /*useCache=*/false);
  EXPECT_NE(fresh, nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(CircuitCacheTest, DistinctKnobsAreDistinctEntries) {
  CircuitSpec two = makeCircuitSpec("rd53");
  CircuitSpec multi = two;
  multi.realize = CircuitSpec::Realize::MultiLevel;
  const auto a = cache.compile(two);
  const auto b = cache.compile(multi);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST_F(CircuitCacheTest, RealizationVariantsShareOneSynthesisRun) {
  // The expensive stage is keyed by source + synth alone: two-level,
  // multi-level and differently factored variants of one declaration must
  // synthesize once (stats.coverMisses) and share the identical cover.
  CircuitSpec spec = makeCircuitSpec("rd53-min");
  const auto two = cache.compile(spec);
  spec.realize = CircuitSpec::Realize::MultiLevel;
  const auto multi = cache.compile(spec);
  spec.factoring = CircuitSpec::Factoring::Kernel;
  const auto kernel = cache.compile(spec);

  const CircuitCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.coverMisses, 1u) << "espresso must run once across realizations";
  EXPECT_EQ(stats.coverHits, 2u);
  EXPECT_EQ(two->cover, multi->cover);
  EXPECT_EQ(two->cover, kernel->cover);
  EXPECT_NE(multi->fm.bits(), two->fm.bits());
}

TEST_F(CircuitCacheTest, ConcurrentCompilesAreDeterministic) {
  // Hammer one spec (plus a few distinct ones) from several threads: every
  // returned artifact must be bit-identical to a fresh compile, and the
  // shared spec must compile exactly once.
  const CircuitSpec shared = makeCircuitSpec("rd53-min");
  const auto reference = compileCircuit(shared, /*useCache=*/false);

  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const Circuit>> results(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      if (t % 2 == 1) cache.compile(makeCircuitSpec("gen:majority" + std::to_string(t)));
      results[t] = cache.compile(shared);
    });
  for (std::thread& thread : threads) thread.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_NE(results[t], nullptr);
    EXPECT_EQ(results[t].get(), results[0].get());
    EXPECT_EQ(results[t]->fm.bits(), reference->fm.bits());
    EXPECT_EQ(results[t]->cover, reference->cover);
  }
  const CircuitCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u + kThreads / 2) << "shared spec + 4 distinct generators";
  EXPECT_EQ(stats.hits + stats.misses, kThreads + kThreads / 2);
}

TEST_F(CircuitCacheTest, FileContentIsTheKey) {
  const std::string path = ::testing::TempDir() + "/mcx_cache_test.pla";
  auto writeFile = [&path](const std::string& body) {
    std::ofstream file(path);
    file << body;
  };
  writeFile(".i 2\n.o 1\n11 1\n.e\n");
  const CircuitSpec spec = makeCircuitSpec("file:" + path);

  const auto first = cache.compile(spec);
  const auto again = cache.compile(spec);
  EXPECT_EQ(first.get(), again.get());

  // Same path, different bytes: the content key must miss and recompile.
  writeFile(".i 2\n.o 1\n11 1\n00 1\n.e\n");
  const auto edited = cache.compile(spec);
  EXPECT_NE(edited.get(), first.get());
  EXPECT_EQ(edited->cover.size(), 2u);
  EXPECT_EQ(cache.stats().misses, 2u);

  std::remove(path.c_str());
  EXPECT_THROW(cache.compile(spec), ParseError) << "unreadable file is a hard error";
}

TEST_F(CircuitCacheTest, LabelDiffersButCompileIsShared) {
  // The label is presentation, not identity: both declarations get the one
  // artifact, and each caller prints its own spec's displayLabel().
  CircuitSpec plain = makeCircuitSpec("gen:parity4");
  CircuitSpec named = plain;
  named.label = "mine";
  const auto a = cache.compile(plain);
  const auto b = cache.compile(named);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_TRUE(a->spec.label.empty());
}

TEST_F(CircuitCacheTest, RelabelsShareOneEntry) {
  // Fifty labels of one declaration must not store fifty artifact copies.
  CircuitSpec spec = makeCircuitSpec("alu4");
  const auto first = cache.compile(spec);
  const std::size_t bytes = cache.currentBytes();
  for (int i = 0; i < 50; ++i) {
    spec.label = "run-" + std::to_string(i);
    EXPECT_EQ(cache.compile(spec).get(), first.get()) << spec.label;
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.currentBytes(), bytes);
  EXPECT_EQ(cache.stats().hits, 50u);
}

TEST_F(CircuitCacheTest, ClearResets) {
  cache.compile(makeCircuitSpec("fig5"));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  cache.compile(makeCircuitSpec("fig5"));
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CircuitContentKey, DistinguishesContentNotLabel) {
  CircuitSpec a = makeCircuitSpec("rd53");
  CircuitSpec b = a;
  b.label = "other-name";
  EXPECT_EQ(circuitContentKey(a), circuitContentKey(b));

  CircuitSpec inlineA = makeCircuitSpec("sop:x1 x2");
  CircuitSpec inlineB = makeCircuitSpec("sop:x1 + x2");
  EXPECT_NE(circuitContentKey(inlineA), circuitContentKey(inlineB));
}

}  // namespace
}  // namespace mcx
