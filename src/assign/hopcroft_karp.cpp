#include "assign/hopcroft_karp.hpp"

#include <bit>
#include <limits>
#include <vector>

#include "obs/metrics.hpp"

namespace mcx {

namespace {

constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max();

// Hopcroft-Karp on a bit-matrix adjacency: each set bit of row l is an edge
// l -> (word * 64 + bit), walked word-at-a-time with countr_zero — no
// per-edge adjacency structure.
struct HkEngine {
  const BitMatrix& adj;
  std::vector<std::size_t> matchL, matchR, dist, queue;

  explicit HkEngine(const BitMatrix& adjacency)
      : adj(adjacency),
        matchL(adj.rows(), MatchingResult::kUnmatched),
        matchR(adj.cols(), MatchingResult::kUnmatched),
        dist(adj.rows()) {}

  template <typename Fn>
  bool forEachNeighbor(std::size_t l, Fn&& fn) const {
    const auto words = adj.rowWords(l);
    for (std::size_t i = 0; i < words.size(); ++i) {
      BitMatrix::Word bits = words[i];
      while (bits != 0) {
        const std::size_t r = i * BitMatrix::kWordBits +
                              static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        if (fn(r)) return true;
      }
    }
    return false;
  }

  /// Greedy maximal seed, word-parallel: candidate words are ANDed with a
  /// free-rights mask, so already-taken neighbors are skipped 64 at a time
  /// instead of bit by bit (they dominate once the matching fills up).
  std::size_t greedySeed() {
    using Word = BitMatrix::Word;
    if (adj.rows() == 0 || adj.cols() == 0) return 0;
    const std::size_t words = adj.rowWords(0).size();
    std::vector<Word> free(words, ~Word{0});
    free[words - 1] = BitMatrix::tailMask(adj.cols());
    std::size_t placed = 0;
    for (std::size_t l = 0; l < adj.rows(); ++l) {
      const auto row = adj.rowWords(l);
      for (std::size_t w = 0; w < words; ++w) {
        const Word cand = row[w] & free[w];
        if (cand == 0) continue;
        const std::size_t bit = static_cast<std::size_t>(std::countr_zero(cand));
        const std::size_t r = w * BitMatrix::kWordBits + bit;
        free[w] &= ~(Word{1} << bit);
        matchL[l] = r;
        matchR[r] = l;
        ++placed;
        break;
      }
    }
    return placed;
  }

  bool bfs() {
    // Flat FIFO (reused across phases): a std::queue would allocate a deque
    // chunk per phase, on the warm-started per-sample path.
    queue.clear();
    std::size_t head = 0;
    for (std::size_t l = 0; l < adj.rows(); ++l) {
      if (matchL[l] == MatchingResult::kUnmatched) {
        dist[l] = 0;
        queue.push_back(l);
      } else {
        dist[l] = kInf;
      }
    }
    bool foundAugmenting = false;
    while (head < queue.size()) {
      const std::size_t l = queue[head];
      ++head;
      forEachNeighbor(l, [&](std::size_t r) {
        const std::size_t next = matchR[r];
        if (next == MatchingResult::kUnmatched) {
          foundAugmenting = true;
        } else if (dist[next] == kInf) {
          dist[next] = dist[l] + 1;
          queue.push_back(next);
        }
        return false;
      });
    }
    return foundAugmenting;
  }

  bool dfs(std::size_t l) {
    const bool augmented = forEachNeighbor(l, [&](std::size_t r) {
      const std::size_t next = matchR[r];
      if (next == MatchingResult::kUnmatched || (dist[next] == dist[l] + 1 && dfs(next))) {
        matchL[l] = r;
        matchR[r] = l;
        return true;
      }
      return false;
    });
    if (!augmented) dist[l] = kInf;
    return augmented;
  }

  MatchingResult run(bool warmStart) {
    MatchingResult result;
    std::size_t phases = 0;
    if (warmStart) {
      result.size = greedySeed();
      if (result.size == adj.rows()) {  // perfect already: no phases needed
        recordHkProfile(warmStart, phases);
        result.matchOfLeft = std::move(matchL);
        return result;
      }
    }
    while (bfs()) {
      ++phases;
      for (std::size_t l = 0; l < adj.rows(); ++l)
        if (matchL[l] == MatchingResult::kUnmatched && dfs(l)) ++result.size;
    }
    recordHkProfile(warmStart, phases);
    result.matchOfLeft = std::move(matchL);
    return result;
  }

  /// Warm-vs-cold phase telemetry. A warm HK run costs ~1µs, so even a
  /// registry-counter increment is measurable here — everything hides
  /// behind the profilingArmed() relaxed-load gate (one branch disarmed).
  static void recordHkProfile(bool warmStart, std::size_t phases) {
    if (!obs::profilingArmed()) return;
    static obs::Counter& warmRuns = obs::Registry::global().counter("hk.warm_runs");
    static obs::Counter& coldRuns = obs::Registry::global().counter("hk.cold_runs");
    static obs::Counter& warmPhases = obs::Registry::global().counter("hk.warm_phases");
    static obs::Counter& coldPhases = obs::Registry::global().counter("hk.cold_phases");
    if (warmStart) {
      warmRuns.add(1);
      warmPhases.add(phases);
    } else {
      coldRuns.add(1);
      coldPhases.add(phases);
    }
  }
};

}  // namespace

MatchingResult hopcroftKarp(const BitMatrix& adjacency, bool warmStart) {
  return HkEngine(adjacency).run(warmStart);
}

}  // namespace mcx
