#include "assign/hopcroft_karp.hpp"

#include <bit>
#include <limits>
#include <vector>

#include "obs/metrics.hpp"

namespace mcx {

namespace {

using Word = BitMatrix::Word;
constexpr std::size_t kWordBits = BitMatrix::kWordBits;

constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max();

// Hopcroft-Karp on a bit-matrix adjacency (left vertex = row, right vertex =
// column). Both searches walk a row as whole words ANDed with a mask of the
// right vertices they may still step through, so a row costs one word op
// per 64 right vertices plus one step per right vertex taken, never one
// step per edge.
//
// The phase is the classic layered one: the BFS layers every row reachable
// by alternating paths, and the DFS from row l on layer k steps through a
// right vertex if it is free or its partner is on layer k+1, in ascending
// order; a row whose DFS fails leaves the layering. The masks below hold
// exactly that eligibility, so the matching found is the one the
// edge-by-edge walk finds. One read of a word's eligibility serves its
// whole scan: a failed recursion matches nothing, and on layer k+1 it
// drops only the right vertex it was entered through.
struct HkEngine {
  const BitMatrix& adj;
  const std::size_t words;
  std::vector<std::size_t> matchL, matchR, dist, queue;
  /// Right vertices with no partner.
  std::vector<Word> freeRight;
  /// Right vertices the current BFS has reached.
  std::vector<Word> seen;
  /// Layer masks, `words` words each: mask d holds the right vertices whose
  /// partner is a row on layer d (kept current through the DFS).
  std::vector<Word> layers;

  explicit HkEngine(const BitMatrix& adjacency)
      : adj(adjacency),
        words((adjacency.cols() + kWordBits - 1) / kWordBits),
        matchL(adj.rows(), MatchingResult::kUnmatched),
        matchR(adj.cols(), MatchingResult::kUnmatched),
        freeRight(words, ~Word{0}) {
    if (words > 0) freeRight[words - 1] = BitMatrix::tailMask(adj.cols());
  }

  Word* layer(std::size_t d) { return layers.data() + d * words; }
  std::size_t layerCount() const { return words == 0 ? 0 : layers.size() / words; }

  static Word bitOf(std::size_t r) { return Word{1} << (r % kWordBits); }

  /// DFS step: match row l to right vertex r, moving r out of the free
  /// mask or out of its old partner's layer (both rows are layered) and
  /// into l's.
  void match(std::size_t l, std::size_t r) {
    const std::size_t w = r / kWordBits;
    const std::size_t old = matchR[r];
    if (old == MatchingResult::kUnmatched) {
      freeRight[w] &= ~bitOf(r);
    } else {
      layer(dist[old])[w] &= ~bitOf(r);
    }
    layer(dist[l])[w] |= bitOf(r);
    matchL[l] = r;
    matchR[r] = l;
  }

  /// Greedy maximal seed: each row takes its first free right vertex,
  /// found by ANDing its words with the free mask.
  std::size_t greedySeed() {
    std::size_t placed = 0;
    for (std::size_t l = 0; l < adj.rows(); ++l) {
      const auto row = adj.rowWords(l);
      for (std::size_t w = 0; w < words; ++w) {
        const Word cand = row[w] & freeRight[w];
        if (cand == 0) continue;
        const std::size_t r = w * kWordBits + static_cast<std::size_t>(std::countr_zero(cand));
        freeRight[w] &= ~bitOf(r);
        matchL[l] = r;
        matchR[r] = l;
        ++placed;
        break;
      }
    }
    return placed;
  }

  /// Layer every row reachable from a free row; each dequeued row costs one
  /// pass over its words against `seen`. True iff a free right vertex is
  /// reachable, i.e. an augmenting path exists.
  bool bfs() {
    // Sized here, not up front: a seed that places every row never searches.
    // The FIFO is a flat vector reused across phases (a std::queue would
    // allocate a deque chunk per phase).
    dist.resize(adj.rows());
    queue.clear();
    seen.assign(words, Word{0});
    layers.assign(words, Word{0});  // layer 0: the free rows, partnerless until matched
    for (std::size_t l = 0; l < adj.rows(); ++l) {
      if (matchL[l] == MatchingResult::kUnmatched) {
        dist[l] = 0;
        queue.push_back(l);
      } else {
        dist[l] = kInf;
      }
    }
    bool found = false;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::size_t l = queue[head];
      const std::size_t k = dist[l];
      if (layerCount() < k + 2) layers.resize((k + 2) * words, Word{0});
      Word* const next = layer(k + 1);
      const auto row = adj.rowWords(l);
      for (std::size_t w = 0; w < words; ++w) {
        const Word fresh = row[w] & ~seen[w];
        if (fresh == 0) continue;
        seen[w] |= fresh;
        if ((fresh & freeRight[w]) != 0) found = true;
        Word matched = fresh & ~freeRight[w];
        next[w] |= matched;
        for (; matched != 0; matched &= matched - 1) {
          const std::size_t partner =
              matchR[w * kWordBits + static_cast<std::size_t>(std::countr_zero(matched))];
          dist[partner] = k + 1;
          queue.push_back(partner);
        }
      }
    }
    return found;
  }

  /// Augment from row @p l along the layering.
  bool dfs(std::size_t l) {
    const std::size_t k = dist[l];
    const Word* const next = layer(k + 1);  // the BFS gave every reached layer a successor
    const auto row = adj.rowWords(l);
    for (std::size_t w = 0; w < words; ++w) {
      for (Word cand = row[w] & (freeRight[w] | next[w]); cand != 0; cand &= cand - 1) {
        const std::size_t r = w * kWordBits + static_cast<std::size_t>(std::countr_zero(cand));
        if (matchR[r] == MatchingResult::kUnmatched || dfs(matchR[r])) {
          match(l, r);
          return true;
        }
      }
    }
    const std::size_t r = matchL[l];
    if (r != MatchingResult::kUnmatched) layer(k)[r / kWordBits] &= ~bitOf(r);
    dist[l] = kInf;
    return false;
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
