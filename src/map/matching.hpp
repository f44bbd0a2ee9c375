// Row matching between the function matrix (FM) and the crossbar matrix
// (CM), plus the mapper interface shared by HBA / EA / ablation variants.
//
// Matching rule (Section IV-B of the paper): an FM row can be placed on a CM
// row iff every 1 of the FM row (required active switch) falls on a 1 of the
// CM row (functional crosspoint). FM 0s (disabled switches) are compatible
// with both functional and stuck-open crosspoints.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "assign/munkres.hpp"
#include "util/bit_matrix.hpp"
#include "xbar/defects.hpp"
#include "xbar/function_matrix.hpp"

namespace mcx {

class CancelToken;
class ExecutorPool;

/// True iff FM row @p fmRow fits CM row @p cmRow.
bool rowMatches(const BitMatrix& fm, std::size_t fmRow, const BitMatrix& cm, std::size_t cmRow);

/// Candidate adjacency of the matching problem: bit (i, j) set iff FM row i
/// fits CM row j, by the word-parallel fit test of every pair. The
/// reference for MappingContext::candidateAdjacency, which every mapper
/// uses.
BitMatrix buildCandidateAdjacency(const BitMatrix& fm, const BitMatrix& cm);

/// Per-worker scratch of the mapping hot path: the candidate adjacency
/// buffer plus the engine's cancellation token and pool.
///
/// The adjacency is read off the CM alone. Stuck-open crosspoints are 0 in
/// the CM, and stuck-closed ones have already zeroed their row and column
/// (Fig. 8), so nothing else about the sample is needed. The CM is
/// transposed once per call (64x64 bit-block transpose), and adjacency row
/// i is the AND of the transposed rows of FM row i's required columns (all
/// ones for an FM row with no required column). That is rowSubsetOf for
/// every pair, so the result is bit-identical to buildCandidateAdjacency,
/// in O(fmOnes x cmRowWords) word ops instead of its
/// O(fmRows x cmRows x colWords).
class MappingContext {
public:
  /// No-op: perfbench compiles against this.
  void setSample(const DefectMap*, const DirtyRows*) {}

  /// Register the engine's cancellation token and worker pool so
  /// context-aware mappers with internal search (the SAT backend) can poll
  /// deadlines mid-solve and farm sub-problems onto the experiment pool.
  /// Null means no cancellation / no internal parallelism. The pointees
  /// must outlive the mapping calls.
  void setExecution(const CancelToken* cancel, ExecutorPool* pool) {
    cancel_ = cancel;
    pool_ = pool;
  }
  const CancelToken* cancelToken() const { return cancel_; }
  ExecutorPool* pool() const { return pool_; }

  /// Candidate adjacency of (fm, cm) in a reused internal buffer (valid
  /// until the next call on this context).
  const BitMatrix& candidateAdjacency(const BitMatrix& fm, const BitMatrix& cm);

private:
  const CancelToken* cancel_ = nullptr;
  ExecutorPool* pool_ = nullptr;
  BitMatrix cmT_;  ///< row c: the CM rows functional at column c
  BitMatrix adjacency_;
};

/// The paper's "matching matrix" as a Munkres cost matrix, from a candidate
/// adjacency: cost 0 where the bit is set (the FM row fits the CM row), 1
/// otherwise. A zero-cost perfect assignment is exactly a valid mapping.
CostMatrix buildMatchingMatrix(const BitMatrix& adjacency);

/// A solved 0/1 feasibility matching (the unweighted special case of the
/// paper's assignment problem).
struct FeasibleAssignment {
  bool success = false;
  /// assignment[i] = adjacency column matched to row i, when success.
  std::vector<std::size_t> assignment;
};

/// Decide the pure feasibility case via Hopcroft-Karp on the candidate
/// adjacency — O(E sqrt(V)) instead of Munkres' O(n^3). An FM row with zero
/// candidates fails before any solving. Munkres remains the solver for
/// genuinely weighted cost matrices.
FeasibleAssignment solveFeasibleAssignment(const BitMatrix& adjacency);

struct MappingResult {
  static constexpr std::size_t kUnassigned = std::numeric_limits<std::size_t>::max();

  bool success = false;
  /// rowAssignment[fmRow] = CM row, for every FM row, when success.
  std::vector<std::size_t> rowAssignment;
  /// Input-pair permutation applied before matching (identity unless the
  /// column-permutation mapper found a non-trivial one).
  std::vector<std::size_t> inputPermutation;
  /// Number of backtracking repairs attempted (HBA statistics).
  std::size_t backtracks = 0;
  /// The mapper was interrupted mid-solve (cancellation/deadline) before
  /// reaching a verdict: success is meaningless and the Monte Carlo engine
  /// leaves the sample unrecorded, so partial counts stay bit-identical to
  /// an uninterrupted rerun's prefix. Only mappers with internal
  /// cancellation polling (the SAT backend) ever set this.
  bool aborted = false;
  /// Exact fraction of care (minterm, output) pairs the realized function
  /// gets wrong, in [0, 1]. Negative means "not measured" — the graded
  /// engine then derives 0 from success and 1 from failure, so every
  /// existing mapper participates in functional-yield counting without
  /// change. Only error-aware mappers (src/approx) set it explicitly.
  double realizedError = -1.0;
  /// FM product rows deliberately left unmapped by an approximate mapper
  /// (ascending). Non-empty only on graded partial mappings: success stays
  /// false (the full FM was NOT realized), rowAssignment holds kUnassigned
  /// at these rows, and realizedError reports the exact functional cost.
  std::vector<std::size_t> droppedRows;

  /// The graded acceptance metric: the explicit realized error when
  /// measured, else the binary verdict (success = 0, failure = 1).
  double realizedErrorOrBinary() const {
    return realizedError >= 0.0 ? realizedError : (success ? 0.0 : 1.0);
  }
};

/// Check a claimed mapping: every required switch must land on a functional
/// crosspoint, and the CM rows must be pairwise distinct.
bool verifyMapping(const FunctionMatrix& fm, const BitMatrix& cm, const MappingResult& result);

/// Check a graded partial mapping (success == false, droppedRows set):
/// every retained FM row must be assigned to a distinct fitting CM row, and
/// the unassigned rows must be exactly the declared droppedRows. The
/// physical half of the approx contract — the functional half (the
/// realizedError value) is checked against truth tables in src/approx.
bool verifyPartialMapping(const FunctionMatrix& fm, const BitMatrix& cm,
                          const MappingResult& result);

/// Interface of all defect-tolerant mappers.
///
/// The two non-virtual map() entry points own the preconditions every
/// mapper shares: the FM and CM must have the same column count (else
/// InvalidArgument), and a CM with fewer rows than the FM fails without
/// solving. Everything else is the mapper's mapRows().
class IMapper {
public:
  virtual ~IMapper() = default;
  virtual std::string name() const = 0;
  /// Map the FM onto the CM with a fresh context (no cancellation, no
  /// pool).
  MappingResult map(const FunctionMatrix& fm, const BitMatrix& cm) const;
  /// Context-aware entry for the Monte Carlo engine: the context supplies
  /// the reused adjacency buffer, the cancel token and the pool. Returns
  /// exactly what map(fm, cm) would unless the token fires.
  MappingResult map(const FunctionMatrix& fm, const BitMatrix& cm, MappingContext& ctx) const;

private:
  /// The mapper proper, called with equal column counts and
  /// cm.rows() >= fm.rows(). Decorators pass @p ctx on to their inner
  /// mapper.
  virtual MappingResult mapRows(const FunctionMatrix& fm, const BitMatrix& cm,
                                MappingContext& ctx) const = 0;
};

}  // namespace mcx
