#ifndef RAIN_ILP_SOLVER_H_
#define RAIN_ILP_SOLVER_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "ilp/problem.h"

namespace rain {

struct IlpSolveOptions {
  /// Search budget: branch-and-bound nodes and wall-clock seconds. When
  /// exhausted the solver returns its incumbent (feasible=true,
  /// optimal=false) or ResourceExhausted if none was found — this is how
  /// the repo reproduces the paper's "ILP did not finish in 30 minutes"
  /// behaviour at laptop scale.
  int64_t max_nodes = 2'000'000;
  double time_limit_s = 10.0;

  /// Randomizes branching order and value tie-breaks. Among ILPs with
  /// many optima this makes the returned optimum an (approximately)
  /// uniform pick, modelling the opaque solver choice that causes
  /// TwoStep's ambiguity problem (Section 5.2.2).
  bool randomize = true;
  uint64_t seed = 1;

  /// Indices of the "coupling" constraints (e.g. the complaint
  /// cardinality constraints) that the decomposition fast path may remove
  /// to split the problem into independent components; empty disables.
  /// With one entry the single-coupling decomposition runs (kEq/kLe
  /// couplings only); with several (e.g. two overlapping complaint
  /// cardinalities) the grouped multi-coupling DP fixes the slack of every
  /// listed constraint at once and still solves each component exactly.
  std::vector<int> coupling_constraints;

  /// Optional warm start: a candidate assignment (size num_vars). When it
  /// is feasible for the problem, branch-and-bound seeds its incumbent
  /// from it, so bound pruning is active from the first node and the
  /// solver can never return empty-handed on a budget exhaust. Infeasible
  /// or wrong-sized warm starts are ignored.
  std::vector<uint8_t> warm_start;
};

struct IlpSolution {
  std::vector<uint8_t> values;
  double objective = 0.0;
  bool feasible = false;
  bool optimal = false;
  bool timed_out = false;
  int64_t nodes_explored = 0;
  bool used_decomposition = false;
  /// True when a feasible `warm_start` seeded the incumbent (the returned
  /// solution may still improve on it).
  bool warm_start_used = false;
};

/// \brief Solves a binary ILP.
///
/// Strategy: if `coupling_constraints` is non-empty and removing those
/// constraints splits the problem into small independent components, an
/// exact enumerate-components + DP-over-contributions method is used (this
/// covers the Tiresias encodings of COUNT/SUM complaints over
/// filter-style queries, where rows are independent). Otherwise a
/// depth-first branch-and-bound with bounds propagation runs under the
/// node/time budget.
Result<IlpSolution> SolveIlp(const IlpProblem& problem, const IlpSolveOptions& options);

}  // namespace rain

#endif  // RAIN_ILP_SOLVER_H_
