#ifndef RAIN_ILP_SOLVER_H_
#define RAIN_ILP_SOLVER_H_

#include <functional>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "common/rng.h"
#include "ilp/problem.h"

namespace rain {

struct IlpSolveOptions {
  /// Search budget in branch-and-bound nodes. When exhausted the solver
  /// returns its incumbent (feasible=true, optimal=false) or
  /// ResourceExhausted if none was found — this is how the repo
  /// reproduces the paper's "ILP did not finish in 30 minutes" behaviour
  /// at laptop scale. A node count, unlike a wall clock, gives the same
  /// answer on every host. The default is sized to the per-node cost of
  /// the largest encodings here (the 90k-variable Fig. 6 mix-rate ILPs,
  /// up to several milliseconds per node on one core), which it stops
  /// within about fifteen seconds; every solve in the tests and figures
  /// that finishes does so in under a thousand nodes. Bound wall time
  /// with `cancel`.
  int64_t max_nodes = 2'000;

  /// Randomizes branching order and value tie-breaks. Among ILPs with
  /// many optima this makes the returned optimum an (approximately)
  /// uniform pick, modelling the opaque solver choice that causes
  /// TwoStep's ambiguity problem (Section 5.2.2).
  bool randomize = true;
  uint64_t seed = 1;

  /// Indices of the "coupling" constraints (e.g. the complaint
  /// cardinality constraints) that the decomposition fast path may remove
  /// to split the problem into independent components; empty disables.
  /// The grouped DP fixes the slack of every listed constraint at once
  /// (kEq/kLe couplings only) and solves each component exactly; when
  /// several are listed and the joint grid is too wide, it retries with
  /// each one alone.
  std::vector<int> coupling_constraints;

  /// Optional cooperative stop, polled when the solve starts and every
  /// 1024 branch-and-bound nodes. When it fires SolveIlp returns
  /// Status::Cancelled, never the incumbent it had, so a solution never
  /// depends on how far a given host got before the stop. DebugSession
  /// points it at the session token, so session deadlines and
  /// cancellation reach TwoStep's search.
  const CancellationToken* cancel = nullptr;

  /// Optional warm start: a candidate assignment (size num_vars). When it
  /// is feasible for the problem, branch-and-bound seeds its incumbent
  /// from it, so bound pruning is active from the first node and the
  /// solver can never return empty-handed on a budget exhaust. Infeasible
  /// or wrong-sized warm starts are ignored.
  std::vector<uint8_t> warm_start;

  /// Optional source of the warm start, called only when `warm_start` is
  /// empty and branch-and-bound is about to run: a solve that the
  /// decomposition finishes never reads a warm start, so it should not
  /// pay for building one.
  std::function<std::vector<uint8_t>()> build_warm_start;
};

struct IlpSolution {
  std::vector<uint8_t> values;
  double objective = 0.0;
  bool feasible = false;
  bool optimal = false;
  /// The node budget ran out before the search finished.
  bool budget_exhausted = false;
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
/// node budget. It branches on one-hot rows (kEq-1 unit cardinalities
/// over non-negative-cost variables) before the other objective-carrying
/// variables, leaves zero-cost auxiliaries to propagation, and bounds
/// each node by a packing of row-disjoint constraints that the cheapest
/// completion of the open rows violates.
Result<IlpSolution> SolveIlp(const IlpProblem& problem, const IlpSolveOptions& options);

}  // namespace rain

#endif  // RAIN_ILP_SOLVER_H_
