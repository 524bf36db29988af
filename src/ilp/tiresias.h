#ifndef RAIN_ILP_TIRESIAS_H_
#define RAIN_ILP_TIRESIAS_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "ilp/problem.h"
#include "ilp/solver.h"
#include "provenance/poly.h"
#include "provenance/prediction_store.h"

namespace rain {

/// A complaint lowered to "provenance polynomial (sense) rhs":
///  * value complaint t[a] = X  ->  {poly of t[a], kEq, X}
///  * tuple complaint (t should not exist)  ->  {existence poly, kEq, 0}.
struct IlpComplaint {
  PolyId poly = kInvalidPoly;
  ConstraintSense sense = ConstraintSense::kEq;
  double rhs = 0.0;
};

/// \brief Tiresias-style ILP encoding of complaints (Section 5.2).
///
/// Prediction variables: for every queried row reachable from any
/// complaint polynomial, one binary ILP variable per class with a one-hot
/// constraint; the variable matching the current prediction has objective
/// coefficient 0, every other class costs 1 (minimize prediction flips,
/// Equation 5). Polynomial structure is lowered with Tseitin-style
/// linearizations (AND/OR/NOT auxiliaries), sums as affine expressions,
/// and constant-denominator ratios by scaling.
struct TiresiasEncoding {
  IlpProblem problem;

  struct RowVars {
    int32_t table_id = -1;
    int64_t row = -1;
    int current_class = -1;       // argmax under the current model
    std::vector<int> class_vars;  // ILP var per class
  };
  std::vector<RowVars> rows;

  /// arena VarId -> ILP var (-1 when the class var was not created).
  std::vector<int> ilp_var_of;

  /// Indices of every complaint's main linear constraint, in complaint
  /// order. Feeds IlpSolveOptions::coupling_constraints so the
  /// multi-coupling decomposition can fix all complaint slacks at once.
  std::vector<int> complaint_constraints;

  /// One 0/1-valued input of an auxiliary: `constant + coef * x[var]`, or
  /// `constant` alone when var is -1 (a boolean expression reads at most
  /// one variable: a class variable, an auxiliary, or a negation of one).
  struct AuxInput {
    int var = -1;
    double coef = 0.0;
    double constant = 0.0;
  };
  /// A Tseitin AND/OR auxiliary: `var` is the AND (or OR) of
  /// aux_inputs[begin, end).
  struct Auxiliary {
    int var = -1;
    bool is_and = true;
    uint32_t begin = 0;
    uint32_t end = 0;
  };
  /// Every auxiliary in creation order: an auxiliary's inputs only read
  /// class variables and earlier auxiliaries.
  std::vector<Auxiliary> auxiliaries;
  std::vector<AuxInput> aux_inputs;
};

/// Builds the encoding. `arena` is mutated only through GetOrCreateVar
/// (class variables that the polynomials never mention still need ILP
/// variables for the one-hot constraints).
Result<TiresiasEncoding> EncodeTiresias(PolyArena* arena,
                                        const PredictionStore& predictions,
                                        const std::vector<IlpComplaint>& complaints);

/// A queried row whose prediction the ILP solution changed, with the
/// "corrected" class the solver assigned (the t_i of Section 5.2).
struct MarkedPrediction {
  int32_t table_id = -1;
  int64_t row = -1;
  int assigned_class = -1;
};

/// Extracts the rows whose assigned class differs from the current
/// prediction (the mispredictions TwoStep feeds to influence analysis).
std::vector<MarkedPrediction> DecodeMarkedPredictions(const TiresiasEncoding& enc,
                                                      const IlpSolution& solution);

/// \brief Best-effort warm start for the branch-and-bound fallback.
///
/// Starts from the current predictions (one-hot by construction, cost 0),
/// evaluates the Tseitin auxiliaries from that class assignment, and
/// greedily repairs the complaint constraints one row flip at a time
/// (re-evaluating the auxiliaries the row feeds), preferring flips that
/// do not disturb other complaints. A complaint that no single flip moves
/// toward its target (an OR of two existing join tuples) is left
/// unrepaired. With `rng`, ties between equally good flips are broken at
/// random, so the repair among several minimal ones follows the seed.
/// Returns an assignment suitable for IlpSolveOptions::warm_start, or an
/// empty vector when the repair found no feasible candidate — the solver
/// ignores empty/infeasible warm starts, so callers can pass the result
/// through unconditionally.
std::vector<uint8_t> BuildTiresiasWarmStart(const TiresiasEncoding& enc,
                                            Rng* rng = nullptr);

}  // namespace rain

#endif  // RAIN_ILP_TIRESIAS_H_
