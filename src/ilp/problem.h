#ifndef RAIN_ILP_PROBLEM_H_
#define RAIN_ILP_PROBLEM_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"

namespace rain {

enum class ConstraintSense : uint8_t { kLe, kGe, kEq };

struct LinearTerm {
  int var = -1;
  double coef = 0.0;
};

/// sum_i coef_i * x_i  (sense)  rhs
struct LinearConstraint {
  std::vector<LinearTerm> terms;
  ConstraintSense sense = ConstraintSense::kLe;
  double rhs = 0.0;
};

/// \brief A 0/1 integer linear program: minimize c.x subject to linear
/// constraints, x binary.
///
/// This is the substrate for the TwoStep SQL-explanation step: the
/// Tiresias-style encoder lowers complaints over provenance polynomials
/// into an IlpProblem (prediction-assignment variables, Tseitin auxiliary
/// variables, flip-count objective) and hands it to IlpSolver — the
/// stand-in for Gurobi/CPLEX (see DESIGN.md substitutions).
class IlpProblem {
 public:
  /// Adds a binary variable with the given objective coefficient.
  int AddVar(double objective_coef);

  void AddConstraint(LinearConstraint c) { constraints_.push_back(std::move(c)); }

  /// Convenience: sum(vars) sense rhs with unit coefficients.
  void AddCardinality(const std::vector<int>& vars, ConstraintSense sense, double rhs);

  size_t num_vars() const { return objective_.size(); }
  size_t num_constraints() const { return constraints_.size(); }
  double objective_coef(int v) const { return objective_[v]; }
  const std::vector<double>& objective() const { return objective_; }
  const std::vector<LinearConstraint>& constraints() const { return constraints_; }

  /// Objective value of a full assignment.
  double ObjectiveValue(const std::vector<uint8_t>& x) const;
  /// True if `x` satisfies every constraint (within eps).
  bool IsFeasible(const std::vector<uint8_t>& x, double eps = 1e-6) const;

  /// Returns a copy with every constraint's duplicate variable terms
  /// merged (coefficients summed, zero terms dropped). The solver's
  /// activity bookkeeping assumes each variable appears at most once per
  /// constraint, so it canonicalizes its input with this.
  IlpProblem Canonicalized() const;

 private:
  std::vector<double> objective_;
  std::vector<LinearConstraint> constraints_;
};

}  // namespace rain

#endif  // RAIN_ILP_PROBLEM_H_
