#include "ilp/problem.h"

#include <cmath>
#include <unordered_map>

namespace rain {

int IlpProblem::AddVar(double objective_coef) {
  objective_.push_back(objective_coef);
  return static_cast<int>(objective_.size() - 1);
}

void IlpProblem::AddCardinality(const std::vector<int>& vars, ConstraintSense sense,
                                double rhs) {
  LinearConstraint c;
  c.terms.reserve(vars.size());
  for (int v : vars) c.terms.push_back(LinearTerm{v, 1.0});
  c.sense = sense;
  c.rhs = rhs;
  AddConstraint(std::move(c));
}

double IlpProblem::ObjectiveValue(const std::vector<uint8_t>& x) const {
  double obj = 0.0;
  for (size_t i = 0; i < objective_.size(); ++i) {
    if (x[i]) obj += objective_[i];
  }
  return obj;
}

IlpProblem IlpProblem::Canonicalized() const {
  IlpProblem out;
  out.objective_ = objective_;
  out.constraints_.reserve(constraints_.size());
  std::unordered_map<int, double> merged;
  for (const LinearConstraint& c : constraints_) {
    merged.clear();
    for (const LinearTerm& t : c.terms) merged[t.var] += t.coef;
    LinearConstraint mc;
    mc.sense = c.sense;
    mc.rhs = c.rhs;
    for (const auto& [var, coef] : merged) {
      if (std::fabs(coef) > 0.0) mc.terms.push_back(LinearTerm{var, coef});
    }
    out.constraints_.push_back(std::move(mc));
  }
  return out;
}

bool IlpProblem::IsFeasible(const std::vector<uint8_t>& x, double eps) const {
  for (const LinearConstraint& c : constraints_) {
    double act = 0.0;
    for (const LinearTerm& t : c.terms) {
      if (x[t.var]) act += t.coef;
    }
    switch (c.sense) {
      case ConstraintSense::kLe:
        if (act > c.rhs + eps) return false;
        break;
      case ConstraintSense::kGe:
        if (act < c.rhs - eps) return false;
        break;
      case ConstraintSense::kEq:
        if (act < c.rhs - eps || act > c.rhs + eps) return false;
        break;
    }
  }
  return true;
}

}  // namespace rain
