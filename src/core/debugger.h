#ifndef RAIN_CORE_DEBUGGER_H_
#define RAIN_CORE_DEBUGGER_H_

#include <string>
#include <vector>

#include "core/complaint.h"
#include "core/pipeline.h"
#include "core/ranker.h"

namespace rain {

/// A query and the complaints the user filed against its output. `query`
/// may be null when every complaint is a point complaint (predictions are
/// complained about directly, no SQL execution needed).
struct QueryComplaints {
  PlanPtr query;
  std::vector<ComplaintSpec> complaints;
};

struct DebugConfig {
  /// Records removed per train-rank-fix iteration (paper: 10).
  int top_k_per_iter = 10;
  /// Total explanation size |D| to produce.
  int max_deletions = 100;
  int max_iterations = 10000;
  /// Stop as soon as every complaint holds.
  bool stop_when_resolved = false;
  /// Worker count applied end-to-end across a train-rank-fix iteration:
  /// retraining (pipeline TrainConfig), the batched bind phase
  /// (`BindWorkload` per-query staging), and influence scoring. The CG,
  /// Newton and L-BFGS arithmetic over the parameter dimension and the
  /// Holistic encode (one seeded reverse sweep plus the q-gradient fold)
  /// are sequential and do not read it. Inheritance is resolved in exactly
  /// one place — `DebugSessionBuilder::Build()`: the pipeline's
  /// TrainConfig always tracks this value (so 1 restores the exact
  /// sequential path), and `influence.parallelism` inherits it when left
  /// at its default of 1.
  int parallelism = 1;
  InfluenceOptions influence;
  IlpSolveOptions ilp;
  /// Forwarded to RankContext (ablation knobs).
  RelaxMode relax_mode = RelaxMode::kIndependent;
  bool twostep_encode_all = false;
};

/// Per-iteration phase timings and bookkeeping (Figures 5 and 12 report
/// Train / Encode / Rank).
struct IterationStats {
  double train_seconds = 0.0;
  double query_seconds = 0.0;   // debug-mode provenance capture
  double encode_seconds = 0.0;  // grad q construction / ILP solve
  double rank_seconds = 0.0;    // Hessian solve + scoring
  /// The retrain's TrainReport::iterations and ::evaluations (full data
  /// passes); zero when the train phase was skipped on a converged memo.
  int train_iterations = 0;
  int train_evaluations = 0;
  /// The retrain's TrainReport::converged and ::grad_norm. A train phase
  /// skipped on a converged memo reports converged with norm 0.
  bool train_converged = false;
  double train_grad_norm = 0.0;
  int violated_complaints = 0;
  size_t deletions_after = 0;
  std::string note;
  /// TwoStep's ILP work, carried from RankOutput (zero/false when no ILP
  /// ran this iteration).
  int64_t ilp_nodes = 0;
  bool ilp_optimal = false;
  bool ilp_warm_start_used = false;
};

struct DebugReport {
  /// Training-record ids in deletion order — the explanation D.
  std::vector<size_t> deletions;
  std::vector<IterationStats> iterations;
  /// True if the last retraining satisfied every complaint.
  bool complaints_resolved = false;
};

}  // namespace rain

#endif  // RAIN_CORE_DEBUGGER_H_
