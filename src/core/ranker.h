#ifndef RAIN_CORE_RANKER_H_
#define RAIN_CORE_RANKER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/complaint.h"
#include "ilp/solver.h"
#include "influence/influence.h"
#include "ml/model.h"
#include "relational/catalog.h"
#include "relax/relaxed_poly.h"

namespace rain {

/// Everything a ranking strategy may consult for one train-rank-fix
/// iteration. Pointers are borrowed and valid for the duration of the
/// Rank call.
struct RankContext {
  const Model* model = nullptr;
  const Dataset* train = nullptr;
  const Catalog* catalog = nullptr;
  PolyArena* arena = nullptr;
  const PredictionStore* predictions = nullptr;
  /// Complaints bound against the current iteration's provenance;
  /// rankers must ignore entries with violated == false (Section 5.3.2).
  const std::vector<BoundComplaint>* complaints = nullptr;

  InfluenceOptions influence;
  IlpSolveOptions ilp;
  /// Holistic relaxation rule (ablation knob; default = paper's rule).
  RelaxMode relax_mode = RelaxMode::kIndependent;
  /// TwoStep q encoding: marked mispredictions only (paper default) or
  /// every queried row the ILP touched (ablation knob, Section 5.2).
  bool twostep_encode_all = false;
  /// Worker count for the encode phase: the per-complaint reverse sweeps
  /// of `RelaxedPoly::GradientBatch` and the chunked q-gradient
  /// accumulation of `AccumulateProbaGradients`. Plumbed from
  /// `DebugSessionBuilder::parallelism` by `DebugSession::RankPhase`; 1
  /// (the default) is the exact sequential path, and every value obeys the
  /// deterministic-chunk contract (bitwise-stable results).
  int parallelism = 1;
  /// Optional cross-iteration encode cache owned by the caller (the
  /// session). When non-null, rankers that build a `RelaxedPoly` batch
  /// may reuse the cached batch when the root set, relax mode, and arena
  /// generation all match — the reuse is bitwise-neutral because the
  /// batch is a pure function of (arena, roots, mode) and the arena is
  /// append-only between generations (see `EncodeCache`).
  struct EncodeCache {
    uint64_t arena_generation = 0;
    RelaxMode mode = RelaxMode::kIndependent;
    std::vector<PolyId> roots;
    std::shared_ptr<const RelaxedPoly> relax;
    /// Cumulative count of Rank calls that reused `relax` (stats).
    size_t reuses = 0;
  };
  EncodeCache* encode_cache = nullptr;
  /// Arena generation stamp maintained by the caller: bumped whenever
  /// the arena grows (a splice / rebind). Only consulted when
  /// `encode_cache` is set.
  uint64_t arena_generation = 0;
};

/// Ranking result: one removal score per training record (higher = delete
/// first; inactive records must score 0) plus the phase timings reported
/// in Figures 5/12.
struct RankOutput {
  std::vector<double> scores;
  double encode_seconds = 0.0;  // building grad q / solving the ILP
  double rank_seconds = 0.0;    // Hessian-inverse products + scoring
  std::string note;             // e.g. "ilp timed out; using incumbent"
};

/// \brief Strategy interface for ranking training records (Section 6.1.1).
class Ranker {
 public:
  virtual ~Ranker() = default;
  virtual std::string name() const = 0;
  virtual Result<RankOutput> Rank(const RankContext& ctx) = 0;
};

/// Baseline: rank by per-example training loss, descending (Loss).
std::unique_ptr<Ranker> MakeLossRanker();
/// Baseline: rank by influence of a record on its own loss [35] (InfLoss).
std::unique_ptr<Ranker> MakeInfLossRanker();
/// TwoStep: ILP-repair the prediction view, then influence (Section 5.2).
std::unique_ptr<Ranker> MakeTwoStepRanker();
/// Holistic: relaxed provenance polynomial influence (Section 5.3).
std::unique_ptr<Ranker> MakeHolisticRanker();
/// The Section 5.1 optimizer: picks TwoStep when the complaint repair is
/// unambiguous (all point complaints), Holistic otherwise, per iteration.
std::unique_ptr<Ranker> MakeAutoRanker();

/// Factory by name ("loss", "infloss", "twostep", "holistic", "auto").
Result<std::unique_ptr<Ranker>> MakeRanker(const std::string& name);

/// \brief Shared helper: accumulates grad_theta of
///   sum_{(table,row)} sum_c weights[(table,row)][c] * p_c(x_row; theta)
/// by backpropagating each row's class-weight seed through the model
/// (the chain rule of Equation 4's grad q term).
///
/// All (table,row) keys are validated against the catalog up front, so a
/// failure never leaves `grad` partially accumulated and error messages
/// name the offending table id / row for multi-query attribution.
///
/// \param weights per-(table,row) class-weight seeds, in map (= sorted
///        key) order.
/// \param grad accumulated into, not overwritten; sized num_params.
/// \param parallelism worker count. <= 1 accumulates in place exactly as
///        the sequential code always has; > 1 computes per-row partial
///        gradients concurrently and reduces them in row order. Because
///        every model's `AddProbaGradient` touches a gradient element at
///        most once per row, the reduction reproduces the sequential bit
///        pattern for every worker count — the encode phase feeds the
///        deletion ranking, which must not depend on the knob.
Status AccumulateProbaGradients(
    const Catalog& catalog, const Model& model,
    const std::map<std::pair<int32_t, int64_t>, Vec>& weights, Vec* grad,
    int parallelism = 1);

/// \brief The Section 5.1 optimizer heuristic: TwoStep is preferred only
/// when the complaint set pins down a unique prediction repair (all
/// violated complaints are point complaints); otherwise Holistic.
enum class Approach : uint8_t { kTwoStep, kHolistic };
Approach SelectApproach(const PolyArena& arena,
                        const std::vector<BoundComplaint>& complaints);

}  // namespace rain

#endif  // RAIN_CORE_RANKER_H_
