#ifndef RAIN_CORE_RANKER_H_
#define RAIN_CORE_RANKER_H_

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

/// A Holistic batch relaxation plus the (table, row) grouping of its
/// prediction variables; defined in rankers.cc.
struct HolisticEncoding;

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
  /// Optional Hessian data term at the current parameters over `train`'s
  /// active rows (a converged Newton retrain's
  /// TrainReport::pass.DataHessian()).
  /// Influence rankers pass it to InfluenceScorer::Prepare /
  /// SelfInfluenceAll; null means the scorer forms its own.
  const Matrix* data_hessian = nullptr;
  IlpSolveOptions ilp;
  /// Holistic relaxation rule (ablation knob; default = paper's rule).
  RelaxMode relax_mode = RelaxMode::kIndependent;
  /// TwoStep q encoding: marked mispredictions only (paper default) or
  /// every queried row the ILP touched (ablation knob, Section 5.2).
  bool twostep_encode_all = false;
  /// Optional cross-iteration encode cache owned by the caller (the
  /// session). When non-null, rankers that build a Holistic encoding may
  /// reuse the cached one when the root set, relax mode, and arena
  /// generation all match — the reuse is bitwise-neutral because the
  /// encoding is a pure function of (arena, roots, mode) and the arena is
  /// append-only between generations (see `EncodeCache`).
  struct EncodeCache {
    uint64_t arena_generation = 0;
    RelaxMode mode = RelaxMode::kIndependent;
    std::vector<PolyId> roots;
    /// The batch relaxation over `roots` and its prediction variables
    /// grouped by queried (table, row), built together once per root set.
    std::shared_ptr<const HolisticEncoding> encoding;
    /// Cumulative count of Rank calls that reused `encoding` (stats).
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
  std::string note;             // e.g. "ilp budget exhausted; using incumbent"
  /// TwoStep's ILP work: branch-and-bound nodes (0 when the decomposition
  /// solved it), whether the solution is proven optimal, and whether the
  /// warm start seeded the incumbent. Zero/false when no ILP ran.
  int64_t ilp_nodes = 0;
  bool ilp_optimal = false;
  bool ilp_warm_start_used = false;
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

/// One queried row's class-weight seed for `AccumulateProbaGradients`.
struct RowSeed {
  int32_t table_id = 0;
  int64_t row = 0;
  /// One weight per class of the row's table.
  Vec class_weights;
};

/// \brief Shared helper: accumulates grad_theta of
///   sum_{seed} sum_c seed.class_weights[c] * p_c(x_seed.row; theta)
/// by backpropagating each row's class-weight seed through the model
/// (the chain rule of Equation 4's grad q term), one row at a time in
/// `seeds` order.
///
/// All (table,row) keys are validated against the catalog up front, so a
/// failure never leaves `grad` partially accumulated and error messages
/// name the offending table id / row for multi-query attribution.
///
/// \param grad accumulated into, not overwritten; sized num_params.
Status AccumulateProbaGradients(const Catalog& catalog, const Model& model,
                                const std::vector<RowSeed>& seeds, Vec* grad);

/// \brief The Section 5.1 optimizer heuristic: TwoStep is preferred only
/// when the complaint set pins down a unique prediction repair (all
/// violated complaints are point complaints); otherwise Holistic.
enum class Approach : uint8_t { kTwoStep, kHolistic };
Approach SelectApproach(const PolyArena& arena,
                        const std::vector<BoundComplaint>& complaints);

}  // namespace rain

#endif  // RAIN_CORE_RANKER_H_
