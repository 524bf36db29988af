#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/ranker.h"
#include "ilp/tiresias.h"
#include "relax/relaxed_poly.h"

namespace rain {

Status AccumulateProbaGradients(const Catalog& catalog, const Model& model,
                                const std::vector<RowSeed>& seeds, Vec* grad) {
  // Validate and resolve every (table,row) key first, in seed order: error
  // messages are deterministic, name the offending table/row so
  // multi-query failures are attributable, and a failure never leaves
  // `grad` partially accumulated.
  std::vector<const double*> rows;
  rows.reserve(seeds.size());
  for (const RowSeed& seed : seeds) {
    const Catalog::Entry* entry = catalog.FindById(seed.table_id);
    if (entry == nullptr) {
      return Status::Internal(StrFormat(
          "complaint gradient references unknown table id=%d (row %lld)",
          seed.table_id, static_cast<long long>(seed.row)));
    }
    if (!entry->features.has_value()) {
      return Status::Internal(StrFormat(
          "queried table '%s' (id=%d) lacks a feature dataset needed to "
          "backpropagate the complaint gradient for row %lld",
          entry->name.c_str(), seed.table_id, static_cast<long long>(seed.row)));
    }
    if (seed.row < 0 || static_cast<size_t>(seed.row) >= entry->features->size()) {
      return Status::OutOfRange(StrFormat(
          "queried row %lld out of range for table '%s' (id=%d, %zu feature "
          "rows)",
          static_cast<long long>(seed.row), entry->name.c_str(), seed.table_id,
          entry->features->size()));
    }
    rows.push_back(entry->features->row(static_cast<size_t>(seed.row)));
  }
  for (size_t i = 0; i < seeds.size(); ++i) {
    model.AddProbaGradient(rows[i], seeds[i].class_weights, grad);
  }
  return Status::OK();
}

Approach SelectApproach(const PolyArena& arena,
                        const std::vector<BoundComplaint>& complaints) {
  // A point complaint's polynomial is a single prediction variable: there
  // is exactly one way to satisfy it, so the ILP has a unique minimal
  // repair and TwoStep is safe. Anything else (aggregates, join tuples)
  // admits multiple satisfying repairs -> Holistic.
  for (const BoundComplaint& c : complaints) {
    if (!c.violated) continue;
    if (c.poly == kInvalidPoly) return Approach::kHolistic;
    if (arena.node(c.poly).op != PolyOp::kVar) return Approach::kHolistic;
  }
  return Approach::kTwoStep;
}

struct HolisticEncoding {
  HolisticEncoding(const PolyArena& arena, const PredictionStore& predictions,
                   std::vector<PolyId> roots, RelaxMode mode)
      : relax(&arena, std::move(roots), mode) {
    // Group the reachable variables by (table, row). `variables()` is
    // sorted by VarId and the sort is stable, so each row's entries keep
    // ascending VarId order.
    struct Entry {
      int32_t table_id;
      int64_t row;
      VarId var;
      int32_t cls;
    };
    std::vector<Entry> entries;
    entries.reserve(relax.variables().size());
    for (const VarId v : relax.variables()) {
      const PredVar& pv = arena.var(v);
      entries.push_back({pv.table_id, pv.row, v, pv.cls});
    }
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry& a, const Entry& b) {
                       return std::tie(a.table_id, a.row) <
                              std::tie(b.table_id, b.row);
                     });
    for (size_t i = 0; i < entries.size(); ++i) {
      const Entry& e = entries[i];
      if (i == 0 || e.table_id != entries[i - 1].table_id ||
          e.row != entries[i - 1].row) {
        group_start.push_back(i);
        rows.push_back({e.table_id, e.row});
        num_classes.push_back(predictions.NumClasses(e.table_id));
      }
      group_var.push_back(e.var);
      group_cls.push_back(e.cls);
    }
    group_start.push_back(entries.size());
  }

  /// Folds a per-variable gradient into per-(table, row) class weights,
  /// in (table, row) order, skipping rows whose weights are all zero.
  std::vector<RowSeed> RowSeeds(const Vec& var_grad) const {
    std::vector<RowSeed> seeds;
    for (size_t r = 0; r < rows.size(); ++r) {
      RowSeed seed{rows[r].first, rows[r].second, Vec(num_classes[r], 0.0)};
      bool any = false;
      for (size_t e = group_start[r]; e < group_start[r + 1]; ++e) {
        const double g = var_grad[group_var[e]];
        seed.class_weights[group_cls[e]] += g;
        any = any || g != 0.0;
      }
      if (any) seeds.push_back(std::move(seed));
    }
    return seeds;
  }

  RelaxedPoly relax;
  /// Distinct queried (table, row) pairs the relaxation reaches, sorted.
  std::vector<std::pair<int32_t, int64_t>> rows;
  std::vector<int> num_classes;
  /// Row r's variables are group_var[group_start[r] .. group_start[r+1]),
  /// with classes group_cls over the same range.
  std::vector<size_t> group_start;
  std::vector<VarId> group_var;
  std::vector<int32_t> group_cls;
};

namespace {

/// Validates the common parts of a RankContext.
Status CheckContext(const RankContext& ctx, bool needs_complaints) {
  if (ctx.model == nullptr || ctx.train == nullptr) {
    return Status::InvalidArgument("RankContext requires model and train set");
  }
  if (needs_complaints &&
      (ctx.complaints == nullptr || ctx.arena == nullptr ||
       ctx.predictions == nullptr || ctx.catalog == nullptr)) {
    return Status::InvalidArgument(
        "complaint-driven rankers require arena/predictions/catalog/complaints");
  }
  return Status::OK();
}

/// Flags a ranking built on an unconverged CG solve (one that stopped at
/// cg.max_iters above tolerance) in the output note, so it reaches
/// IterationStats::note instead of ranking silently.
void NoteUnconvergedCg(const InfluenceScorer& scorer, RankOutput* out) {
  if (scorer.cg_converged()) return;
  if (!out->note.empty()) out->note += "; ";
  out->note += StrFormat("cg unconverged (%d iters, residual %.3g)",
                         scorer.cg_iterations(), scorer.cg_residual_norm());
}

// ---------------------------------------------------------------------------
// Loss baseline: per-example training loss, descending.
// ---------------------------------------------------------------------------
class LossRanker : public Ranker {
 public:
  std::string name() const override { return "loss"; }

  Result<RankOutput> Rank(const RankContext& ctx) override {
    RAIN_RETURN_NOT_OK(CheckContext(ctx, /*needs_complaints=*/false));
    Timer timer;
    RankOutput out;
    out.scores.assign(ctx.train->size(), 0.0);
    for (size_t i = 0; i < ctx.train->size(); ++i) {
      if (!ctx.train->active(i)) continue;
      out.scores[i] = ctx.model->ExampleLoss(ctx.train->row(i), ctx.train->label(i));
    }
    out.rank_seconds = timer.ElapsedSeconds();
    return out;
  }
};

// ---------------------------------------------------------------------------
// InfLoss baseline: self-influence [35] (one Cholesky factor of a small
// Hessian, else one CG solve per record).
// ---------------------------------------------------------------------------
class InfLossRanker : public Ranker {
 public:
  std::string name() const override { return "infloss"; }

  Result<RankOutput> Rank(const RankContext& ctx) override {
    RAIN_RETURN_NOT_OK(CheckContext(ctx, /*needs_complaints=*/false));
    Timer timer;
    InfluenceScorer scorer(ctx.model, ctx.train, ctx.influence);
    RAIN_ASSIGN_OR_RETURN(std::vector<double> self,
                          scorer.SelfInfluenceAll(ctx.data_hessian));
    RankOutput out;
    out.scores.assign(ctx.train->size(), 0.0);
    // self(z) <= 0; the most negative values (largest own-loss increase on
    // removal) rank at the top, so negate.
    for (size_t i = 0; i < self.size(); ++i) {
      if (ctx.train->active(i)) out.scores[i] = -self[i];
    }
    NoteUnconvergedCg(scorer, &out);
    out.rank_seconds = timer.ElapsedSeconds();
    return out;
  }
};

// ---------------------------------------------------------------------------
// Holistic (Section 5.3): q = sum over violated complaints of
// (rq(theta) - X)^2, differentiated through the relaxed provenance
// polynomial into the model, then one influence solve.
// ---------------------------------------------------------------------------
class HolisticRanker : public Ranker {
 public:
  std::string name() const override { return "holistic"; }

  Result<RankOutput> Rank(const RankContext& ctx) override {
    RAIN_RETURN_NOT_OK(CheckContext(ctx, /*needs_complaints=*/true));
    Timer encode_timer;
    const Vec probs = ctx.predictions->RelaxedAssignment(*ctx.arena);

    std::vector<PolyId> roots;
    std::vector<double> targets;
    for (const BoundComplaint& c : *ctx.complaints) {
      if (!c.ShouldRank() || c.poly == kInvalidPoly) continue;
      roots.push_back(c.poly);
      targets.push_back(c.target);
    }
    RankOutput out;
    out.scores.assign(ctx.train->size(), 0.0);
    if (roots.empty()) {
      out.note = "no violated complaints";
      out.encode_seconds = encode_timer.ElapsedSeconds();
      return out;
    }
    // The encoding is a pure function of (arena, roots, mode); the
    // session's encode cache replays it across iterations while the arena
    // generation and root set are unchanged (bitwise-neutral: same
    // topological order, same grouping — only `probs` varies per
    // iteration).
    std::shared_ptr<const HolisticEncoding> holder;
    if (ctx.encode_cache != nullptr && ctx.encode_cache->encoding != nullptr &&
        ctx.encode_cache->arena_generation == ctx.arena_generation &&
        ctx.encode_cache->mode == ctx.relax_mode &&
        ctx.encode_cache->roots == roots) {
      holder = ctx.encode_cache->encoding;
      ++ctx.encode_cache->reuses;
    } else {
      holder = std::make_shared<const HolisticEncoding>(
          *ctx.arena, *ctx.predictions, roots, ctx.relax_mode);
      if (ctx.encode_cache != nullptr) {
        ctx.encode_cache->arena_generation = ctx.arena_generation;
        ctx.encode_cache->mode = ctx.relax_mode;
        ctx.encode_cache->roots = roots;
        ctx.encode_cache->encoding = holder;
      }
    }
    const HolisticEncoding& enc = *holder;

    // One forward sweep for every rq, then one reverse sweep seeded with
    // dq/drq_k = 2 (rq_k - X_k) at each root: the gradient of q for every
    // prediction variable at once.
    Vec node_values;
    const std::vector<double> rq = enc.relax.EvaluateBatch(probs, &node_values);
    std::vector<double> seeds(roots.size());
    for (size_t k = 0; k < roots.size(); ++k) seeds[k] = 2.0 * (rq[k] - targets[k]);
    Vec var_grad;
    enc.relax.SeededGradient(node_values, seeds, &var_grad);
    const std::vector<RowSeed> row_seeds = enc.RowSeeds(var_grad);
    if (row_seeds.empty()) {
      out.note = "no violated complaints";
      out.encode_seconds = encode_timer.ElapsedSeconds();
      return out;
    }

    Vec q_grad(ctx.model->num_params(), 0.0);
    RAIN_RETURN_NOT_OK(
        AccumulateProbaGradients(*ctx.catalog, *ctx.model, row_seeds, &q_grad));
    out.encode_seconds = encode_timer.ElapsedSeconds();

    Timer rank_timer;
    InfluenceScorer scorer(ctx.model, ctx.train, ctx.influence);
    RAIN_RETURN_NOT_OK(scorer.Prepare(q_grad, ctx.data_hessian));
    out.scores = scorer.ScoreAll();
    NoteUnconvergedCg(scorer, &out);
    out.rank_seconds = rank_timer.ElapsedSeconds();
    return out;
  }
};

// ---------------------------------------------------------------------------
// TwoStep (Section 5.2): ILP-repair the prediction view, mark the changed
// predictions, q = -sum p_{t_i}(x_i), then one influence solve.
// ---------------------------------------------------------------------------
class TwoStepRanker : public Ranker {
 public:
  std::string name() const override { return "twostep"; }

  Result<RankOutput> Rank(const RankContext& ctx) override {
    RAIN_RETURN_NOT_OK(CheckContext(ctx, /*needs_complaints=*/true));
    Timer encode_timer;

    std::vector<IlpComplaint> ilp_complaints;
    for (const BoundComplaint& c : *ctx.complaints) {
      // TwoStep's ILP is discrete: a concretely-satisfied equality has a
      // trivial no-flip optimum, so skip satisfied complaints entirely.
      if (!c.violated || c.poly == kInvalidPoly) continue;
      IlpComplaint ic;
      ic.poly = c.poly;
      ic.sense = c.op == ComplaintOp::kEq
                     ? ConstraintSense::kEq
                     : (c.op == ComplaintOp::kLe ? ConstraintSense::kLe
                                                 : ConstraintSense::kGe);
      ic.rhs = c.target;
      ilp_complaints.push_back(ic);
    }
    RankOutput out;
    out.scores.assign(ctx.train->size(), 0.0);
    if (ilp_complaints.empty()) {
      out.note = "no violated complaints";
      out.encode_seconds = encode_timer.ElapsedSeconds();
      return out;
    }

    RAIN_ASSIGN_OR_RETURN(
        TiresiasEncoding enc,
        EncodeTiresias(ctx.arena, *ctx.predictions, ilp_complaints));
    IlpSolveOptions ilp_opts = ctx.ilp;
    // Hand every complaint constraint to the solver so the decomposition
    // can fix all their slacks at once, and seed branch-and-bound with a
    // greedily repaired warm start, built only if decomposition is
    // inapplicable. The repair breaks its ties from the solver's seed: a
    // search that closes at the warm start still returns a seeded pick
    // among optima.
    if (ilp_opts.coupling_constraints.empty()) {
      ilp_opts.coupling_constraints = enc.complaint_constraints;
    }
    ilp_opts.build_warm_start = [&enc, seed = ilp_opts.seed,
                                 randomize = ilp_opts.randomize] {
      Rng repair_rng(seed);
      return BuildTiresiasWarmStart(enc, randomize ? &repair_rng : nullptr);
    };
    RAIN_ASSIGN_OR_RETURN(IlpSolution sol, SolveIlp(enc.problem, ilp_opts));
    out.ilp_nodes = sol.nodes_explored;
    out.ilp_optimal = sol.optimal;
    out.ilp_warm_start_used = sol.warm_start_used;
    if (!sol.optimal) out.note = "ilp budget exhausted; using incumbent";
    const std::vector<MarkedPrediction> marked = DecodeMarkedPredictions(enc, sol);

    // q = -sum over marked rows of p_{t_i}(x_i): seed weight -1 on the
    // assigned class (Section 5.2, marked-mispredictions-only encoding).
    std::map<std::pair<int32_t, int64_t>, Vec> weights;
    for (const MarkedPrediction& m : marked) {
      Vec& w = weights[{m.table_id, m.row}];
      if (w.empty()) w.assign(ctx.predictions->NumClasses(m.table_id), 0.0);
      w[m.assigned_class] += -1.0;
    }
    if (ctx.twostep_encode_all) {
      // Ablation: also encode the rows whose assignment the solver kept
      // (q = -sum over all assigned rows of p_{t_i}).
      for (const auto& rv : enc.rows) {
        for (size_t c = 0; c < rv.class_vars.size(); ++c) {
          const int var = rv.class_vars[c];
          if (var >= 0 && sol.values[var] &&
              static_cast<int>(c) == rv.current_class) {
            Vec& w = weights[{rv.table_id, rv.row}];
            if (w.empty()) w.assign(ctx.predictions->NumClasses(rv.table_id), 0.0);
            w[c] += -1.0;
          }
        }
      }
    }
    if (weights.empty()) {
      out.note = "ilp repair changed no predictions";
      out.encode_seconds = encode_timer.ElapsedSeconds();
      return out;
    }
    std::vector<RowSeed> row_seeds;
    row_seeds.reserve(weights.size());
    for (auto& [key, w] : weights) {
      row_seeds.push_back({key.first, key.second, std::move(w)});
    }
    Vec q_grad(ctx.model->num_params(), 0.0);
    RAIN_RETURN_NOT_OK(
        AccumulateProbaGradients(*ctx.catalog, *ctx.model, row_seeds, &q_grad));
    out.encode_seconds = encode_timer.ElapsedSeconds();

    Timer rank_timer;
    InfluenceScorer scorer(ctx.model, ctx.train, ctx.influence);
    RAIN_RETURN_NOT_OK(scorer.Prepare(q_grad, ctx.data_hessian));
    out.scores = scorer.ScoreAll();
    NoteUnconvergedCg(scorer, &out);
    out.rank_seconds = rank_timer.ElapsedSeconds();
    return out;
  }
};

// ---------------------------------------------------------------------------
// Auto (Section 5.1 optimizer): per iteration, TwoStep when the repair is
// unique (all violated complaints are point complaints), else Holistic.
// ---------------------------------------------------------------------------
class AutoRanker : public Ranker {
 public:
  AutoRanker() : twostep_(MakeTwoStepRanker()), holistic_(MakeHolisticRanker()) {}

  std::string name() const override { return "auto"; }

  Result<RankOutput> Rank(const RankContext& ctx) override {
    RAIN_RETURN_NOT_OK(CheckContext(ctx, /*needs_complaints=*/true));
    const Approach approach = SelectApproach(*ctx.arena, *ctx.complaints);
    Ranker* chosen =
        approach == Approach::kTwoStep ? twostep_.get() : holistic_.get();
    RAIN_ASSIGN_OR_RETURN(RankOutput out, chosen->Rank(ctx));
    out.note = std::string("auto->") + chosen->name() +
               (out.note.empty() ? "" : "; " + out.note);
    return out;
  }

 private:
  std::unique_ptr<Ranker> twostep_;
  std::unique_ptr<Ranker> holistic_;
};

}  // namespace

std::unique_ptr<Ranker> MakeLossRanker() { return std::make_unique<LossRanker>(); }
std::unique_ptr<Ranker> MakeInfLossRanker() {
  return std::make_unique<InfLossRanker>();
}
std::unique_ptr<Ranker> MakeTwoStepRanker() {
  return std::make_unique<TwoStepRanker>();
}
std::unique_ptr<Ranker> MakeHolisticRanker() {
  return std::make_unique<HolisticRanker>();
}

std::unique_ptr<Ranker> MakeAutoRanker() { return std::make_unique<AutoRanker>(); }

Result<std::unique_ptr<Ranker>> MakeRanker(const std::string& name) {
  if (name == "loss") return MakeLossRanker();
  if (name == "infloss") return MakeInfLossRanker();
  if (name == "twostep") return MakeTwoStepRanker();
  if (name == "holistic") return MakeHolisticRanker();
  if (name == "auto") return MakeAutoRanker();
  return Status::InvalidArgument("unknown ranker '" + name + "'");
}

}  // namespace rain
