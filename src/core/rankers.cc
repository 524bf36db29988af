#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/ranker.h"
#include "ilp/tiresias.h"
#include "relax/relaxed_poly.h"

namespace rain {

Status AccumulateProbaGradients(
    const Catalog& catalog, const Model& model,
    const std::map<std::pair<int32_t, int64_t>, Vec>& weights, Vec* grad,
    int parallelism) {
  // Validate and resolve every (table,row) key first, in map order: error
  // messages are deterministic regardless of parallelism, name the
  // offending table/row so multi-query failures are attributable, and a
  // failure never leaves `grad` partially accumulated.
  struct Row {
    const double* x;
    const Vec* class_weights;
  };
  std::vector<Row> rows;
  rows.reserve(weights.size());
  for (const auto& [key, class_weights] : weights) {
    const Catalog::Entry* entry = catalog.FindById(key.first);
    if (entry == nullptr) {
      return Status::Internal(StrFormat(
          "complaint gradient references unknown table id=%d (row %lld)",
          key.first, static_cast<long long>(key.second)));
    }
    if (!entry->features.has_value()) {
      return Status::Internal(StrFormat(
          "queried table '%s' (id=%d) lacks a feature dataset needed to "
          "backpropagate the complaint gradient for row %lld",
          entry->name.c_str(), key.first, static_cast<long long>(key.second)));
    }
    if (key.second < 0 ||
        static_cast<size_t>(key.second) >= entry->features->size()) {
      return Status::OutOfRange(StrFormat(
          "queried row %lld out of range for table '%s' (id=%d, %zu feature "
          "rows)",
          static_cast<long long>(key.second), entry->name.c_str(), key.first,
          entry->features->size()));
    }
    rows.push_back(
        {entry->features->row(static_cast<size_t>(key.second)), &class_weights});
  }

  if (parallelism <= 1 || rows.size() <= 1) {
    // Exact sequential path: accumulate straight into `grad`, row by row.
    for (const Row& row : rows) {
      model.AddProbaGradient(row.x, *row.class_weights, grad);
    }
    return Status::OK();
  }
  // Parallel path: per-ROW partial gradients computed concurrently, then
  // reduced into `grad` in row order. Every in-tree model's
  // AddProbaGradient touches each gradient element at most once per row,
  // so a row's partial (accumulated into zeros) is the exact addend the
  // sequential loop would have applied — the reduction reproduces the
  // sequential bit pattern for EVERY parallelism value, a stronger
  // guarantee than the chunk-ordered reductions elsewhere (required
  // because the encode phase feeds the deletion ranking, which must not
  // depend on the worker count). Rows are processed in bounded blocks so
  // the partial buffers stay small.
  const size_t block = std::min<size_t>(rows.size(), 128);
  std::vector<Vec> partial(block);
  for (size_t base = 0; base < rows.size(); base += block) {
    const size_t count = std::min(block, rows.size() - base);
    ParallelForEach(parallelism, count, [&](size_t i) {
      partial[i].assign(grad->size(), 0.0);
      model.AddProbaGradient(rows[base + i].x, *rows[base + i].class_weights,
                             &partial[i]);
    });
    for (size_t i = 0; i < count; ++i) {
      const Vec& p = partial[i];
      for (size_t j = 0; j < grad->size(); ++j) (*grad)[j] += p[j];
    }
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
    RAIN_ASSIGN_OR_RETURN(std::vector<double> self, scorer.SelfInfluenceAll());
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

    // One batched relaxation over every ranked complaint: a single shared
    // forward sweep plus per-complaint reverse sweeps dispatched across
    // ctx.parallelism workers (bitwise-stable for any worker count).
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
    // The batch is a pure function of (arena, roots, mode); the session's
    // encode cache replays it across iterations while the arena generation
    // and root set are unchanged (bitwise-neutral: same topological order,
    // same sweeps — only `probs` varies per iteration).
    std::shared_ptr<const RelaxedPoly> batch_holder;
    if (ctx.encode_cache != nullptr && ctx.encode_cache->relax != nullptr &&
        ctx.encode_cache->arena_generation == ctx.arena_generation &&
        ctx.encode_cache->mode == ctx.relax_mode &&
        ctx.encode_cache->roots == roots) {
      batch_holder = ctx.encode_cache->relax;
      ++ctx.encode_cache->reuses;
    } else {
      batch_holder =
          std::make_shared<const RelaxedPoly>(ctx.arena, roots, ctx.relax_mode);
      if (ctx.encode_cache != nullptr) {
        ctx.encode_cache->arena_generation = ctx.arena_generation;
        ctx.encode_cache->mode = ctx.relax_mode;
        ctx.encode_cache->roots = roots;
        ctx.encode_cache->relax = batch_holder;
      }
    }
    const RelaxedPoly& batch = *batch_holder;
    std::vector<Vec> var_grads;
    const std::vector<double> rq =
        batch.GradientBatch(probs, &var_grads, ctx.parallelism);

    // Per-(table,row) class-weight seeds accumulated over complaints, in
    // complaint order (sequential: the merge is cheap and order fixes the
    // floating-point accumulation).
    std::map<std::pair<int32_t, int64_t>, Vec> weights;
    for (size_t k = 0; k < roots.size(); ++k) {
      // q_c = (rq - X)^2  =>  dq_c/dp_v = 2 (rq - X) * d rq / d p_v.
      const double outer = 2.0 * (rq[k] - targets[k]);
      if (outer == 0.0) continue;
      const Vec& var_grad = var_grads[k];
      for (VarId v : batch.variables()) {
        if (var_grad[v] == 0.0) continue;
        const PredVar& pv = ctx.arena->var(v);
        Vec& w = weights[{pv.table_id, pv.row}];
        if (w.empty()) w.assign(ctx.predictions->NumClasses(pv.table_id), 0.0);
        w[pv.cls] += outer * var_grad[v];
      }
    }
    if (weights.empty()) {
      out.note = "no violated complaints";
      out.encode_seconds = encode_timer.ElapsedSeconds();
      return out;
    }

    Vec q_grad(ctx.model->num_params(), 0.0);
    RAIN_RETURN_NOT_OK(AccumulateProbaGradients(*ctx.catalog, *ctx.model, weights,
                                                &q_grad, ctx.parallelism));
    out.encode_seconds = encode_timer.ElapsedSeconds();

    Timer rank_timer;
    InfluenceScorer scorer(ctx.model, ctx.train, ctx.influence);
    RAIN_RETURN_NOT_OK(scorer.Prepare(q_grad));
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
    if (ilp_opts.coupling_constraint < 0) {
      ilp_opts.coupling_constraint = enc.coupling_constraint;
    }
    // Multi-complaint encodings: hand every complaint constraint to the
    // solver so the multi-coupling decomposition can fix all their slacks
    // at once, and seed branch-and-bound with a greedily repaired warm
    // start in case decomposition is inapplicable.
    if (ilp_opts.coupling_constraints.empty()) {
      ilp_opts.coupling_constraints = enc.complaint_constraints;
    }
    if (ilp_opts.warm_start.empty()) {
      ilp_opts.warm_start = BuildTiresiasWarmStart(enc);
    }
    RAIN_ASSIGN_OR_RETURN(IlpSolution sol, SolveIlp(enc.problem, ilp_opts));
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
    Vec q_grad(ctx.model->num_params(), 0.0);
    RAIN_RETURN_NOT_OK(AccumulateProbaGradients(*ctx.catalog, *ctx.model, weights,
                                                &q_grad, ctx.parallelism));
    out.encode_seconds = encode_timer.ElapsedSeconds();

    Timer rank_timer;
    InfluenceScorer scorer(ctx.model, ctx.train, ctx.influence);
    RAIN_RETURN_NOT_OK(scorer.Prepare(q_grad));
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
