/// bench_e2e: seconds to debug a workload, end to end.
///
/// One process runs one workload. A repeat sets up one instance of the
/// workload — its inputs generated from a seed derived from --seed and the
/// instance index — and runs the workload's train -> bind -> rank -> fix
/// sessions on it to a terminal status. The first repeat is an untimed
/// warm-up on instance 0; then repeats on instances 0, 1, 2, ... run until
/// --seconds have passed, and every metric is a median over them, so one
/// run averages over many generated inputs. Set-up is also timed on its
/// own on the first instances, and `setup_s` is the median over all of
/// those set-ups. The run checks its outputs,
/// prints one JSON line (correct / attempted / failed / metrics) as the
/// last line of stdout, and exits non-zero when a check failed.
///
///   bench_e2e --workload W --seed N --seconds S [--trace 0|1]
///             [--out-dir DIR] [--smoke]
///
/// --trace 1 runs every instance twice, untraced then traced, and reports
/// the per-layer metrics instead of the end-to-end ones. Spans are timed
/// from outside: around calls into each layer's public functions and from
/// DebugObserver phase callbacks. --out-dir receives row_<W>.json (every
/// metric, per-session quality, the checks and the host meta row) and,
/// traced, trace_<W>.json in Chrome trace-event format. bench/e2e/run.sh
/// builds this binary and runs it; bench/e2e/README.md describes the
/// workloads and metrics.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/e2e/host.h"
#include "bench/e2e/trace.h"
#include "bench/workloads.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/metrics.h"
#include "core/session.h"
#include "data/dblp.h"
#include "influence/influence.h"
#include "serve/builtin_datasets.h"
#include "serve/debug_service.h"

using namespace rain;         // NOLINT
using namespace rain::bench;  // NOLINT
using e2e::Clock;
using e2e::Seconds;

namespace {

// ------------------------------------------------------------------ flags

constexpr const char* kWorkloads[] = {"dblp_paper", "adult_1e5", "mnist_join",
                                      "serve_dblp"};

struct Flags {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload "
               "{dblp_paper|adult_1e5|mnist_join|serve_dblp} --seed N "
               "--seconds S [--trace 0|1] [--out-dir DIR] [--smoke]\n",
               problem.c_str());
  std::exit(2);
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      f.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      f.workload = value;
    } else if (flag == "--seed") {
      f.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end != '\0' || errno == ERANGE) {
        Usage("--seed must be a non-negative integer");
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      f.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(f.seconds > 0.0) || f.seconds > 3600.0) {
        Usage("--seconds must be a number in (0, 3600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      f.trace = value == "1";
    } else if (flag == "--out-dir") {
      f.out_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), f.workload) ==
      std::end(kWorkloads)) {
    Usage("unknown or missing --workload '" + f.workload + "'");
  }
  if (!have_seed) Usage("--seed is required");
  if (!(f.seconds > 0.0)) Usage("--seconds is required");
  return f;
}

// -------------------------------------------------------------- statistics

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// ------------------------------------------------------------ run records

/// Quality of one finished session's explanation against the planted
/// corruption.
struct SessionQuality {
  std::string name;
  double auccr = 0.0;
  double recall_at_k = 0.0;  // recall@K, K = |corrupted|
  bool resolved = false;
  size_t size = 0;
};

SessionQuality Quality(std::string name, const std::vector<size_t>& deletions,
                       const std::vector<size_t>& corrupted, bool resolved) {
  const std::vector<double> curve = RecallCurve(deletions, corrupted);
  SessionQuality q;
  q.name = std::move(name);
  q.auccr = Auccr(curve);
  q.recall_at_k = curve.empty() ? 0.0 : curve.back();
  q.resolved = resolved;
  q.size = deletions.size();
  return q;
}

/// Everything one repeat (one instance, set up and debugged) produced.
struct RepeatResult {
  uint64_t instance = 0;
  bool traced = false;
  /// Generation, clean-target derivation, pipeline construction and serve
  /// Opens; `generate_s` is the generation part alone.
  double setup_s = 0.0;
  double generate_s = 0.0;
  double debug_s = 0.0;
  /// One sample per Step() that ran an iteration, or per serve turn.
  std::vector<double> step_s;
  /// serve_dblp: Update() to that tenant's next terminal status.
  std::vector<double> update_s;
  /// Traced: latency of a Step() or serve turn minus the phase seconds it
  /// delivered (session-loop overhead, plus queueing for serve turns).
  std::vector<double> turn_wait_s;
  /// Deletion sequences, compared across repeats of the same instance.
  std::vector<std::vector<size_t>> sequences;
  std::vector<SessionQuality> quality;
  /// Traced: per-layer totals, and the counts ratios are formed from.
  std::map<std::string, double> layers;
  int attempted = 0;
  int failed = 0;
};

/// Records one public call's outcome.
bool Count(const Status& status, RepeatResult* out) {
  ++out->attempted;
  if (status.ok()) return true;
  ++out->failed;
  std::fprintf(stderr, "bench_e2e: call failed: %s\n", status.ToString().c_str());
  return false;
}

template <typename T>
bool Count(const Result<T>& r, RepeatResult* out) {
  return Count(r.status(), out);
}

/// Per-layer totals a finished session's report carries.
void AddReportLayers(const DebugReport& report, bool twostep,
                     std::map<std::string, double>* layers) {
  auto& L = *layers;
  for (const IterationStats& it : report.iterations) {
    L["ml.train_s"] += it.train_seconds;
    L["n.iterations"] += 1;
    if (it.train_seconds == 0.0) L["n.train_skips"] += 1;
    L["provenance.bind_s"] += it.query_seconds;
    L[twostep ? "ilp.ilp_s" : "relax.encode_s"] += it.encode_seconds;
    L["influence.rank_s"] += it.rank_seconds;
    if (it.note.find("ilp budget exhausted") != std::string::npos) {
      L["ilp.budget_exits"] += 1;
    }
  }
}

/// The influence probe: Prepare / ScoreAll (and optionally
/// SelfInfluenceAll) on a session's final model, timed from outside, with
/// the mean-loss gradient as the query gradient.
Status InfluenceProbe(const Query2Pipeline& pipeline, int parallelism,
                      bool self_influence, e2e::Tracer* tracer, int lane,
                      std::map<std::string, double>* layers) {
  InfluenceOptions opts;
  opts.l2 = pipeline.train_config().l2;
  opts.parallelism = parallelism;
  const Model& model = *pipeline.model();
  const Dataset& train = pipeline.train_data();
  Vec q_grad(model.num_params(), 0.0);
  model.MeanLossGradient(train, opts.l2, &q_grad);
  InfluenceScorer scorer(&model, &train, opts);

  const Clock::time_point a = Clock::now();
  RAIN_RETURN_NOT_OK(scorer.Prepare(q_grad));
  const Clock::time_point b = Clock::now();
  const std::vector<double> scores = scorer.ScoreAll();
  const Clock::time_point c = Clock::now();
  auto& L = *layers;
  L["influence.prepare_s"] += Seconds(a, b);
  L["influence.score_all_s"] += Seconds(b, c);
  L["influence.cg_iters"] += scorer.cg_iterations();
  tracer->Add({"influence.prepare", lane, a, b,
               StrFormat("\"cg_iters\": %d", scorer.cg_iterations())});
  tracer->Add({"influence.score_all", lane, b, c,
               StrFormat("\"rows\": %zu", scores.size())});
  if (self_influence) {
    RAIN_RETURN_NOT_OK(scorer.SelfInfluenceAll().status());
    const Clock::time_point d = Clock::now();
    L["influence.self_influence_s"] += Seconds(c, d);
    tracer->Add({"influence.self_influence", lane, c, d, ""});
  }
  return Status::OK();
}

/// Mean AUCCR of the named session over the run's repeats (-1 if absent).
double MeanAuccr(const std::vector<RepeatResult>& repeats, const std::string& name) {
  std::vector<double> v;
  for (const RepeatResult& r : repeats) {
    for (const SessionQuality& q : r.quality) {
      if (q.name == name) v.push_back(q.auccr);
    }
  }
  return v.empty() ? -1.0 : Mean(v);
}

// --------------------------------------------------------------- workloads

using Checks = std::vector<std::pair<std::string, bool>>;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Sets up the instance generated from `seed` and debugs it; `tracer`
  /// is null for an untraced repeat.
  virtual RepeatResult Repeat(uint64_t seed, e2e::Tracer* tracer) = 0;
  /// Sets up the instance generated from `seed` and tears it down again,
  /// filling only `setup_s` and `generate_s`: extra set-up samples.
  virtual RepeatResult SetUpOnly(uint64_t seed) = 0;
  /// Checks over the whole run. `repeats` holds the warm-up first, then
  /// the measured repeats; a traced run (non-null `tracer`) may add
  /// run-level per-layer totals to its traced repeats.
  virtual Checks Check(std::vector<RepeatResult>* repeats, e2e::Tracer* tracer) = 0;
};

/// One standalone session of a workload: the ranker and its loop config.
struct SessionDef {
  std::string method;
  DebugConfig config;
};

/// Workloads that run standalone `DebugSession`s over an `Experiment`.
class StandaloneWorkload : public Workload {
 public:
  StandaloneWorkload(std::function<Experiment(uint64_t)> generate,
                     std::vector<SessionDef> sessions, bool self_influence_probe)
      : generate_(std::move(generate)),
        sessions_(std::move(sessions)),
        self_influence_probe_(self_influence_probe) {}

  RepeatResult SetUpOnly(uint64_t seed) override {
    RepeatResult r;
    SetUp(seed, &r);
    return r;
  }

  RepeatResult Repeat(uint64_t seed, e2e::Tracer* tracer) override {
    RepeatResult r;
    r.traced = tracer != nullptr;
    const auto [exp, pipelines] = SetUp(seed, &r);

    double covered = 0.0;
    for (size_t i = 0; i < sessions_.size(); ++i) {
      const SessionDef& def = sessions_[i];
      const bool twostep = def.method == "twostep";
      const int lane = static_cast<int>(i) + 1;
      Query2Pipeline* pipeline = pipelines[i].get();
      e2e::PhaseSpanObserver observer(tracer, lane, twostep ? "ilp" : "relax");
      ExecutionOptions exec;
      exec.set_parallelism(def.config.parallelism);
      if (tracer != nullptr) exec.add_observer(&observer);

      const Clock::time_point start = Clock::now();
      auto built = DebugSessionBuilder(pipeline)
                       .config(def.config)
                       .ranker(def.method)
                       .workload(exp.workload)
                       .set_execution(exec)
                       .Build();
      if (!Count(built, &r)) continue;
      DebugSession& session = **built;
      size_t deleted = 0, fix_steps = 0;
      while (!session.finished()) {
        const Clock::time_point s0 = Clock::now();
        const Result<StepResult> step = session.Step();
        const Clock::time_point s1 = Clock::now();
        const double phase_s = observer.TakeTurnSeconds();
        if (!Count(step, &r)) break;
        if (!step->advanced()) continue;
        r.step_s.push_back(Seconds(s0, s1));
        if (!step->new_deletions.empty()) {
          deleted += step->new_deletions.size();
          ++fix_steps;
        }
        if (tracer != nullptr) {
          r.turn_wait_s.push_back(Seconds(s0, s1) - phase_s);
          tracer->Add({"core.step", lane, s0, s1,
                       StrFormat("\"status\": \"%s\", \"deleted\": %zu",
                                 StepStatusName(step->status),
                                 step->new_deletions.size())});
        }
      }
      const Clock::time_point end = Clock::now();
      r.debug_s += Seconds(start, end);

      const DebugReport& report = session.report();
      r.sequences.push_back(report.deletions);
      r.quality.push_back(Quality(def.method, report.deletions, exp.corrupted,
                                  report.complaints_resolved));
      if (tracer == nullptr) continue;
      tracer->NameLane(lane, def.method);
      tracer->Add({"core.session", lane, start, end,
                   StrFormat("\"method\": \"%s\", \"status\": \"%s\"",
                             def.method.c_str(),
                             StepStatusName(session.finish_status()))});
      observer.AddRankChildren(report.iterations);
      for (const auto& iv : observer.intervals()) covered += Seconds(iv.first, iv.second);
      auto& L = r.layers;
      AddReportLayers(report, twostep, &L);
      L["core.fix_s"] += observer.phase_seconds(DebugPhase::kFix);
      L["n.deletions"] += static_cast<double>(deleted);
      L["n.fix_steps"] += static_cast<double>(fix_steps);
      L["relax.encode_reuses"] += static_cast<double>(session.encode_reuses());
      L["provenance.entries_rebound"] +=
          static_cast<double>(session.bind_cache_stats().entries_rebound);
      L["provenance.entries_reused"] +=
          static_cast<double>(session.bind_cache_stats().entries_reused);
      Count(InfluenceProbe(*pipeline, def.config.parallelism, self_influence_probe_,
                           tracer, lane, &L),
            &r);
    }
    // Sessions run back to back, so the phase spans' share of the summed
    // session time is their coverage of debug_s.
    if (tracer != nullptr) {
      r.layers["bench.phase_cover_frac"] = r.debug_s > 0.0 ? covered / r.debug_s : 0.0;
    }
    return r;
  }

  Checks Check(std::vector<RepeatResult>*, e2e::Tracer*) override { return {}; }

 private:
  /// Generates the instance and builds one pipeline per session.
  std::pair<Experiment, std::vector<std::unique_ptr<Query2Pipeline>>> SetUp(
      uint64_t seed, RepeatResult* r) const {
    const Clock::time_point a = Clock::now();
    Experiment exp = generate_(seed);
    const Clock::time_point b = Clock::now();
    std::vector<std::unique_ptr<Query2Pipeline>> pipelines;
    for (size_t i = 0; i < sessions_.size(); ++i) pipelines.push_back(exp.make_pipeline());
    r->generate_s = Seconds(a, b);
    r->setup_s = Seconds(a, Clock::now());
    return {std::move(exp), std::move(pipelines)};
  }

  std::function<Experiment(uint64_t)> generate_;
  std::vector<SessionDef> sessions_;
  bool self_influence_probe_;
};

SessionDef Session(const char* method, int max_deletions, int parallelism,
                   bool stop_when_resolved) {
  SessionDef d;
  d.method = method;
  d.config.top_k_per_iter = 10;
  d.config.max_deletions = max_deletions;
  d.config.stop_when_resolved = stop_when_resolved;
  d.config.parallelism = parallelism;
  return d;
}

/// DBLP Q1 (Figs. 3 and 5): one COUNT complaint, logistic regression with
/// 17 features, debugged by all four rankers. InfLoss's self-influence
/// solves are nearly all of the time, so `influence` dominates.
class DblpPaper : public StandaloneWorkload {
 public:
  explicit DblpPaper(bool smoke)
      : StandaloneWorkload(
            [smoke](uint64_t seed) {
              return smoke ? DblpCount(0.5, 300, 150, seed)
                           : DblpCount(0.5, 800, 400, seed);
            },
            {Session("loss", smoke ? 60 : 200, 1, true),
             Session("infloss", smoke ? 60 : 200, 1, true),
             Session("twostep", smoke ? 60 : 200, 1, true),
             Session("holistic", smoke ? 60 : 200, 1, true)},
            /*self_influence_probe=*/true) {}

  Checks Check(std::vector<RepeatResult>* repeats, e2e::Tracer*) override {
    // Fig. 3: the complaint-aware rankers beat the complaint-blind ones.
    const double worst_rain =
        std::min(MeanAuccr(*repeats, "holistic"), MeanAuccr(*repeats, "twostep"));
    const double best_baseline =
        std::max(MeanAuccr(*repeats, "loss"), MeanAuccr(*repeats, "infloss"));
    return {{"fig3_rain_beats_baselines", worst_rain > best_baseline}};
  }
};

/// Scale-1 synthetic Adult (10^5 rows, 260 complaints), Holistic at
/// min(4, nproc) workers: the multi-threaded, large-n session.
class Adult1e5 : public StandaloneWorkload {
 public:
  explicit Adult1e5(bool smoke)
      : StandaloneWorkload(
            [smoke](uint64_t seed) {
              scale::ScaleConfig config;
              config.scale = smoke ? 0.05 : 1.0;
              config.seed = seed;
              config.workers = e2e::LoadThreads();
              return ScaledAdultExperiment(config);
            },
            {Session("holistic", smoke ? 100 : 500, e2e::LoadThreads(), false)},
            /*self_influence_probe=*/false) {}
};

/// MNIST Q3: digit-1 x digit-7 join with per-tuple complaints over a
/// 7850-parameter softmax model, debugged by TwoStep and Holistic.
///
/// Two choices keep the ILP's cost a property of the code rather than of
/// the draw. Each instance keeps its first 64 tuple complaints: with the
/// full set (54-252 per instance) the per-step ILP cost followed the
/// count and the pooled p90 step latency swung by 26% between seeds. And
/// the ILP runs under a 200k-node budget instead of the default 2M, which
/// takes a quarter of the time; the budget binds on most TwoStep
/// iterations (ilp.budget_exits), so a faster or better-pruning solver
/// shows in both ilp.ilp_s and the deletion sequence.
class MnistJoinWorkload : public StandaloneWorkload {
 public:
  explicit MnistJoinWorkload(bool smoke)
      : StandaloneWorkload(
            [smoke](uint64_t seed) {
              MnistJoinOptions o;
              o.corruption = 0.5;
              o.max_per_digit = smoke ? 8 : 18;
              o.seed = seed;
              Experiment exp = MnistJoin(o);
              for (QueryComplaints& entry : exp.workload) {
                if (entry.complaints.size() > 64) entry.complaints.resize(64);
              }
              return exp;
            },
            Sessions(smoke), /*self_influence_probe=*/false) {}

  Checks Check(std::vector<RepeatResult>* repeats, e2e::Tracer*) override {
    return {{"holistic_auccr_ge_twostep",
             MeanAuccr(*repeats, "holistic") >= MeanAuccr(*repeats, "twostep")}};
  }

 private:
  static std::vector<SessionDef> Sessions(bool smoke) {
    std::vector<SessionDef> defs = {Session("twostep", smoke ? 30 : 100, 1, false),
                                    Session("holistic", smoke ? 30 : 100, 1, false)};
    for (SessionDef& d : defs) d.config.ilp.max_nodes = 200'000;
    return defs;
  }
};

/// serve_dblp: a closed loop from this thread against an in-process
/// DebugService hosting 4 Holistic tenants over one shared DBLP dataset.
/// Every tenant always has one outstanding one-iteration StepAsync; once
/// all are resolved, each runs update rounds that reactivate deleted rows
/// (corrupted ones with their clean label) and steps back to resolution.
class ServeDblp : public Workload {
 public:
  ServeDblp(uint64_t instance0_seed, bool smoke)
      : instance0_seed_(instance0_seed), smoke_(smoke) {}

  RepeatResult SetUpOnly(uint64_t seed) override {
    RepeatResult r;
    Instance inst;
    for (const Tenant& ten : SetUp(seed, nullptr, &inst, &r)) {
      if (ten.sid != 0) Count(service_->Close(ten.sid), &r);
    }
    service_.reset();
    return r;
  }

  RepeatResult Repeat(uint64_t seed, e2e::Tracer* tracer) override {
    RepeatResult r;
    r.traced = tracer != nullptr;
    Instance inst;
    std::vector<Tenant> tenants = SetUp(seed, tracer, &inst, &r);

    // Phase 1: every tenant to its first terminal status.
    const Clock::time_point start = Clock::now();
    for (Tenant& ten : tenants) {
      if (!ten.done) Issue(&ten);
    }
    Drive(inst, &tenants, &r, tracer, /*updating=*/false);
    const Clock::time_point resolved = Clock::now();
    r.debug_s = Seconds(start, resolved);
    for (Tenant& ten : tenants) {
      if (ten.sid == 0) continue;
      const Result<serve::SessionStatus> status = service_->GetStatus(ten.sid);
      const Result<DebugReport> report = service_->Report(ten.sid);
      ten.first = report.ok() ? report->deletions : std::vector<size_t>();
      const bool ok_resolved = status.ok() && status->resolved;
      r.sequences.push_back(ten.first);
      r.quality.push_back(Quality("tenant" + std::to_string(ten.lane), ten.first,
                                  inst.corrupted, ok_resolved));
      // A tenant that ended without resolving (deletion budget spent) stays
      // finished through updates, so only resolved tenants run rounds.
      ten.done = !ok_resolved;
      if (!ten.done) StartUpdate(inst, &ten, &r, tracer);
    }

    // Phase 2: update rounds, each tenant stepping back to resolution.
    Drive(inst, &tenants, &r, tracer, /*updating=*/true);

    std::vector<std::pair<Clock::time_point, Clock::time_point>> phases;
    for (Tenant& ten : tenants) {
      if (ten.sid == 0) continue;
      const Result<DebugReport> report = service_->Report(ten.sid);
      r.sequences.push_back(report.ok() ? report->deletions : std::vector<size_t>());
      if (tracer != nullptr && report.ok()) {
        tracer->NameLane(ten.lane, "tenant " + std::to_string(ten.lane));
        ten.observer->AddRankChildren(report->iterations);
        AddReportLayers(*report, /*twostep=*/false, &r.layers);
        r.layers["core.fix_s"] += ten.observer->phase_seconds(DebugPhase::kFix);
        const auto iv = ten.observer->intervals();
        phases.insert(phases.end(), iv.begin(), iv.end());
      }
      ++r.attempted;
      if (!service_->Close(ten.sid).ok()) ++r.failed;
    }
    service_.reset();
    if (tracer != nullptr) {
      // Two drivers step tenants in parallel: coverage is the union of
      // phase spans over the wall-clock window to first resolution.
      r.layers["bench.phase_cover_frac"] = e2e::CoveredFraction(phases, start, resolved);
    }
    return r;
  }

  Checks Check(std::vector<RepeatResult>* repeats, e2e::Tracer* tracer) override {
    // The tenants of a repeat share one dataset and spec, so their first
    // resolutions must agree; on instance 0 they must also equal a
    // standalone session over the pipeline the service builds per tenant.
    bool tenants_agree = true;
    for (const RepeatResult& r : *repeats) {
      for (size_t t = 1; t < kTenants && t < r.sequences.size(); ++t) {
        tenants_agree = tenants_agree && r.sequences[t] == r.sequences[0];
      }
    }
    const Instance inst = Generate(instance0_seed_);
    std::unique_ptr<Query2Pipeline> pipeline = serve::MakeSessionPipeline(inst.dataset);
    const serve::SessionSpec spec = Spec(inst, ExecutionOptions());
    auto built = DebugSessionBuilder(pipeline.get())
                     .ranker(spec.ranker)
                     .top_k_per_iter(spec.top_k_per_iter)
                     .max_deletions(spec.max_deletions)
                     .stop_when_resolved(spec.stop_when_resolved)
                     .set_execution(spec.exec)
                     .workload(inst.dataset.default_workload)
                     .Build();
    bool matches = built.ok(), probed = true;
    if (built.ok()) {
      const Result<DebugReport> report = (*built)->RunToCompletion();
      matches = report.ok() && !repeats->front().sequences.empty() &&
                repeats->front().sequences[0] == report->deletions;
      // The service does not expose its tenants' models, so the traced
      // run's influence probe runs once, on this reference session, and
      // counts toward every traced repeat.
      if (tracer != nullptr) {
        tracer->NameLane(kReferenceLane, "standalone reference");
        std::map<std::string, double> probe;
        probed = InfluenceProbe(*pipeline, 1, false, tracer, kReferenceLane, &probe).ok();
        for (RepeatResult& r : *repeats) {
          if (!r.traced) continue;
          for (const auto& [name, value] : probe) r.layers[name] += value;
        }
      }
    }
    return {{"tenants_agree", tenants_agree},
            {"tenants_match_standalone", matches},
            {"reference_probe_ok", probed}};
  }

 private:
  static constexpr size_t kTenants = 4;
  static constexpr int kReferenceLane = static_cast<int>(kTenants) + 1;
  static constexpr size_t kRowsPerUpdate = 16;

  struct Instance {
    serve::HostedDataset dataset;
    std::vector<size_t> corrupted;
    std::vector<uint8_t> is_corrupted;
    std::vector<int> clean_labels;
  };

  struct Tenant {
    uint64_t sid = 0;
    int lane = 0;
    std::unique_ptr<e2e::PhaseSpanObserver> observer;
    Future<Result<serve::StepOutcome>> pending;
    Clock::time_point issued;
    bool done = false;
    std::vector<size_t> first;
    /// Rows in the order this tenant deleted them (repeats allowed).
    std::vector<size_t> deleted_order;
    std::vector<uint8_t> active;
    /// Rows whose label this tenant already corrected.
    std::vector<uint8_t> fixed;
    int rounds = 0;
    Clock::time_point update_start;
  };

  /// Generates the instance into `inst`, starts a service, registers the
  /// dataset and opens the tenants. A tenant whose Open failed is done.
  std::vector<Tenant> SetUp(uint64_t seed, e2e::Tracer* tracer, Instance* inst,
                            RepeatResult* r) {
    const Clock::time_point a = Clock::now();
    *inst = Generate(seed);
    const Clock::time_point b = Clock::now();
    serve::ServiceOptions options;
    options.num_drivers = 2;
    service_ = std::make_unique<serve::DebugService>(options);
    std::vector<Tenant> tenants(kTenants);
    const bool registered = Count(service_->RegisterDataset(inst->dataset), r);
    for (size_t t = 0; t < kTenants; ++t) {
      Tenant& ten = tenants[t];
      ten.lane = static_cast<int>(t) + 1;
      ten.observer = std::make_unique<e2e::PhaseSpanObserver>(tracer, ten.lane, "relax");
      ten.active.assign(inst->dataset.train.size(), 1);
      ten.fixed.assign(inst->dataset.train.size(), 0);
      ten.done = true;
      if (!registered) continue;
      ExecutionOptions exec;
      exec.set_parallelism(1);
      if (tracer != nullptr) exec.add_observer(ten.observer.get());
      const Result<uint64_t> sid = service_->Open(Spec(*inst, exec));
      if (!Count(sid, r)) {
        if (sid.status().code() == StatusCode::kResourceExhausted) {
          r->layers["serve.admission_refusals"] += 1;
        }
        continue;
      }
      ten.sid = *sid;
      ten.done = false;
    }
    r->generate_s = Seconds(a, b);
    r->setup_s = Seconds(a, Clock::now());
    return tenants;
  }

  Instance Generate(uint64_t seed) const {
    DblpConfig cfg;
    cfg.train_size = smoke_ ? 1000 : 4000;
    cfg.query_size = smoke_ ? 500 : 1000;
    cfg.seed = seed;
    Instance inst;
    inst.dataset = serve::MakeDblpHostedDataset(cfg.train_size, cfg.query_size, 0.3, seed);
    // The generator is deterministic, so a second draw of the same config
    // holds the clean labels; the corrupted rows are those that differ.
    const DblpData clean = MakeDblp(cfg);
    inst.clean_labels = clean.train.labels();
    for (size_t i = 0; i < inst.clean_labels.size(); ++i) {
      inst.is_corrupted.push_back(inst.dataset.train.label(i) != inst.clean_labels[i]);
      if (inst.is_corrupted.back()) inst.corrupted.push_back(i);
    }
    return inst;
  }

  int Rounds() const { return smoke_ ? 2 : 10; }

  static serve::SessionSpec Spec(const Instance& inst, ExecutionOptions exec) {
    serve::SessionSpec spec;
    spec.dataset = inst.dataset.name;
    spec.ranker = "holistic";
    spec.top_k_per_iter = 10;
    // A quarter of the rows: instances whose COUNT target is unreachable
    // end budget-exhausted instead of deleting the whole training set.
    spec.max_deletions = static_cast<int>(inst.dataset.train.size() / 4);
    spec.stop_when_resolved = true;
    spec.exec = std::move(exec);
    return spec;
  }

  void Issue(Tenant* ten) {
    ten->issued = Clock::now();
    ten->pending = service_->StepAsync(ten->sid, 1);
  }

  /// Polls every tenant's outstanding turn, never blocking on one tenant
  /// while another is ready, until each tenant is done with the phase.
  void Drive(const Instance& inst, std::vector<Tenant>* tenants, RepeatResult* r,
             e2e::Tracer* tracer, bool updating) {
    for (;;) {
      bool waiting = false, progressed = false;
      for (Tenant& ten : *tenants) {
        if (ten.done) continue;
        waiting = true;
        if (!ten.pending.Ready()) continue;
        progressed = true;
        const Clock::time_point now = Clock::now();
        const double latency = Seconds(ten.issued, now);
        const Result<serve::StepOutcome> outcome = ten.pending.Get();
        if (!Count(outcome, r)) {
          ten.done = true;
          continue;
        }
        r->step_s.push_back(latency);
        for (size_t row : outcome->new_deletions) {
          ten.active[row] = 0;
          ten.deleted_order.push_back(row);
        }
        if (tracer != nullptr) {
          if (!outcome->new_deletions.empty()) {
            r->layers["n.deletions"] += static_cast<double>(outcome->new_deletions.size());
            r->layers["n.fix_steps"] += 1;
          }
          r->turn_wait_s.push_back(latency - ten.observer->TakeTurnSeconds());
          tracer->Add({"serve.turn", ten.lane, ten.issued, now,
                       StrFormat("\"deleted\": %zu", outcome->new_deletions.size())});
        }
        if (!outcome->finished) {
          Issue(&ten);
          continue;
        }
        if (updating) {
          r->update_s.push_back(Seconds(ten.update_start, now));
          if (tracer != nullptr) {
            tracer->Add({"incremental.update_to_terminal", ten.lane, ten.update_start,
                         now, StrFormat("\"round\": %d", ten.rounds)});
          }
        }
        // Only a resolved session reopens on an update.
        if (updating && outcome->resolved) {
          StartUpdate(inst, &ten, r, tracer);
        } else {
          ten.done = true;
        }
      }
      if (!waiting) return;
      if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  /// Applies the tenant's next update round and issues its first turn, or
  /// marks the tenant done after the last round.
  void StartUpdate(const Instance& inst, Tenant* ten, RepeatResult* r,
                   e2e::Tracer* tracer) {
    if (ten->rounds >= Rounds()) {
      ten->done = true;
      return;
    }
    ++ten->rounds;
    // Oldest deletions first: up to 16 rows whose labels were corrupted
    // come back with their clean label, up to 16 correct ones unchanged.
    UpdateBatch batch;
    size_t unchanged = 0;
    for (size_t row : ten->deleted_order) {
      if (ten->active[row]) continue;
      if (inst.is_corrupted[row] && !ten->fixed[row]) {
        if (batch.label_edits.size() == kRowsPerUpdate) continue;
        batch.label_edits.push_back({row, inst.clean_labels[row]});
        ten->fixed[row] = 1;
      } else {
        if (unchanged == kRowsPerUpdate) continue;
        ++unchanged;
      }
      batch.reactivate_rows.push_back(row);
      ten->active[row] = 1;
    }
    if (batch.empty()) {
      ten->done = true;
      return;
    }
    const Clock::time_point a = Clock::now();
    const Result<UpdateReport> report = service_->Update(ten->sid, batch);
    const Clock::time_point b = Clock::now();
    if (!Count(report, r)) {
      ten->done = true;
      return;
    }
    ten->update_start = a;
    if (tracer != nullptr) {
      auto& L = r->layers;
      L["incremental.apply_update_s"] += Seconds(a, b);
      L["n.updates"] += 1;
      L["n.incremental_updates"] += report->incremental ? 1 : 0;
      L["incremental.touched_rows"] += static_cast<double>(report->touched_rows);
      L["incremental.entries_invalidated"] +=
          static_cast<double>(report->entries_invalidated);
      L["provenance.entries_rebound"] += static_cast<double>(report->entries_invalidated);
      L["provenance.entries_reused"] += static_cast<double>(report->entries_cached);
      tracer->Add({"incremental.apply_update", ten->lane, a, b,
                   StrFormat("\"touched_rows\": %zu, \"incremental\": %s",
                             report->touched_rows,
                             report->incremental ? "true" : "false")});
    }
    Issue(ten);
  }

  const uint64_t instance0_seed_;
  const bool smoke_;
  std::unique_ptr<serve::DebugService> service_;
};

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                     metrics[i].unit.c_str());
  }
  return out + "}";
}

/// Peak resident set of this process image. VmHWM rather than
/// getrusage's ru_maxrss, which keeps the high-water mark of the process
/// that exec'd the benchmark (a Python parent would dominate it).
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// A per-repeat value over the untraced (or traced) measured repeats.
std::vector<double> PerRepeat(const std::vector<RepeatResult>& repeats, bool traced,
                              const std::function<double(const RepeatResult&)>& f) {
  std::vector<double> v;
  for (const RepeatResult& r : repeats) {
    if (r.traced == traced) v.push_back(f(r));
  }
  return v;
}

/// Samples pooled over the untraced measured repeats.
std::vector<double> Pooled(const std::vector<RepeatResult>& repeats,
                           std::vector<double> RepeatResult::*field) {
  std::vector<double> all;
  for (const RepeatResult& r : repeats) {
    if (!r.traced) all.insert(all.end(), (r.*field).begin(), (r.*field).end());
  }
  return all;
}

double MeanOver(const std::vector<SessionQuality>& q,
                const std::function<double(const SessionQuality&)>& f) {
  std::vector<double> v;
  for (const SessionQuality& s : q) v.push_back(f(s));
  return Mean(v);
}

/// `field` (setup_s or generate_s) over the untraced measured repeats and
/// the set-up-only samples.
std::vector<double> SetUpSeconds(const std::vector<RepeatResult>& measured,
                                 const std::vector<RepeatResult>& setups,
                                 double RepeatResult::*field) {
  std::vector<double> v;
  for (const std::vector<RepeatResult>* results : {&measured, &setups}) {
    for (const RepeatResult& r : *results) {
      if (!r.traced) v.push_back(r.*field);
    }
  }
  return v;
}

std::vector<Metric> EndToEndMetrics(const std::vector<RepeatResult>& measured,
                                    const std::vector<RepeatResult>& setups) {
  const std::vector<double> steps = Pooled(measured, &RepeatResult::step_s);
  return {
      {"setup_s", Median(SetUpSeconds(measured, setups, &RepeatResult::setup_s)), "s"},
      {"debug_s",
       Median(PerRepeat(measured, false, [](const RepeatResult& r) { return r.debug_s; })),
       "s"},
      {"iter_p50_s", Quantile(steps, 0.5), "s"},
      {"iter_p90_s", Quantile(steps, 0.9), "s"},
      {"explanation_size",
       Median(PerRepeat(measured, false,
                        [](const RepeatResult& r) {
                          return MeanOver(r.quality, [](const SessionQuality& q) {
                            return static_cast<double>(q.size);
                          });
                        })),
       "rows"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

/// Per-layer totals of each traced repeat, by name.
std::map<std::string, std::vector<double>> LayerSamples(
    const std::vector<RepeatResult>& measured) {
  std::map<std::string, std::vector<double>> samples;
  for (const RepeatResult& r : measured) {
    if (!r.traced) continue;
    std::map<std::string, double> L = r.layers;
    auto ratio = [&L](const char* num, const char* den) {
      return L[den] > 0.0 ? L[num] / L[den] : 0.0;
    };
    L["ml.train_skip_frac"] = ratio("n.train_skips", "n.iterations");
    L["core.deletions_per_iter"] = ratio("n.deletions", "n.fix_steps");
    L["incremental.incremental_frac"] = ratio("n.incremental_updates", "n.updates");
    L["serve.turn_wait_s"] = Median(r.turn_wait_s);
    for (const auto& [name, value] : L) samples[name].push_back(value);
  }
  return samples;
}

/// The per-layer metrics every workload measures (BENCHMARK.json's
/// per_layer list): each a median over traced repeats of a repeat's total.
std::vector<Metric> PerLayerMetrics(const std::vector<RepeatResult>& measured,
                                    const std::vector<RepeatResult>& setups) {
  const std::map<std::string, std::vector<double>> samples = LayerSamples(measured);
  auto med = [&samples](const char* name) {
    auto it = samples.find(name);
    return it == samples.end() ? 0.0 : Median(it->second);
  };
  // Quality over the untraced repeats (each instance once).
  auto quality = [&measured](const std::function<double(const SessionQuality&)>& f) {
    return Mean(PerRepeat(measured, false,
                          [&f](const RepeatResult& r) { return MeanOver(r.quality, f); }));
  };
  // Tracing overhead, paired per instance: repeat 2k is instance k
  // untraced, repeat 2k+1 the same instance traced.
  std::vector<double> overhead;
  for (size_t i = 1; i < measured.size(); i += 2) {
    const double base = measured[i - 1].debug_s;
    if (base > 0.0) overhead.push_back((measured[i].debug_s - base) / base);
  }
  return {
      {"influence.rank_s", med("influence.rank_s"), "s"},
      {"influence.cg_iters", med("influence.cg_iters"), "count"},
      {"influence.prepare_s", med("influence.prepare_s"), "s"},
      {"influence.score_all_s", med("influence.score_all_s"), "s"},
      {"ilp.budget_exits", med("ilp.budget_exits"), "count"},
      {"ml.train_s", med("ml.train_s"), "s"},
      {"ml.train_skip_frac", med("ml.train_skip_frac"), "ratio"},
      {"relax.encode_s", med("relax.encode_s"), "s"},
      {"relax.encode_reuses", med("relax.encode_reuses"), "count"},
      {"core.fix_s", med("core.fix_s"), "s"},
      {"core.deletions_per_iter", med("core.deletions_per_iter"), "rows"},
      {"core.auccr", quality([](const SessionQuality& q) { return q.auccr; }), "ratio"},
      {"core.recall_at_k", quality([](const SessionQuality& q) { return q.recall_at_k; }),
       "ratio"},
      {"core.resolved_frac",
       quality([](const SessionQuality& q) { return q.resolved ? 1.0 : 0.0; }), "ratio"},
      {"provenance.bind_s", med("provenance.bind_s"), "s"},
      {"provenance.entries_rebound", med("provenance.entries_rebound"), "count"},
      {"provenance.entries_reused", med("provenance.entries_reused"), "count"},
      {"incremental.incremental_frac", med("incremental.incremental_frac"), "ratio"},
      {"incremental.touched_rows", med("incremental.touched_rows"), "rows"},
      {"incremental.entries_invalidated", med("incremental.entries_invalidated"),
       "count"},
      {"serve.turn_wait_s", med("serve.turn_wait_s"), "s"},
      {"serve.admission_refusals", med("serve.admission_refusals"), "count"},
      {"data.generate_s", Median(SetUpSeconds(measured, setups, &RepeatResult::generate_s)),
       "s"},
      {"bench.trace_overhead_frac", Median(overhead), "ratio"},
      {"bench.phase_cover_frac", med("bench.phase_cover_frac"), "ratio"},
  };
}

/// Layer times only some workloads exercise: TwoStep's ILP, the
/// self-influence probe and serve's update path. Each is reported where
/// it was measured, in the row file only: elsewhere it would read 0 s on
/// every run, so these stay out of BENCHMARK.json's per_layer list.
std::vector<Metric> WorkloadLayerMetrics(const std::vector<RepeatResult>& measured) {
  const std::map<std::string, std::vector<double>> samples = LayerSamples(measured);
  std::vector<Metric> out;
  for (const char* name :
       {"ilp.ilp_s", "influence.self_influence_s", "incremental.apply_update_s"}) {
    auto it = samples.find(name);
    if (it != samples.end()) out.push_back({name, Median(it->second), "s"});
  }
  const std::vector<double> updates = Pooled(measured, &RepeatResult::update_s);
  if (!updates.empty()) {
    out.push_back({"serve.update_p50_s", Quantile(updates, 0.5), "s"});
    out.push_back({"serve.update_p90_s", Quantile(updates, 0.9), "s"});
  }
  return out;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs(text.c_str(), f);
  return std::fclose(f) == 0;
}

/// Set-up-only samples per run, on instances 0, 1, ...
constexpr uint64_t kSetUpSamples = 24;

std::unique_ptr<Workload> MakeWorkload(const Flags& f) {
  if (f.workload == "dblp_paper") return std::make_unique<DblpPaper>(f.smoke);
  if (f.workload == "adult_1e5") return std::make_unique<Adult1e5>(f.smoke);
  if (f.workload == "mnist_join") return std::make_unique<MnistJoinWorkload>(f.smoke);
  return std::make_unique<ServeDblp>(SplitSeed(f.seed, 0), f.smoke);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  const std::string meta = e2e::HostMetaJson();
  std::unique_ptr<Workload> workload = MakeWorkload(flags);
  e2e::Tracer tracer;

  // The warm-up repeat is untimed (the first sessions in a process run
  // slower); it shares instance 0 with the first measured repeat, so it
  // also feeds the determinism check.
  std::vector<RepeatResult> all;
  all.push_back(workload->Repeat(SplitSeed(flags.seed, 0), nullptr));
  const Clock::time_point start = Clock::now();
  // Set-up takes milliseconds, and a run has only a few repeats on the
  // larger workloads, so set-up is also sampled on its own.
  std::vector<RepeatResult> setups;
  for (uint64_t k = 0; k < kSetUpSamples; ++k) {
    setups.push_back(workload->SetUpOnly(SplitSeed(flags.seed, k)));
  }
  for (size_t i = 0;; ++i) {
    // Traced runs debug each instance untraced, then traced, so the
    // tracing overhead is measured on identical work.
    const uint64_t instance = flags.trace ? i / 2 : i;
    const bool traced = flags.trace && i % 2 == 1;
    const Clock::time_point a = Clock::now();
    all.push_back(
        workload->Repeat(SplitSeed(flags.seed, instance), traced ? &tracer : nullptr));
    all.back().instance = instance;
    if (traced) {
      // Set-up is the first thing a repeat does.
      auto after = [a](double seconds) {
        return a + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
      };
      tracer.NameLane(0, "repeats");
      tracer.Add({"bench.repeat", 0, a, Clock::now(),
                  StrFormat("\"instance\": %llu", static_cast<unsigned long long>(instance))});
      tracer.Add({"bench.setup", 0, a, after(all.back().setup_s), ""});
      tracer.Add({"data.generate", 0, a, after(all.back().generate_s), ""});
    }
    if (Seconds(start, Clock::now()) >= flags.seconds && (!flags.trace || traced)) break;
  }
  Checks checks = workload->Check(&all, flags.trace ? &tracer : nullptr);
  const std::vector<RepeatResult> measured(all.begin() + 1, all.end());
  bool deterministic = true;
  for (const RepeatResult& a : all) {
    for (const RepeatResult& b : all) {
      if (a.instance == b.instance) deterministic = deterministic && a.sequences == b.sequences;
    }
  }
  checks.emplace_back("identical_deletion_sequences", deterministic);

  int attempted = 0, failed = 0;
  for (const std::vector<RepeatResult>* results : {&all, &setups}) {
    for (const RepeatResult& r : *results) {
      attempted += r.attempted;
      failed += r.failed;
    }
  }
  bool correct = failed == 0;
  for (const auto& [name, ok] : checks) {
    if (!ok) std::fprintf(stderr, "bench_e2e: check failed: %s\n", name.c_str());
    correct = correct && ok;
  }

  const std::vector<Metric> e2e_metrics = EndToEndMetrics(measured, setups);
  const std::vector<Metric> layer_metrics =
      flags.trace ? PerLayerMetrics(measured, setups) : std::vector<Metric>();

  if (!flags.out_dir.empty()) {
    std::vector<Metric> row_layers = layer_metrics;
    if (flags.trace) {
      for (Metric& m : WorkloadLayerMetrics(measured)) row_layers.push_back(std::move(m));
    }
    std::string check_json;
    for (const auto& [name, ok] : checks) {
      check_json += StrFormat("%s\"%s\": %s", check_json.empty() ? "" : ", ",
                              name.c_str(), ok ? "true" : "false");
    }
    std::string sessions_json;
    for (const RepeatResult& r : measured) {
      if (r.traced) continue;
      for (const SessionQuality& q : r.quality) {
        sessions_json += StrFormat(
            "%s{\"instance\": %llu, \"name\": \"%s\", \"auccr\": %.6f, "
            "\"recall_at_k\": %.6f, \"resolved\": %s, \"deletions\": %zu}",
            sessions_json.empty() ? "" : ", ",
            static_cast<unsigned long long>(r.instance), q.name.c_str(), q.auccr,
            q.recall_at_k, q.resolved ? "true" : "false", q.size);
      }
    }
    std::string debug_json;
    for (const RepeatResult& r : measured) {
      if (!r.traced) {
        debug_json += StrFormat("%s%.6f", debug_json.empty() ? "" : ", ", r.debug_s);
      }
    }
    const std::string row = StrFormat(
        "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"smoke\": %s, "
        "\"traced\": %s, \"correct\": %s, \"attempted\": %d, \"failed\": %d, "
        "\"repeats\": %zu, \"repeat_debug_s\": [%s], \"iter_samples\": %zu, "
        "\"update_samples\": %zu, "
        "\"checks\": {%s}, \"meta\": {%s}, \"metrics\": %s, \"per_layer\": %s, "
        "\"sessions\": [%s]}\n",
        flags.workload.c_str(), static_cast<unsigned long long>(flags.seed),
        flags.seconds, flags.smoke ? "true" : "false", flags.trace ? "true" : "false",
        correct ? "true" : "false", attempted, failed, measured.size(), debug_json.c_str(),
        Pooled(measured, &RepeatResult::step_s).size(),
        Pooled(measured, &RepeatResult::update_s).size(), check_json.c_str(),
        meta.c_str(), MetricsJson(e2e_metrics).c_str(),
        MetricsJson(row_layers).c_str(), sessions_json.c_str());
    const std::string base = flags.out_dir + "/";
    RAIN_CHECK(WriteFile(base + "row_" + flags.workload + ".json", row))
        << "cannot write to " << flags.out_dir;
    if (flags.trace) {
      RAIN_CHECK(tracer.WriteChromeTrace(base + "trace_" + flags.workload + ".json"));
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              MetricsJson(flags.trace ? layer_metrics : e2e_metrics).c_str());
  return correct ? 0 : 1;
}
