#include "data/scale_gen.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/adult.h"
#include "ml/logistic_regression.h"

namespace rain {
namespace scale {
namespace {

/// Rows per generation block. Blocks — not ParallelFor chunks — are the
/// unit of seeding: block b always draws from Rng(SplitSeed(section, b)),
/// so the generated bytes cannot depend on how many workers the blocks
/// were spread across. 8192 rows comfortably amortizes the per-block Rng
/// setup and the fork/join handshake.
constexpr size_t kGenBlock = 8192;

/// Per-section seed streams (SplitSeed(config.seed, tag)).
enum SectionTag : uint64_t {
  kTrainTag = 0,
  kQueryTag = 1,
  kCorruptionTag = 2,
  kComplaintsTag = 3,
};

/// Runs body(begin, end, rng) over [0, n) in fixed kGenBlock-row blocks,
/// each with its own SplitSeed-derived Rng, fanned across `workers`.
void ForEachBlockSeeded(int workers, size_t n, uint64_t section_seed,
                        const std::function<void(size_t, size_t, Rng&)>& body) {
  if (n == 0) return;
  const size_t blocks = (n + kGenBlock - 1) / kGenBlock;
  ParallelFor(workers, blocks, [&](size_t bb, size_t be, size_t) {
    for (size_t b = bb; b < be; ++b) {
      Rng rng(SplitSeed(section_seed, b));
      const size_t begin = b * kGenBlock;
      const size_t end = std::min(n, begin + kGenBlock);
      body(begin, end, rng);
    }
  });
}

size_t Scaled(double base, double scale, size_t floor_rows) {
  const double v = std::round(base * scale);
  const size_t n = v < 1.0 ? 1 : static_cast<size_t>(v);
  return std::max(n, floor_rows);
}

// ---------------------------------------------------------------------------
// Synthetic Adult rows: same calibration as MakeAdult (src/data/adult.cc) —
// P(male)=0.67, P(decade 4 | male)=0.231, income odds raised by education
// and middle age — drawn here per block instead of from one sequential
// stream so 10^7 rows generate in parallel.
// ---------------------------------------------------------------------------

struct AdultAttrs {
  int decade;     // 2..9
  int education;  // 0..7
  int gender;     // 1 = male
};

AdultAttrs DrawAdultAttrs(Rng* rng) {
  AdultAttrs a;
  a.gender = rng->Bernoulli(0.67) ? 1 : 0;
  const double p_dec4 = a.gender == 1 ? 0.231 : 0.188;
  if (rng->Bernoulli(p_dec4)) {
    a.decade = 4;
  } else {
    static const int kOthers[] = {2, 3, 5, 6, 7, 8, 9};
    a.decade = kOthers[rng->UniformInt(7)];
  }
  a.education = static_cast<int>(rng->UniformInt(kAdultEducations));
  return a;
}

/// Generative income logit. Calibrated so every attribute profile sits
/// at least 0.25 from the decision boundary (education steps of 1.0
/// around e=3.5; the decade/gender effects total <= 0.25, too small to
/// flip any profile): a clean model trained on 10^4+ rows then recovers
/// the exact Bayes decisions, so the analytic complaint targets below
/// are reachable and the only violations are the planted corruption.
/// Labels stay noisy draws (38% contrarian at the closest profiles).
double AdultLogit(const AdultAttrs& a) {
  return (static_cast<double>(a.education) - 3.5) +
         (a.decade == 4 || a.decade == 5 ? 0.15 : 0.0) +
         (a.gender == 1 ? 0.1 : 0.0);
}

int DrawAdultIncome(const AdultAttrs& a, Rng* rng) {
  return rng->Bernoulli(Sigmoid(AdultLogit(a))) ? 1 : 0;
}

/// The Bayes decision for an attribute profile: the class a perfectly
/// trained clean model predicts. Complaint targets use this instead of
/// the drawn labels — a group mean of Bernoulli draws carries sampling
/// noise of the same order as the corruption signal, which would send
/// the debugger chasing noise-violated groups instead of the planted
/// corruption.
int AdultCleanDecision(const AdultAttrs& a) {
  return AdultLogit(a) > 0.0 ? 1 : 0;
}

void EncodeAdult(const AdultAttrs& a, double* row) {
  for (size_t f = 0; f < kAdultFeatures; ++f) row[f] = 0.0;
  row[a.decade - 2] = 1.0;
  row[kAdultAgeDecades + a.education] = 1.0;
  row[kAdultAgeDecades + kAdultEducations + a.gender] = 1.0;
}

struct AdultSplit {
  Matrix x;
  std::vector<int> y;
  std::vector<AdultAttrs> attrs;
};

AdultSplit GenerateAdultSplit(size_t n, uint64_t section_seed, int workers) {
  AdultSplit split{Matrix(n, kAdultFeatures), std::vector<int>(n),
                   std::vector<AdultAttrs>(n)};
  ForEachBlockSeeded(workers, n, section_seed,
                     [&split](size_t begin, size_t end, Rng& rng) {
                       for (size_t i = begin; i < end; ++i) {
                         split.attrs[i] = DrawAdultAttrs(&rng);
                         split.y[i] = DrawAdultIncome(split.attrs[i], &rng);
                         EncodeAdult(split.attrs[i], split.x.Row(i));
                       }
                     });
  return split;
}

/// Flips the labels of ~`fraction` of `candidates` (independent seeded
/// Bernoulli per candidate) to `to_label`, returning the flipped indices
/// ascending. `labels` is edited in place BEFORE the Dataset is built, so
/// corruption costs no copy-on-write detach.
std::vector<size_t> FlipLabels(std::vector<int>* labels,
                               const std::vector<size_t>& candidates,
                               double fraction, int to_label, uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> flipped;
  for (size_t i : candidates) {
    if ((*labels)[i] != to_label && rng.Bernoulli(fraction)) {
      (*labels)[i] = to_label;
      flipped.push_back(i);
    }
  }
  return flipped;
}

/// Draws `count` distinct row ids in [0, n) (all of them when count >= n),
/// ascending, from one seeded stream.
std::vector<int64_t> SamplePointRows(size_t count, size_t n, uint64_t seed) {
  std::vector<int64_t> rows;
  if (count >= n) {
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) rows.push_back(static_cast<int64_t>(i));
    return rows;
  }
  Rng rng(seed);
  std::set<int64_t> picked;
  while (picked.size() < count) {
    picked.insert(static_cast<int64_t>(rng.UniformInt(n)));
  }
  rows.assign(picked.begin(), picked.end());
  return rows;
}

}  // namespace

ScaleDims DimsFor(double scale) {
  RAIN_CHECK(scale > 0.0) << "scale must be positive, got " << scale;
  ScaleDims dims;
  // Paper scale (1.0): 10^5 Adult training rows; 100x = 10^7. Floors keep
  // tiny test scales trainable (enough rows per class/group).
  dims.adult_train = Scaled(1e5, scale, /*floor_rows=*/512);
  dims.adult_query = Scaled(2e4, scale, /*floor_rows=*/256);
  const double points = std::round(256.0 * scale);
  dims.point_complaints = static_cast<size_t>(
      std::min(4096.0, std::max(8.0, points)));
  return dims;
}

ScaledWorkload ScaledAdult(const ScaleConfig& config) {
  const ScaleDims dims = DimsFor(config.scale);
  ScaledWorkload out;
  const char* kTable = "adult_scaled";

  AdultSplit train = GenerateAdultSplit(
      dims.adult_train, SplitSeed(config.seed, kTrainTag), config.workers);
  AdultSplit query = GenerateAdultSplit(
      dims.adult_query, SplitSeed(config.seed, kQueryTag), config.workers);

  // Ground truth, then corruption (paper predicate: low income AND male
  // AND age 40-50, flipped to high income) applied to the label vector
  // before the Dataset is constructed.
  out.clean_labels = train.y;
  std::vector<size_t> candidates;
  for (size_t i = 0; i < dims.adult_train; ++i) {
    if (train.y[i] == 0 && train.attrs[i].gender == 1 &&
        train.attrs[i].decade == 4) {
      candidates.push_back(i);
    }
  }
  out.corrupted = FlipLabels(&train.y, candidates, dims.corruption,
                             /*to_label=*/1,
                             SplitSeed(config.seed, kCorruptionTag));
  out.train = Dataset(std::move(train.x), std::move(train.y), 2);

  // Querying relation, schema-compatible with MakeAdult's.
  Schema schema({Field{"id", DataType::kInt64, ""},
                 Field{"gender", DataType::kString, ""},
                 Field{"agedecade", DataType::kInt64, ""},
                 Field{"truth", DataType::kInt64, ""}});
  Table table(schema);
  for (size_t i = 0; i < dims.adult_query; ++i) {
    table.AppendRowUnchecked(
        {Value(static_cast<int64_t>(i)),
         Value(std::string(query.attrs[i].gender == 1 ? "Male" : "Female")),
         Value(static_cast<int64_t>(query.attrs[i].decade)),
         Value(static_cast<int64_t>(query.y[i]))});
  }
  Dataset query_features(std::move(query.x), std::vector<int>(query.y), 2);
  out.tables.push_back(ScaledTable{kTable, std::move(table),
                                   std::move(query_features)});

  // Complaint targets are the clean-model group means: what a perfectly
  // trained model predicts on this exact query table (the per-profile
  // Bayes decision), computable in one O(query) pass with no clean-model
  // training and no label-sampling noise. The corrupted model genuinely
  // violates them — it over-predicts income for the corrupted slice.
  double male_sum = 0.0, female_sum = 0.0;
  size_t male_n = 0, female_n = 0;
  double decade_sum[10] = {0.0};
  size_t decade_n[10] = {0};
  for (size_t i = 0; i < dims.adult_query; ++i) {
    const int pred = AdultCleanDecision(query.attrs[i]);
    if (query.attrs[i].gender == 1) {
      male_sum += pred;
      ++male_n;
    } else {
      female_sum += pred;
      ++female_n;
    }
    decade_sum[query.attrs[i].decade] += pred;
    ++decade_n[query.attrs[i].decade];
  }

  // Entry 1: AVG(predict) per gender, complained for both groups.
  {
    QueryComplaints qc;
    qc.query = PlanNode::Aggregate(
        PlanNode::Scan(kTable), {Expr::Column("gender")}, {"gender"},
        {AggSpec{AggFunc::kAvg, Expr::Predict(kTable), "avg_income"}});
    if (male_n > 0) {
      qc.complaints.push_back(ComplaintSpec::ValueEq(
          "avg_income", male_sum / static_cast<double>(male_n),
          {Value(std::string("Male"))}));
    }
    if (female_n > 0) {
      qc.complaints.push_back(ComplaintSpec::ValueEq(
          "avg_income", female_sum / static_cast<double>(female_n),
          {Value(std::string("Female"))}));
    }
    out.workload.push_back(std::move(qc));
  }

  // Entry 2: AVG(predict) per age decade, complained only for decades 4
  // and 5 — the large groups the corruption targets. Rare decades are
  // deliberately left uncomplained: their analytic targets are within a
  // trained model's estimation noise (few rows per decade x education
  // cell), so complaining about them would send the ranker chasing
  // estimation error instead of the planted corruption.
  {
    QueryComplaints qc;
    qc.query = PlanNode::Aggregate(
        PlanNode::Scan(kTable), {Expr::Column("agedecade")}, {"agedecade"},
        {AggSpec{AggFunc::kAvg, Expr::Predict(kTable), "avg_income"}});
    for (int d = 4; d <= 5; ++d) {
      if (decade_n[d] == 0) continue;
      qc.complaints.push_back(ComplaintSpec::ValueEq(
          "avg_income", decade_sum[d] / static_cast<double>(decade_n[d]),
          {Value(static_cast<int64_t>(d))}));
    }
    out.workload.push_back(std::move(qc));
  }

  // Entry 3: the many-complaints mode — dims.point_complaints concurrent
  // point complaints asserting the clean-model class of sampled query
  // rows (null query: point complaints bind directly against the
  // predictions). Sampled only from high-margin profiles (|logit| >= 1,
  // i.e. education well clear of the decision boundary): a trained model
  // reproduces those decisions exactly, so the complaints are satisfied
  // ballast that exercises many-complaint throughput without injecting
  // estimation-noise violations.
  {
    std::vector<size_t> confident;
    for (size_t i = 0; i < dims.adult_query; ++i) {
      if (AdultLogit(query.attrs[i]) >= 1.0 ||
          AdultLogit(query.attrs[i]) <= -1.0) {
        confident.push_back(i);
      }
    }
    QueryComplaints qc;
    for (int64_t pick : SamplePointRows(dims.point_complaints, confident.size(),
                                        SplitSeed(config.seed, kComplaintsTag))) {
      const size_t row = confident[static_cast<size_t>(pick)];
      qc.complaints.push_back(ComplaintSpec::Point(
          kTable, static_cast<int64_t>(row),
          AdultCleanDecision(query.attrs[row])));
    }
    out.workload.push_back(std::move(qc));
  }
  return out;
}

}  // namespace scale
}  // namespace rain
