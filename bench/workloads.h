#ifndef RAIN_BENCH_WORKLOADS_H_
#define RAIN_BENCH_WORKLOADS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/debugger.h"
#include "core/pipeline.h"
#include "data/adult.h"
#include "data/dblp.h"
#include "data/enron.h"
#include "data/mnist.h"
#include "data/scale_gen.h"

namespace rain {
namespace bench {

using PipelineFactory = std::function<std::unique_ptr<Query2Pipeline>()>;

/// A fully prepared experiment: a factory producing identical corrupted
/// pipelines (so every method starts from the same state), the corrupted
/// training ids, and the complaint workload with targets generated from
/// a clean (uncorrupted) pipeline run — the paper's ground-truth
/// complaints (Section 6.1.4).
struct Experiment {
  PipelineFactory make_pipeline;
  std::vector<size_t> corrupted;
  std::vector<QueryComplaints> workload;
  /// Clean-pipeline value of the complained aggregate (when applicable).
  double clean_value = 0.0;
  /// Corrupted-pipeline value before debugging (context for reports).
  double corrupted_value = 0.0;
};

/// DBLP Q1: COUNT(*) WHERE predict = match, single equality complaint.
/// `corruption` is the fraction of match-labels flipped to non-match.
Experiment DblpCount(double corruption, size_t train_size = 800,
                     size_t query_size = 400, uint64_t seed = 7,
                     bool use_mlp = false);

/// ENRON Q2: COUNT(*) WHERE predict = spam AND text LIKE '%token%';
/// rule-based corruption labels every training email containing `token`
/// as spam.
Experiment EnronCount(const std::string& token, size_t train_size = 1200,
                      size_t query_size = 600, uint64_t seed = 11);

/// MNIST Q5: COUNT(*) WHERE predict = 1, flipping `corruption` of the
/// digit-1 training labels to 7. `use_mlp` switches the model for the
/// Appendix D benches.
Experiment MnistCount(double corruption, size_t train_size = 800,
                      size_t query_size = 500, bool use_mlp = false,
                      uint64_t seed = 17);

/// MNIST join experiments (Section 6.3).
struct MnistJoinOptions {
  double corruption = 0.5;        // fraction of 1-labels flipped to 7
  bool count_complaint = false;   // Q4 count=0 vs Q3 per-tuple complaints
  std::vector<int> left_digits = {1};
  std::vector<int> right_digits = {7};
  size_t max_per_digit = 18;
  double mix_rate = 0.0;          // move 1-digit rows left -> right
  size_t train_size = 800;
  size_t query_size = 600;
  uint64_t seed = 17;
  /// Fraction of tuple complaints replaced by unambiguous point
  /// complaints on the mispredicted side (Figure 7's ambiguity knob).
  double point_complaint_fraction = 0.0;
  /// When > 0, keep at most one offending tuple per mispredicted row.
  /// Dense complaint sets make the minimum-flip ILP repair unambiguous
  /// (a mispredicted row shared by many offending tuples is the unique
  /// cheapest flip); sparse ones leave a genuine flip-either-side choice
  /// per tuple, which is the regime Figure 7 studies.
  bool sparse_tuple_complaints = false;
};
Experiment MnistJoin(const MnistJoinOptions& options);

/// Adult Q6/Q7 (Section 6.5): AVG(predict) grouped by gender / age
/// decade; complaint on Male / the 40-50 bucket. `which` selects
/// "gender", "age", or "both".
Experiment AdultMultiQuery(const std::string& which, double corruption,
                           size_t train_size = 3000, size_t query_size = 1500,
                           uint64_t seed = 13);

/// Scale-N synthetic Adult experiment (src/data/scale_gen.h; bench_e2e's
/// adult_1e5). The generated workload already carries complaints with
/// analytically derived targets, so the adapter only wraps the tables +
/// corrupted training set into a pipeline factory (clean_value /
/// corrupted_value stay 0 — there is no clean-pipeline run at generation
/// time). `tc` is the pipelines' training configuration.
Experiment ScaledAdultExperiment(const scale::ScaleConfig& config,
                                 TrainConfig tc = TrainConfig());

}  // namespace bench
}  // namespace rain

#endif  // RAIN_BENCH_WORKLOADS_H_
