#ifndef RAIN_DATA_SCALE_GEN_H_
#define RAIN_DATA_SCALE_GEN_H_

#include <optional>
#include <string>
#include <vector>

#include "core/debugger.h"
#include "ml/dataset.h"
#include "relational/table.h"

namespace rain {
namespace scale {

/// \brief Scale-N workload generator (ROADMAP item 1).
///
/// One knob dials every workload dimension from laptop-scale (0.1) to
/// paper-scale (1.0, 10^5 synthetic Adult training rows) to 100x
/// paper-scale (10^7 rows): training/query set sizes and the number of
/// concurrent complaints follow `scale`.
///
/// Determinism contract: a generated workload is a pure function of
/// (seed, scale). The `workers` knob only changes how fast generation
/// runs — rows are produced in fixed-size blocks, each block re-seeded
/// from SplitSeed(section_seed, block), so the draw sequence per block
/// (and therefore every byte of output) is independent of the chunk
/// layout ParallelFor happens to pick. `tests/scale_gen_test.cc` pins
/// this down at 1/2/8 workers.

struct ScaleConfig {
  /// 1.0 = paper scale (10^5 Adult training rows). Must be > 0.
  double scale = 1.0;
  uint64_t seed = 29;
  /// Generation parallelism; bitwise-irrelevant to the output.
  int workers = 1;
};

/// Workload dimensions derived from the scale knob (pure function).
struct ScaleDims {
  size_t adult_train = 0;
  size_t adult_query = 0;
  /// Concurrent point complaints in the many-complaints workload entry.
  size_t point_complaints = 0;
  /// Fraction of corruption candidates whose labels are flipped.
  double corruption = 0.5;
};

ScaleDims DimsFor(double scale);

/// One query-side catalog entry: a relational table, plus the feature
/// dataset backing predict() over it (nullopt for plain side tables that
/// only join).
struct ScaledTable {
  std::string name;
  Table table;
  std::optional<Dataset> features;
};

/// A generated debugging workload: corrupted training data with exactly
/// recoverable ground truth, the queried tables, and the complaint
/// workload (aggregate + many-complaints point entries).
struct ScaledWorkload {
  /// Training set with `corrupted` rows' labels flipped.
  Dataset train;
  /// Pre-corruption labels of EVERY training row: the ground truth.
  /// label(i) != clean_labels[i] exactly for i in `corrupted`.
  std::vector<int> clean_labels;
  /// Rows whose labels were flipped, ascending.
  std::vector<size_t> corrupted;
  /// Query-side catalog entries (first entry carries the features).
  std::vector<ScaledTable> tables;
  /// Complaints with analytically derived targets (no clean-model
  /// training pass — generation stays O(rows)). The targets are the
  /// per-profile Bayes decisions (what a perfectly trained clean model
  /// predicts on the query table), so they carry no label-sampling
  /// noise.
  std::vector<QueryComplaints> workload;
};

/// Synthetic Adult at 10^5 * scale training rows (same attribute
/// calibration as MakeAdult; see src/data/adult.cc): a gender AVG
/// complaint, per-decade AVG complaints, and dims.point_complaints
/// concurrent point complaints. Table name: "adult_scaled".
ScaledWorkload ScaledAdult(const ScaleConfig& config);

}  // namespace scale
}  // namespace rain

#endif  // RAIN_DATA_SCALE_GEN_H_
