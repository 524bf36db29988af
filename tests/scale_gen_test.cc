/// Determinism properties of the scale-N workload generator
/// (src/data/scale_gen.h): same (seed, scale) must produce
/// bitwise-identical output at any generator worker count, different
/// seeds must corrupt different rows, and the corruption ground truth
/// must be exactly recoverable.
#include "data/scale_gen.h"
#include "gtest/gtest.h"

namespace rain {
namespace scale {
namespace {

/// Bitwise workload equality: features, labels, corruption ground truth,
/// relational tables, and complaint specs.
void ExpectIdentical(const ScaledWorkload& a, const ScaledWorkload& b) {
  EXPECT_EQ(a.train.features().data(), b.train.features().data());
  EXPECT_EQ(a.train.labels(), b.train.labels());
  EXPECT_EQ(a.clean_labels, b.clean_labels);
  EXPECT_EQ(a.corrupted, b.corrupted);
  ASSERT_EQ(a.tables.size(), b.tables.size());
  for (size_t t = 0; t < a.tables.size(); ++t) {
    EXPECT_EQ(a.tables[t].name, b.tables[t].name);
    ASSERT_EQ(a.tables[t].table.num_rows(), b.tables[t].table.num_rows());
    for (size_t r = 0; r < a.tables[t].table.num_rows(); ++r) {
      EXPECT_EQ(a.tables[t].table.GetRow(r), b.tables[t].table.GetRow(r))
          << "table " << t << " row " << r;
    }
    ASSERT_EQ(a.tables[t].features.has_value(), b.tables[t].features.has_value());
    if (a.tables[t].features.has_value()) {
      EXPECT_EQ(a.tables[t].features->features().data(),
                b.tables[t].features->features().data());
      EXPECT_EQ(a.tables[t].features->labels(), b.tables[t].features->labels());
    }
  }
  ASSERT_EQ(a.workload.size(), b.workload.size());
  for (size_t w = 0; w < a.workload.size(); ++w) {
    ASSERT_EQ(a.workload[w].complaints.size(), b.workload[w].complaints.size());
    for (size_t c = 0; c < a.workload[w].complaints.size(); ++c) {
      const ComplaintSpec& ca = a.workload[w].complaints[c];
      const ComplaintSpec& cb = b.workload[w].complaints[c];
      EXPECT_EQ(ca.kind, cb.kind);
      EXPECT_EQ(ca.agg_name, cb.agg_name);
      EXPECT_EQ(ca.group_keys, cb.group_keys);
      EXPECT_EQ(ca.target, cb.target);  // bitwise (==, not NEAR)
      EXPECT_EQ(ca.point_table, cb.point_table);
      EXPECT_EQ(ca.point_row, cb.point_row);
      EXPECT_EQ(ca.point_class, cb.point_class);
    }
  }
}

ScaleConfig SmallConfig(int workers, uint64_t seed = 29) {
  ScaleConfig config;
  config.scale = 0.02;  // 2000 Adult training rows: fast but multi-block-free
  config.seed = seed;
  config.workers = workers;
  return config;
}

TEST(ScaleGenTest, AdultWorkerCountNeverChangesOutput) {
  const ScaledWorkload ref = ScaledAdult(SmallConfig(1));
  for (int workers : {2, 8}) {
    SCOPED_TRACE(workers);
    ExpectIdentical(ref, ScaledAdult(SmallConfig(workers)));
  }
}

TEST(ScaleGenTest, MultiBlockScaleIsWorkerInvariant) {
  // Scale 0.15 = 15000 training rows = two generation blocks: the
  // cross-block boundary must also be layout-independent.
  ScaleConfig config;
  config.scale = 0.15;
  config.workers = 1;
  const ScaledWorkload ref = ScaledAdult(config);
  ASSERT_GT(ref.train.size(), size_t{8192}) << "test must span >1 block";
  config.workers = 8;
  ExpectIdentical(ref, ScaledAdult(config));
}

TEST(ScaleGenTest, DifferentSeedsCorruptDifferentRows) {
  const ScaledWorkload a = ScaledAdult(SmallConfig(1, 29));
  const ScaledWorkload b = ScaledAdult(SmallConfig(1, 30));
  ASSERT_FALSE(a.corrupted.empty());
  ASSERT_FALSE(b.corrupted.empty());
  // Different seeds draw different datasets AND different corruption
  // masks over them.
  EXPECT_NE(a.train.features().data(), b.train.features().data());
  EXPECT_NE(a.corrupted, b.corrupted);
}

TEST(ScaleGenTest, CorruptionGroundTruthExactlyRecoverable) {
  const ScaledWorkload w = ScaledAdult(SmallConfig(1));
  ASSERT_EQ(w.clean_labels.size(), w.train.size());
  ASSERT_FALSE(w.corrupted.empty());
  // Corrupted rows differ from ground truth; everything else matches.
  std::vector<bool> is_corrupted(w.train.size(), false);
  for (size_t i : w.corrupted) {
    ASSERT_LT(i, w.train.size());
    is_corrupted[i] = true;
  }
  for (size_t i = 0; i < w.train.size(); ++i) {
    if (is_corrupted[i]) {
      EXPECT_NE(w.train.label(i), w.clean_labels[i]) << "row " << i;
    } else {
      EXPECT_EQ(w.train.label(i), w.clean_labels[i]) << "row " << i;
    }
  }
  // Flip-back restores the clean label vector exactly.
  Dataset restored = w.train;
  for (size_t i : w.corrupted) restored.set_label(i, w.clean_labels[i]);
  EXPECT_EQ(restored.labels(), w.clean_labels);
  // Ascending and duplicate-free, as documented.
  for (size_t k = 1; k < w.corrupted.size(); ++k) {
    EXPECT_LT(w.corrupted[k - 1], w.corrupted[k]);
  }
}

TEST(ScaleGenTest, DimsScaleMonotonically) {
  const ScaleDims small = DimsFor(0.1);
  const ScaleDims paper = DimsFor(1.0);
  const ScaleDims big = DimsFor(100.0);
  EXPECT_EQ(paper.adult_train, size_t{100000});
  EXPECT_EQ(big.adult_train, size_t{10000000});
  EXPECT_LT(small.adult_train, paper.adult_train);
  EXPECT_LT(small.adult_query, paper.adult_query);
  EXPECT_LT(paper.adult_query, big.adult_query);
  EXPECT_LE(small.point_complaints, paper.point_complaints);
  EXPECT_GE(small.point_complaints, size_t{8});
  EXPECT_LE(big.point_complaints, size_t{4096});
  // Floors keep tiny scales trainable instead of degenerate.
  EXPECT_GE(DimsFor(1e-4).adult_train, size_t{512});
  EXPECT_GE(DimsFor(1e-4).adult_query, size_t{256});
}

TEST(ScaleGenTest, WorkloadShapeFollowsDims) {
  const ScaleConfig config = SmallConfig(1);
  const ScaleDims dims = DimsFor(config.scale);
  const ScaledWorkload adult = ScaledAdult(config);
  EXPECT_EQ(adult.train.size(), dims.adult_train);
  ASSERT_EQ(adult.tables.size(), 1u);
  EXPECT_EQ(adult.tables[0].table.num_rows(), dims.adult_query);
  ASSERT_EQ(adult.workload.size(), 3u);
  EXPECT_EQ(adult.workload[2].complaints.size(), dims.point_complaints);
  EXPECT_EQ(adult.workload[2].query, nullptr) << "pure point-complaint entry";
  for (const ComplaintSpec& c : adult.workload[2].complaints) {
    EXPECT_EQ(c.kind, ComplaintSpec::Kind::kPoint);
  }
}

}  // namespace
}  // namespace scale
}  // namespace rain
