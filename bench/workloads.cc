#include "bench/workloads.h"

#include <memory>

#include "common/logging.h"
#include "common/rng.h"
#include "data/corruption.h"
#include "ml/logistic_regression.h"
#include "ml/mlp.h"
#include "ml/softmax_regression.h"
#include "sql/planner.h"

namespace rain {
namespace bench {
namespace {

std::unique_ptr<Model> MakeModel(size_t features, int classes, bool use_mlp) {
  if (use_mlp) return std::make_unique<Mlp>(features, 24, classes, /*seed=*/42);
  if (classes == 2) return std::make_unique<LogisticRegression>(features);
  return std::make_unique<SoftmaxRegression>(features, classes);
}

/// Builds a single-table pipeline factory over copies of the inputs.
PipelineFactory SingleTableFactory(std::string table_name, Table table,
                                   Dataset query_features, Dataset train,
                                   bool use_mlp, TrainConfig tc = TrainConfig()) {
  auto shared_table = std::make_shared<Table>(std::move(table));
  auto shared_query = std::make_shared<Dataset>(std::move(query_features));
  auto shared_train = std::make_shared<Dataset>(std::move(train));
  return [=]() {
    Catalog catalog;
    RAIN_CHECK(catalog.AddTable(table_name, *shared_table, *shared_query).ok());
    auto model =
        MakeModel(shared_train->num_features(), shared_train->num_classes(), use_mlp);
    return std::make_unique<Query2Pipeline>(std::move(catalog), std::move(model),
                                            *shared_train, tc);
  };
}

double RunScalarQuery(Query2Pipeline* pipeline, const std::string& sql) {
  auto r = pipeline->ExecuteSql(sql, /*debug=*/false);
  RAIN_CHECK(r.ok()) << r.status().ToString();
  RAIN_CHECK(r->table.num_rows() == 1);
  return *r->table.rows[0].back().ToNumeric();
}

PlanPtr MustPlan(const Catalog& catalog, const std::string& sql) {
  auto plan = sql::PlanQuery(sql, catalog);
  RAIN_CHECK(plan.ok()) << plan.status().ToString();
  return *plan;
}

}  // namespace

Experiment DblpCount(double corruption, size_t train_size, size_t query_size,
                     uint64_t seed, bool use_mlp) {
  DblpConfig cfg;
  cfg.train_size = train_size;
  cfg.query_size = query_size;
  cfg.seed = seed;
  DblpData data = MakeDblp(cfg);

  const std::string sql = "SELECT COUNT(*) AS cnt FROM dblp WHERE predict(*) = 1";

  Experiment exp;
  {
    auto clean = SingleTableFactory("dblp", data.query_table, data.query, data.train,
                                    use_mlp)();
    RAIN_CHECK(clean->Train().ok());
    exp.clean_value = RunScalarQuery(clean.get(), sql);
  }

  Rng rng(seed + 1);
  exp.corrupted =
      CorruptLabels(&data.train, IndicesWithLabel(data.train, 1), corruption, 0, &rng);
  exp.make_pipeline = SingleTableFactory("dblp", data.query_table, data.query,
                                         data.train, use_mlp);
  {
    auto dirty = exp.make_pipeline();
    RAIN_CHECK(dirty->Train().ok());
    exp.corrupted_value = RunScalarQuery(dirty.get(), sql);
    QueryComplaints qc;
    qc.query = MustPlan(dirty->catalog(), sql);
    qc.complaints = {ComplaintSpec::ValueEq("cnt", exp.clean_value)};
    exp.workload = {qc};
  }
  return exp;
}

Experiment EnronCount(const std::string& token, size_t train_size, size_t query_size,
                      uint64_t seed) {
  EnronConfig cfg;
  cfg.train_size = train_size;
  cfg.query_size = query_size;
  cfg.seed = seed;
  EnronData data = MakeEnron(cfg);

  const std::string sql =
      "SELECT COUNT(*) AS cnt FROM enron WHERE predict(*) = 1 AND text LIKE '%" +
      token + "%'";

  Experiment exp;
  {
    auto clean = SingleTableFactory("enron", data.query_table, data.query, data.train,
                                    /*use_mlp=*/false)();
    RAIN_CHECK(clean->Train().ok());
    exp.clean_value = RunScalarQuery(clean.get(), sql);
  }
  exp.corrupted = CorruptAll(&data.train, TrainEmailsContaining(data, token), 1);
  exp.make_pipeline = SingleTableFactory("enron", data.query_table, data.query,
                                         data.train, /*use_mlp=*/false);
  {
    auto dirty = exp.make_pipeline();
    RAIN_CHECK(dirty->Train().ok());
    exp.corrupted_value = RunScalarQuery(dirty.get(), sql);
    QueryComplaints qc;
    qc.query = MustPlan(dirty->catalog(), sql);
    qc.complaints = {ComplaintSpec::ValueEq("cnt", exp.clean_value)};
    exp.workload = {qc};
  }
  return exp;
}

Experiment MnistCount(double corruption, size_t train_size, size_t query_size,
                      bool use_mlp, uint64_t seed) {
  MnistConfig cfg;
  cfg.train_size = train_size;
  cfg.query_size = query_size;
  cfg.seed = seed;
  MnistData data = MakeMnist(cfg);

  Table table(Schema({Field{"id", DataType::kInt64, ""},
                      Field{"truth", DataType::kInt64, ""}}));
  for (size_t i = 0; i < data.query.size(); ++i) {
    table.AppendRowUnchecked({Value(static_cast<int64_t>(i)),
                              Value(static_cast<int64_t>(data.query.label(i)))});
  }
  const std::string sql = "SELECT COUNT(*) AS cnt FROM mnist WHERE predict(*) = 1";

  TrainConfig tc;
  tc.max_iters = use_mlp ? 150 : 300;

  Experiment exp;
  {
    auto clean =
        SingleTableFactory("mnist", table, data.query, data.train, use_mlp, tc)();
    RAIN_CHECK(clean->Train().ok());
    exp.clean_value = RunScalarQuery(clean.get(), sql);
  }
  Rng rng(seed + 1);
  exp.corrupted =
      CorruptLabels(&data.train, IndicesWithLabel(data.train, 1), corruption, 7, &rng);
  exp.make_pipeline =
      SingleTableFactory("mnist", table, data.query, data.train, use_mlp, tc);
  {
    auto dirty = exp.make_pipeline();
    RAIN_CHECK(dirty->Train().ok());
    exp.corrupted_value = RunScalarQuery(dirty.get(), sql);
    QueryComplaints qc;
    qc.query = MustPlan(dirty->catalog(), sql);
    qc.complaints = {ComplaintSpec::ValueEq("cnt", exp.clean_value)};
    exp.workload = {qc};
  }
  return exp;
}

Experiment MnistJoin(const MnistJoinOptions& options) {
  MnistConfig cfg;
  cfg.train_size = options.train_size;
  cfg.query_size = options.query_size;
  cfg.seed = options.seed;
  MnistData data = MakeMnist(cfg);

  MnistSubset left = SelectByTrueDigit(data, options.left_digits, options.max_per_digit);
  MnistSubset right = SelectByTrueDigit(data, options.right_digits,
                                        options.max_per_digit, left.source_rows);
  Rng rng(options.seed + 2);
  if (options.mix_rate > 0.0) {
    MixSubsets(&left, &right, data, /*digit=*/1, options.mix_rate, &rng);
  }

  const std::string join_sql =
      "SELECT * FROM lefts L, rights R WHERE predict(L.*) = predict(R.*)";
  const std::string count_sql =
      "SELECT COUNT(*) AS cnt FROM lefts L, rights R WHERE predict(L.*) = predict(R.*)";

  auto factory = [&](const Dataset& train) -> PipelineFactory {
    auto lt = std::make_shared<Table>(left.table);
    auto lf = std::make_shared<Dataset>(left.features);
    auto rt = std::make_shared<Table>(right.table);
    auto rf = std::make_shared<Dataset>(right.features);
    auto shared_train = std::make_shared<Dataset>(train);
    return [=]() {
      Catalog catalog;
      RAIN_CHECK(catalog.AddTable("lefts", *lt, *lf).ok());
      RAIN_CHECK(catalog.AddTable("rights", *rt, *rf).ok());
      auto model = MakeModel(shared_train->num_features(), 10, false);
      return std::make_unique<Query2Pipeline>(std::move(catalog), std::move(model),
                                              *shared_train);
    };
  };

  Experiment exp;
  {
    auto clean = factory(data.train)();
    RAIN_CHECK(clean->Train().ok());
    exp.clean_value = RunScalarQuery(clean.get(), count_sql);
  }
  exp.corrupted =
      CorruptLabels(&data.train, IndicesWithLabel(data.train, 1), options.corruption,
                    7, &rng);
  exp.make_pipeline = factory(data.train);

  auto dirty = exp.make_pipeline();
  RAIN_CHECK(dirty->Train().ok());
  exp.corrupted_value = RunScalarQuery(dirty.get(), count_sql);

  if (options.count_complaint) {
    QueryComplaints qc;
    qc.query = MustPlan(dirty->catalog(), count_sql);
    qc.complaints = {ComplaintSpec::ValueEq("cnt", exp.clean_value)};
    exp.workload = {qc};
    return exp;
  }

  // Q3 tuple complaints over the offending join rows: rows where one side
  // is correctly predicted and the other is not (Section 6.3), plus the
  // Figure 7 replacement of a fraction of them by point complaints.
  auto joined = dirty->Execute(MustPlan(dirty->catalog(), join_sql), /*debug=*/false);
  RAIN_CHECK(joined.ok()) << joined.status().ToString();
  QueryComplaints tuple_qc;
  tuple_qc.query = MustPlan(dirty->catalog(), join_sql);
  QueryComplaints point_qc;  // no query needed

  const int left_table_id = dirty->catalog().Find("lefts")->table_id;
  const int right_table_id = dirty->catalog().Find("rights")->table_id;
  std::vector<uint8_t> row_used(left.source_rows.size() + right.source_rows.size(), 0);
  for (size_t row = 0; row < joined->table.num_rows(); ++row) {
    if (!joined->table.concrete[row]) continue;
    const int64_t lid = joined->table.rows[row][0].AsInt64();
    const int64_t ltruth = joined->table.rows[row][1].AsInt64();
    const int64_t rid = joined->table.rows[row][2].AsInt64();
    const int64_t rtruth = joined->table.rows[row][3].AsInt64();
    // Subset-local rows for prediction lookup.
    int lrow = -1, rrow = -1;
    for (size_t i = 0; i < left.source_rows.size(); ++i) {
      if (static_cast<int64_t>(left.source_rows[i]) == lid) lrow = static_cast<int>(i);
    }
    for (size_t i = 0; i < right.source_rows.size(); ++i) {
      if (static_cast<int64_t>(right.source_rows[i]) == rid) rrow = static_cast<int>(i);
    }
    RAIN_CHECK(lrow >= 0 && rrow >= 0);
    const int lpred = dirty->predictions().PredictedClass(left_table_id, lrow);
    const int rpred = dirty->predictions().PredictedClass(right_table_id, rrow);
    const bool left_wrong = lpred != ltruth;
    const bool right_wrong = rpred != rtruth;
    if (left_wrong == right_wrong) continue;  // need exactly one wrong side
    if (options.sparse_tuple_complaints) {
      const size_t wrong_slot =
          left_wrong ? static_cast<size_t>(lrow)
                     : left.source_rows.size() + static_cast<size_t>(rrow);
      if (row_used[wrong_slot]) continue;
      row_used[wrong_slot] = 1;
    }

    if (rng.Bernoulli(options.point_complaint_fraction)) {
      if (left_wrong) {
        point_qc.complaints.push_back(
            ComplaintSpec::Point("lefts", lrow, static_cast<int>(ltruth)));
      } else {
        point_qc.complaints.push_back(
            ComplaintSpec::Point("rights", rrow, static_cast<int>(rtruth)));
      }
    } else {
      tuple_qc.complaints.push_back(ComplaintSpec::TupleNotExists(
          {"L.id", "R.id"},
          std::vector<Value>{Value(lid), Value(rid)}));
    }
  }
  if (!tuple_qc.complaints.empty()) exp.workload.push_back(tuple_qc);
  if (!point_qc.complaints.empty()) exp.workload.push_back(point_qc);
  return exp;
}

Experiment AdultMultiQuery(const std::string& which, double corruption,
                           size_t train_size, size_t query_size, uint64_t seed) {
  AdultConfig cfg;
  cfg.train_size = train_size;
  cfg.query_size = query_size;
  cfg.seed = seed;
  AdultData data = MakeAdult(cfg);

  const std::string gender_sql =
      "SELECT gender, AVG(predict(*)) AS avg_income FROM adult GROUP BY gender";
  const std::string age_sql =
      "SELECT agedecade, AVG(predict(*)) AS avg_income FROM adult GROUP BY agedecade";

  auto group_value = [](Query2Pipeline* p, const std::string& sql,
                        const Value& key) -> double {
    auto r = p->ExecuteSql(sql, false);
    RAIN_CHECK(r.ok()) << r.status().ToString();
    for (const auto& row : r->table.rows) {
      if (row[0] == key) return *row[1].ToNumeric();
    }
    RAIN_CHECK(false) << "group not found";
    return 0.0;
  };

  Experiment exp;
  double male_target = 0.0, aged_target = 0.0;
  {
    auto clean = SingleTableFactory("adult", data.query_table, data.query, data.train,
                                    /*use_mlp=*/false)();
    RAIN_CHECK(clean->Train().ok());
    male_target = group_value(clean.get(), gender_sql, Value(std::string("Male")));
    aged_target = group_value(clean.get(), age_sql, Value(int64_t{4}));
    exp.clean_value = male_target;
  }

  Rng rng(seed + 1);
  exp.corrupted =
      CorruptLabels(&data.train, AdultCorruptionCandidates(data), corruption, 1, &rng);
  exp.make_pipeline = SingleTableFactory("adult", data.query_table, data.query,
                                         data.train, /*use_mlp=*/false);
  auto dirty = exp.make_pipeline();
  RAIN_CHECK(dirty->Train().ok());
  exp.corrupted_value =
      group_value(dirty.get(), gender_sql, Value(std::string("Male")));

  QueryComplaints gender_qc;
  gender_qc.query = MustPlan(dirty->catalog(), gender_sql);
  gender_qc.complaints = {ComplaintSpec::ValueEq("avg_income", male_target,
                                                 {Value(std::string("Male"))})};
  QueryComplaints age_qc;
  age_qc.query = MustPlan(dirty->catalog(), age_sql);
  age_qc.complaints = {
      ComplaintSpec::ValueEq("avg_income", aged_target, {Value(int64_t{4})})};

  if (which == "gender" || which == "both") exp.workload.push_back(gender_qc);
  if (which == "age" || which == "both") exp.workload.push_back(age_qc);
  RAIN_CHECK(!exp.workload.empty()) << "unknown Adult variant '" << which << "'";
  return exp;
}

/// Every catalog table (with or without predict() features) is
/// registered, and the factory hands out pipelines over shared copies of
/// the corrupted training set — same start state for every method, as
/// elsewhere.
Experiment ScaledAdultExperiment(const scale::ScaleConfig& config, TrainConfig tc) {
  scale::ScaledWorkload workload = scale::ScaledAdult(config);
  Experiment exp;
  exp.corrupted = std::move(workload.corrupted);
  exp.workload = std::move(workload.workload);
  auto tables =
      std::make_shared<std::vector<scale::ScaledTable>>(std::move(workload.tables));
  auto shared_train = std::make_shared<Dataset>(std::move(workload.train));
  exp.make_pipeline = [tables, shared_train, tc]() {
    Catalog catalog;
    for (const scale::ScaledTable& t : *tables) {
      RAIN_CHECK(catalog.AddTable(t.name, t.table, t.features).ok());
    }
    auto model = MakeModel(shared_train->num_features(),
                           shared_train->num_classes(), /*use_mlp=*/false);
    return std::make_unique<Query2Pipeline>(std::move(catalog), std::move(model),
                                            *shared_train, tc);
  };
  return exp;
}

}  // namespace bench
}  // namespace rain
