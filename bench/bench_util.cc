#include "bench/bench_util.h"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "tensor/vector_ops.h"

namespace rain {
namespace bench {

bool ProgressRequested() {
  const char* env = std::getenv("RAIN_BENCH_PROGRESS");
  return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

int BenchThreads() {
  if (const char* env = std::getenv("RAIN_BENCH_THREADS")) {
    char* end = nullptr;
    errno = 0;
    const long n = std::strtol(env, &end, 10);
    const bool numeric = end != env && end != nullptr && *end == '\0';
    if (!numeric || errno == ERANGE || n < 1 || n > INT_MAX) {
      std::fprintf(stderr,
                   "RAIN_BENCH_THREADS='%s' is invalid: expected a positive "
                   "decimal worker count (e.g. RAIN_BENCH_THREADS=8); unset it "
                   "to use the hardware concurrency\n",
                   env);
      std::exit(2);
    }
    return static_cast<int>(n);
  }
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw >= 1 ? hw : 1;
}

const char* SimdBackend() { return vec::simd::Backend(); }

bool OneCoreMachine() {
  static const bool one_core = [] {
    const unsigned hc = std::thread::hardware_concurrency();
    if (hc > 1) return false;
    std::fprintf(
        stderr,
        "*** WARNING: hardware_concurrency=%u — this is a single-core "
        "machine.\n"
        "*** Parallel speedup columns will degenerate to ~1x and wall-clock "
        "baselines\n"
        "*** recorded here are NOT comparable to multi-core baselines. JSON "
        "rows will\n"
        "*** carry \"one_core\": true so downstream tooling can tell them "
        "apart.\n",
        hc);
    return true;
  }();
  return one_core;
}

void ProgressObserver::OnIterationStart(int iteration, const DebugReport& report) {
  std::fprintf(stderr, "[%s] iter %d start (|D|=%zu)\n", method_.c_str(), iteration,
               report.deletions.size());
}

void ProgressObserver::OnPhaseComplete(int iteration, DebugPhase phase,
                                       double seconds) {
  std::fprintf(stderr, "[%s] iter %d %-5s %.4fs\n", method_.c_str(), iteration,
               DebugPhaseName(phase), seconds);
}

MethodRun RunMethod(
    const std::string& method,
    const std::function<std::unique_ptr<Query2Pipeline>()>& make_pipeline,
    const std::vector<QueryComplaints>& workload,
    const std::vector<size_t>& corrupted, DebugConfig config) {
  MethodRun run;
  run.method = method;
  std::unique_ptr<Query2Pipeline> pipeline = make_pipeline();
  ProgressObserver progress(method);
  DebugSessionBuilder builder(pipeline.get());
  builder.config(config).ranker(method).workload(workload);
  if (ProgressRequested()) {
    builder.set_execution(ExecutionOptions()
                              .set_parallelism(config.parallelism)
                              .add_observer(&progress));
  }
  auto session = builder.Build();
  if (!session.ok()) {
    run.status = session.status();
    return run;
  }
  auto report = (*session)->RunToCompletion();
  if (!report.ok()) {
    run.status = report.status();
    return run;
  }
  run.ok = true;
  run.deletions = report->deletions;
  run.iterations = report->iterations;
  run.recall = RecallCurve(run.deletions, corrupted);
  run.auccr = Auccr(run.recall);
  return run;
}

std::vector<std::string> RecallHeader() {
  return {"r@10%", "r@25%", "r@50%", "r@75%", "r@100%", "AUCCR"};
}

std::vector<std::string> RecallRow(const MethodRun& run) {
  if (!run.ok || run.recall.empty()) {
    return {"-", "-", "-", "-", "-", run.ok ? "0.000" : "fail"};
  }
  auto at = [&](double frac) {
    size_t k = static_cast<size_t>(frac * run.recall.size());
    if (k == 0) k = 1;
    return TablePrinter::Num(run.recall[k - 1], 3);
  };
  return {at(0.10), at(0.25), at(0.50),
          at(0.75), at(1.00), TablePrinter::Num(run.auccr, 3)};
}

PhaseMeans MeanPhases(const MethodRun& run) {
  PhaseMeans m;
  if (run.iterations.empty()) return m;
  for (const IterationStats& it : run.iterations) {
    m.train += it.train_seconds;
    m.query += it.query_seconds;
    m.encode += it.encode_seconds;
    m.rank += it.rank_seconds;
  }
  const double n = static_cast<double>(run.iterations.size());
  m.train /= n;
  m.query /= n;
  m.encode /= n;
  m.rank /= n;
  return m;
}

void EmitTable(const std::string& title, const TablePrinter& table) {
  std::printf("\n== %s ==\n%s", title.c_str(), table.ToText().c_str());
  std::printf("-- csv --\n%s", table.ToCsv().c_str());
  std::fflush(stdout);
}

bool QualityGate::Requested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) return true;
  }
  return false;
}

void QualityGate::Expect(bool ok, const std::string& what) {
  std::printf("check %-64s %s\n", what.c_str(), ok ? "PASS" : "FAIL");
  if (!ok) ++failures_;
}

EmitJson::EmitJson(std::string path) : path_(std::move(path)) {
  file_ = std::fopen(path_.c_str(), "w");
  if (file_ != nullptr) std::fprintf(file_, "[\n");
}

EmitJson::~EmitJson() { Close(); }

void EmitJson::Row(const std::string& object) {
  if (file_ == nullptr) return;
  // Comma-prefix style: each row is written complete, the separator
  // lands when (and only when) a next row shows up. Keeps the file a
  // valid prefix of the final array at every point in a long sweep.
  std::fprintf(file_, "%s  %s", first_ ? "" : ",\n", object.c_str());
  first_ = false;
}

void EmitJson::Close() {
  if (file_ == nullptr) return;
  std::fprintf(file_, first_ ? "]\n" : "\n]\n");
  std::fclose(file_);
  file_ = nullptr;
}

}  // namespace bench
}  // namespace rain
