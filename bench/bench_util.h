#ifndef RAIN_BENCH_BENCH_UTIL_H_
#define RAIN_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/table_printer.h"
#include "core/debugger.h"
#include "core/metrics.h"
#include "core/pipeline.h"
#include "core/ranker.h"
#include "core/session.h"

namespace rain {
namespace bench {

/// Streams per-phase timings to stderr while a debug session runs — the
/// live view of the Fig. 5/12 breakdowns. RunMethod attaches one
/// automatically when the RAIN_BENCH_PROGRESS environment variable is a
/// non-empty value other than "0".
class ProgressObserver : public DebugObserver {
 public:
  explicit ProgressObserver(std::string method) : method_(std::move(method)) {}
  void OnIterationStart(int iteration, const DebugReport& report) override;
  void OnPhaseComplete(int iteration, DebugPhase phase, double seconds) override;

 private:
  std::string method_;
};

/// True when RAIN_BENCH_PROGRESS requests live phase streaming.
bool ProgressRequested();

/// \brief Worker count for bench drivers: the RAIN_BENCH_THREADS
/// environment variable when set, else the hardware concurrency
/// (minimum 1).
///
/// The variable is validated strictly: a value that is not a plain
/// positive decimal integer (non-numeric, trailing garbage, zero,
/// negative, or out of range) aborts the driver with a clear message on
/// stderr instead of silently falling back — a typo'd sweep must not
/// masquerade as a hardware-concurrency run.
int BenchThreads();

/// \brief True when the machine reports a single hardware thread.
///
/// The first call prints a loud warning to stderr (parallel speedups
/// degenerate to ~1x, wall-clock baselines are incomparable to multi-core
/// ones). Bench drivers that emit JSON rows should include
/// `"one_core": true` in every row when this returns true, so recorded
/// baselines are recognizable.
bool OneCoreMachine();

/// \brief The active vec::simd backend name ("avx512", "avx2-fma",
/// "scalar") for JSON meta rows.
///
/// Timings depend on the SIMD tier the dispatcher picked (and on any
/// RAIN_SIMD cap in effect), so recorded baselines must say which tier
/// produced them — same reasoning as the one-core tag.
const char* SimdBackend();

/// One debugger run of one method. `ok == false` records solver/budget
/// failures (e.g. the TwoStep ILP exhausting its node budget, Section
/// 6.3); `status` then says which.
struct MethodRun {
  std::string method;
  bool ok = false;
  Status status;
  std::vector<size_t> deletions;
  std::vector<IterationStats> iterations;
  std::vector<double> recall;  // vs the experiment's corruption set
  double auccr = 0.0;
};

/// Runs `method` ("loss", "infloss", "twostep", "holistic") on a fresh
/// pipeline produced by `make_pipeline` against `workload`, evaluating
/// the deletion sequence against `corrupted`.
MethodRun RunMethod(
    const std::string& method,
    const std::function<std::unique_ptr<Query2Pipeline>()>& make_pipeline,
    const std::vector<QueryComplaints>& workload,
    const std::vector<size_t>& corrupted, DebugConfig config);

/// Sampled recall@k columns (k at 10%, 25%, 50%, 75%, 100% of K) for
/// compact paper-style tables.
std::vector<std::string> RecallRow(const MethodRun& run);
std::vector<std::string> RecallHeader();

/// Mean per-iteration phase seconds across a run.
struct PhaseMeans {
  double train = 0.0, query = 0.0, encode = 0.0, rank = 0.0;
};
PhaseMeans MeanPhases(const MethodRun& run);

/// Prints the table as text and appends its CSV to stdout (tagged).
void EmitTable(const std::string& title, const TablePrinter& table);

/// \brief Pass/fail bookkeeping for a driver's `--check` quality gate:
/// the paper's qualitative claims asserted on the printed numbers. The
/// checks print after the tables, so a run without `--check` keeps its
/// stdout unchanged.
class QualityGate {
 public:
  /// True when `--check` is among the arguments.
  static bool Requested(int argc, char** argv);
  /// Prints one "check ... PASS|FAIL" line and records a failure.
  void Expect(bool ok, const std::string& what);
  /// Process exit status: 0 when every expectation held, else 1.
  int ExitCode() const { return failures_ == 0 ? 0 : 1; }

 private:
  int failures_ = 0;
};

/// \brief Streaming writer for the BENCH_*.json row arrays.
///
/// Every bench driver records machine-readable rows next to its printed
/// table (baselines under bench/baselines/). This helper owns the array
/// framing so drivers only format row objects:
///
///     bench::EmitJson json("BENCH_foo.json");
///     json.Row(StrFormat("{\"threads\": %d, \"s\": %.6f}", t, s));
///     json.Close();
///
/// Output is byte-identical to the hand-rolled emitters it replaced:
/// `[\n` header, rows two-space indented and comma-separated, `\n]\n`
/// footer. A failed open degrades gracefully (ok() false, every call a
/// no-op) — the bench still prints its tables, as before.
class EmitJson {
 public:
  explicit EmitJson(std::string path);
  ~EmitJson();  // Close()s if the caller did not.
  EmitJson(const EmitJson&) = delete;
  EmitJson& operator=(const EmitJson&) = delete;

  /// False when the file could not be opened (or after Close()).
  bool ok() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

  /// Appends one row. `object` must be a complete JSON object literal
  /// (typically built with StrFormat); the caller owns field formatting.
  void Row(const std::string& object);

  /// Writes the closing bracket and closes the file. Idempotent.
  void Close();

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  bool first_ = true;
};

}  // namespace bench
}  // namespace rain

#endif  // RAIN_BENCH_BENCH_UTIL_H_
