#ifndef RAIN_BENCH_E2E_TRACE_H_
#define RAIN_BENCH_E2E_TRACE_H_

/// Span recording for the traced bench_e2e run. Spans are timed from
/// outside the program — around calls into each layer's public functions,
/// and from `DebugObserver::OnPhaseComplete` callbacks — kept in memory,
/// and written once at the end as a Chrome trace-event file (open it at
/// https://ui.perfetto.dev or chrome://tracing).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/debugger.h"
#include "core/session.h"

namespace rain {
namespace bench {
namespace e2e {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One complete span. `name` is "<layer>.<what>" ("ml.train",
/// "influence.rank", ...); `lane` becomes the trace thread id, one per
/// session or tenant, so a lane's spans nest by time.
struct Span {
  std::string name;
  int lane = 0;
  Clock::time_point start;
  Clock::time_point end;
  /// Body of a JSON object (no braces), shown as the span's args.
  std::string args;
};

/// Thread-safe in-memory span store (serve turns end on driver threads).
class Tracer {
 public:
  void Add(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  void NameLane(int lane, std::string name) {
    std::lock_guard<std::mutex> lock(mu_);
    lane_names_[lane] = std::move(name);
  }

  /// Writes {"traceEvents": [...]}: one "X" (complete) event per span,
  /// microseconds since the tracer was created, plus lane names.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    bool first = true;
    for (const auto& [lane, name] : lane_names_) {
      std::fprintf(f,
                   "%s{\"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"name\": "
                   "\"thread_name\", \"args\": {\"name\": \"%s\"}}",
                   first ? "" : ",\n", lane, name.c_str());
      first = false;
    }
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "%s{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"name\": \"%s\", "
                   "\"cat\": \"%s\", \"ts\": %.3f, \"dur\": %.3f, \"args\": {%s}}",
                   first ? "" : ",\n", s.lane, s.name.c_str(),
                   s.name.substr(0, s.name.find('.')).c_str(),
                   Seconds(epoch_, s.start) * 1e6, Seconds(s.start, s.end) * 1e6,
                   s.args.c_str());
      first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<int, std::string> lane_names_;
};

/// Turns phase callbacks into spans: end = callback time, start = end -
/// the phase seconds the session reports. Per-phase seconds and the
/// phase intervals are kept for the per-layer totals and the coverage
/// check. Callbacks arrive on the stepping thread (a serve driver for
/// hosted tenants) while the bench reads from its own, hence the mutex.
class PhaseSpanObserver : public DebugObserver {
 public:
  /// `encode_layer` names the layer the ranker's encode step belongs to
  /// ("ilp" for TwoStep, "relax" otherwise; the baselines encode nothing).
  PhaseSpanObserver(Tracer* tracer, int lane, std::string encode_layer)
      : tracer_(tracer), lane_(lane), encode_layer_(std::move(encode_layer)) {}

  void OnPhaseComplete(int iteration, DebugPhase phase, double seconds) override {
    static const char* const kNames[] = {"ml.train", "provenance.bind",
                                         "influence.rank_phase", "core.fix"};
    const Clock::time_point end = Clock::now();
    const Clock::time_point start =
        end - std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
    std::lock_guard<std::mutex> lock(mu_);
    const size_t p = static_cast<size_t>(phase);
    phase_seconds_[p] += seconds;
    turn_seconds_ += seconds;
    intervals_.emplace_back(start, end);
    if (phase == DebugPhase::kRank) rank_spans_[iteration] = {start, end};
    tracer_->Add(Span{kNames[p], lane_, start, end,
                      "\"iteration\": " + std::to_string(iteration)});
  }

  double phase_seconds(DebugPhase phase) const {
    std::lock_guard<std::mutex> lock(mu_);
    return phase_seconds_[static_cast<size_t>(phase)];
  }

  /// Phase seconds delivered since the previous call (one serve turn).
  double TakeTurnSeconds() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(turn_seconds_, 0.0);
  }

  std::vector<std::pair<Clock::time_point, Clock::time_point>> intervals() const {
    std::lock_guard<std::mutex> lock(mu_);
    return intervals_;
  }

  /// Splits each recorded rank-phase span into its encode and rank
  /// children, using the finished report's per-iteration seconds (the
  /// ranker encodes first, then solves).
  void AddRankChildren(const std::vector<IterationStats>& iterations) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [iteration, span] : rank_spans_) {
      if (iteration < 0 || static_cast<size_t>(iteration) >= iterations.size()) continue;
      const IterationStats& it = iterations[static_cast<size_t>(iteration)];
      const Clock::time_point mid =
          span.first + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(it.encode_seconds));
      const std::string args = "\"iteration\": " + std::to_string(iteration);
      tracer_->Add(Span{encode_layer_ + ".encode", lane_, span.first, mid, args});
      tracer_->Add(Span{"influence.rank", lane_, mid, span.second, args});
    }
  }

 private:
  Tracer* tracer_;
  const int lane_;
  const std::string encode_layer_;
  mutable std::mutex mu_;
  double phase_seconds_[4] = {0.0, 0.0, 0.0, 0.0};
  double turn_seconds_ = 0.0;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> intervals_;
  std::map<int, std::pair<Clock::time_point, Clock::time_point>> rank_spans_;
};

/// Share of [start, end] covered by the union of `intervals`.
inline double CoveredFraction(
    std::vector<std::pair<Clock::time_point, Clock::time_point>> intervals,
    Clock::time_point start, Clock::time_point end) {
  const double total = Seconds(start, end);
  if (total <= 0.0) return 0.0;
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  Clock::time_point reach = start;
  for (auto [a, b] : intervals) {
    a = std::max(a, reach);
    b = std::min(b, end);
    if (b > a) {
      covered += Seconds(a, b);
      reach = b;
    }
  }
  return covered / total;
}

}  // namespace e2e
}  // namespace bench
}  // namespace rain

#endif  // RAIN_BENCH_E2E_TRACE_H_
