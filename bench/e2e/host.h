#ifndef RAIN_BENCH_E2E_HOST_H_
#define RAIN_BENCH_E2E_HOST_H_

/// The host meta row every bench_e2e run records, so a timing is never
/// read without the machine context that produced it.

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/e2e/trace.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace rain {
namespace bench {
namespace e2e {

inline int Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n >= 1 ? static_cast<int>(n) : 1;
}

/// Worker count the multi-threaded workloads use: min(4, nproc).
inline int LoadThreads() { return std::min(4, Nproc()); }

/// A dependent floating-point chain: pure core time, no memory traffic.
inline double BusyWork(long iters) {
  double x = 1.0;
  for (long i = 0; i < iters; ++i) x = x * 0.999999937 + 1e-7;
  return x;
}

/// Effective parallelism: the same busy work on one thread, then on
/// `threads` threads at once; `threads` x t1 / t_threads is the number of
/// cores the host really delivers (a shared or throttled host reads lower
/// than nproc). Single trials swing widely on a shared host, so this is
/// the median of three.
inline double EffectiveCores(int threads) {
  constexpr long kIters = 40'000'000;
  volatile double sink = 0.0;
  std::vector<double> trials;
  for (int trial = 0; trial < 3; ++trial) {
    const Clock::time_point a = Clock::now();
    sink = BusyWork(kIters);
    const double one = Seconds(a, Clock::now());
    std::vector<std::thread> pool;
    std::vector<double> out(static_cast<size_t>(threads), 0.0);
    const Clock::time_point b = Clock::now();
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&out, t] { out[static_cast<size_t>(t)] = BusyWork(kIters); });
    }
    for (std::thread& t : pool) t.join();
    const double many = Seconds(b, Clock::now());
    sink = sink + out[0];
    trials.push_back(many > 0.0 ? threads * one / many : 0.0);
  }
  std::sort(trials.begin(), trials.end());
  return trials[1];
}

/// The meta row as the body of a JSON object.
inline std::string HostMetaJson() {
  auto env = [](const char* name) {
    const char* v = std::getenv(name);
    return v == nullptr ? std::string("null") : "\"" + std::string(v) + "\"";
  };
  return StrFormat(
      "\"nproc\": %d, \"load_threads\": %d, \"pool_threads\": %d, "
      "\"RAIN_NUM_THREADS\": %s, \"RAIN_SIMD\": %s, \"simd_tier\": \"%s\", "
      "\"build_type\": \"%s\", \"effective_cores\": %.3f",
      Nproc(), LoadThreads(), ThreadPool::Global().num_threads(),
      env("RAIN_NUM_THREADS").c_str(), env("RAIN_SIMD").c_str(), SimdBackend(),
      RAIN_E2E_BUILD_TYPE, EffectiveCores(LoadThreads()));
}

}  // namespace e2e
}  // namespace bench
}  // namespace rain

#endif  // RAIN_BENCH_E2E_HOST_H_
