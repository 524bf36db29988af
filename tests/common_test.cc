#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <set>
#include <stdexcept>
#include <utility>

#include "common/cancellation.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"

namespace rain {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesRoundTripNames) {
  EXPECT_EQ(Status::NotFound("x").ToString(), "NotFound: x");
  EXPECT_EQ(Status::AlreadyExists("x").ToString(), "AlreadyExists: x");
  EXPECT_EQ(Status::OutOfRange("x").ToString(), "OutOfRange: x");
  EXPECT_EQ(Status::Unimplemented("x").ToString(), "Unimplemented: x");
  EXPECT_EQ(Status::Internal("x").ToString(), "Internal: x");
  EXPECT_EQ(Status::ResourceExhausted("x").ToString(), "ResourceExhausted: x");
  EXPECT_EQ(Status::ParseError("x").ToString(), "ParseError: x");
  EXPECT_EQ(Status::TypeError("x").ToString(), "TypeError: x");
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

Result<int> Doubled(int v) {
  RAIN_ASSIGN_OR_RETURN(int x, ParsePositive(v));
  return x * 2;
}

TEST(ResultTest, ValueAndStatusPaths) {
  Result<int> ok = ParsePositive(4);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 4);

  Result<int> err = ParsePositive(-1);
  ASSERT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsInvalidArgument());
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_FALSE(Doubled(0).ok());
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, UniformIntUnbiasedSmallRange) {
  Rng rng(9);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.UniformInt(5)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, BetaMeanMatches) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Beta(6.0, 2.0);
  EXPECT_NEAR(sum / n, 0.75, 0.01);  // alpha / (alpha + beta)
}

TEST(RngTest, BernoulliRate) {
  Rng rng(15);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.13);
  EXPECT_NEAR(hits / 20000.0, 0.13, 0.01);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(17);
  auto picks = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(picks.size(), 30u);
  std::set<size_t> uniq(picks.begin(), picks.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (size_t p : picks) EXPECT_LT(p, 100u);
}

TEST(RngTest, SampleMoreThanNClamps) {
  Rng rng(19);
  auto picks = rng.SampleWithoutReplacement(5, 50);
  EXPECT_EQ(picks.size(), 5u);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(21);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, ToLowerAsciiOnly) {
  EXPECT_EQ(ToLower("SeLeCt * FROM T1"), "select * from t1");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("he", "hello"));
  EXPECT_TRUE(EndsWith("hello", "llo"));
  EXPECT_FALSE(EndsWith("hello", "hell"));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  a b \t\n"), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

struct LikeCase {
  const char* text;
  const char* pattern;
  bool expected;
};

class LikeMatchTest : public ::testing::TestWithParam<LikeCase> {};

TEST_P(LikeMatchTest, Matches) {
  const LikeCase& c = GetParam();
  EXPECT_EQ(LikeMatch(c.text, c.pattern), c.expected)
      << "text='" << c.text << "' pattern='" << c.pattern << "'";
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, LikeMatchTest,
    ::testing::Values(
        LikeCase{"hello", "hello", true}, LikeCase{"hello", "h%", true},
        LikeCase{"hello", "%o", true}, LikeCase{"hello", "%ell%", true},
        LikeCase{"hello", "h_llo", true}, LikeCase{"hello", "h__lo", true},
        LikeCase{"hello", "h__l", false}, LikeCase{"hello", "hell_o", false},
        LikeCase{"hello", "%", true}, LikeCase{"", "%", true},
        LikeCase{"", "_", false}, LikeCase{"abc", "a%b%c", true},
        LikeCase{"abc", "%a%b%c%", true}, LikeCase{"axxbyyc", "a%b%c", true},
        LikeCase{"acb", "a%b%c", false},
        LikeCase{"tok1 http tok2", "%http%", true},
        LikeCase{"tok1 htt tok2", "%http%", false},
        LikeCase{"deal", "%deal%", true}, LikeCase{"deadline", "%deal%", false},
        LikeCase{"aaa", "a%a", true}, LikeCase{"ab", "ab%", true},
        LikeCase{"ab", "%%ab", true}, LikeCase{"mississippi", "%ss%ss%", true},
        LikeCase{"mississippi", "%ss%ss%ss%", false}));

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d + %d = %d", 1, 2, 3), "1 + 2 = 3");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("%s", "x"), "x");
}

TEST(TablePrinterTest, AlignedTextAndCsv) {
  TablePrinter t({"method", "auccr"});
  t.AddRow({"holistic", TablePrinter::Num(0.991, 3)});
  t.AddRow({"loss", TablePrinter::Num(0.35, 3)});
  const std::string text = t.ToText();
  EXPECT_NE(text.find("| method   | auccr |"), std::string::npos);
  EXPECT_NE(text.find("| holistic | 0.991 |"), std::string::npos);
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("method,auccr\n"), std::string::npos);
  EXPECT_NE(csv.find("holistic,0.991\n"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(RngTest, GaussianMatchesBoxMullerRecomputation) {
  // Regression for the C++17 port of rng.cc: Gaussian() must use pi (the
  // seed code pulled it from C++20 <numbers>). Recompute Box-Muller by hand
  // from the same uniform stream and require exact agreement.
  Rng gen(99);
  const double g = gen.Gaussian();
  Rng ref(99);
  const double u1 = ref.Uniform();
  const double u2 = ref.Uniform();
  constexpr double kPi = 3.14159265358979323846;
  const double expected =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * kPi * u2);
  EXPECT_DOUBLE_EQ(g, expected);
}

TEST(SplitSeedTest, DeterministicAndStreamSeparated) {
  EXPECT_EQ(SplitSeed(42, 0), SplitSeed(42, 0));
  std::set<uint64_t> seeds;
  for (uint64_t stream = 0; stream < 64; ++stream) {
    seeds.insert(SplitSeed(42, stream));
  }
  EXPECT_EQ(seeds.size(), 64u) << "streams must not collide";
  EXPECT_NE(SplitSeed(1, 0), SplitSeed(2, 0));
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  std::atomic<int> count{0};
  std::mutex mu;
  std::condition_variable cv;
  // Declared after the primitives its tasks use, so the pool joins its
  // workers before `cv` and `mu` are destroyed: the waiter can see the
  // count reach 100 before the last worker has taken `mu` to notify.
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] {
      if (count.fetch_add(1) + 1 == 100) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_one();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return count.load() == 100; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelForTest, MatchesSequentialForAnyParallelism) {
  const size_t n = 10000;
  std::vector<double> expected(n);
  for (size_t i = 0; i < n; ++i) expected[i] = static_cast<double>(i) * 0.5;
  for (int par : {1, 2, 4, 8, 13}) {
    std::vector<double> out(n, 0.0);
    ParallelFor(par, n, [&out](size_t begin, size_t end, size_t) {
      for (size_t i = begin; i < end; ++i) out[i] = static_cast<double>(i) * 0.5;
    });
    EXPECT_EQ(out, expected) << "parallelism=" << par;
  }
}

TEST(ParallelForTest, ChunksCoverRangeExactlyOnce) {
  const size_t n = 103;  // not divisible by the chunk count
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h = 0;
  ParallelFor(7, n, [&hits](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelForTest, PropagatesFirstException) {
  EXPECT_THROW(
      ParallelFor(4, 1000,
                  [](size_t begin, size_t, size_t) {
                    if (begin >= 250) throw std::runtime_error("chunk failed");
                  }),
      std::runtime_error);
  // The pool must stay usable after an exception.
  std::atomic<int> ok{0};
  ParallelForEach(4, 64, [&ok](size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 64);
}

TEST(ParallelForTest, NestedParallelSectionsDoNotDeadlock) {
  std::atomic<int> total{0};
  ParallelFor(4, 8, [&total](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) {
      ParallelForEach(4, 16, [&total](size_t) { total.fetch_add(1); });
    }
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ParallelChunkCountTest, PureFunctionOfKnobs) {
  // No grain (<= 1): min(parallelism, n), parallelism clamped to >= 1.
  EXPECT_EQ(ParallelChunkCount(4, 100, 0), 4u);
  EXPECT_EQ(ParallelChunkCount(4, 100, 1), 4u);
  EXPECT_EQ(ParallelChunkCount(8, 3, 1), 3u);
  EXPECT_EQ(ParallelChunkCount(-2, 100, 1), 1u);
  EXPECT_EQ(ParallelChunkCount(4, 0, 1), 0u);
  // Grain caps the chunk count at n / min_grain (floor), never below 1.
  EXPECT_EQ(ParallelChunkCount(8, 1000, 100), 8u);   // 1000/100 = 10 >= 8
  EXPECT_EQ(ParallelChunkCount(8, 1000, 250), 4u);   // 1000/250 = 4
  EXPECT_EQ(ParallelChunkCount(8, 1000, 300), 3u);   // floor(1000/300) = 3
  EXPECT_EQ(ParallelChunkCount(8, 1000, 1000), 1u);
  EXPECT_EQ(ParallelChunkCount(8, 99, 100), 1u);     // n < grain: one chunk
  EXPECT_EQ(ParallelChunkCount(8, 100000, 5000), 8u);
}

TEST(ParallelForGrainTest, ChunkedMatchesSequentialAtEveryGrain) {
  const size_t n = 10007;  // prime: uneven chunk boundaries at every layout
  std::vector<double> expected(n);
  for (size_t i = 0; i < n; ++i) expected[i] = static_cast<double>(i) * 1.25;
  for (int par : {2, 8}) {
    for (size_t grain : {size_t{1}, size_t{2}, size_t{64}, size_t{1000},
                         size_t{5000}, size_t{100000}}) {
      std::vector<double> out(n, 0.0);
      ParallelFor(par, n, grain, [&out](size_t begin, size_t end, size_t) {
        for (size_t i = begin; i < end; ++i)
          out[i] = static_cast<double>(i) * 1.25;
      });
      EXPECT_EQ(out, expected) << "parallelism=" << par << " grain=" << grain;
    }
  }
}

TEST(ParallelForGrainTest, EveryChunkMeetsTheGrainWhenSplit) {
  const size_t n = 1003;
  for (size_t grain : {size_t{2}, size_t{100}, size_t{400}}) {
    std::mutex mu;
    std::vector<size_t> sizes;
    ParallelFor(8, n, grain, [&](size_t begin, size_t end, size_t) {
      std::lock_guard<std::mutex> lock(mu);
      sizes.push_back(end - begin);
    });
    EXPECT_EQ(sizes.size(), ParallelChunkCount(8, n, grain));
    if (sizes.size() > 1) {
      for (size_t s : sizes) EXPECT_GE(s, grain) << "grain=" << grain;
    }
  }
}

TEST(ParallelForGrainTest, DefaultOverloadKeepsLegacyLayout) {
  // The grain knob defaults to 1 everywhere: the two overloads must
  // produce the identical chunk layout, or recorded bitwise baselines of
  // chunk-ordered reductions would shift under callers' feet.
  const size_t n = 103;
  auto layout = [n](bool with_grain) {
    std::mutex mu;
    std::vector<std::pair<size_t, size_t>> chunks;
    auto body = [&](size_t begin, size_t end, size_t chunk) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.emplace_back(chunk, begin);
      (void)end;
    };
    if (with_grain) {
      ParallelFor(7, n, size_t{1}, body);
    } else {
      ParallelFor(7, n, body);
    }
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  EXPECT_EQ(layout(true), layout(false));
}

TEST(ParallelForCancellableGrainTest, UncancelledRunsEverythingOnce) {
  const size_t n = 501;
  CancellationToken cancel;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h = 0;
  EXPECT_TRUE(ParallelForCancellable(
      8, n, size_t{64}, &cancel, [&hits](size_t begin, size_t end, size_t) {
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      }));
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  cancel.Cancel();
  EXPECT_FALSE(ParallelForCancellable(8, n, size_t{64}, &cancel,
                                      [](size_t, size_t, size_t) {}));
}

TEST(StatusCodeNameTest, RoundTripsEveryCode) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kUnimplemented, StatusCode::kInternal,
        StatusCode::kResourceExhausted, StatusCode::kParseError,
        StatusCode::kTypeError, StatusCode::kCancelled}) {
    EXPECT_EQ(StatusCodeFromName(StatusCodeName(code)), code);
  }
  // Unknown names take the fallback — the wire must never invent codes.
  EXPECT_EQ(StatusCodeFromName("NoSuchCode"), StatusCode::kInternal);
  EXPECT_EQ(StatusCodeFromName("NoSuchCode", StatusCode::kNotFound),
            StatusCode::kNotFound);
}

TEST(AdmissionControllerTest, AcquireReleaseAndRefusal) {
  AdmissionController admission(4);
  EXPECT_EQ(admission.capacity(), 4);
  EXPECT_TRUE(admission.TryAcquire(3));
  EXPECT_EQ(admission.acquired(), 3);
  EXPECT_FALSE(admission.TryAcquire(2)) << "3 + 2 > 4 must refuse";
  EXPECT_TRUE(admission.TryAcquire(1));
  EXPECT_FALSE(admission.TryAcquire(1)) << "full";
  admission.Release(3);
  EXPECT_TRUE(admission.TryAcquire(2));
  admission.Release(2);
  admission.Release(1);
  EXPECT_EQ(admission.acquired(), 0);
}

TEST(AdmissionControllerTest, SingleOverCapacityRequestIsRefused) {
  AdmissionController admission(4);
  // A request larger than TOTAL capacity can never be admitted; refusing
  // it immediately (instead of deadlocking a would-be waiter) is part of
  // the admission contract.
  EXPECT_FALSE(admission.TryAcquire(5));
  EXPECT_EQ(admission.acquired(), 0);
}

TEST(AdmissionControllerTest, CapacityClampedToOne) {
  AdmissionController admission(0);
  EXPECT_EQ(admission.capacity(), 1);
  EXPECT_TRUE(admission.TryAcquire(1));
}

TEST(TablePrinterTest, CsvEscapesCommasAndQuotes) {
  TablePrinter t({"a"});
  t.AddRow({"x,y"});
  t.AddRow({"he said \"hi\""});
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

}  // namespace
}  // namespace rain
