/// Future / CancellationToken semantics: value and exception flow through
/// futures, token trees and deadlines, and the cancellable CG solve.
#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "common/cancellation.h"
#include "common/future.h"
#include "gtest/gtest.h"
#include "influence/conjugate_gradient.h"

namespace rain {
namespace {

// ---------------------------------------------------------------- tokens

TEST(CancellationTokenTest, FreshTokenDoesNotStop) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.deadline_passed());
  EXPECT_FALSE(token.ShouldStop());
}

TEST(CancellationTokenTest, CancelIsStickyAndSharedAcrossCopies) {
  CancellationToken token;
  CancellationToken copy = token;
  token.Cancel();
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_TRUE(copy.cancelled()) << "copies view the same state";
}

TEST(CancellationTokenTest, DeadlineArmsAndClears) {
  CancellationToken token;
  token.set_deadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));
  EXPECT_TRUE(token.deadline_passed());
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_FALSE(token.cancelled()) << "a deadline is not a cancel";
  token.clear_deadline();
  EXPECT_FALSE(token.ShouldStop());
  token.set_deadline(std::chrono::steady_clock::now() + std::chrono::hours(1));
  EXPECT_FALSE(token.deadline_passed());
}

TEST(CancellationTokenTest, ChildStopsWithParentButNotViceVersa) {
  CancellationToken parent;
  CancellationToken child = parent.MakeChild();
  CancellationToken sibling = parent.MakeChild();

  child.Cancel();
  EXPECT_TRUE(child.ShouldStop());
  EXPECT_FALSE(parent.cancelled()) << "cancelling a child leaves the parent";
  EXPECT_FALSE(sibling.cancelled()) << "...and its siblings";

  parent.Cancel();
  EXPECT_TRUE(sibling.cancelled()) << "parent cancellation reaches every child";

  CancellationToken deadline_parent;
  CancellationToken grandchild = deadline_parent.MakeChild().MakeChild();
  deadline_parent.set_deadline(std::chrono::steady_clock::now() -
                               std::chrono::seconds(1));
  EXPECT_TRUE(grandchild.ShouldStop()) << "deadlines propagate down the tree";
}

// --------------------------------------------------------------- futures

TEST(FutureTest, ValueFlowsFromPromise) {
  Promise<int> promise;
  Future<int> future = promise.future();
  EXPECT_FALSE(future.Ready());
  promise.Set(42);
  EXPECT_TRUE(future.Ready());
  EXPECT_EQ(future.Get(), 42);
}

TEST(FutureTest, ExceptionRethrownAtGet) {
  Promise<int> promise;
  Future<int> future = promise.future();
  promise.SetException(std::make_exception_ptr(std::runtime_error("boom")));
  EXPECT_THROW((void)future.Get(), std::runtime_error);
}

// ------------------------------------------------- cancellable CG solve

/// SPD operator A = diag(2) with an op-call counter.
struct CountingOperator {
  std::atomic<int>* calls;

  void operator()(const Vec& v, Vec* out) const {
    ++*calls;
    out->assign(v.size(), 0.0);
    for (size_t i = 0; i < v.size(); ++i) (*out)[i] = 2.0 * v[i];
  }
};

TEST(CancellableCgTest, UncancelledSolveIsUnaffectedByToken) {
  Vec b(32, 1.0);
  CgOptions plain;
  auto ref = ConjugateGradient([](const Vec& v, Vec* out) {
    out->assign(v.size(), 0.0);
    for (size_t i = 0; i < v.size(); ++i) (*out)[i] = 2.0 * v[i];
  }, b, plain);
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE(ref->converged);

  CancellationToken token;
  CgOptions with_token = plain;
  with_token.cancel = &token;
  std::atomic<int> calls{0};
  auto solved = ConjugateGradient(CountingOperator{&calls}, b, with_token);
  ASSERT_TRUE(solved.ok());
  EXPECT_EQ(solved->x, ref->x) << "an idle token must not perturb the solve";
}

TEST(CancellableCgTest, MidSolveCancelStopsWithinOneProduct) {
  // A 64-dim random-ish SPD problem that needs many CG iterations would
  // converge in 1 for diag(2); build a harder diagonal instead.
  const size_t n = 64;
  Vec diag(n);
  for (size_t i = 0; i < n; ++i) diag[i] = 1.0 + static_cast<double>(i % 17);
  Vec b(n);
  for (size_t i = 0; i < n; ++i) b[i] = std::sin(static_cast<double>(i) + 1.0);

  CancellationToken token;
  std::atomic<int> calls{0};
  CgOptions options;
  options.cancel = &token;
  options.tol = 1e-14;  // force many iterations
  auto op = [&](const Vec& v, Vec* out) {
    const int c = ++calls;
    if (c >= 3) token.Cancel();
    out->assign(n, 0.0);
    for (size_t i = 0; i < n; ++i) (*out)[i] = diag[i] * v[i];
  };
  auto solved = ConjugateGradient(op, b, options);
  ASSERT_FALSE(solved.ok());
  EXPECT_TRUE(solved.status().IsCancelled()) << solved.status().ToString();
  // Cancelled on product 3, observed at the head of the next iteration:
  // at most one further product can have been issued.
  EXPECT_LE(calls.load(), 4);
}

}  // namespace
}  // namespace rain
