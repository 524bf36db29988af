/// Serve-layer semantics: wire protocol round-trips, the unified
/// Status error surface, admission control, round-robin fairness, the
/// multi-session bitwise stress (hosted == standalone at every worker
/// count), deadline quotas, complaints between turns, and
/// client-disconnect cancellation over a real socket.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.h"
#include "gtest/gtest.h"
#include "serve/builtin_datasets.h"
#include "serve/client.h"
#include "serve/debug_service.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace rain {
namespace serve {
namespace {

// ------------------------------------------------------------------ wire

TEST(WireTest, ParseRequestSplitsVerbAndArgs) {
  auto req = ParseRequest("  OPEN adult parallelism=2  timeout=1.5 ");
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->verb, "open");
  ASSERT_EQ(req->args.size(), 3u);
  EXPECT_EQ(req->args[0], "adult");
  EXPECT_EQ(FindOption(req->args, "parallelism").value_or(""), "2");
  EXPECT_EQ(FindOption(req->args, "timeout").value_or(""), "1.5");
  EXPECT_FALSE(FindOption(req->args, "shards").has_value());
  EXPECT_FALSE(ParseRequest("   ").ok());
}

TEST(WireTest, FindOptionIsLastWriteWins) {
  auto req = ParseRequest("open adult parallelism=2 parallelism=8");
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(FindOption(req->args, "parallelism").value_or(""), "8");
}

TEST(WireTest, JsonObjectRoundTripsThroughGetters) {
  const std::string line = OkResponse(JsonObject()
                                          .Add("sid", uint64_t{42})
                                          .Add("dataset", "adult")
                                          .Add("finished", false)
                                          .Add("note", "a \"quoted\"\nline"));
  EXPECT_EQ(JsonGetBool(line, "ok").value_or(false), true);
  EXPECT_EQ(JsonGetInt(line, "sid").value_or(0), 42);
  EXPECT_EQ(JsonGetString(line, "dataset").value_or(""), "adult");
  EXPECT_EQ(JsonGetBool(line, "finished").value_or(true), false);
  EXPECT_EQ(JsonGetString(line, "note").value_or(""), "a \"quoted\"\nline");
  EXPECT_FALSE(JsonGetInt(line, "absent").has_value());
  EXPECT_TRUE(StatusFromResponse(line).ok());
}

TEST(WireTest, ErrorResponseCarriesTheStatusContract) {
  const std::string line =
      ErrorResponse(Status::ResourceExhausted("no shares for \"you\""));
  EXPECT_EQ(JsonGetBool(line, "ok").value_or(true), false);
  const Status status = StatusFromResponse(line);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(status.message(), "no shares for \"you\"");
  // Malformed / truncated responses degrade to kInternal, never OK.
  EXPECT_EQ(StatusFromResponse("{\"garbage\":1}").code(),
            StatusCode::kInternal);
}

TEST(WireTest, StepStatusMapping) {
  EXPECT_EQ(StepStatusToStatus(StepStatus::kCancelled).code(),
            StatusCode::kCancelled);
  EXPECT_EQ(StepStatusToStatus(StepStatus::kDeadlineExceeded).code(),
            StatusCode::kResourceExhausted);
  for (StepStatus s :
       {StepStatus::kIterated, StepStatus::kResolved, StepStatus::kNoProgress,
        StepStatus::kBudgetExhausted, StepStatus::kIterationLimit,
        StepStatus::kAlreadyFinished}) {
    EXPECT_TRUE(StepStatusToStatus(s).ok()) << StepStatusName(s);
  }
}

// ------------------------------------------------------------- fixtures

/// One small Adult bundle shared by every service test in this binary
/// (clean-pipeline target derivation trains a model, so build it once).
const HostedDataset& SmallAdult() {
  static const HostedDataset* dataset = new HostedDataset(
      MakeAdultHostedDataset(/*train_size=*/800, /*query_size=*/400,
                             /*corruption=*/0.3, /*seed=*/13));
  return *dataset;
}

SessionSpec SmallSpec(int parallelism) {
  SessionSpec spec;
  spec.dataset = "adult";
  spec.top_k_per_iter = 10;
  spec.max_deletions = 50;
  spec.max_iterations = 5;
  spec.exec.set_parallelism(parallelism);
  return spec;
}

/// Runs the same spec standalone (no service): the bitwise reference.
DebugReport StandaloneReference(const SessionSpec& spec) {
  auto pipeline = MakeSessionPipeline(SmallAdult());
  auto session = DebugSessionBuilder(pipeline.get())
                     .ranker(spec.ranker)
                     .top_k_per_iter(spec.top_k_per_iter)
                     .max_deletions(spec.max_deletions)
                     .max_iterations(spec.max_iterations)
                     .stop_when_resolved(spec.stop_when_resolved)
                     .set_execution(spec.exec)
                     .workload(SmallAdult().default_workload)
                     .Build();
  RAIN_CHECK(session.ok()) << session.status().ToString();
  auto report = (*session)->RunToCompletion();
  RAIN_CHECK(report.ok()) << report.status().ToString();
  return *report;
}

// ------------------------------------------------- multi-session stress

/// The tentpole guarantee: N >= 8 sessions stepping concurrently over ONE
/// shared dataset, at mixed worker counts, each produces the exact
/// deletion sequence of a standalone run with the same spec — tenants
/// cannot perturb each other even at the bitwise level.
TEST(DebugServiceStressTest, EightConcurrentSessionsBitwiseMatchStandalone) {
  const std::vector<int> worker_counts = {1, 2, 8};
  std::vector<DebugReport> references;
  for (int workers : worker_counts) {
    references.push_back(StandaloneReference(SmallSpec(workers)));
  }
  // Sanity: different parallelism must actually change something once in
  // a while; if all three references coincide the stress proves little.
  // (Equal sequences are still correct, so don't assert inequality.)

  ServiceOptions options;
  options.admission_capacity = 64;
  options.num_drivers = 3;
  DebugService service(options);
  ASSERT_TRUE(service.RegisterDataset(SmallAdult()).ok());

  constexpr int kSessions = 9;  // 3 per worker count
  std::vector<uint64_t> sids;
  std::vector<int> flavors;
  for (int i = 0; i < kSessions; ++i) {
    const int flavor = i % static_cast<int>(worker_counts.size());
    auto sid = service.Open(SmallSpec(worker_counts[flavor]));
    ASSERT_TRUE(sid.ok()) << sid.status().ToString();
    sids.push_back(*sid);
    flavors.push_back(flavor);
  }
  EXPECT_EQ(service.num_open_sessions(), static_cast<size_t>(kSessions));

  // Fire everything at once; turns interleave round-robin on the shared
  // pool while each session keeps its own parallelism knob.
  std::vector<Future<Result<StepOutcome>>> futures;
  for (uint64_t sid : sids) {
    futures.push_back(service.StepAsync(sid, /*steps=*/100));
  }
  for (int i = 0; i < kSessions; ++i) {
    auto outcome = futures[i].Get();
    ASSERT_TRUE(outcome.ok()) << "session " << sids[i] << ": "
                              << outcome.status().ToString();
    EXPECT_TRUE(outcome->finished);
  }

  for (int i = 0; i < kSessions; ++i) {
    auto report = service.Report(sids[i]);
    ASSERT_TRUE(report.ok());
    const DebugReport& reference = references[static_cast<size_t>(flavors[i])];
    EXPECT_EQ(report->deletions, reference.deletions)
        << "session " << sids[i] << " (parallelism "
        << worker_counts[flavors[i]]
        << ") diverged from its standalone reference";
    EXPECT_EQ(report->complaints_resolved, reference.complaints_resolved);
    ASSERT_EQ(report->iterations.size(), reference.iterations.size());
    for (size_t it = 0; it < reference.iterations.size(); ++it) {
      EXPECT_EQ(report->iterations[it].deletions_after,
                reference.iterations[it].deletions_after)
          << "session " << sids[i] << " iteration " << it;
    }
    EXPECT_TRUE(service.Close(sids[i]).ok());
  }
  EXPECT_EQ(service.num_open_sessions(), 0u);
  EXPECT_EQ(service.admission_acquired(), 0);
}

// ------------------------------------------------------------ admission

TEST(DebugServiceTest, AdmissionRefusesWithResourceExhausted) {
  ServiceOptions options;
  options.admission_capacity = 4;
  DebugService service(options);
  ASSERT_TRUE(service.RegisterDataset(SmallAdult()).ok());

  auto first = service.Open(SmallSpec(3));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(service.admission_acquired(), 3);

  auto refused = service.Open(SmallSpec(2));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted)
      << refused.status().ToString();

  // A single request larger than TOTAL capacity is refused outright.
  auto oversized = service.Open(SmallSpec(100));
  ASSERT_FALSE(oversized.ok());
  EXPECT_EQ(oversized.status().code(), StatusCode::kResourceExhausted);

  // Closing the admitted session releases its shares; the refused spec
  // now fits.
  ASSERT_TRUE(service.Close(*first).ok());
  EXPECT_EQ(service.admission_acquired(), 0);
  auto retry = service.Open(SmallSpec(2));
  EXPECT_TRUE(retry.ok());
}

TEST(DebugServiceTest, SessionCapRefusesWithResourceExhausted) {
  ServiceOptions options;
  options.max_sessions = 1;
  options.admission_capacity = 64;
  DebugService service(options);
  ASSERT_TRUE(service.RegisterDataset(SmallAdult()).ok());
  ASSERT_TRUE(service.Open(SmallSpec(1)).ok());
  auto refused = service.Open(SmallSpec(1));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
}

TEST(DebugServiceTest, UnknownDatasetAndSessionAreNotFound) {
  DebugService service;
  ASSERT_TRUE(service.RegisterDataset(SmallAdult()).ok());
  EXPECT_EQ(service.Open(SessionSpec{}).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Step(999, 1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.GetStatus(999).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Close(999).code(), StatusCode::kNotFound);
  EXPECT_EQ(service.RegisterDataset(SmallAdult()).code(),
            StatusCode::kAlreadyExists);
}

// ------------------------------------------------------------- fairness

/// With one driver and a recorded turn log, two 4-step requests must
/// interleave: round-robin re-enqueues the remainder at the tail after
/// every single iteration, so neither request can monopolize the driver.
TEST(DebugServiceTest, RoundRobinTurnsInterleaveSessions) {
  ServiceOptions options;
  options.num_drivers = 1;
  options.record_turn_log = true;
  options.admission_capacity = 64;
  DebugService service(options);
  ASSERT_TRUE(service.RegisterDataset(SmallAdult()).ok());

  SessionSpec spec = SmallSpec(1);
  spec.max_iterations = 100;  // budget: exactly the turns we request
  spec.max_deletions = 1000;
  auto a = service.Open(spec);
  auto b = service.Open(spec);
  ASSERT_TRUE(a.ok() && b.ok());

  auto fa = service.StepAsync(*a, 4);
  auto fb = service.StepAsync(*b, 4);
  ASSERT_TRUE(fa.Get().ok());
  ASSERT_TRUE(fb.Get().ok());

  const std::vector<uint64_t> log = service.turn_log();
  ASSERT_EQ(log.size(), 8u);
  EXPECT_EQ(std::count(log.begin(), log.end(), *a), 4);
  EXPECT_EQ(std::count(log.begin(), log.end(), *b), 4);
  // Strict round-robin allows at most 2 consecutive turns of one session
  // (only around the enqueue race at the start); a sequential scheduler
  // would run 4 in a row.
  int longest_run = 1;
  int run = 1;
  for (size_t i = 1; i < log.size(); ++i) {
    run = log[i] == log[i - 1] ? run + 1 : 1;
    longest_run = std::max(longest_run, run);
  }
  EXPECT_LE(longest_run, 2) << "a session monopolized the driver";
}

// ----------------------------------------------------- deadlines/quotas

/// Sleeps for `nap` in the first OnPhaseComplete it sees.
class NapOnFirstPhase : public DebugObserver {
 public:
  explicit NapOnFirstPhase(std::chrono::milliseconds nap) : nap_(nap) {}
  void OnPhaseComplete(int, DebugPhase, double) override {
    if (!napped_.exchange(true)) std::this_thread::sleep_for(nap_);
  }

 private:
  std::chrono::milliseconds nap_;
  std::atomic<bool> napped_{false};
};

TEST(DebugServiceTest, DeadlineMidPhaseSurfacesAsResourceExhausted) {
  // The observer outlives the service, which may call it from a driver.
  constexpr double kTimeoutSeconds = 0.05;
  NapOnFirstPhase observer(std::chrono::milliseconds(100));
  ServiceOptions options;
  options.admission_capacity = 64;
  DebugService service(options);
  ASSERT_TRUE(service.RegisterDataset(SmallAdult()).ok());

  SessionSpec spec = SmallSpec(1);
  spec.max_iterations = 10000;
  // The first phase's observer callback sleeps past the deadline, so the
  // boundary check after it fires mid-session however fast the phases
  // themselves run.
  spec.exec.set_timeout_seconds(kTimeoutSeconds);
  spec.exec.add_observer(&observer);
  auto sid = service.Open(spec);
  ASSERT_TRUE(sid.ok());

  auto outcome = service.Step(*sid, 1000);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->last_status, StepStatus::kDeadlineExceeded);
  EXPECT_TRUE(outcome->finished);
  // The unified error surface: a blown time quota maps onto the same code
  // admission refusals use.
  EXPECT_EQ(StepStatusToStatus(outcome->last_status).code(),
            StatusCode::kResourceExhausted);

  auto status = service.GetStatus(*sid);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, SessionState::kFinished);
  EXPECT_EQ(status->finish_status, StepStatus::kDeadlineExceeded);
}

TEST(DebugServiceTest, CancelMidStepFinishesAsCancelled) {
  ServiceOptions options;
  options.admission_capacity = 64;
  DebugService service(options);
  ASSERT_TRUE(service.RegisterDataset(SmallAdult()).ok());

  SessionSpec spec = SmallSpec(1);
  spec.max_iterations = 10000;
  spec.max_deletions = 10000;
  auto sid = service.Open(spec);
  ASSERT_TRUE(sid.ok());
  auto future = service.StepAsync(*sid, 10000);
  ASSERT_TRUE(service.Cancel(*sid).ok());
  auto outcome = future.Get();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->last_status, StepStatus::kCancelled);
  EXPECT_EQ(StepStatusToStatus(outcome->last_status).code(),
            StatusCode::kCancelled);
}

// ------------------------------------------------- complaints and state

/// Once armed, holds the next iteration it sees at its start until
/// released, so a test can act while a turn is provably in flight.
class HoldNextIteration : public DebugObserver {
 public:
  void Arm() { armed_ = true; }
  void OnIterationStart(int, const DebugReport&) override {
    if (!armed_.exchange(false)) return;
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }
  /// True once the held iteration has started (false after 30 s).
  bool WaitUntilHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(30), [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::atomic<bool> armed_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(DebugServiceTest, ComplainBetweenTurnsReopensButNotInFlight) {
  // The observer outlives the service, which calls it from a driver.
  HoldNextIteration hold;
  ServiceOptions options;
  options.admission_capacity = 64;
  DebugService service(options);
  ASSERT_TRUE(service.RegisterDataset(SmallAdult()).ok());
  SessionSpec spec = SmallSpec(1);
  spec.exec.add_observer(&hold);
  auto sid = service.Open(spec);
  ASSERT_TRUE(sid.ok());

  // Between turns: allowed.
  QueryComplaints points;  // query-less: binds against predictions
  points.complaints = {ComplaintSpec::Point("adult", 3, 1)};
  ASSERT_TRUE(service.Step(*sid, 1).ok());
  EXPECT_TRUE(service.Complain(*sid, points).ok());

  // While a turn is in flight: kInvalidArgument (the unified surface
  // distinguishes caller mistakes from resource refusals). The observer
  // holds the turn's first iteration until both calls have returned, so
  // the turn cannot finish first however fast it runs.
  hold.Arm();
  auto future = service.StepAsync(*sid, 50);
  const bool held = hold.WaitUntilHeld();
  const Status in_flight = service.Complain(*sid, points);
  const Status report_in_flight = service.Report(*sid).status();
  hold.Release();
  EXPECT_TRUE(held);
  EXPECT_FALSE(in_flight.ok());
  EXPECT_EQ(in_flight.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(report_in_flight.code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(future.Get().ok());
}

/// The incremental-update surface: a hosted session's label delta detaches
/// its COW view, so sibling tenants (running or opened later) stay
/// bitwise on the registered storage; the updated session itself reopens
/// and re-debugs.
TEST(DebugServiceTest, UpdateIsolatesSiblingTenantsAndReopens) {
  ServiceOptions options;
  options.admission_capacity = 64;
  DebugService service(options);
  ASSERT_TRUE(service.RegisterDataset(SmallAdult()).ok());

  // A gets a budget large enough to RESOLVE (reopening is defined for
  // resolved sessions); B keeps the small budget as the bitwise sibling.
  SessionSpec resolve_spec = SmallSpec(1);
  resolve_spec.max_iterations = 200;
  resolve_spec.max_deletions = 600;
  auto a = service.Open(resolve_spec);
  auto b = service.Open(SmallSpec(1));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto a_run = service.Step(*a, 300);
  ASSERT_TRUE(a_run.ok());
  ASSERT_TRUE(a_run->resolved);
  ASSERT_TRUE(service.Step(*b, 100).ok());
  auto b_before = service.Report(*b);
  ASSERT_TRUE(b_before.ok());

  // While a turn is in flight the update is refused, like Complain.
  SessionSpec long_spec = SmallSpec(1);
  long_spec.max_iterations = 10000;
  long_spec.max_deletions = 10000;
  auto c = service.Open(long_spec);
  ASSERT_TRUE(c.ok());
  auto future = service.StepAsync(*c, 10000);
  UpdateBatch batch;
  batch.label_edits.push_back(LabelEdit{0, 1});
  const Status in_flight = service.Update(*c, batch).status();
  EXPECT_EQ(in_flight.code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(service.Cancel(*c).ok());
  (void)future.Get();

  // Between turns: the delta lands on A's COW view only.
  const int registered_label = SmallAdult().train.label(0);
  batch.label_edits[0].new_label = 1 - registered_label;
  auto report = service.Update(*a, batch);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->incremental);
  EXPECT_EQ(report->touched_rows, 1u);
  EXPECT_TRUE(report->reopened);
  // The registered bundle and the sibling are untouched.
  EXPECT_EQ(SmallAdult().train.label(0), registered_label);
  auto b_after = service.Report(*b);
  ASSERT_TRUE(b_after.ok());
  EXPECT_EQ(b_after->deletions, b_before->deletions);

  // A fresh tenant opened AFTER the update still bitwise-matches the
  // standalone reference over the pristine storage.
  auto d = service.Open(SmallSpec(1));
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(service.Step(*d, 100).ok());
  auto d_report = service.Report(*d);
  ASSERT_TRUE(d_report.ok());
  EXPECT_EQ(d_report->deletions, StandaloneReference(SmallSpec(1)).deletions);

  // The updated session re-debugs to a terminal state.
  auto redebug = service.Step(*a, 100);
  ASSERT_TRUE(redebug.ok()) << redebug.status().ToString();
  EXPECT_TRUE(redebug->finished);
}

TEST(DebugServiceTest, ShutdownFailsPendingTurnsAndClosesSessions) {
  ServiceOptions options;
  options.admission_capacity = 64;
  auto service = std::make_unique<DebugService>(options);
  ASSERT_TRUE(service->RegisterDataset(SmallAdult()).ok());
  SessionSpec spec = SmallSpec(1);
  spec.max_iterations = 10000;
  spec.max_deletions = 10000;
  auto sid = service->Open(spec);
  ASSERT_TRUE(sid.ok());
  auto future = service->StepAsync(*sid, 10000);
  service->Shutdown();
  auto outcome = future.Get();
  // Either the driver finished the turn with a cancelled session or the
  // queue drained it as an error; both speak kCancelled.
  if (outcome.ok()) {
    EXPECT_EQ(outcome->last_status, StepStatus::kCancelled);
  } else {
    EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled);
  }
  EXPECT_EQ(service->num_open_sessions(), 0u);
}

// ------------------------------------------------------- socket serving

class ServeSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ = "/tmp/rain_serve_test_" + std::to_string(::getpid()) +
                   "_" + std::to_string(counter_++) + ".sock";
    ServiceOptions options;
    options.admission_capacity = 64;
    service_ = std::make_unique<DebugService>(options);
    ASSERT_TRUE(service_->RegisterDataset(SmallAdult()).ok());
    ServerOptions server_options;
    server_options.socket_path = socket_path_;
    server_ = std::make_unique<DebugServer>(service_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    server_->Stop();
    service_->Shutdown();
  }

  static int counter_;
  std::string socket_path_;
  std::unique_ptr<DebugService> service_;
  std::unique_ptr<DebugServer> server_;
};

int ServeSocketTest::counter_ = 0;

TEST_F(ServeSocketTest, OpenStepStatusCloseRoundTrip) {
  auto client = DebugClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto sid = client->Open("adult", "parallelism=2 max_iterations=3");
  ASSERT_TRUE(sid.ok()) << sid.status().ToString();

  auto step = client->Step(*sid, 2);
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  EXPECT_EQ(step->steps, 2);
  EXPECT_GT(step->new_deletions, 0);

  auto status = client->GetStatus(*sid);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->dataset, "adult");
  EXPECT_EQ(status->iterations, 2);

  EXPECT_TRUE(client->ComplainPoint(*sid, "adult", 3, 1).ok());
  EXPECT_TRUE(client->Close(*sid).ok());
  EXPECT_EQ(client->GetStatus(*sid).status().code(), StatusCode::kNotFound);
  client->Quit();
}

TEST_F(ServeSocketTest, WireErrorsCarryServiceStatusCodes) {
  auto client = DebugClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(client->Open("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client->Step(424242, 1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client->Open("adult", "parallelism=100").status().code(),
            StatusCode::kResourceExhausted)
      << "admission refusals must cross the wire intact";
  auto garbage = client->Call("frobnicate 1 2 3");
  ASSERT_TRUE(garbage.ok());
  EXPECT_EQ(StatusFromResponse(*garbage).code(), StatusCode::kInvalidArgument);
  client->Quit();
}

TEST_F(ServeSocketTest, OpenRejectsUnknownAndOutOfRangeOptions) {
  auto client = DebugClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());
  // Misspelt (and retired) options must fail loudly, naming the key.
  const std::pair<const char*, const char*> unknown[] = {
      {"paralelism=8", "paralelism"},
      {"parallelism=2 shardz=3", "shardz"},
      {"shards=2", "shards"}};
  for (const auto& [options, key] : unknown) {
    auto sid = client->Open("adult", options);
    ASSERT_FALSE(sid.ok()) << options;
    EXPECT_EQ(sid.status().code(), StatusCode::kInvalidArgument) << options;
    EXPECT_NE(sid.status().message().find(key), std::string::npos)
        << sid.status().ToString();
  }
  // Integers outside the int range must not wrap (2^32 + 1 would read 1).
  for (const char* options : {"parallelism=4294967297", "top_k=-2147483649",
                              "max_deletions=9223372036854775807"}) {
    auto sid = client->Open("adult", options);
    ASSERT_FALSE(sid.ok()) << options;
    EXPECT_EQ(sid.status().code(), StatusCode::kInvalidArgument) << options;
  }
  // Every documented option is still accepted.
  auto sid = client->Open("adult",
                          "ranker=holistic parallelism=1 top_k=5 max_deletions=10 "
                          "max_iterations=2 timeout=30");
  ASSERT_TRUE(sid.ok()) << sid.status().ToString();
  EXPECT_TRUE(client->Close(*sid).ok());
  client->Quit();
}

TEST_F(ServeSocketTest, UpdateVerbRoundTrip) {
  auto client = DebugClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto sid = client->Open("adult", "max_iterations=3");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(client->Step(*sid, 1).ok());

  auto update = client->UpdateLabel(*sid, 0, 1, "incremental");
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  EXPECT_TRUE(update->incremental);
  EXPECT_EQ(update->touched_rows, 1);
  EXPECT_GT(update->entries_cached, 0);

  auto deactivate = client->Deactivate(*sid, 7);
  ASSERT_TRUE(deactivate.ok());
  EXPECT_EQ(deactivate->touched_rows, 1);
  auto reactivate = client->Reactivate(*sid, 7);
  ASSERT_TRUE(reactivate.ok());

  // Errors cross the wire with the service's Status codes.
  EXPECT_EQ(client->UpdateLabel(424242, 0, 1).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client->UpdateLabel(*sid, 1 << 30, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client->UpdateLabel(*sid, 0, 1, "sideways").status().code(),
            StatusCode::kInvalidArgument);
  auto malformed = client->Call("update " + std::to_string(*sid) + " label");
  ASSERT_TRUE(malformed.ok());
  EXPECT_EQ(StatusFromResponse(*malformed).code(),
            StatusCode::kInvalidArgument);

  // The updated session keeps stepping over the socket.
  auto step = client->Step(*sid, 1);
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  EXPECT_TRUE(client->Close(*sid).ok());
  client->Quit();
}

TEST_F(ServeSocketTest, AbruptDisconnectCancelsAndClosesSessions) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                socket_path_.c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  const std::string open_req =
      "open adult max_iterations=100000 max_deletions=100000\n";
  ASSERT_GT(::send(fd, open_req.data(), open_req.size(), MSG_NOSIGNAL), 0);
  char buffer[512];
  const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
  ASSERT_GT(n, 0);
  ASSERT_TRUE(StatusFromResponse(std::string(buffer, static_cast<size_t>(n)))
                  .ok());
  EXPECT_EQ(service_->num_open_sessions(), 1u);

  // Kick off a step that would run for a very long time, then vanish
  // without reading the response.
  const std::string step_req = "step 1 100000\n";
  ASSERT_GT(::send(fd, step_req.data(), step_req.size(), MSG_NOSIGNAL), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ::close(fd);

  // The watcher notices the hangup, cancels the session mid-step, and the
  // handler closes it — long before the deletion budget could drain.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (service_->num_open_sessions() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(service_->num_open_sessions(), 0u)
      << "disconnect did not cancel + close the hosted session";
  EXPECT_EQ(service_->admission_acquired(), 0);
}

}  // namespace
}  // namespace serve
}  // namespace rain
