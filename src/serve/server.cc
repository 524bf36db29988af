#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/logging.h"
#include "common/string_util.h"
#include "serve/wire.h"

#ifndef POLLRDHUP
#define POLLRDHUP 0x2000  // Linux-only flag; harmless extra bit elsewhere
#endif

namespace rain {
namespace serve {
namespace {

Status ErrnoStatus(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

bool ParseI64(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

/// Applies an integer `key=value` option to `*out`; false (with a
/// response-ready status in *err) on malformed values or values outside
/// the `int` range every consumer narrows to.
bool IntOption(const std::vector<std::string>& args, std::string_view key,
               int64_t* out, Status* err) {
  const std::optional<std::string> raw = FindOption(args, key);
  if (!raw.has_value()) return true;
  int64_t v = 0;
  if (!ParseI64(*raw, &v)) {
    *err = Status::InvalidArgument("option " + std::string(key) +
                                   " wants an integer, got '" + *raw + "'");
    return false;
  }
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    *err = Status::InvalidArgument("option " + std::string(key) +
                                   " is out of range, got '" + *raw + "'");
    return false;
  }
  *out = v;
  return true;
}

/// The `key=value` options the `open` verb understands.
constexpr std::string_view kOpenOptions[] = {
    "ranker", "parallelism", "top_k", "max_deletions", "max_iterations", "timeout"};

/// Rejects any `key=value` argument outside `kOpenOptions`, so a misspelt
/// or retired option fails loudly instead of being silently ignored.
Status CheckOpenOptions(const std::vector<std::string>& args) {
  for (size_t i = 1; i < args.size(); ++i) {
    const size_t eq = args[i].find('=');
    if (eq == std::string::npos) continue;
    const std::string_view key = std::string_view(args[i]).substr(0, eq);
    bool known = false;
    for (std::string_view option : kOpenOptions) known = known || key == option;
    if (!known) {
      return Status::InvalidArgument("open: unknown option '" + std::string(key) +
                                     "'");
    }
  }
  return Status::OK();
}

}  // namespace

DebugServer::DebugServer(DebugService* service, ServerOptions options)
    : service_(service), options_(std::move(options)) {
  RAIN_CHECK(service_ != nullptr);
  RAIN_CHECK(!options_.socket_path.empty()) << "socket_path is required";
}

DebugServer::~DebugServer() { Stop(); }

Status DebugServer::Start() {
  RAIN_CHECK(!started_) << "DebugServer::Start called twice";
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " +
                                   options_.socket_path);
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");
  ::unlink(options_.socket_path.c_str());  // stale socket from a past run
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status st = ErrnoStatus("bind");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 16) != 0) {
    const Status st = ErrnoStatus("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void DebugServer::Stop() {
  if (!started_ || stopping_.exchange(true)) return;
  accept_thread_.join();
  {
    // Unblock every handler's recv; watchers notice `hangup`.
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) {
      conn->hangup.store(true, std::memory_order_relaxed);
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (auto& conn : conns_) {
    conn->handler.join();
    conn->watcher.join();
    ::close(conn->fd);
  }
  conns_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
}

void DebugServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (ready <= 0) continue;  // timeout or EINTR: re-check stopping_
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    conn->handler = std::thread([this, raw] { HandleConnection(raw); });
    conn->watcher = std::thread([this, raw] { WatchConnection(raw); });
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(std::move(conn));
  }
}

void DebugServer::WatchConnection(Connection* conn) {
  // The handler can sit inside a blocking `step` for a long time; this
  // thread is what turns an abrupt client death into prompt cancellation
  // of that client's sessions instead of a silently completing run.
  while (!conn->hangup.load(std::memory_order_relaxed) &&
         !stopping_.load(std::memory_order_relaxed)) {
    pollfd pfd{conn->fd, POLLRDHUP, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (ready <= 0) continue;
    if ((pfd.revents & (POLLRDHUP | POLLHUP | POLLERR)) != 0) {
      conn->hangup.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(conn->mu);
      // Cancel only — the handler is the sole closer, and it closes these
      // sids once its blocked call returns (promptly, post-cancel).
      for (uint64_t sid : conn->sids) service_->Cancel(sid);
      return;
    }
  }
}

void DebugServer::HandleConnection(Connection* conn) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // EOF or error: client is gone
    buffer.append(chunk, static_cast<size_t>(n));
    size_t eol;
    while (open && (eol = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, eol);
      buffer.erase(0, eol + 1);
      if (Trim(line).empty()) continue;
      open = Dispatch(conn, line);
    }
  }
  conn->hangup.store(true, std::memory_order_relaxed);  // stops the watcher
  std::vector<uint64_t> sids;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    sids.swap(conn->sids);
  }
  for (uint64_t sid : sids) {
    service_->Cancel(sid);  // interrupt anything mid-step...
    service_->Close(sid);   // ...then release the session's shares
  }
  ::shutdown(conn->fd, SHUT_RDWR);  // fd itself is closed in Stop()
}

void DebugServer::SendLine(Connection* conn, const std::string& response) {
  std::string line = response;
  line += '\n';
  size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::send(conn->fd, line.data() + sent, line.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return;  // peer gone; the read loop will notice too
    sent += static_cast<size_t>(n);
  }
}

bool DebugServer::Dispatch(Connection* conn, const std::string& line) {
  Result<WireRequest> parsed = ParseRequest(line);
  if (!parsed.ok()) {
    SendLine(conn, ErrorResponse(parsed.status()));
    return true;
  }
  const WireRequest& req = *parsed;
  const std::vector<std::string>& args = req.args;

  if (req.verb == "ping") {
    SendLine(conn, OkResponse());
    return true;
  }
  if (req.verb == "quit") {
    SendLine(conn, OkResponse());
    return false;  // handler exit closes this connection's sessions
  }

  if (req.verb == "open") {
    if (args.empty()) {
      SendLine(conn, ErrorResponse(
                         Status::InvalidArgument("open wants: open <dataset>")));
      return true;
    }
    const Status options_status = CheckOpenOptions(args);
    if (!options_status.ok()) {
      SendLine(conn, ErrorResponse(options_status));
      return true;
    }
    SessionSpec spec;
    spec.dataset = args[0];
    if (auto ranker = FindOption(args, "ranker")) spec.ranker = *ranker;
    int64_t parallelism = spec.exec.parallelism;
    int64_t top_k = spec.top_k_per_iter;
    int64_t max_deletions = spec.max_deletions;
    int64_t max_iterations = spec.max_iterations;
    Status err = Status::OK();
    if (!IntOption(args, "parallelism", &parallelism, &err) ||
        !IntOption(args, "top_k", &top_k, &err) ||
        !IntOption(args, "max_deletions", &max_deletions, &err) ||
        !IntOption(args, "max_iterations", &max_iterations, &err)) {
      SendLine(conn, ErrorResponse(err));
      return true;
    }
    spec.exec.set_parallelism(static_cast<int>(parallelism));
    spec.top_k_per_iter = static_cast<int>(top_k);
    spec.max_deletions = static_cast<int>(max_deletions);
    spec.max_iterations = static_cast<int>(max_iterations);
    if (auto timeout = FindOption(args, "timeout")) {
      char* end = nullptr;
      const double seconds = std::strtod(timeout->c_str(), &end);
      if (end != timeout->c_str() + timeout->size() || seconds <= 0) {
        SendLine(conn, ErrorResponse(Status::InvalidArgument(
                           "option timeout wants positive seconds, got '" +
                           *timeout + "'")));
        return true;
      }
      spec.exec.set_timeout_seconds(seconds);
    }
    Result<uint64_t> sid = service_->Open(spec);
    if (!sid.ok()) {
      SendLine(conn, ErrorResponse(sid.status()));
      return true;
    }
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->sids.push_back(*sid);
    }
    SendLine(conn, OkResponse(JsonObject().Add("sid", *sid)));
    return true;
  }

  // Everything below addresses an existing session: first arg is the sid.
  if (args.empty()) {
    SendLine(conn, ErrorResponse(Status::InvalidArgument(
                       req.verb + " wants: " + req.verb + " <sid>")));
    return true;
  }
  int64_t sid64 = 0;
  if (!ParseI64(args[0], &sid64) || sid64 < 0) {
    SendLine(conn, ErrorResponse(
                       Status::InvalidArgument("bad sid '" + args[0] + "'")));
    return true;
  }
  const uint64_t sid = static_cast<uint64_t>(sid64);

  if (req.verb == "step") {
    int64_t steps = 1;
    if (args.size() > 1 && args[1].find('=') == std::string::npos &&
        !ParseI64(args[1], &steps)) {
      SendLine(conn, ErrorResponse(Status::InvalidArgument(
                         "bad step count '" + args[1] + "'")));
      return true;
    }
    Status err = Status::OK();
    if (!IntOption(args, "n", &steps, &err)) {
      SendLine(conn, ErrorResponse(err));
      return true;
    }
    Result<StepOutcome> outcome = service_->Step(sid, static_cast<int>(steps));
    if (!outcome.ok()) {
      SendLine(conn, ErrorResponse(outcome.status()));
      return true;
    }
    // The unified error surface: interrupted sessions answer with the
    // same Status codes the service uses everywhere (kCancelled /
    // kResourceExhausted), not a success with a funny status string.
    const Status mapped = StepStatusToStatus(outcome->last_status);
    if (!mapped.ok()) {
      SendLine(conn, ErrorResponse(mapped));
      return true;
    }
    SendLine(conn, OkResponse(JsonObject()
                                  .Add("status", StepStatusName(outcome->last_status))
                                  .Add("steps", outcome->steps_run)
                                  .Add("new_deletions", outcome->new_deletions.size())
                                  .Add("total_deletions", outcome->total_deletions)
                                  .Add("finished", outcome->finished)
                                  .Add("resolved", outcome->resolved)));
    return true;
  }

  if (req.verb == "status") {
    Result<SessionStatus> status = service_->GetStatus(sid);
    if (!status.ok()) {
      SendLine(conn, ErrorResponse(status.status()));
      return true;
    }
    JsonObject fields;
    fields.Add("sid", status->sid)
        .Add("dataset", status->dataset)
        .Add("state", SessionStateName(status->state))
        .Add("iterations", status->iterations_started)
        .Add("deletions", status->deletions)
        .Add("finished", status->finished)
        .Add("resolved", status->resolved);
    if (status->finished) {
      fields.Add("final", StepStatusName(status->finish_status));
    }
    SendLine(conn, OkResponse(fields));
    return true;
  }

  if (req.verb == "complain") {
    // complain <sid> point <table> <row> <class> — the one complaint kind
    // expressible without shipping a SQL plan over the wire.
    if (args.size() != 5 || ToLower(args[1]) != "point") {
      SendLine(conn,
               ErrorResponse(Status::InvalidArgument(
                   "complain wants: complain <sid> point <table> <row> <class>")));
      return true;
    }
    int64_t row = 0;
    int64_t cls = 0;
    if (!ParseI64(args[3], &row) || !ParseI64(args[4], &cls)) {
      SendLine(conn, ErrorResponse(Status::InvalidArgument(
                         "bad point complaint row/class: " + args[3] + " " +
                         args[4])));
      return true;
    }
    QueryComplaints qc;  // query-less: points bind against predictions
    qc.complaints = {
        ComplaintSpec::Point(args[2], row, static_cast<int>(cls))};
    const Status st = service_->Complain(sid, std::move(qc));
    SendLine(conn, st.ok() ? OkResponse() : ErrorResponse(st));
    return true;
  }

  if (req.verb == "update") {
    // update <sid> label <row> <class> | deactivate <row> | reactivate <row>
    // — the single-row delta forms expressible on one wire line. The
    // session applies them through ApplyUpdate, O(delta) by default.
    const char* kUsage =
        "update wants: update <sid> label <row> <class> | "
        "update <sid> deactivate <row> | update <sid> reactivate <row> "
        "[policy=auto|incremental|full]";
    if (args.size() < 2) {
      SendLine(conn, ErrorResponse(Status::InvalidArgument(kUsage)));
      return true;
    }
    const std::string op = ToLower(args[1]);
    UpdateBatch batch;
    if (op == "label") {
      int64_t row = 0;
      int64_t cls = 0;
      if (args.size() < 4 || !ParseI64(args[2], &row) ||
          !ParseI64(args[3], &cls) || row < 0) {
        SendLine(conn, ErrorResponse(Status::InvalidArgument(kUsage)));
        return true;
      }
      batch.label_edits.push_back(
          LabelEdit{static_cast<size_t>(row), static_cast<int>(cls)});
    } else if (op == "deactivate" || op == "reactivate") {
      int64_t row = 0;
      if (args.size() < 3 || !ParseI64(args[2], &row) || row < 0) {
        SendLine(conn, ErrorResponse(Status::InvalidArgument(kUsage)));
        return true;
      }
      auto& rows = op == "deactivate" ? batch.deactivate_rows
                                      : batch.reactivate_rows;
      rows.push_back(static_cast<size_t>(row));
    } else {
      SendLine(conn, ErrorResponse(Status::InvalidArgument(kUsage)));
      return true;
    }
    UpdateOptions update_options;
    if (auto policy = FindOption(args, "policy")) {
      const std::string p = ToLower(*policy);
      if (p == "auto") {
        update_options.policy = UpdatePolicy::kAuto;
      } else if (p == "incremental") {
        update_options.policy = UpdatePolicy::kIncremental;
      } else if (p == "full") {
        update_options.policy = UpdatePolicy::kFull;
      } else {
        SendLine(conn, ErrorResponse(Status::InvalidArgument(
                           "option policy wants auto|incremental|full, got '" +
                           *policy + "'")));
        return true;
      }
    }
    Result<UpdateReport> report = service_->Update(sid, batch, update_options);
    if (!report.ok()) {
      SendLine(conn, ErrorResponse(report.status()));
      return true;
    }
    SendLine(conn,
             OkResponse(JsonObject()
                            .Add("incremental", report->incremental)
                            .Add("touched_rows", report->touched_rows)
                            .Add("entries_cached", report->entries_cached)
                            .Add("entries_invalidated", report->entries_invalidated)
                            .Add("reopened", report->reopened)
                            .Add("seconds", report->seconds)));
    return true;
  }

  if (req.verb == "cancel") {
    const Status st = service_->Cancel(sid);
    SendLine(conn, st.ok() ? OkResponse() : ErrorResponse(st));
    return true;
  }

  if (req.verb == "close") {
    const Status st = service_->Close(sid);
    if (st.ok()) {
      std::lock_guard<std::mutex> lock(conn->mu);
      for (size_t i = 0; i < conn->sids.size(); ++i) {
        if (conn->sids[i] == sid) {
          conn->sids.erase(conn->sids.begin() + static_cast<ptrdiff_t>(i));
          break;
        }
      }
    }
    SendLine(conn, st.ok() ? OkResponse() : ErrorResponse(st));
    return true;
  }

  SendLine(conn, ErrorResponse(
                     Status::InvalidArgument("unknown verb '" + req.verb + "'")));
  return true;
}

}  // namespace serve
}  // namespace rain
