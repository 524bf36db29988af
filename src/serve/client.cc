#include "serve/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace rain {
namespace serve {
namespace {

Status ErrnoStatus(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

DebugClient::~DebugClient() {
  if (fd_ >= 0) ::close(fd_);
}

DebugClient::DebugClient(DebugClient&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

DebugClient& DebugClient::operator=(DebugClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

Result<DebugClient> DebugClient::Connect(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status st = ErrnoStatus("connect");
    ::close(fd);
    return st;
  }
  DebugClient client;
  client.fd_ = fd;
  return client;
}

Result<std::string> DebugClient::Call(const std::string& line) {
  if (fd_ < 0) return Status::Internal("client is not connected");
  std::string request = line;
  request += '\n';
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return ErrnoStatus("send");
    sent += static_cast<size_t>(n);
  }
  for (;;) {
    const size_t eol = buffer_.find('\n');
    if (eol != std::string::npos) {
      std::string response = buffer_.substr(0, eol);
      buffer_.erase(0, eol + 1);
      return response;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      return Status::Internal("server closed the connection mid-call");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Result<uint64_t> DebugClient::Open(const std::string& dataset,
                                   const std::string& options) {
  std::string line = "open " + dataset;
  if (!options.empty()) line += " " + options;
  Result<std::string> response = Call(line);
  if (!response.ok()) return response.status();
  const Status st = StatusFromResponse(*response);
  if (!st.ok()) return st;
  const std::optional<int64_t> sid = JsonGetInt(*response, "sid");
  if (!sid.has_value() || *sid < 0) {
    return Status::Internal("open response without a sid: " + *response);
  }
  return static_cast<uint64_t>(*sid);
}

Result<ClientStepResult> DebugClient::Step(uint64_t sid, int steps) {
  Result<std::string> response =
      Call("step " + std::to_string(sid) + " " + std::to_string(steps));
  if (!response.ok()) return response.status();
  const Status st = StatusFromResponse(*response);
  if (!st.ok()) return st;
  ClientStepResult result;
  result.status = JsonGetString(*response, "status").value_or("");
  result.steps = JsonGetInt(*response, "steps").value_or(0);
  result.new_deletions = JsonGetInt(*response, "new_deletions").value_or(0);
  result.total_deletions = JsonGetInt(*response, "total_deletions").value_or(0);
  result.finished = JsonGetBool(*response, "finished").value_or(false);
  result.resolved = JsonGetBool(*response, "resolved").value_or(false);
  return result;
}

Result<ClientSessionStatus> DebugClient::GetStatus(uint64_t sid) {
  Result<std::string> response = Call("status " + std::to_string(sid));
  if (!response.ok()) return response.status();
  const Status st = StatusFromResponse(*response);
  if (!st.ok()) return st;
  ClientSessionStatus status;
  status.dataset = JsonGetString(*response, "dataset").value_or("");
  status.state = JsonGetString(*response, "state").value_or("");
  status.iterations = JsonGetInt(*response, "iterations").value_or(0);
  status.deletions = JsonGetInt(*response, "deletions").value_or(0);
  status.finished = JsonGetBool(*response, "finished").value_or(false);
  status.resolved = JsonGetBool(*response, "resolved").value_or(false);
  return status;
}

Status DebugClient::ComplainPoint(uint64_t sid, const std::string& table,
                                  int64_t row, int correct_class) {
  Result<std::string> response =
      Call("complain " + std::to_string(sid) + " point " + table + " " +
           std::to_string(row) + " " + std::to_string(correct_class));
  if (!response.ok()) return response.status();
  return StatusFromResponse(*response);
}

Result<ClientUpdateResult> DebugClient::UpdateCall(const std::string& line) {
  Result<std::string> response = Call(line);
  if (!response.ok()) return response.status();
  const Status st = StatusFromResponse(*response);
  if (!st.ok()) return st;
  ClientUpdateResult result;
  result.incremental = JsonGetBool(*response, "incremental").value_or(false);
  result.touched_rows = JsonGetInt(*response, "touched_rows").value_or(0);
  result.entries_cached = JsonGetInt(*response, "entries_cached").value_or(0);
  result.entries_invalidated =
      JsonGetInt(*response, "entries_invalidated").value_or(0);
  result.reopened = JsonGetBool(*response, "reopened").value_or(false);
  return result;
}

Result<ClientUpdateResult> DebugClient::UpdateLabel(uint64_t sid, int64_t row,
                                                    int new_class,
                                                    const std::string& policy) {
  std::string line = "update " + std::to_string(sid) + " label " +
                     std::to_string(row) + " " + std::to_string(new_class);
  if (!policy.empty()) line += " policy=" + policy;
  return UpdateCall(line);
}

Result<ClientUpdateResult> DebugClient::Deactivate(uint64_t sid, int64_t row,
                                                   const std::string& policy) {
  std::string line =
      "update " + std::to_string(sid) + " deactivate " + std::to_string(row);
  if (!policy.empty()) line += " policy=" + policy;
  return UpdateCall(line);
}

Result<ClientUpdateResult> DebugClient::Reactivate(uint64_t sid, int64_t row,
                                                   const std::string& policy) {
  std::string line =
      "update " + std::to_string(sid) + " reactivate " + std::to_string(row);
  if (!policy.empty()) line += " policy=" + policy;
  return UpdateCall(line);
}

Status DebugClient::Cancel(uint64_t sid) {
  Result<std::string> response = Call("cancel " + std::to_string(sid));
  if (!response.ok()) return response.status();
  return StatusFromResponse(*response);
}

Status DebugClient::Close(uint64_t sid) {
  Result<std::string> response = Call("close " + std::to_string(sid));
  if (!response.ok()) return response.status();
  return StatusFromResponse(*response);
}

void DebugClient::Quit() {
  if (fd_ < 0) return;
  (void)Call("quit");
  ::close(fd_);
  fd_ = -1;
}

}  // namespace serve
}  // namespace rain
