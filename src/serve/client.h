#ifndef RAIN_SERVE_CLIENT_H_
#define RAIN_SERVE_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "serve/wire.h"

namespace rain {
namespace serve {

/// What the typed client surfaces from a `step` response.
struct ClientStepResult {
  std::string status;  // StepStatusName of the last iteration
  int64_t steps = 0;
  int64_t new_deletions = 0;
  int64_t total_deletions = 0;
  bool finished = false;
  bool resolved = false;
};

/// Client view of an `update` response (the serve-side `UpdateReport`).
struct ClientUpdateResult {
  bool incremental = false;
  int64_t touched_rows = 0;
  int64_t entries_cached = 0;
  int64_t entries_invalidated = 0;
  bool reopened = false;
};

/// Client view of a `status` response.
struct ClientSessionStatus {
  std::string dataset;
  std::string state;
  int64_t iterations = 0;
  int64_t deletions = 0;
  bool finished = false;
  bool resolved = false;
};

/// \brief Thin blocking client for the rain_debugd wire protocol.
///
/// One request in flight at a time (the protocol is strictly
/// request/response). Errors come back as the same `Status` codes the
/// service produced — `StatusFromResponse` reconstructs them from the
/// wire — so client code handles `kResourceExhausted` from admission
/// control identically in-process and over the socket.
class DebugClient {
 public:
  DebugClient() = default;
  ~DebugClient();

  DebugClient(const DebugClient&) = delete;
  DebugClient& operator=(const DebugClient&) = delete;
  DebugClient(DebugClient&& other) noexcept;
  DebugClient& operator=(DebugClient&& other) noexcept;

  /// Connects to a rain_debugd AF_UNIX socket.
  static Result<DebugClient> Connect(const std::string& socket_path);

  bool connected() const { return fd_ >= 0; }

  /// Sends one raw request line, returns the raw JSON response line.
  /// Transport failures are kInternal.
  Result<std::string> Call(const std::string& line);

  /// `open <dataset> ...options` -> sid. `options` is appended verbatim
  /// to the request line (e.g. "parallelism=2 timeout=5").
  Result<uint64_t> Open(const std::string& dataset,
                        const std::string& options = "");
  Result<ClientStepResult> Step(uint64_t sid, int steps = 1);
  Result<ClientSessionStatus> GetStatus(uint64_t sid);
  Status ComplainPoint(uint64_t sid, const std::string& table, int64_t row,
                       int correct_class);
  /// `update <sid> label <row> <class>` — correct one training label.
  /// `policy` is "" (server default, auto) or one of
  /// "auto"/"incremental"/"full".
  Result<ClientUpdateResult> UpdateLabel(uint64_t sid, int64_t row,
                                         int new_class,
                                         const std::string& policy = "");
  /// `update <sid> deactivate <row>` — tombstone a training row.
  Result<ClientUpdateResult> Deactivate(uint64_t sid, int64_t row,
                                        const std::string& policy = "");
  /// `update <sid> reactivate <row>` — restore a tombstoned row.
  Result<ClientUpdateResult> Reactivate(uint64_t sid, int64_t row,
                                        const std::string& policy = "");
  Status Cancel(uint64_t sid);
  Status Close(uint64_t sid);
  /// Polite disconnect (`quit`); the server closes remaining sessions.
  void Quit();

 private:
  /// Sends one `update ...` line and parses the shared response shape.
  Result<ClientUpdateResult> UpdateCall(const std::string& line);

  int fd_ = -1;
  std::string buffer_;  // bytes past the last complete response line
};

}  // namespace serve
}  // namespace rain

#endif  // RAIN_SERVE_CLIENT_H_
