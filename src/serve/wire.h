#ifndef RAIN_SERVE_WIRE_H_
#define RAIN_SERVE_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/session.h"

namespace rain {
namespace serve {

/// \brief The rain_debugd wire protocol: line-delimited requests, one flat
/// JSON object per response line.
///
/// Requests are a verb plus whitespace-separated arguments (`key=value`
/// options allowed where a verb documents them):
///
///   open <dataset> [ranker=NAME] [parallelism=N] [timeout=SECONDS]
///                  [top_k=N] [max_deletions=N] [max_iterations=N]
///   step <sid> [n]
///   complain <sid> point <table> <row> <class>
///   update <sid> label <row> <class> [policy=auto|incremental|full]
///   update <sid> deactivate <row> [policy=...]
///   update <sid> reactivate <row> [policy=...]
///   status <sid>
///   cancel <sid>
///   close <sid>
///   ping
///   quit
///
/// Every response is a single line of flat JSON (no nesting) and always
/// carries `"ok"`. Failures carry the `Status` contract — a stable code
/// name (`StatusCodeName`) plus a message — never a bare string:
///
///   {"ok":true,"sid":3}
///   {"ok":false,"code":"ResourceExhausted","message":"..."}
///
/// The helpers here are shared by the server (compose responses) and the
/// thin client (parse them); both sides treat unknown JSON keys as
/// ignorable so the schema can grow.

/// A parsed request line.
struct WireRequest {
  std::string verb;               // lower-cased
  std::vector<std::string> args;  // positional + key=value options, in order
};

/// Splits a request line into verb + args. Empty / whitespace-only lines
/// are invalid (callers skip them before parsing).
Result<WireRequest> ParseRequest(std::string_view line);

/// Looks up `key=value` among `args`; returns the value of the LAST
/// occurrence (wire options are last-write-wins like builder setters).
std::optional<std::string> FindOption(const std::vector<std::string>& args,
                                      std::string_view key);

/// JSON string escaping for the small charset the protocol emits
/// (quotes, backslash, control chars).
std::string JsonEscape(std::string_view s);

/// \brief Builder for one flat JSON response object; keys are emitted in
/// insertion order so responses are byte-stable for tests.
class JsonObject {
 public:
  JsonObject& Add(std::string_view key, std::string_view value);
  JsonObject& Add(std::string_view key, const char* value) {
    return Add(key, std::string_view(value));
  }
  JsonObject& Add(std::string_view key, int64_t value);
  JsonObject& Add(std::string_view key, uint64_t value);
  JsonObject& Add(std::string_view key, int value) {
    return Add(key, static_cast<int64_t>(value));
  }
  JsonObject& Add(std::string_view key, double value);
  JsonObject& Add(std::string_view key, bool value);

  /// `{"k":v,...}` — no trailing newline (the transport appends it).
  std::string Str() const;

 private:
  std::string body_;
};

/// `{"ok":true,...fields...}`.
std::string OkResponse(const JsonObject& fields = JsonObject());
/// `{"ok":false,"code":...,"message":...}`; `status` must be non-OK.
std::string ErrorResponse(const Status& status);

/// Client-side flat-JSON field extraction (the protocol never nests, so a
/// linear scan suffices). Returns the raw unquoted/unescaped value.
std::optional<std::string> JsonGetString(std::string_view json,
                                         std::string_view key);
std::optional<int64_t> JsonGetInt(std::string_view json, std::string_view key);
std::optional<bool> JsonGetBool(std::string_view json, std::string_view key);

/// Reconstructs the `Status` carried by a `{"ok":false,...}` response;
/// OK when the response says `"ok":true`, kInternal for malformed lines.
Status StatusFromResponse(std::string_view json);

/// \brief The deterministic session-outcome -> Status mapping of the
/// service error surface.
///
/// Loop-control outcomes are successes (OK): resolved, budget/iteration
/// caps, no-progress, already-finished all leave a valid report.
/// kCancelled maps to kCancelled; kDeadlineExceeded maps to
/// kResourceExhausted — a deadline is the session's time quota, and the
/// service speaks quota refusals uniformly through that code (admission
/// rejections use it too).
Status StepStatusToStatus(StepStatus status);

}  // namespace serve
}  // namespace rain

#endif  // RAIN_SERVE_WIRE_H_
