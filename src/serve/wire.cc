#include "serve/wire.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"

namespace rain {
namespace serve {

Result<WireRequest> ParseRequest(std::string_view line) {
  WireRequest request;
  const std::string_view trimmed = Trim(line);
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty request line");
  }
  size_t i = 0;
  while (i < trimmed.size()) {
    while (i < trimmed.size() &&
           std::isspace(static_cast<unsigned char>(trimmed[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < trimmed.size() &&
           !std::isspace(static_cast<unsigned char>(trimmed[i]))) {
      ++i;
    }
    if (i > start) {
      std::string token(trimmed.substr(start, i - start));
      if (request.verb.empty()) {
        request.verb = ToLower(token);
      } else {
        request.args.push_back(std::move(token));
      }
    }
  }
  return request;
}

std::optional<std::string> FindOption(const std::vector<std::string>& args,
                                      std::string_view key) {
  std::optional<std::string> found;
  for (const std::string& arg : args) {
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) continue;
    if (std::string_view(arg).substr(0, eq) == key) {
      found = arg.substr(eq + 1);
    }
  }
  return found;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonObject& JsonObject::Add(std::string_view key, std::string_view value) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += JsonEscape(key);
  body_ += "\":\"";
  body_ += JsonEscape(value);
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::Add(std::string_view key, int64_t value) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += JsonEscape(key);
  body_ += "\":";
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Add(std::string_view key, uint64_t value) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += JsonEscape(key);
  body_ += "\":";
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Add(std::string_view key, double value) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += JsonEscape(key);
  body_ += "\":";
  body_ += StrFormat("%.17g", value);
  return *this;
}

JsonObject& JsonObject::Add(std::string_view key, bool value) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += JsonEscape(key);
  body_ += "\":";
  body_ += value ? "true" : "false";
  return *this;
}

std::string JsonObject::Str() const { return "{" + body_ + "}"; }

std::string OkResponse(const JsonObject& fields) {
  JsonObject out;
  out.Add("ok", true);
  const std::string rest = fields.Str();
  std::string line = out.Str();
  if (rest.size() > 2) {  // non-empty object: splice "{...}" after "ok"
    line.pop_back();
    line += ',';
    line.append(rest, 1, rest.size() - 1);
  }
  return line;
}

std::string ErrorResponse(const Status& status) {
  JsonObject out;
  out.Add("ok", false);
  out.Add("code", StatusCodeName(status.ok() ? StatusCode::kInternal
                                             : status.code()));
  out.Add("message", status.message());
  return out.Str();
}

namespace {

/// Finds the start of `key`'s value in a FLAT json object; npos if absent.
size_t FindValueStart(std::string_view json, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const size_t at = json.find(needle);
  if (at == std::string_view::npos) return std::string_view::npos;
  return at + needle.size();
}

/// The byte of a `XXXX` hex code point below 0x80 at the start of
/// `hex`; nullopt for anything else.
std::optional<char> DecodeAsciiEscape(std::string_view hex) {
  if (hex.size() < 4) return std::nullopt;
  for (size_t k = 0; k < 4; ++k) {
    if (!std::isxdigit(static_cast<unsigned char>(hex[k]))) return std::nullopt;
  }
  const long value = std::strtol(std::string(hex.substr(0, 4)).c_str(), nullptr, 16);
  if (value >= 0x80) return std::nullopt;
  return static_cast<char>(value);
}

}  // namespace

std::optional<std::string> JsonGetString(std::string_view json,
                                         std::string_view key) {
  size_t i = FindValueStart(json, key);
  if (i == std::string_view::npos || i >= json.size() || json[i] != '"') {
    return std::nullopt;
  }
  ++i;
  std::string out;
  while (i < json.size() && json[i] != '"') {
    if (json[i] == '\\' && i + 1 < json.size()) {
      ++i;
      switch (json[i]) {
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          // JsonEscape writes the other control bytes as \u00XX.
          const std::optional<char> byte = DecodeAsciiEscape(json.substr(i + 1));
          if (byte.has_value()) {
            out += *byte;
            i += 4;
          } else {
            out += 'u';
          }
          break;
        }
        default:
          out += json[i];  // \" \\ \/ — and unknown escapes pass through
      }
    } else {
      out += json[i];
    }
    ++i;
  }
  return out;
}

std::optional<int64_t> JsonGetInt(std::string_view json, std::string_view key) {
  const size_t i = FindValueStart(json, key);
  if (i == std::string_view::npos || i >= json.size()) return std::nullopt;
  const size_t first_digit = json[i] == '-' ? i + 1 : i;
  size_t end = first_digit;
  while (end < json.size() && std::isdigit(static_cast<unsigned char>(json[end]))) {
    ++end;
  }
  if (end == first_digit) return std::nullopt;
  // strtoll reads to a terminator, which a string_view need not have.
  return std::strtoll(std::string(json.substr(i, end - i)).c_str(), nullptr, 10);
}

std::optional<bool> JsonGetBool(std::string_view json, std::string_view key) {
  const size_t i = FindValueStart(json, key);
  if (i == std::string_view::npos) return std::nullopt;
  if (json.substr(i, 4) == "true") return true;
  if (json.substr(i, 5) == "false") return false;
  return std::nullopt;
}

Status StatusFromResponse(std::string_view json) {
  const std::optional<bool> ok = JsonGetBool(json, "ok");
  if (!ok.has_value()) {
    return Status::Internal("malformed wire response: " + std::string(json));
  }
  if (*ok) return Status::OK();
  const StatusCode code = StatusCodeFromName(
      JsonGetString(json, "code").value_or("Internal"));
  return Status(code == StatusCode::kOk ? StatusCode::kInternal : code,
                JsonGetString(json, "message").value_or(""));
}

Status StepStatusToStatus(StepStatus status) {
  switch (status) {
    case StepStatus::kCancelled:
      return Status::Cancelled("session cancelled");
    case StepStatus::kDeadlineExceeded:
      return Status::ResourceExhausted("session time quota exhausted");
    case StepStatus::kIterated:
    case StepStatus::kResolved:
    case StepStatus::kNoProgress:
    case StepStatus::kBudgetExhausted:
    case StepStatus::kIterationLimit:
    case StepStatus::kAlreadyFinished:
      return Status::OK();
  }
  return Status::Internal("unknown StepStatus");
}

}  // namespace serve
}  // namespace rain
