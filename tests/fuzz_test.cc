/// Seeded mutation fuzzing of the parsers that read untrusted text: the
/// wire request line, the flat-JSON response readers, the SQL lexer and
/// parser, and the CSV dataset and table readers. Every mutated input must come back as a value or a
/// Status: never an abort, an exception or, in the ASan/UBSan build, a
/// sanitizer report. The seed and the mutation count are fixed, so a
/// failure reproduces exactly, and the failing input is printed.
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/csv_io.h"
#include "gtest/gtest.h"
#include "serve/wire.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace rain {
namespace {

constexpr uint64_t kFuzzSeed = 0x5eed;
constexpr int kMutations = 20000;
constexpr size_t kMaxLength = 512;

/// Produces mutated inputs from a seed corpus and a token dictionary.
/// Each input applies one to four mutations to a corpus entry.
class Mutator {
 public:
  Mutator(std::vector<std::string> corpus, std::vector<std::string> dictionary)
      : corpus_(std::move(corpus)), dictionary_(std::move(dictionary)), rng_(kFuzzSeed) {}

  std::string Next() {
    std::string s = Pick(corpus_);
    const int rounds = 1 + static_cast<int>(rng_.UniformInt(4));
    for (int r = 0; r < rounds; ++r) Mutate(&s);
    if (s.size() > kMaxLength) s.resize(kMaxLength);
    return s;
  }

 private:
  const std::string& Pick(const std::vector<std::string>& v) {
    return v[rng_.UniformInt(v.size())];
  }
  size_t Pos(const std::string& s) { return rng_.UniformInt(s.size() + 1); }
  char Byte() { return static_cast<char>(rng_.UniformInt(256)); }

  void Mutate(std::string* s) {
    switch (rng_.UniformInt(8)) {
      case 0:  // flip one bit
        if (!s->empty()) (*s)[Pos(*s) % s->size()] ^= static_cast<char>(1 << rng_.UniformInt(8));
        break;
      case 1:  // overwrite one byte
        if (!s->empty()) (*s)[Pos(*s) % s->size()] = Byte();
        break;
      case 2:  // insert one byte
        s->insert(Pos(*s), 1, Byte());
        break;
      case 3: {  // erase a short span
        const size_t at = Pos(*s);
        s->erase(at, 1 + rng_.UniformInt(8));
        break;
      }
      case 4:  // insert a dictionary token
        s->insert(Pos(*s), Pick(dictionary_));
        break;
      case 5: {  // duplicate a span
        const size_t at = Pos(*s);
        const std::string span = s->substr(at, 1 + rng_.UniformInt(16));
        s->insert(Pos(*s), span);
        break;
      }
      case 6:  // truncate
        s->resize(Pos(*s));
        break;
      default: {  // splice: this input's prefix, another entry's suffix
        const std::string& other = Pick(corpus_);
        *s = s->substr(0, Pos(*s)) + other.substr(Pos(other));
        break;
      }
    }
  }

  std::vector<std::string> corpus_;
  std::vector<std::string> dictionary_;
  Rng rng_;
};

/// The input in an exact-size heap buffer: a reader that runs past the
/// end of its string_view trips ASan instead of meeting a terminator.
class ExactBuffer {
 public:
  explicit ExactBuffer(const std::string& s) : bytes_(s.begin(), s.end()) {}
  std::string_view view() const { return {bytes_.data(), bytes_.size()}; }

 private:
  std::vector<char> bytes_;
};

std::string Printable(const std::string& s) {
  std::string out;
  for (const char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (std::isprint(u) != 0 && c != '\\') {
      out += c;
    } else {
      static const char kHex[] = "0123456789abcdef";
      out += "\\x";
      out += kHex[u >> 4];
      out += kHex[u & 15];
    }
  }
  return out;
}

TEST(FuzzTest, WireRequestLines) {
  Mutator mutator(
      {"open dblp ranker=holistic parallelism=2 timeout=5 top_k=10",
       "open adult max_deletions=50 max_iterations=3", "step 3 4",
       "complain 3 point dblp 17 1", "update 3 label 12 0 policy=incremental",
       "update 3 deactivate 9 policy=full", "update 3 reactivate 9", "status 3",
       "cancel 3", "close 3", "ping", "quit"},
      {" ", "\t", "=", "==", "policy=", "ranker=", "-1", "99999999999999999999",
       "OPEN", "\r\n", std::string(1, '\0'), "\xff"});
  for (int n = 0; n < kMutations; ++n) {
    const std::string input = mutator.Next();
    SCOPED_TRACE(Printable(input));
    const ExactBuffer buffer(input);
    const Result<serve::WireRequest> request = serve::ParseRequest(buffer.view());
    if (!request.ok()) {
      EXPECT_TRUE(request.status().IsInvalidArgument()) << request.status().ToString();
      continue;
    }
    ASSERT_FALSE(request->verb.empty());
    for (const char c : request->verb) {
      ASSERT_EQ(c, static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
    for (const std::string& arg : request->args) ASSERT_FALSE(arg.empty());
    for (const char* key : {"ranker", "parallelism", "timeout", "policy", ""}) {
      (void)serve::FindOption(request->args, key);
    }
  }
}

TEST(FuzzTest, WireResponseReaders) {
  Mutator mutator(
      {serve::OkResponse(serve::JsonObject().Add("sid", 3).Add("state", "running")),
       serve::OkResponse(serve::JsonObject()
                             .Add("iterations", 4)
                             .Add("deletions", int64_t{-12})
                             .Add("auccr", 0.75)
                             .Add("resolved", false)),
       serve::ErrorResponse(Status::ResourceExhausted("queue \"full\"\n")),
       serve::ErrorResponse(Status::InvalidArgument("bad \\ row\t9"))},
      {"\"ok\":", "\"code\":", "\"message\":", "\"sid\":", "true", "false", "\\",
       "\\\"", "\\u00", "-", "9223372036854775808", "\"", "{", "}", ","});
  for (int n = 0; n < kMutations; ++n) {
    const std::string input = mutator.Next();
    SCOPED_TRACE(Printable(input));
    const ExactBuffer buffer(input);
    for (const char* key : {"ok", "code", "message", "sid", "deletions", "auccr"}) {
      (void)serve::JsonGetString(buffer.view(), key);
      (void)serve::JsonGetInt(buffer.view(), key);
      (void)serve::JsonGetBool(buffer.view(), key);
    }
    const Status status = serve::StatusFromResponse(buffer.view());
    if (serve::JsonGetBool(buffer.view(), "ok") != std::optional<bool>(true)) {
      EXPECT_FALSE(status.ok());
    }
  }
}

TEST(FuzzTest, EveryStatusMessageSurvivesTheWire) {
  // The message bytes are arbitrary (mutated), the code any non-OK one:
  // the client must read back exactly what the server sent.
  Mutator mutator({"ILP budget exhausted with no feasible solution",
                   "unknown session 7", "row 12 out of range [0, 10)"},
                  {"\"", "\\", "\n", "\r", "\t", std::string(1, '\0'), "\x01",
                   "\x1f", "\x7f", "\xe9", "\\u0041", "\"message\":\""});
  const StatusCode kCodes[] = {StatusCode::kInvalidArgument, StatusCode::kNotFound,
                               StatusCode::kParseError,
                               StatusCode::kResourceExhausted, StatusCode::kCancelled,
                               StatusCode::kInternal};
  for (int n = 0; n < kMutations; ++n) {
    const std::string message = mutator.Next();
    SCOPED_TRACE(Printable(message));
    const Status sent(kCodes[static_cast<size_t>(n) % std::size(kCodes)], message);
    const Status received = serve::StatusFromResponse(serve::ErrorResponse(sent));
    ASSERT_EQ(received.code(), sent.code());
    ASSERT_EQ(received.message(), message);
  }
}

/// An operator chain inside parentheses, a few levels below the parser's
/// depth limit, so that inserting or duplicating a few parentheses or
/// minus signs crosses it.
std::string NearDepthLimitChain() {
  constexpr size_t kParens = 12;
  std::string q = "SELECT * FROM T WHERE a = " + std::string(kParens, '(') + "1";
  while (q.size() + 2 + kParens <= kMaxLength) q += "+1";
  return q + std::string(kParens, ')');
}

TEST(FuzzTest, SqlLexerAndParser) {
  Mutator mutator(
      {"SELECT COUNT(*) FROM R WHERE predict(*) = 1",
       "SELECT COUNT(*) FROM Users U WHERE M.predict(U.*) = 'Churn'",
       "SELECT gender, AVG(predict(*)) AS churn FROM Adult GROUP BY gender",
       "SELECT * FROM A JOIN B ON A.x = B.y WHERE A.z <> 3.5",
       "SELECT a + b * 2 AS v FROM T WHERE a = 1 OR b = 2 AND NOT c >= -4",
       "SELECT COUNT(*) FROM Enron WHERE text LIKE '%http%' AND x != 'it''s'",
       "SELECT SUM(x), MIN(y), MAX(z) FROM T, S WHERE T.k = S.k GROUP BY T.g",
       NearDepthLimitChain()},
      {"SELECT", "FROM", "WHERE", "GROUP BY", "JOIN", "ON", "AS", "AND", "OR",
       "NOT", "LIKE", "predict", "(", ")", "(*)", ",", ".", "*", "'", "''", "<>",
       "<=", "=", "-", "1e999", "99999999999999999999", "0.", ".5", " "});
  for (int n = 0; n < kMutations; ++n) {
    const std::string input = mutator.Next();
    SCOPED_TRACE(Printable(input));
    const Result<std::vector<sql::Token>> tokens = sql::Lex(input);
    if (tokens.ok()) {
      ASSERT_FALSE(tokens->empty());
      EXPECT_EQ(tokens->back().kind, sql::TokenKind::kEnd);
    } else {
      EXPECT_FALSE(tokens.status().message().empty());
    }
    const Result<sql::SelectStmt> stmt = sql::ParseSelect(input);
    if (!tokens.ok()) {
      EXPECT_FALSE(stmt.ok()) << "parsed an input the lexer rejects";
    }
    if (stmt.ok()) {
      EXPECT_FALSE(stmt->from.empty());
    }
  }
}

/// Writes `text` to one test temp file, reused across inputs.
std::string WriteCsvFile(const std::string& text) {
  const std::string path = ::testing::TempDir() + "rain_fuzz_input.csv";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return path;
}

TEST(FuzzTest, CsvDatasetAndTableReaders) {
  Mutator mutator(
      {"f0,f1,label\n0.5,-1.25,1\n3,4e-3,0\n",
       "label,x\n1,2.5\n0,\"7\"\n\n1,1e300\n",
       "id:INT64,score:DOUBLE,name:STRING,flag:BOOL\n1,0.5,\"a,\"\"b\"\"\",true\n"
       "-2,3,plain,0\n",
       "k:int64,s:string\n9223372036854775807,\"multi\r\nline\"\n"},
      {",", "\"", "\"\"", "\n", "\r\n", "\r", "label", ":INT64", ":DOUBLE",
       ":STRING", ":BOOL", ":", "1e999", "-1e999", "nan", "inf", "-1", "2",
       "99999999999999999999", "9223372036854775808", "0x1p3", "1.5", "true", " ",
       std::string(1, '\0'), "\xff"});
  // Every input costs a file write, so this target runs a quarter of the
  // mutations.
  for (int n = 0; n < kMutations / 4; ++n) {
    const std::string input = mutator.Next();
    SCOPED_TRACE(Printable(input));
    const std::string path = WriteCsvFile(input);
    const Result<Dataset> dataset = ReadDatasetCsv(path, /*num_classes=*/2);
    if (dataset.ok()) {
      for (size_t i = 0; i < dataset->size(); ++i) {
        ASSERT_TRUE(dataset->label(i) == 0 || dataset->label(i) == 1);
      }
    } else {
      EXPECT_FALSE(dataset.status().message().empty());
    }
    const Result<Table> table = ReadTableCsv(path);
    if (table.ok()) {
      for (size_t r = 0; r < table->num_rows(); ++r) {
        for (size_t c = 0; c < table->num_columns(); ++c) {
          ASSERT_EQ(table->Get(r, c).type(), table->schema().field(c).type);
        }
      }
    } else {
      EXPECT_FALSE(table.status().message().empty());
    }
  }
}

}  // namespace
}  // namespace rain
