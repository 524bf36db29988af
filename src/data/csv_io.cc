#include "data/csv_io.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace rain {
namespace {

/// Splits one CSV record honoring double-quoted fields.
Result<std::vector<std::string>> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else if (c != '\r') {
      field += c;
    }
  }
  if (in_quotes) return Status::ParseError("unterminated quote in CSV line");
  fields.push_back(std::move(field));
  return fields;
}

std::string EscapeCsv(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  return out + "\"";
}

Result<double> ParseDouble(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str()) return Status::ParseError("not a number: '" + s + "'");
  // Reject trailing non-space junk ("1.5x").
  for (const char* p = end; *p != '\0'; ++p) {
    if (*p != ' ' && *p != '\t' && *p != '\r') {
      return Status::ParseError("not a number: '" + s + "'");
    }
  }
  return v;
}

}  // namespace

Result<Dataset> ReadDatasetCsv(const std::string& path, int num_classes) {
  if (num_classes < 2) {
    return Status::InvalidArgument(
        StrFormat("a dataset needs at least two classes, got %d", num_classes));
  }
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::string line;
  if (!std::getline(in, line)) return Status::ParseError("empty CSV file");
  RAIN_ASSIGN_OR_RETURN(std::vector<std::string> header, SplitCsvLine(line));
  int label_col = -1;
  for (size_t i = 0; i < header.size(); ++i) {
    if (ToLower(Trim(header[i])) == "label") label_col = static_cast<int>(i);
  }
  if (label_col < 0) return Status::ParseError("CSV needs a 'label' column");
  const size_t d = header.size() - 1;

  std::vector<double> values;
  std::vector<int> labels;
  size_t rows = 0;
  while (std::getline(in, line)) {
    if (Trim(line).empty()) continue;
    RAIN_ASSIGN_OR_RETURN(std::vector<std::string> fields, SplitCsvLine(line));
    if (fields.size() != header.size()) {
      return Status::ParseError(StrFormat("row %zu has %zu fields, expected %zu",
                                          rows + 1, fields.size(), header.size()));
    }
    for (size_t i = 0; i < fields.size(); ++i) {
      RAIN_ASSIGN_OR_RETURN(const double v, ParseDouble(fields[i]));
      if (static_cast<int>(i) == label_col) {
        // Range-check before the cast: converting a double outside int's
        // range (or NaN) is undefined.
        if (!(v >= 0.0 && v < static_cast<double>(num_classes)) || v != std::floor(v)) {
          return Status::OutOfRange(StrFormat("label %g out of [0, %d)", v,
                                              num_classes));
        }
        labels.push_back(static_cast<int>(v));
      } else {
        values.push_back(v);
      }
    }
    ++rows;
  }
  Matrix x(rows, d);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t f = 0; f < d; ++f) x.At(r, f) = values[r * d + f];
  }
  return Dataset(std::move(x), std::move(labels), num_classes);
}

Status WriteDatasetCsv(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot write '" + path + "'");
  for (size_t f = 0; f < dataset.num_features(); ++f) out << "f" << f << ",";
  out << "label\n";
  for (size_t i = 0; i < dataset.size(); ++i) {
    for (size_t f = 0; f < dataset.num_features(); ++f) {
      out << StrFormat("%.17g", dataset.features().At(i, f)) << ",";
    }
    out << dataset.label(i) << "\n";
  }
  return out ? Status::OK() : Status::Internal("short write to '" + path + "'");
}

Result<Table> ReadTableCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::string line;
  if (!std::getline(in, line)) return Status::ParseError("empty CSV file");
  RAIN_ASSIGN_OR_RETURN(std::vector<std::string> header, SplitCsvLine(line));

  Schema schema;
  for (const std::string& h : header) {
    const auto parts = Split(h, ':');
    if (parts.size() != 2) {
      return Status::ParseError("header field '" + h + "' is not name:type");
    }
    const std::string type = ToLower(Trim(parts[1]));
    DataType dt;
    if (type == "int64") dt = DataType::kInt64;
    else if (type == "double") dt = DataType::kDouble;
    else if (type == "string") dt = DataType::kString;
    else if (type == "bool") dt = DataType::kBool;
    else return Status::ParseError("unknown column type '" + parts[1] + "'");
    schema.AddField(Field{std::string(Trim(parts[0])), dt, ""});
  }
  Table table(schema);
  size_t row = 0;
  while (std::getline(in, line)) {
    if (Trim(line).empty()) continue;
    RAIN_ASSIGN_OR_RETURN(std::vector<std::string> fields, SplitCsvLine(line));
    if (fields.size() != schema.num_fields()) {
      return Status::ParseError(StrFormat("row %zu arity mismatch", row + 1));
    }
    std::vector<Value> values;
    values.reserve(fields.size());
    for (size_t c = 0; c < fields.size(); ++c) {
      switch (schema.field(c).type) {
        case DataType::kInt64: {
          RAIN_ASSIGN_OR_RETURN(const double v, ParseDouble(fields[c]));
          // [-2^63, 2^63): converting a double outside it (or NaN) is
          // undefined.
          if (!(v >= -9223372036854775808.0 && v < 9223372036854775808.0)) {
            return Status::ParseError("INT64 value out of range: '" + fields[c] + "'");
          }
          values.push_back(Value(static_cast<int64_t>(v)));
          break;
        }
        case DataType::kDouble: {
          RAIN_ASSIGN_OR_RETURN(const double v, ParseDouble(fields[c]));
          values.push_back(Value(v));
          break;
        }
        case DataType::kString:
          values.push_back(Value(fields[c]));
          break;
        case DataType::kBool: {
          const std::string b = ToLower(Trim(fields[c]));
          if (b != "true" && b != "false" && b != "0" && b != "1") {
            return Status::ParseError("bad bool '" + fields[c] + "'");
          }
          values.push_back(Value(b == "true" || b == "1"));
          break;
        }
      }
    }
    RAIN_RETURN_NOT_OK(table.AppendRow(values));
    ++row;
  }
  return table;
}

Status WriteTableCsv(const Table& table, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot write '" + path + "'");
  for (size_t c = 0; c < table.schema().num_fields(); ++c) {
    if (c > 0) out << ",";
    out << table.schema().field(c).name << ":"
        << DataTypeName(table.schema().field(c).type);
  }
  out << "\n";
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out << ",";
      const Value v = table.Get(r, c);
      if (v.is_string()) {
        out << EscapeCsv(v.AsString());
      } else if (v.is_double()) {
        out << StrFormat("%.17g", v.AsDouble());
      } else {
        out << v.ToString();
      }
    }
    out << "\n";
  }
  return out ? Status::OK() : Status::Internal("short write to '" + path + "'");
}

}  // namespace rain
