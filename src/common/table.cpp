#include "common/table.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace dfsssp {

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

Table& Table::row() {
  rows_.emplace_back();
  rows_.back().reserve(columns_.size());
  return *this;
}

Table& Table::cell(std::string value) {
  if (rows_.empty()) throw std::logic_error("Table::cell before row()");
  rows_.back().push_back(std::move(value));
  return *this;
}

Table& Table::cell(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return cell(std::string(buf));
}


void Table::print() const {
  std::vector<std::size_t> width(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) width[c] = columns_[c].size();
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], r[c].size());
    }
  }
  std::printf("\n== %s ==\n", title_.c_str());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    std::printf("%-*s%s", static_cast<int>(width[c]), columns_[c].c_str(),
                c + 1 == columns_.size() ? "\n" : "  ");
  }
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    std::printf("%s%s", std::string(width[c], '-').c_str(),
                c + 1 == columns_.size() ? "\n" : "  ");
  }
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      const std::string& v = c < r.size() ? r[c] : std::string();
      std::printf("%-*s%s", static_cast<int>(width[c]), v.c_str(),
                  c + 1 == columns_.size() ? "\n" : "  ");
    }
  }
  std::fflush(stdout);
}

void Table::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open CSV output: " + path);
  auto quote = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string q = "\"";
    for (char ch : s) {
      if (ch == '"') q += "\"\"";
      else q += ch;
    }
    q += '"';
    return q;
  };
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    out << quote(columns_[c]) << (c + 1 == columns_.size() ? "\n" : ",");
  }
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      out << (c < r.size() ? quote(r[c]) : std::string())
          << (c + 1 == columns_.size() ? "\n" : ",");
    }
  }
}

obs::JsonValue Table::to_json() const {
  using obs::JsonValue;
  JsonValue columns = JsonValue::array();
  for (const std::string& c : columns_) columns.push_back(JsonValue::string(c));
  JsonValue rows = JsonValue::array();
  for (const auto& r : rows_) {
    JsonValue row = JsonValue::array();
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      row.push_back(JsonValue::string(c < r.size() ? r[c] : std::string()));
    }
    rows.push_back(std::move(row));
  }
  JsonValue out = JsonValue::object();
  out.set("title", JsonValue::string(title_));
  out.set("columns", std::move(columns));
  out.set("rows", std::move(rows));
  return out;
}

}  // namespace dfsssp
