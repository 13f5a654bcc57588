// Result-table formatting for the benchmark harness.
//
// Every bench binary regenerates one table/figure of the paper; this writer
// prints the rows as an aligned ASCII table on stdout and can additionally
// dump machine-readable CSV, so plots can be regenerated from the bench
// output alone.
#pragma once

#include <cstdint>
#include <type_traits>
#include <string>
#include <vector>

#include "obs/report/json_value.hpp"

namespace dfsssp {

class Table {
 public:
  /// `title` is printed above the table (e.g. "Figure 5: eBB on XGFT").
  explicit Table(std::string title, std::vector<std::string> columns);

  /// Starts a new row; subsequent add_* calls fill its cells left to right.
  Table& row();

  Table& cell(std::string value);
  Table& cell(const char* value) { return cell(std::string(value)); }
  Table& cell(double value, int precision = 3);
  template <typename T>
    requires std::is_integral_v<T>
  Table& cell(T value) {
    return cell(std::to_string(value));
  }

  /// Prints the aligned table to stdout.
  void print() const;

  /// Writes the table as CSV (header + rows) to `path`.
  void write_csv(const std::string& path) const;

  /// The table as a JSON object {"title", "columns", "rows"} of strings —
  /// the form embedded in the bench `--json` run reports, so tables
  /// round-trip without re-parsing CSV. Short rows pad with empty cells,
  /// mirroring print()/write_csv.
  obs::JsonValue to_json() const;

  std::size_t num_rows() const { return rows_.size(); }
  const std::string& title() const { return title_; }
  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dfsssp
