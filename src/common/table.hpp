// Fixed-width ASCII table printer used by the figure driver
// (virec-repro) so every experiment prints the same style of report.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace virec {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append one row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Render with aligned columns to @p os.
  void print(std::ostream& os) const;

  /// Render to a string (used in tests).
  std::string to_string() const;

  std::size_t rows() const { return rows_.size(); }

  /// Format helpers for numeric cells.
  static std::string fmt(double v, int precision = 3);
  static std::string fmt_pct(double fraction, int precision = 1);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace virec
