// Fixed-width console table writer. The benchmark harness uses it to print
// tables in the same row/column layout as the paper.
#ifndef FIRZEN_UTIL_TABLE_PRINTER_H_
#define FIRZEN_UTIL_TABLE_PRINTER_H_

#include <string>
#include <vector>

namespace firzen {

/// Accumulates rows of string cells and renders an aligned ASCII table.
/// Numeric convenience overloads format with a configurable precision,
/// matching the paper's percentage-points-with-2-decimals style.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  /// Start a new row.
  void BeginRow();

  /// Append a string cell to the current row.
  void AddCell(const std::string& value);

  /// Append a numeric cell rendered with `precision` decimals.
  void AddCell(double value, int precision = 2);

  /// Render the table to a string.
  std::string ToString() const;

  /// Render and write to stdout.
  void Print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with the given number of decimals.
std::string FormatReal(double value, int precision = 2);

}  // namespace firzen

#endif  // FIRZEN_UTIL_TABLE_PRINTER_H_
