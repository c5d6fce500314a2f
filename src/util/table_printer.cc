#include "src/util/table_printer.h"

#include <cstdio>
#include <sstream>

#include "src/util/check.h"

namespace firzen {

std::string FormatReal(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return std::string(buf);
}

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TablePrinter::BeginRow() { rows_.emplace_back(); }

void TablePrinter::AddCell(const std::string& value) {
  FIRZEN_CHECK(!rows_.empty());
  rows_.back().push_back(value);
}

void TablePrinter::AddCell(double value, int precision) {
  AddCell(FormatReal(value, precision));
}

std::string TablePrinter::ToString() const {
  std::vector<size_t> widths(header_.size(), 0);
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    out << "|";
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string cell = c < row.size() ? row[c] : "";
      out << " " << cell << std::string(widths[c] - cell.size(), ' ') << " |";
    }
    out << "\n";
  };
  auto emit_rule = [&] {
    out << "+";
    for (size_t c = 0; c < widths.size(); ++c) {
      out << std::string(widths[c] + 2, '-') << "+";
    }
    out << "\n";
  };
  emit_rule();
  emit_row(header_);
  emit_rule();
  for (const auto& row : rows_) emit_row(row);
  emit_rule();
  return out.str();
}

void TablePrinter::Print() const { std::fputs(ToString().c_str(), stdout); }

}  // namespace firzen
