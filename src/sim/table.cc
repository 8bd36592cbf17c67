#include "sim/table.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/check.h"

namespace rrs {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  RRS_REQUIRE(!header_.empty(), "table needs at least one column");
}

void TextTable::add_row(std::vector<std::string> row) {
  RRS_REQUIRE(row.size() == header_.size(),
              "row has " << row.size() << " cells, table has "
                         << header_.size() << " columns");
  rows_.push_back(std::move(row));
}

void TextTable::print(std::ostream& out) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  const auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c + 1 < row.size(); ++c) {
      out << std::left << std::setw(static_cast<int>(widths[c])) << row[c]
          << "  ";
    }
    out << row.back() << "\n";  // no trailing padding
  };
  print_row(header_);
  std::size_t total = 0;
  for (const std::size_t w : widths) total += w + 2;
  out << std::string(total >= 2 ? total - 2 : total, '-') << "\n";
  for (const auto& row : rows_) print_row(row);
}

std::string fmt_double(double value, int digits) {
  std::ostringstream os;
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  os << std::fixed << std::setprecision(digits) << value;
  return os.str();
}

std::string fmt_ratio(double value) {
  if (std::isinf(value)) return "x inf";
  // Built via += : GCC 12's -O3 restrict checker false-positives on
  // operator+(const char*, std::string&&) here.
  std::string out = "x";
  out += fmt_double(value, 2);
  return out;
}

}  // namespace rrs
