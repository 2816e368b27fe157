#include "harness/table.h"

#include <cstdio>

namespace faastcc::harness {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

void Table::print() const {
  std::vector<size_t> widths(header_.size(), 0);
  for (size_t i = 0; i < header_.size(); ++i) {
    widths[i] = header_[i].size();
  }
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("|");
    for (size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      std::printf(" %-*s |", static_cast<int>(widths[i]), cell.c_str());
    }
    std::printf("\n");
  };
  auto print_sep = [&] {
    std::printf("+");
    for (size_t w : widths) {
      for (size_t i = 0; i < w + 2; ++i) std::printf("-");
      std::printf("+");
    }
    std::printf("\n");
  };
  print_sep();
  print_row(header_);
  print_sep();
  for (const auto& row : rows_) print_row(row);
  print_sep();
  std::fflush(stdout);
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace faastcc::harness
