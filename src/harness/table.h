// Fixed-width table printing: the CLI's run table (print_run_table).
#pragma once

#include <string>
#include <vector>

namespace faastcc::harness {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);
  void print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

std::string fmt(double v, int precision = 1);

}  // namespace faastcc::harness
