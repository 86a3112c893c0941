// Plain-text table rendering for experiment harnesses: every bench binary
// prints its paper table/figure through this so output stays uniform and
// greppable.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace tlm {

class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  Table& header(std::vector<std::string> cols);
  Table& row(std::vector<std::string> cells);

  // Formatting helpers for cells.
  static std::string num(double v, int precision = 3);
  static std::string count(std::uint64_t v);  // thousands separators
  static std::string pct(double fraction, int precision = 1);

  void print(std::ostream& os) const;
  std::string to_string() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

std::ostream& operator<<(std::ostream& os, const Table& t);

}  // namespace tlm
