#include "common/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/assert.hpp"

namespace tlm {

Table& Table::header(std::vector<std::string> cols) {
  header_ = std::move(cols);
  return *this;
}

Table& Table::row(std::vector<std::string> cells) {
  TLM_REQUIRE(header_.empty() || cells.size() == header_.size(),
              "row width must match header width");
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::count(std::uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  std::size_t lead = digits.size() % 3;
  if (lead == 0) lead = 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i > 0 && (i - lead) % 3 == 0 && i >= lead) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string Table::pct(double fraction, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << fraction * 100.0 << '%';
  return os.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size(), 0);
  auto widen = [&](const std::vector<std::string>& cells) {
    if (cells.size() > width.size()) width.resize(cells.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i)
      width[i] = std::max(width[i], cells[i].size());
  };
  widen(header_);
  for (const auto& r : rows_) widen(r);

  auto rule = [&] {
    os << '+';
    for (auto w : width) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  auto line = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t i = 0; i < width.size(); ++i) {
      const std::string& c = i < cells.size() ? cells[i] : std::string{};
      os << ' ' << std::setw(static_cast<int>(width[i])) << std::right << c
         << " |";
    }
    os << '\n';
  };

  os << "== " << title_ << " ==\n";
  rule();
  if (!header_.empty()) {
    line(header_);
    rule();
  }
  for (const auto& r : rows_) line(r);
  rule();
}

std::string Table::to_string() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Table& t) {
  t.print(os);
  return os;
}

}  // namespace tlm
