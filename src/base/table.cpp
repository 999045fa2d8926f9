#include "base/table.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace vcop {
namespace {

bool LooksNumeric(const std::string& cell) {
  if (cell.empty()) return false;
  bool digit_seen = false;
  for (char c : cell) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      digit_seen = true;
    } else if (c != '.' && c != '-' && c != '+' && c != 'x' && c != '%' &&
               c != 'e' && c != ' ') {
      return false;
    }
  }
  return digit_seen;
}

}  // namespace

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string Table::ToString() const {
  // Column widths over header + all rows.
  usize cols = header_.size();
  for (const auto& row : rows_) cols = std::max(cols, row.size());
  std::vector<usize> width(cols, 0);
  auto widen = [&](const std::vector<std::string>& row) {
    for (usize c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());
  };
  widen(header_);
  for (const auto& row : rows_) widen(row);

  std::string out;
  if (!title_.empty()) {
    out += title_;
    out += '\n';
  }
  auto emit = [&](const std::vector<std::string>& row, bool align_numeric) {
    for (usize c = 0; c < cols; ++c) {
      const std::string cell = c < row.size() ? row[c] : "";
      const usize pad = width[c] - cell.size();
      const bool right = align_numeric && LooksNumeric(cell);
      if (c) out += "  ";
      if (right) out.append(pad, ' ');
      out += cell;
      if (!right) out.append(pad, ' ');
    }
    // Trim trailing spaces for tidy diffs.
    while (!out.empty() && out.back() == ' ') out.pop_back();
    out += '\n';
  };
  emit(header_, /*align_numeric=*/false);
  usize rule = 0;
  for (usize c = 0; c < cols; ++c) rule += width[c] + (c ? 2 : 0);
  out.append(rule, '-');
  out += '\n';
  for (const auto& row : rows_) emit(row, /*align_numeric=*/true);
  return out;
}

void Table::Print() const {
  const std::string s = ToString();
  std::fwrite(s.data(), 1, s.size(), stdout);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  // Formatted once into the stack buffer when it fits; a longer result
  // is formatted again, straight into a string of its length.
  char buffer[256];
  const int n = std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  const usize size = n > 0 ? static_cast<usize>(n) : 0;
  if (size < sizeof(buffer)) {
    va_end(args_copy);
    return std::string(buffer, size);
  }
  std::string out(size, '\0');
  std::vsnprintf(out.data(), size + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

}  // namespace vcop
