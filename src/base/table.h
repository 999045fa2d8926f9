// ASCII table builder used by the benchmark harnesses to print
// paper-style result tables (Figure 8 / Figure 9 rows, ablation sweeps).
#pragma once

#include <string>
#include <vector>

#include "base/types.h"

namespace vcop {

/// Accumulates rows of string cells and renders them with aligned
/// columns, a header rule, and an optional title.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Adds one row. Rows shorter than the header are padded with "";
  /// longer rows extend the column count.
  void AddRow(std::vector<std::string> cells);

  void set_title(std::string title) { title_ = std::move(title); }

  /// Renders the table. Numeric-looking cells are right-aligned,
  /// everything else left-aligned.
  std::string ToString() const;

  /// Renders directly to stdout.
  void Print() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// printf-style helper returning std::string, e.g. StrFormat("%.2f", x).
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace vcop
