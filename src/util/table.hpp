// Fixed-width table printing for the bench harness ("paper-style" rows)
// plus a minimal CSV writer for downstream plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace xheal::util {

/// Collects rows of string cells and prints them as an aligned ASCII table
/// with a header rule. Numeric helpers format with fixed precision so bench
/// output lines up column by column.
class Table {
public:
    explicit Table(std::vector<std::string> headers);

    /// Start a new row. Cells are appended with add(); missing cells print
    /// empty, extra cells are a contract violation.
    Table& row();

    Table& add(const std::string& cell);
    Table& add(const char* cell);
    Table& add(double value, int precision = 3);
    Table& add(std::size_t value);
    Table& add(long long value);
    Table& add(int value);
    Table& add(bool value);

    /// Render the table to `out` with 2-space column gaps.
    void print(std::ostream& out) const;

    /// Render as CSV (no alignment padding).
    void write_csv(std::ostream& out) const;

    std::size_t row_count() const { return rows_.size(); }
    /// Cell accessor for tests; row/col must be in range.
    const std::string& cell(std::size_t row, std::size_t col) const;

private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/// Format a double with the given precision (fixed notation).
std::string format_double(double value, int precision = 3);

}  // namespace xheal::util
