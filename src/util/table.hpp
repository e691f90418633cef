// Fixed-width table printing for the bench harness ("paper-style" rows)
// and xheal_run's phase and sample tables, and the two number formats
// every printed real uses.
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

private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/// Format a double with the given precision (fixed notation).
std::string format_double(double value, int precision = 3);

/// The shortest text that reads back as exactly `value` (std::to_chars):
/// what spec text, expectation failures and oracle findings print, so
/// 4e-07 does not read as 0.000000.
std::string format_shortest(double value);

}  // namespace xheal::util
