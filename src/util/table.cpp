#include "util/table.hpp"

#include <algorithm>
#include <charconv>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/expects.hpp"

namespace xheal::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
    XHEAL_EXPECTS(!headers_.empty());
}

Table& Table::row() {
    rows_.emplace_back();
    return *this;
}

Table& Table::add(const std::string& cell) {
    XHEAL_EXPECTS(!rows_.empty());
    XHEAL_EXPECTS(rows_.back().size() < headers_.size());
    rows_.back().push_back(cell);
    return *this;
}

Table& Table::add(const char* cell) { return add(std::string(cell)); }

Table& Table::add(double value, int precision) { return add(format_double(value, precision)); }

Table& Table::add(std::size_t value) { return add(std::to_string(value)); }

Table& Table::add(long long value) { return add(std::to_string(value)); }

Table& Table::add(int value) { return add(std::to_string(value)); }

Table& Table::add(bool value) { return add(std::string(value ? "yes" : "no")); }

void Table::print(std::ostream& out) const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto emit_row = [&](const std::vector<std::string>& cells) {
        for (std::size_t c = 0; c < headers_.size(); ++c) {
            const std::string& text = c < cells.size() ? cells[c] : std::string();
            out << std::left << std::setw(static_cast<int>(widths[c])) << text;
            if (c + 1 < headers_.size()) out << "  ";
        }
        out << '\n';
    };

    emit_row(headers_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c) total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    out << std::string(total, '-') << '\n';
    for (const auto& row : rows_) emit_row(row);
}

std::string format_double(double value, int precision) {
    std::ostringstream ss;
    ss << std::fixed << std::setprecision(precision) << value;
    return ss.str();
}

std::string format_shortest(double value) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

}  // namespace xheal::util
