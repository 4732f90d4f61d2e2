#include "common/table.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "common/logging.hh"

namespace lsim
{

Table::Table(std::vector<std::string> header)
    : header_(std::move(header))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    if (cells.size() != header_.size())
        panic("Table row arity %zu != header arity %zu",
              cells.size(), header_.size());
    rows_.push_back(std::move(cells));
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(header_.size(), 0);
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << cells[c];
            if (c + 1 < cells.size())
                os << std::string(widths[c] - cells[c].size() + 2, ' ');
        }
        os << '\n';
    };

    emit(header_);
    std::size_t rule = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        rule += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    os << std::string(rule, '-') << '\n';
    for (const auto &row : rows_)
        emit(row);
}

std::string
fixed(double value, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
    return buf;
}

std::string
sci(double value, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*e", digits, value);
    return buf;
}

void
appendNumber(std::string &out, double value)
{
    char buf[32];
    char *end = nullptr;
    // %.12g prints an integer-valued |v| < 1e12 with all its digits
    // and no point or exponent, which is what integer to_chars
    // writes, at a fraction of the cost; -0 keeps its sign only in
    // the general path. The range test comes first, so the cast is
    // defined (NaN fails it).
    if (value > -1e12 && value < 1e12) {
        const auto whole = static_cast<std::int64_t>(value);
        if (static_cast<double>(whole) == value &&
            (whole != 0 || !std::signbit(value)))
            end = std::to_chars(buf, buf + sizeof(buf), whole).ptr;
    }
    // The standard defines this call as printf's %.12g in the "C"
    // locale; it formats without printf's locale and format parsing.
    if (!end)
        end = std::to_chars(buf, buf + sizeof(buf), value,
                            std::chars_format::general, 12)
                  .ptr;
    out.append(buf, end);
}

std::string
compactNumber(double value)
{
    std::string out;
    appendNumber(out, value);
    return out;
}

} // namespace lsim
