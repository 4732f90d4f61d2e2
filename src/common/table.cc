#include "common/table.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "common/logging.hh"

namespace lsim
{

namespace
{

/** 10^k for k in [0, 22], the scales formatG12() multiplies by. */
constexpr auto kPow10 = [] {
    std::array<__uint128_t, 23> p{};
    p[0] = 1;
    for (std::size_t k = 1; k < p.size(); ++k)
        p[k] = p[k - 1] * 10;
    return p;
}();

/** floor(b * log10 2). */
constexpr int
floorLog10Pow2(int b)
{
    return (b * 78913) >> 18;
}

/** 10^E0 <= 2^b < 10^(E0 + 1) for every binary exponent b of a
 * double in formatG12()'s range (2^-34 < 1e-10, 1e12 < 2^40). */
constexpr bool
log10EstimateExact()
{
    for (int b = -34; b < 40; ++b) {
        const int e0 = floorLog10Pow2(b);
        const __uint128_t two = __uint128_t{1} << (b < 0 ? -b : b);
        const bool exact = b >= 0
            ? kPow10[e0] <= two && two < kPow10[e0 + 1]
            : kPow10[-e0 - 1] < two && two <= kPow10[-e0];
        if (!exact)
            return false;
    }
    return true;
}
static_assert(log10EstimateExact());

/** "00".."99", two characters per entry. */
constexpr auto kDigitPairs = [] {
    std::array<char, 200> t{};
    for (int i = 0; i < 100; ++i) {
        t[2 * i] = static_cast<char>('0' + i / 10);
        t[2 * i + 1] = static_cast<char>('0' + i % 10);
    }
    return t;
}();

/** The six decimal digits of @p x < 10^6, zero-padded, at @p d. */
void
putSixDigits(char *d, std::uint32_t x)
{
    std::memcpy(d, &kDigitPairs[2 * (x / 10000)], 2);
    std::memcpy(d + 2, &kDigitPairs[2 * (x / 100 % 100)], 2);
    std::memcpy(d + 4, &kDigitPairs[2 * (x % 100)], 2);
}

/**
 * printf's %.12g of a finite @p v with 1e-10 <= |v| < 1e12, written
 * at @p p; @return the end of the text. Exact integer arithmetic:
 * v = m * 2^e with a 53-bit m, so v * 10^(11 - E0) is the integer
 * m * 10^(11 - E0) (below 2^127) shifted right by -e (13 to 86
 * bits), and the shifted-out bits are the exact remainder that
 * rounds the twelve digits half to even, as printf does.
 */
char *
formatG12(char *p, double v)
{
    constexpr std::uint64_t kTen12 = 1'000'000'000'000;
    const auto bits = std::bit_cast<std::uint64_t>(v);
    if (bits >> 63)
        *p++ = '-';
    const int biased = static_cast<int>(bits >> 52 & 0x7ff);
    const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) |
                            std::uint64_t{1} << 52;
    const int shift = 1075 - biased;
    // v lies in [2^b, 2^(b+1)) with b = biased - 1023, so its
    // decimal exponent is E0 or E0 + 1.
    int exp10 = floorLog10Pow2(biased - 1023);
    const __uint128_t scaled = m * kPow10[11 - exp10];
    auto digits = static_cast<std::uint64_t>(scaled >> shift);
    __uint128_t rem = scaled & ((__uint128_t{1} << shift) - 1);
    __uint128_t half = __uint128_t{1} << (shift - 1);
    if (digits >= kTen12) {
        // Thirteen digits: the exponent is E0 + 1, and the last
        // digit joins the remainder.
        rem += __uint128_t{digits % 10} << shift;
        half = __uint128_t{5} << shift;
        digits /= 10;
        ++exp10;
    }
    // Half to even: up when rem > half, or when rem == half and the
    // last digit is odd. A carry to 10^12 raises the exponent.
    digits += rem + (digits & 1) > half;
    if (digits == kTen12) {
        digits = kTen12 / 10;
        ++exp10;
    }

    char d[12];
    putSixDigits(d, static_cast<std::uint32_t>(digits / 1'000'000));
    putSixDigits(d + 6, static_cast<std::uint32_t>(digits % 1'000'000));
    int n = 12; // significant digits left once trailing zeros go
    while (d[n - 1] == '0')
        --n;
    const auto put = [&p](const char *from, int count) {
        std::memcpy(p, from, static_cast<std::size_t>(count));
        p += count;
    };
    if (exp10 < -4 || exp10 >= 12) {
        *p++ = d[0];
        if (n > 1) {
            *p++ = '.';
            put(d + 1, n - 1);
        }
        const int mag = exp10 < 0 ? -exp10 : exp10;
        *p++ = 'e';
        *p++ = exp10 < 0 ? '-' : '+';
        put(&kDigitPairs[2 * mag], 2);
    } else if (exp10 >= 0) {
        const int whole = exp10 + 1;
        put(d, whole);
        if (n > whole) {
            *p++ = '.';
            put(d + whole, n - whole);
        }
    } else {
        *p++ = '0';
        *p++ = '.';
        for (int z = -exp10 - 1; z > 0; --z)
            *p++ = '0';
        put(d, n);
    }
    return p;
}

} // namespace

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
    // The other magnitudes in [1e-10, 1e12) go through formatG12's
    // exact integer arithmetic. The rest (zero, -0, subnormals, the
    // far magnitudes, inf and NaN) take the call the standard
    // defines as printf's %.12g in the "C" locale.
    if (!end) {
        const double mag = std::fabs(value);
        if (mag >= 1e-10 && mag < 1e12)
            end = formatG12(buf, value);
        else
            end = std::to_chars(buf, buf + sizeof(buf), value,
                                std::chars_format::general, 12)
                      .ptr;
    }
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
