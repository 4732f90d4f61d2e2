/**
 * @file
 * Unit tests for the ASCII table, number formatting and CSV output
 * helpers.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <vector>

#include "common/csv.hh"
#include "common/random.hh"
#include "common/table.hh"

namespace
{

using lsim::CsvWriter;
using lsim::Table;

TEST(Table, AlignsColumns)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer-name", "2.5"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer-name"), std::string::npos);
    // Header rule present.
    EXPECT_NE(out.find("----"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(TableDeath, ArityMismatchPanics)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "arity");
}

TEST(Format, FixedAndSci)
{
    EXPECT_EQ(lsim::fixed(1.23456, 2), "1.23");
    EXPECT_EQ(lsim::fixed(-0.5, 1), "-0.5");
    EXPECT_EQ(lsim::sci(12345.0, 2), "1.23e+04");
}

/** printf's %.12g: the reference compactNumber must reproduce. */
std::string
printfG12(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    return buf;
}

TEST(Format, CompactNumberMatchesPrintf)
{
    using limits = std::numeric_limits<double>;
    // True when x and -x both format as printf does.
    const auto matches = [](double x) {
        for (const double v : {x, -x}) {
            if (lsim::compactNumber(v) != printfG12(v)) {
                ADD_FAILURE() << std::hexfloat << v << ": "
                              << lsim::compactNumber(v) << " vs "
                              << printfG12(v);
                return false;
            }
        }
        return true;
    };

    std::vector<double> edges = {0.0, limits::infinity(),
                                 limits::quiet_NaN(), limits::denorm_min(),
                                 limits::min(), limits::max()};
    // %g switches to scientific notation below 1e-4 and at 1e12 (12
    // significant digits); 999999999999.5 rounds up into 1e+12.
    for (const double x : {1e-5, 1e-4, 1e12, 999999999999.5}) {
        edges.push_back(x);
        edges.push_back(std::nextafter(x, 0.0));
        edges.push_back(std::nextafter(x, limits::infinity()));
    }
    for (const double x : edges)
        EXPECT_TRUE(matches(x));

    // The integer path's domain, integer-valued |v| < 1e12 but not
    // -0 (matches(0) covers -0.0), and its edges: every digit count,
    // powers of two past the double's 53-bit mantissa, the last
    // integer before %g turns scientific and the first after.
    for (int i = 0; i <= 100'000; ++i)
        ASSERT_TRUE(matches(i));
    double pow10 = 1.0;
    for (int k = 0; k <= 15; ++k, pow10 *= 10.0)
        for (const double x : {pow10 - 1.0, pow10, pow10 + 1.0})
            EXPECT_TRUE(matches(x));
    for (int k = 0; k <= 62; ++k)
        EXPECT_TRUE(matches(std::ldexp(1.0, k)));
    EXPECT_TRUE(matches(999'999'999'999.0));
    EXPECT_TRUE(matches(1e12));
    lsim::Rng ints(0x1d7e9e5);
    for (int i = 0; i < 1'000'000; ++i)
        ASSERT_TRUE(
            matches(std::trunc((ints.uniform() * 2.0 - 1.0) * 1e13)));

    // The 128-bit path's domain, non-integer 1e-10 <= |v| < 1e12,
    // with a decade of margin on each side: log-uniform magnitudes,
    // which raw bit patterns (below) hit only ~3.5% of the time.
    lsim::Rng mags(0x10960de);
    for (int i = 0; i < 1'000'000; ++i)
        ASSERT_TRUE(
            matches(std::pow(10.0, -11.0 + 24.0 * mags.uniform())));

    // Exact ties at the twelfth digit, which printf rounds half to
    // even: k * 2^-j for odd k is k * 5^j / 10^j, whose significant
    // digits are those of k * 5^j, so a 13-digit k * 5^j ends in a 5
    // after twelve digits. j = 1..18 puts the tie at every decimal
    // exponent from 11 down to -6; each one ulp either side too.
    EXPECT_TRUE(matches(std::ldexp(1.0, -18))); // 3.814697265625e-06
    EXPECT_TRUE(matches(123456789012.5));
    lsim::Rng odd(0x71e5);
    std::uint64_t pow5 = 1;
    for (int j = 1; j <= 18; ++j) {
        pow5 *= 5;
        const std::uint64_t lo = (1'000'000'000'000 + pow5 - 1) / pow5;
        const std::uint64_t hi = (10'000'000'000'000 - 1) / pow5;
        for (int i = 0; i < 200; ++i) {
            const std::uint64_t k = (lo + odd.below(hi - lo + 1)) | 1;
            const double tie = std::ldexp(static_cast<double>(k), -j);
            for (const double x :
                 {tie, std::nextafter(tie, 0.0),
                  std::nextafter(tie, limits::infinity())})
                ASSERT_TRUE(matches(x)) << k << " * 2^-" << j;
        }
    }

    // Every power of ten the domain spans, one ulp either side, and
    // 9.9999999999995 * 10^E, which rounds up into 10^(E+1) and so
    // carries into the next exponent (and across %g's switch between
    // fixed and scientific notation at 1e-4 and 1e12).
    for (int e = -11; e <= 12; ++e) {
        for (const char *mantissa : {"1", "9.9999999999995"}) {
            char text[32];
            std::snprintf(text, sizeof(text), "%se%d", mantissa, e);
            const double x = std::strtod(text, nullptr);
            for (const double y :
                 {x, std::nextafter(x, 0.0),
                  std::nextafter(x, limits::infinity())})
                EXPECT_TRUE(matches(y)) << text;
        }
    }

    // Raw bit patterns cover every exponent, denormals and NaN
    // payloads alike.
    lsim::Rng rng(0x5eedc0de);
    for (int i = 0; i < 1'000'000; ++i) {
        const double v = std::bit_cast<double>(rng.next());
        ASSERT_EQ(lsim::compactNumber(v), printfG12(v))
            << std::hexfloat << v;
    }
}

TEST(Csv, WritesAndEscapes)
{
    std::string out;
    CsvWriter w(out);
    w.writeRow({"plain", "with,comma", "with\"quote"});
    // A bare CR splits a record for RFC 4180 readers, as LF does.
    w.writeRow({"a\rb", "c,d", "e\nf"});
    w.cell("n");
    w.cell(1e12);
    w.cell(-0.0);
    w.cells("1,2");
    w.cell("");
    w.endRow();
    EXPECT_EQ(out, "plain,\"with,comma\",\"with\"\"quote\"\n"
                   "\"a\rb\",\"c,d\",\"e\nf\"\n"
                   "n,1e+12,-0,1,2,\n");
}

} // namespace
