/**
 * @file
 * Unit tests for the ASCII table, number formatting and CSV output
 * helpers.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
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
    for (const double x : edges) {
        for (const double v : {x, std::copysign(x, -1.0)})
            EXPECT_EQ(lsim::compactNumber(v), printfG12(v))
                << std::hexfloat << v;
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
    const std::string path = ::testing::TempDir() + "/lsim_test.csv";
    {
        CsvWriter w(path);
        w.writeRow({"plain", "with,comma", "with\"quote"});
        // A bare CR splits a record for RFC 4180 readers, as LF does.
        w.writeRow({"a\rb", "c,d", "e\nf"});
        ASSERT_TRUE(w.good());
    }
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_EQ(text.str(), "plain,\"with,comma\",\"with\"\"quote\"\n"
                          "\"a\rb\",\"c,d\",\"e\nf\"\n");
    std::remove(path.c_str());
}

TEST(CsvDeath, BadPathFatal)
{
    EXPECT_EXIT(CsvWriter w("/nonexistent-dir/x/y.csv"),
                ::testing::ExitedWithCode(1), "cannot open");
}

} // namespace
