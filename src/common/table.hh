/**
 * @file
 * ASCII table rendering for bench harness output, and the number
 * formats every text output uses. Bench binaries print the same
 * rows/series as the paper's tables and figures; Table keeps that
 * output aligned and readable.
 *
 * appendNumber() is the one number format of CSV and JSON emission
 * and of policy-spec encoding (compactNumber() wraps it): printf's
 * %.12g, byte for byte. Which path formats a value depends on the
 * value alone:
 *  - integer-valued doubles below 1e12 in magnitude, -0 aside, take
 *    integer to_chars; %.12g prints exactly those values as plain
 *    integers;
 *  - the other magnitudes in [1e-10, 1e12) are scaled to twelve
 *    digits in exact 128-bit integer arithmetic and rounded half to
 *    even on the exact remainder, as printf rounds;
 *  - the rest (zero, -0, subnormals, the far magnitudes, inf, NaN)
 *    take std::to_chars' general format at precision 12, which the
 *    standard defines as %.12g.
 * Format.CompactNumberMatchesPrintf compares each path and its
 * edges with snprintf.
 */

#ifndef LSIM_COMMON_TABLE_HH
#define LSIM_COMMON_TABLE_HH

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace lsim
{

/**
 * A simple column-aligned ASCII table. Usage:
 * @code
 *   Table t({"policy", "energy"});
 *   t.addRow({"MaxSleep", "0.42"});
 *   t.print(std::cout);
 * @endcode
 */
class Table
{
  public:
    /** Construct with header cells. */
    explicit Table(std::vector<std::string> header);

    /** Append one row; must have the same arity as the header. */
    void addRow(std::vector<std::string> cells);

    /** Render with padded columns and a rule under the header. */
    void print(std::ostream &os) const;

    /** Number of data rows added so far. */
    std::size_t numRows() const { return rows_.size(); }

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format @p value with @p digits digits after the decimal point. */
std::string fixed(double value, int digits = 3);

/** Format @p value in scientific notation with @p digits digits. */
std::string sci(double value, int digits = 2);

/** Append @p value to @p out as printf's %.12g in the "C" locale
 * would print it (see the file comment). */
void appendNumber(std::string &out, double value);

/** appendNumber() into a new string. */
std::string compactNumber(double value);

} // namespace lsim

#endif // LSIM_COMMON_TABLE_HH
