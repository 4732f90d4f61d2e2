/**
 * @file
 * Minimal CSV writer behind the sweep and run CSV outputs
 * (api::SweepResult::toCsv, api::RunResult::toCsv).
 *
 * CsvWriter appends to a std::string, cell by cell, so a row costs no
 * temporary strings: text cells are quoted in place only when they
 * need it, and numbers are formatted straight into the buffer by
 * appendNumber (the same %.12g format as the JSON writer).
 */

#ifndef LSIM_COMMON_CSV_HH
#define LSIM_COMMON_CSV_HH

#include <initializer_list>
#include <string>
#include <string_view>

namespace lsim
{

/**
 * Appends rows of cells to a string. Cells containing commas,
 * quotes, carriage returns or newlines are quoted per RFC 4180.
 */
class CsvWriter
{
  public:
    /** Append to @p out (not owned). */
    explicit CsvWriter(std::string &out);

    /** Append a text cell to the current row. */
    void cell(std::string_view text);

    /** Append a number cell in appendNumber's format. */
    void cell(double value);

    /** Append @p text, one or more cells already in CSV form (such
     * as numbers joined by commas), verbatim. */
    void cells(std::string_view text);

    /** End the current row. */
    void endRow();

    /** Write one row of text cells. */
    void writeRow(std::initializer_list<std::string_view> row);

  private:
    void separator();

    std::string &out_;
    bool row_empty_ = true;
};

} // namespace lsim

#endif // LSIM_COMMON_CSV_HH
