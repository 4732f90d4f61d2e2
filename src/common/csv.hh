/**
 * @file
 * Minimal CSV writer so bench harnesses can optionally dump raw series
 * for external plotting alongside the ASCII tables.
 */

#ifndef LSIM_COMMON_CSV_HH
#define LSIM_COMMON_CSV_HH

#include <fstream>
#include <string>
#include <vector>

namespace lsim
{

/**
 * Writes rows of cells to a CSV file or stream. Cells containing
 * commas, quotes, carriage returns or newlines are quoted per
 * RFC 4180.
 */
class CsvWriter
{
  public:
    /** Open @p path for writing; fatal() on failure. */
    explicit CsvWriter(const std::string &path);

    /** Write to an already-open stream (not owned). */
    explicit CsvWriter(std::ostream &os);

    /** Write one row. */
    void writeRow(const std::vector<std::string> &cells);

    /** @return true if the underlying stream is healthy. */
    bool good() const { return out().good(); }

  private:
    static std::string escape(const std::string &cell);

    std::ostream &out()
    {
        return external_ ? *external_
                         : static_cast<std::ostream &>(file_);
    }
    const std::ostream &out() const
    {
        return external_ ? *external_
                         : static_cast<const std::ostream &>(file_);
    }

    std::ofstream file_;
    std::ostream *external_ = nullptr;
};

} // namespace lsim

#endif // LSIM_COMMON_CSV_HH
