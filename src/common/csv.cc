#include "common/csv.hh"

#include "common/logging.hh"

namespace lsim
{

CsvWriter::CsvWriter(const std::string &path)
    : file_(path)
{
    if (!file_)
        fatal("cannot open CSV output file '%s'", path.c_str());
}

CsvWriter::CsvWriter(std::ostream &os)
    : external_(&os)
{
}

void
CsvWriter::writeRow(const std::vector<std::string> &cells)
{
    auto &os = out();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        os << escape(cells[i]);
        if (i + 1 < cells.size())
            os << ',';
    }
    os << '\n';
}

std::string
CsvWriter::escape(const std::string &cell)
{
    if (cell.find_first_of(",\"\r\n") == std::string::npos)
        return cell;
    std::string quoted = "\"";
    for (char ch : cell) {
        if (ch == '"')
            quoted += '"';
        quoted += ch;
    }
    quoted += '"';
    return quoted;
}

} // namespace lsim
