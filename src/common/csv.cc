#include "common/csv.hh"

#include "common/table.hh"

namespace lsim
{

CsvWriter::CsvWriter(std::string &out)
    : out_(out)
{
}

void
CsvWriter::separator()
{
    if (!row_empty_)
        out_ += ',';
    row_empty_ = false;
}

void
CsvWriter::cell(std::string_view text)
{
    separator();
    if (text.find_first_of(",\"\r\n") == std::string_view::npos) {
        out_ += text;
        return;
    }
    out_ += '"';
    for (char ch : text) {
        if (ch == '"')
            out_ += '"';
        out_ += ch;
    }
    out_ += '"';
}

void
CsvWriter::cell(double value)
{
    separator();
    appendNumber(out_, value);
}

void
CsvWriter::cells(std::string_view text)
{
    separator();
    out_ += text;
}

void
CsvWriter::endRow()
{
    out_ += '\n';
    row_empty_ = true;
}

void
CsvWriter::writeRow(std::initializer_list<std::string_view> row)
{
    for (std::string_view text : row)
        cell(text);
    endRow();
}

} // namespace lsim
