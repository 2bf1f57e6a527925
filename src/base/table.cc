#include "base/table.hh"

#include <algorithm>
#include <cctype>

#include "base/logging.hh"
#include "base/string_utils.hh"

namespace gnnmark {

namespace {

bool
looksNumeric(const std::string &s)
{
    if (s.empty())
        return false;
    for (char c : s) {
        if (!std::isdigit(static_cast<unsigned char>(c)) && c != '.' &&
            c != '-' && c != '+' && c != 'e' && c != 'E' && c != '%' &&
            c != 'x')
            return false;
    }
    return true;
}

} // namespace

TablePrinter::TablePrinter(std::string title) : title_(std::move(title))
{
}

void
TablePrinter::setHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void
TablePrinter::addRow(std::vector<std::string> row)
{
    GNN_ASSERT(header_.empty() || row.size() <= header_.size(),
               "row wider than header (%zu > %zu)", row.size(),
               header_.size());
    rows_.push_back(std::move(row));
}

void
TablePrinter::print(std::ostream &os) const
{
    size_t ncols = header_.size();
    for (const auto &r : rows_)
        ncols = std::max(ncols, r.size());

    std::vector<size_t> widths(ncols, 0);
    auto measure = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    };
    measure(header_);
    for (const auto &r : rows_)
        measure(r);

    auto emit = [&](const std::vector<std::string> &row, bool align_num) {
        for (size_t c = 0; c < ncols; ++c) {
            const std::string cell = c < row.size() ? row[c] : "";
            bool right = align_num && looksNumeric(cell);
            os << (right ? padLeft(cell, widths[c])
                         : padRight(cell, widths[c]));
            if (c + 1 < ncols)
                os << "  ";
        }
        os << "\n";
    };

    if (!title_.empty())
        os << title_ << "\n";
    if (!header_.empty()) {
        emit(header_, false);
        size_t total = 0;
        for (size_t c = 0; c < ncols; ++c)
            total += widths[c] + (c + 1 < ncols ? 2 : 0);
        os << std::string(total, '-') << "\n";
    }
    for (const auto &r : rows_)
        emit(r, true);
}

} // namespace gnnmark
