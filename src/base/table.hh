/**
 * @file
 * Plain-text table printer used by the benchmark harnesses to emit
 * paper-style tables and figure series.
 */

#ifndef GNNMARK_BASE_TABLE_HH
#define GNNMARK_BASE_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace gnnmark {

/**
 * Accumulates rows of strings and renders an aligned ASCII table.
 *
 * Numeric-looking cells are right-aligned; everything else is
 * left-aligned. The first row added via setHeader() is underlined.
 */
class TablePrinter
{
  public:
    /** Optional table title printed above the header. */
    explicit TablePrinter(std::string title = "");

    /** Set the column headers. */
    void setHeader(std::vector<std::string> header);

    /** Append a data row; its width may not exceed the header width. */
    void addRow(std::vector<std::string> row);

    /** Render to the stream. */
    void print(std::ostream &os) const;

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace gnnmark

#endif // GNNMARK_BASE_TABLE_HH
