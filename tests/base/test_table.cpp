/** @file Tests for the table printer. */

#include <gtest/gtest.h>

#include <sstream>

#include "base/table.hh"

using namespace gnnmark;

TEST(Table, AlignsColumns)
{
    TablePrinter t;
    t.setHeader({"Name", "Value"});
    t.addRow({"alpha", "1.5"});
    t.addRow({"b", "20.25"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("Name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    // Numeric cells are right-aligned to the same column end.
    auto line_of = [&](const std::string &needle) {
        size_t pos = out.find(needle);
        size_t start = out.rfind('\n', pos);
        return out.substr(start + 1, out.find('\n', pos) - start - 1);
    };
    std::string l1 = line_of("alpha");
    std::string l2 = line_of("20.25");
    EXPECT_EQ(l1.size(), l2.size());
}

TEST(Table, TitlePrinted)
{
    TablePrinter t("My Title");
    t.setHeader({"A"});
    t.addRow({"x"});
    std::ostringstream os;
    t.print(os);
    EXPECT_EQ(os.str().rfind("My Title", 0), 0u);
}

TEST(Table, ShortRowsPad)
{
    TablePrinter t;
    t.setHeader({"a", "b", "c"});
    t.addRow({"only-one"});
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("only-one"), std::string::npos);
}

TEST(TableDeath, RowWiderThanHeaderPanics)
{
    TablePrinter t;
    t.setHeader({"a"});
    EXPECT_DEATH(t.addRow({"1", "2"}), "row wider than header");
}
