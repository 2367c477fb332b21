#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/dictionary.h"
#include "common/string_util.h"
#include "relational/csv.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace xjoin {
namespace {

TEST(SchemaTest, MakeAndLookup) {
  auto s = Schema::Make({"A", "B", "C"});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->size(), 3u);
  EXPECT_EQ(s->IndexOf("B"), 1);
  EXPECT_EQ(s->IndexOf("Z"), -1);
  EXPECT_TRUE(s->Contains("C"));
  EXPECT_EQ(s->ToString("R"), "R(A, B, C)");
}

TEST(SchemaTest, RejectsDuplicatesAndEmpty) {
  EXPECT_FALSE(Schema::Make({"A", "A"}).ok());
  EXPECT_FALSE(Schema::Make({"A", ""}).ok());
  EXPECT_TRUE(Schema::Make({}).ok());  // nullary schema is legal
}

TEST(ValueTest, TypesAndToString) {
  EXPECT_EQ(Value(int64_t{7}).ToString(), "7");
  EXPECT_EQ(Value(3.5).ToString(), "3.5");
  EXPECT_EQ(Value(std::string("hi")).ToString(), "hi");
  EXPECT_TRUE(Value(int64_t{1}).is_int64());
  EXPECT_TRUE(Value(1.0).is_double());
  EXPECT_TRUE(Value(std::string("s")).is_string());
}

TEST(ValueTest, ParseByType) {
  EXPECT_EQ(ParseValue(ValueType::kInt64, "12")->AsInt64(), 12);
  EXPECT_DOUBLE_EQ(ParseValue(ValueType::kDouble, "2.5")->AsDouble(), 2.5);
  EXPECT_EQ(ParseValue(ValueType::kString, " raw ")->AsString(), " raw ");
  EXPECT_FALSE(ParseValue(ValueType::kInt64, "1.5").ok());
}

TEST(ValueTest, EncodeCanonicalizes) {
  Dictionary d;
  // "007" parsed as int64 encodes like "7".
  EXPECT_EQ(ParseValue(ValueType::kInt64, "007")->Encode(&d),
            ParseValue(ValueType::kInt64, "7")->Encode(&d));
}

TEST(RelationTest, AppendAndAccess) {
  auto s = Schema::Make({"A", "B"});
  Relation r(*s);
  r.AppendRow({1, 2});
  r.AppendRow({3, 4});
  EXPECT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.at(1, 0), 3);
  EXPECT_EQ(r.GetRow(0), (Tuple{1, 2}));
  EXPECT_TRUE(r.ContainsRow({3, 4}));
  EXPECT_FALSE(r.ContainsRow({3, 5}));
  EXPECT_FALSE(r.ContainsRow({3}));
}

TEST(RelationTest, ColumnByName) {
  auto s = Schema::Make({"A", "B"});
  Relation r(*s);
  r.AppendRow({1, 2});
  auto col = r.ColumnByName("B");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((**col)[0], 2);
  EXPECT_FALSE(r.ColumnByName("Z").ok());
}

TEST(RelationTest, SortAndDedup) {
  auto s = Schema::Make({"A", "B"});
  Relation r(*s);
  r.AppendRow({3, 1});
  r.AppendRow({1, 2});
  r.AppendRow({3, 1});
  r.AppendRow({1, 1});
  r.SortAndDedup();
  ASSERT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(r.GetRow(0), (Tuple{1, 1}));
  EXPECT_EQ(r.GetRow(1), (Tuple{1, 2}));
  EXPECT_EQ(r.GetRow(2), (Tuple{3, 1}));
}

TEST(RelationTest, FromTuplesValidatesArity) {
  auto s = Schema::Make({"A", "B"});
  EXPECT_TRUE(Relation::FromTuples(*s, {{1, 2}, {3, 4}}).ok());
  EXPECT_FALSE(Relation::FromTuples(*s, {{1, 2, 3}}).ok());
}

TEST(RelationTest, EmptyRelation) {
  auto s = Schema::Make({"A"});
  Relation r(*s);
  EXPECT_EQ(r.num_rows(), 0u);
  r.SortAndDedup();
  EXPECT_EQ(r.num_rows(), 0u);
}

TEST(CsvTest, BasicParse) {
  Dictionary d;
  CsvOptions opts;
  auto r = ReadCsv("A,B\n1,x\n2,y\n", opts, &d);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->schema().attribute(0), "A");
  EXPECT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(d.Decode(r->at(0, 1)), "x");
}

TEST(CsvTest, TypedColumnsCanonicalize) {
  Dictionary d;
  CsvOptions opts;
  opts.types = {ValueType::kInt64, ValueType::kString};
  auto r = ReadCsv("A,B\n007,x\n7,y\n", opts, &d);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->at(0, 0), r->at(1, 0));  // 007 == 7 after canonicalization
}

TEST(CsvTest, QuotedFields) {
  Dictionary d;
  CsvOptions opts;
  auto r = ReadCsv("A,B\n\"a,b\",\"say \"\"hi\"\"\"\n", opts, &d);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(d.Decode(r->at(0, 0)), "a,b");
  EXPECT_EQ(d.Decode(r->at(0, 1)), "say \"hi\"");
}

// Quoted fields keep delimiters and doubled quotes, a quote may open
// mid-field, and CRLF line ends are stripped.
TEST(CsvTest, QuotedFieldsWithCrlf) {
  Dictionary d;
  CsvOptions opts;
  auto r = ReadCsv(
      "A,B,C\r\n"
      "\"x,y\",\"say \"\"hi\"\"\",plain\r\n"
      "ab\"c,d\"e,\"\",\r\n",
      opts, &d);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(d.Decode(r->at(0, 0)), "x,y");
  EXPECT_EQ(d.Decode(r->at(0, 1)), "say \"hi\"");
  EXPECT_EQ(d.Decode(r->at(0, 2)), "plain");
  EXPECT_EQ(d.Decode(r->at(1, 0)), "abc,de");
  EXPECT_EQ(d.Decode(r->at(1, 1)), "");
  EXPECT_EQ(d.Decode(r->at(1, 2)), "");
}

// Typed columns intern their value's canonical text.
TEST(CsvTest, TypedColumnsInternCanonicalText) {
  Dictionary d;
  CsvOptions opts;
  opts.types = {ValueType::kInt64, ValueType::kDouble, ValueType::kString};
  auto r = ReadCsv("A,B,C\n007, 2.50 ,007\n", opts, &d);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(d.Decode(r->at(0, 0)), "7");
  EXPECT_EQ(d.Decode(r->at(0, 1)), "2.5");
  EXPECT_EQ(d.Decode(r->at(0, 2)), "007");
  EXPECT_EQ(d.size(), 3);
}

// A load bigger than one dictionary chunk keeps row order, and its
// codes are those of interning every cell in turn, row-major.
TEST(CsvTest, LoadsAcrossChunksInRowMajorOrder) {
  constexpr size_t kRows = 5000;
  std::string csv = "A,B,C\n";
  Dictionary expected;
  std::vector<std::vector<std::string>> rows;
  for (size_t i = 0; i < kRows; ++i) {
    rows.push_back({"a" + std::to_string(i), "b" + std::to_string(i % 7),
                    "a" + std::to_string(i / 2)});
    csv += JoinStrings(rows.back(), ",") + "\n";
    for (const std::string& cell : rows.back()) expected.Intern(cell);
  }
  Dictionary loaded;
  auto r = ReadCsv(csv, CsvOptions{}, &loaded);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), kRows);
  for (size_t row = 0; row < kRows; ++row) {
    for (size_t c = 0; c < 3; ++c) {
      ASSERT_EQ(r->at(row, c), expected.Lookup(rows[row][c]));
    }
  }
  ASSERT_EQ(loaded.size(), expected.size());
  for (int64_t code = 0; code < expected.size(); ++code) {
    ASSERT_EQ(loaded.Decode(code), expected.Decode(code));
  }
}

TEST(CsvTest, Errors) {
  Dictionary d;
  CsvOptions opts;
  EXPECT_FALSE(ReadCsv("", opts, &d).ok());
  EXPECT_FALSE(ReadCsv("A,B\n1\n", opts, &d).ok());          // arity
  EXPECT_FALSE(ReadCsv("A,B\n\"x,1\n", opts, &d).ok());      // dangling quote
  opts.types = {ValueType::kInt64};
  EXPECT_FALSE(ReadCsv("A\nnotanum\n", opts, &d).ok());      // bad int
  EXPECT_FALSE(ReadCsv("A,B\n1,2\n", opts, &d).ok());        // type arity
}

// Arity, quote and value errors name the line they were found on.
TEST(CsvTest, ErrorsPinLineNumbers) {
  Dictionary d;
  CsvOptions opts;
  const struct {
    const char* csv;
    const char* message;
  } cases[] = {
      {"A,B\n1,2\n3\n", "line 3: expected 2 fields, got 1"},
      {"A,B\r\n1,2\r\n3,4,5\r\n", "line 3: expected 2 fields, got 3"},
      // Blank lines count: errors name the physical line.
      {"A,B\r\n1,2\r\n\r\n3,4,5\r\n", "line 4: expected 2 fields, got 3"},
      {"A,B\n1,2\n\"x,1\n", "line 3: unterminated quote"},
      {"A,\"B\n1,2\n", "line 1: unterminated quote"},
      // Quoted fields do not span lines.
      {"A,B\n1,2\n3,\"4\n5,6\"\n", "line 3: unterminated quote"},
  };
  for (const auto& c : cases) {
    auto r = ReadCsv(c.csv, opts, &d);
    ASSERT_FALSE(r.ok()) << c.csv;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << c.csv;
    EXPECT_EQ(r.status().message(), c.message) << c.csv;
  }
  opts.types = {ValueType::kInt64, ValueType::kString};
  auto typed = ReadCsv("A,B\n1,x\n2,y\nz,w\n", opts, &d);
  ASSERT_FALSE(typed.ok());
  EXPECT_EQ(typed.status().message(), "line 4: invalid integer literal: z");
}

TEST(CsvTest, NoHeader) {
  Dictionary d;
  CsvOptions opts;
  opts.has_header = false;
  auto r = ReadCsv("1,2\n3,4\n", opts, &d);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema().attribute(0), "col0");
  EXPECT_EQ(r->num_rows(), 2u);
}

TEST(CsvTest, RoundTrip) {
  Dictionary d;
  CsvOptions opts;
  auto r = ReadCsv("A,B\nplain,\"with,comma\"\n", opts, &d);
  ASSERT_TRUE(r.ok());
  std::string text = WriteCsv(*r, d);
  auto r2 = ReadCsv(text, opts, &d);
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->num_rows(), r->num_rows());
  for (size_t c = 0; c < r->num_columns(); ++c) {
    EXPECT_EQ(r2->at(0, c), r->at(0, c));
  }
}

}  // namespace
}  // namespace xjoin
