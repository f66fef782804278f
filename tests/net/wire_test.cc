// Wire codec tests: scalar/Value round trips, frame parsing, columnar
// ResultSet serialization (every encoding path, null bitmaps across
// 64-row word boundaries, bit-exact doubles) and the malformed-input
// lane — truncated bodies, lying headers, unknown tags — which must
// fail with ParseError, never crash or over-allocate. CI runs this
// binary under ASan/UBSan and TSan.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "net/serialize.h"
#include "net/wire.h"
#include "statsdb/query.h"
#include "statsdb/value.h"

namespace ff {
namespace net {
namespace {

using statsdb::DataType;
using statsdb::ResultSet;
using statsdb::Row;
using statsdb::Schema;
using statsdb::Value;
using util::StatusCode;

TEST(WireReaderWriter, ScalarsRoundTrip) {
  WireWriter w;
  w.U8(0xab);
  w.U16(0xbeef);
  w.U32(0xdeadbeefu);
  w.U64(0x0123456789abcdefull);
  w.I64(-42);
  w.F64(-0.0);
  w.F64(1.0 / 3.0);
  w.Str("forecast");
  w.Str("");

  WireReader r(w.buffer());
  EXPECT_EQ(*r.U8(), 0xab);
  EXPECT_EQ(*r.U16(), 0xbeef);
  EXPECT_EQ(*r.U32(), 0xdeadbeefu);
  EXPECT_EQ(*r.U64(), 0x0123456789abcdefull);
  EXPECT_EQ(*r.I64(), -42);
  double neg_zero = *r.F64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero)) << "-0.0 must survive bit-exactly";
  EXPECT_EQ(*r.F64(), 1.0 / 3.0);
  EXPECT_EQ(*r.Str(), "forecast");
  EXPECT_EQ(*r.Str(), "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireReaderWriter, LittleEndianLayout) {
  WireWriter w;
  w.U32(0x04030201u);
  ASSERT_EQ(w.buffer().size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(w.buffer()[0]), 0x01);
  EXPECT_EQ(static_cast<uint8_t>(w.buffer()[3]), 0x04);
}

TEST(WireReaderWriter, ValueRoundTripEveryTag) {
  const Value vals[] = {Value::Null(),
                        Value::Bool(true),
                        Value::Bool(false),
                        Value::Int64(INT64_MIN),
                        Value::Double(-0.0),
                        Value::Double(12345.678),
                        Value::String(""),
                        Value::String("umpqua\n,quoted")};
  WireWriter w;
  for (const Value& v : vals) w.Value(v);
  WireReader r(w.buffer());
  for (const Value& v : vals) {
    auto got = r.Value();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->type(), v.type());
    EXPECT_EQ(*got, v);
    EXPECT_EQ(got->ToString(), v.ToString());
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireReaderWriter, EveryGetterFailsCleanlyOnTruncation) {
  // One byte is not enough for any multi-byte getter.
  std::string one(1, '\x7f');
  EXPECT_EQ(WireReader(one).U16().status().code(), StatusCode::kParseError);
  EXPECT_EQ(WireReader(one).U32().status().code(), StatusCode::kParseError);
  EXPECT_EQ(WireReader(one).U64().status().code(), StatusCode::kParseError);
  EXPECT_EQ(WireReader(one).F64().status().code(), StatusCode::kParseError);
  EXPECT_EQ(WireReader("").U8().status().code(), StatusCode::kParseError);
  // Str whose declared length exceeds the remaining bytes.
  WireWriter w;
  w.U32(100);
  w.Raw("abc", 3);
  auto s = WireReader(w.buffer()).Str();
  EXPECT_EQ(s.status().code(), StatusCode::kParseError);
  EXPECT_NE(s.status().ToString().find("truncated frame"), std::string::npos)
      << s.status().ToString();
}

TEST(WireReaderWriter, ValueRejectsUnknownTag) {
  std::string bad(1, '\xee');
  auto v = WireReader(bad).Value();
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kParseError);
}

TEST(FrameParsing, RoundTripAndPartialDelivery) {
  std::string a =
      EncodeFrame(Opcode::kQuery, std::string_view("\x00SELECT 1", 9));
  std::string b = EncodeFrame(Opcode::kStatsOk, "");
  std::string stream = a + b;

  // Every strict prefix of the first frame parses as kNeedMore.
  for (size_t n = 0; n < a.size(); ++n) {
    FrameView f;
    size_t consumed = 0;
    EXPECT_EQ(ParseFrame(stream.substr(0, n), kDefaultMaxFrameBytes, &f,
                         &consumed),
              FrameParse::kNeedMore)
        << "prefix " << n;
  }

  FrameView f;
  size_t consumed = 0;
  ASSERT_EQ(ParseFrame(stream, kDefaultMaxFrameBytes, &f, &consumed),
            FrameParse::kFrame);
  EXPECT_EQ(f.opcode, Opcode::kQuery);
  EXPECT_EQ(f.body, std::string("\x00SELECT 1", 9));
  EXPECT_EQ(consumed, a.size());

  std::string_view rest = std::string_view(stream).substr(consumed);
  ASSERT_EQ(ParseFrame(rest, kDefaultMaxFrameBytes, &f, &consumed),
            FrameParse::kFrame);
  EXPECT_EQ(f.opcode, Opcode::kStatsOk);
  EXPECT_TRUE(f.body.empty());
  EXPECT_EQ(consumed, b.size());
}

TEST(FrameParsing, ZeroAndOversizedLengthsPoisonTheStream) {
  FrameView f;
  size_t consumed = 0;
  // Declared length 0: a frame must at least carry its opcode.
  std::string zero("\x00\x00\x00\x00", 4);
  EXPECT_EQ(ParseFrame(zero, kDefaultMaxFrameBytes, &f, &consumed),
            FrameParse::kBad);
  // Declared length over the cap: protocol error even though no body
  // bytes arrived — the decision is made from the header alone.
  std::string big("\xff\xff\xff\xff", 4);
  EXPECT_EQ(ParseFrame(big, kDefaultMaxFrameBytes, &f, &consumed),
            FrameParse::kBad);
  // Exactly at the cap is still legal framing (just not yet complete).
  WireWriter w;
  w.U32(kDefaultMaxFrameBytes);
  EXPECT_EQ(ParseFrame(w.buffer(), kDefaultMaxFrameBytes, &f, &consumed),
            FrameParse::kNeedMore);
}

Schema TestSchema() {
  return Schema({{"flag", DataType::kBool},
                 {"day", DataType::kInt64},
                 {"walltime", DataType::kDouble},
                 {"node", DataType::kString},
                 {"mixed", DataType::kInt64}});
}

TEST(Serialize, SchemaRoundTrip) {
  Schema s = TestSchema();
  WireWriter w;
  EncodeSchema(s, &w);
  WireReader r(w.buffer());
  auto got = DecodeSchema(&r);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->num_columns(), s.num_columns());
  for (size_t i = 0; i < s.num_columns(); ++i) {
    EXPECT_EQ(got->column(i).name, s.column(i).name);
    EXPECT_EQ(got->column(i).type, s.column(i).type);
  }
  EXPECT_TRUE(r.AtEnd());
}

// Builds a result whose columns hit every encoding: kBool, kInt64,
// kDouble, kDict (strings) and kTagged (the "mixed" column holds int64
// in even rows and double in odd rows — runtime types diverging from
// the declared schema, as post-aggregation columns do). NULLs land on
// word-boundary rows 63, 64 and 127 so multi-word bitmaps are real.
ResultSet MixedResult(size_t nrows) {
  ResultSet rs;
  rs.schema = TestSchema();
  const char* nodes[] = {"f1", "f2", "f3"};
  for (size_t i = 0; i < nrows; ++i) {
    Row row;
    row.push_back(i % 7 == 0 ? Value::Null()
                             : Value::Bool(i % 2 == 0));
    row.push_back(i == 63 || i == 64 || i == 127
                      ? Value::Null()
                      : Value::Int64(static_cast<int64_t>(i) - 5));
    row.push_back(i % 11 == 3
                      ? Value::Null()
                      : Value::Double(i == 0 ? -0.0 : 0.25 * i));
    row.push_back(i % 13 == 5 ? Value::Null() : Value::String(nodes[i % 3]));
    row.push_back(i % 2 == 0 ? Value::Int64(static_cast<int64_t>(i))
                             : Value::Double(i + 0.5));
    rs.rows.push_back(std::move(row));
  }
  return rs;
}

void ExpectResultSetRoundTrips(const ResultSet& rs) {
  WireWriter w;
  EncodeResultSet(rs, &w);
  WireReader r(w.buffer());
  auto got = DecodeResultSet(&r);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  ASSERT_EQ(got->rows.size(), rs.rows.size());
  for (size_t i = 0; i < rs.rows.size(); ++i) {
    for (size_t c = 0; c < rs.schema.num_columns(); ++c) {
      const Value& want = rs.rows[i][c];
      const Value& have = got->rows[i][c];
      ASSERT_EQ(have.type(), want.type()) << "row " << i << " col " << c;
      ASSERT_EQ(have, want) << "row " << i << " col " << c;
    }
  }
  // The equivalence lane's actual contract: rendered CSV, byte for byte.
  EXPECT_EQ(got->ToCsv(), rs.ToCsv());
}

TEST(Serialize, ResultSetRoundTripAcrossBitmapWords) {
  ExpectResultSetRoundTrips(MixedResult(130));  // 3 bitmap words
}

TEST(Serialize, ResultSetRoundTripExactWordBoundary) {
  ExpectResultSetRoundTrips(MixedResult(64));
  ExpectResultSetRoundTrips(MixedResult(65));
}

TEST(Serialize, ResultSetRoundTripSingleRowAndEmpty) {
  ExpectResultSetRoundTrips(MixedResult(1));
  ExpectResultSetRoundTrips(MixedResult(0));
}

TEST(Serialize, NegativeZeroSurvivesBitExactly) {
  ResultSet rs = MixedResult(2);
  WireWriter w;
  EncodeResultSet(rs, &w);
  WireReader r(w.buffer());
  auto got = DecodeResultSet(&r);
  ASSERT_TRUE(got.ok());
  double d = got->rows[0][2].double_value();
  EXPECT_TRUE(std::signbit(d));
}

TEST(Serialize, AllNullColumnCarriesItsBitmap) {
  ResultSet rs;
  rs.schema = Schema({{"v", DataType::kDouble}});
  for (int i = 0; i < 100; ++i) rs.rows.push_back({Value::Null()});
  ExpectResultSetRoundTrips(rs);
}

TEST(Serialize, TruncationAtEveryByteFailsCleanly) {
  ResultSet rs = MixedResult(130);
  WireWriter w;
  EncodeResultSet(rs, &w);
  const std::string& full = w.buffer();
  // Any strict prefix must decode to an error (the codec has no
  // optional trailing sections), and must do so without reading past
  // the buffer — ASan enforces the second half.
  for (size_t n = 0; n < full.size(); ++n) {
    WireReader r(std::string_view(full).substr(0, n));
    auto got = DecodeResultSet(&r);
    ASSERT_FALSE(got.ok()) << "prefix " << n << " of " << full.size();
    ASSERT_EQ(got.status().code(), StatusCode::kParseError) << "prefix " << n;
  }
}

TEST(Serialize, LyingHeadersCannotForceAllocation) {
  // ncols claims 2^31 columns in a 10-byte body.
  {
    WireWriter w;
    w.U32(1u << 31);
    w.Raw("abcdef", 6);
    WireReader r(w.buffer());
    EXPECT_FALSE(DecodeResultSet(&r).ok());
  }
  // One kAllNull column claiming 2^60 rows without bitmap bytes: the
  // bitmap requirement bounds nrows by payload actually present.
  {
    WireWriter w;
    w.U32(1);  // ncols
    w.Str("v");
    w.U8(static_cast<uint8_t>(DataType::kDouble));
    w.U64(uint64_t{1} << 60);  // nrows
    w.U8(0);                   // ColumnEncoding::kAllNull
    w.U8(1);                   // has_nulls... but no words follow
    WireReader r(w.buffer());
    auto got = DecodeResultSet(&r);
    EXPECT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kParseError);
  }
  // kAllNull with nrows > 0 but has_nulls=0 violates the format.
  {
    WireWriter w;
    w.U32(1);
    w.Str("v");
    w.U8(static_cast<uint8_t>(DataType::kDouble));
    w.U64(4);
    w.U8(0);  // kAllNull
    w.U8(0);  // has_nulls=0: illegal for nonzero nrows
    WireReader r(w.buffer());
    EXPECT_FALSE(DecodeResultSet(&r).ok());
  }
}

TEST(Serialize, DictCodeOutOfRangeIsAParseError) {
  // Legitimate frame for one 2-row string column, then corrupt the
  // final code (last 4 bytes) to point past the dictionary.
  ResultSet rs;
  rs.schema = Schema({{"node", DataType::kString}});
  rs.rows.push_back({Value::String("f1")});
  rs.rows.push_back({Value::String("f2")});
  WireWriter w;
  EncodeResultSet(rs, &w);
  std::string buf = w.Take();
  buf[buf.size() - 4] = '\x7f';
  WireReader r(buf);
  auto got = DecodeResultSet(&r);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kParseError);
}

TEST(Serialize, UnknownColumnEncodingRejected) {
  WireWriter w;
  w.U32(1);
  w.Str("v");
  w.U8(static_cast<uint8_t>(DataType::kInt64));
  w.U64(1);
  w.U8(0x6b);  // not a ColumnEncoding
  w.U8(0);
  w.U64(7);
  WireReader r(w.buffer());
  EXPECT_FALSE(DecodeResultSet(&r).ok());
}

TEST(Serialize, TrailingBytesAreRejected) {
  // A frame body is exactly one result; junk after a well-formed
  // result means the frame is corrupt, and the decoder says so rather
  // than silently ignoring bytes.
  ResultSet rs = MixedResult(3);
  WireWriter w;
  EncodeResultSet(rs, &w);
  w.U8(0x99);
  WireReader r(w.buffer());
  auto got = DecodeResultSet(&r);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace net
}  // namespace ff
