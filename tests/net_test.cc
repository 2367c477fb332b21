// Network front-end tests: wire-format round-trips (including hostile
// payload rejection), live loopback serving against XJoinServer
// (correctness vs in-process execution, health probes, typed errors,
// admission RetryInfo over the wire), overload shedding at the
// connection and in-flight ceilings with a retrying client honoring
// server hints, slow-client and idle eviction, and — in XJOIN_FAULTS
// builds — a seeded chaos matrix over every net.* fault site with
// post-chaos byte-identical verification.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/dictionary.h"
#include "common/fault.h"
#include "common/string_util.h"
#include "core/database.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "relational/relation.h"

namespace xjoin {
namespace {

using net::ClientOptions;
using net::ConnectTcp;
using net::DecodeErrorStatus;
using net::DecodeFrameHeader;
using net::DecodeHealthReply;
using net::DecodeQueryRequest;
using net::DecodeQueryResultSet;
using net::EncodeErrorStatus;
using net::EncodeFrameHeader;
using net::EncodeHealthReply;
using net::EncodeQueryRequest;
using net::EncodeQueryResultSet;
using net::FrameHeader;
using net::FrameType;
using net::HealthReply;
using net::kFrameHeaderSize;
using net::kFrameMagic;
using net::kMaxPayloadBytes;
using net::QueryRequest;
using net::QueryResultSet;
using net::ReadFrame;
using net::ResultEncoder;
using net::ServerOptions;
using net::ServerStats;
using net::SteadyNowMicros;
using net::WriteFrame;
using net::XJoinClient;
using net::XJoinServer;

// CSV for a two-column relation whose rows are (i, i % mod) for
// i in [0, n) — joins on the shared column name chain naturally.
std::string MakeCsv(const std::string& a, const std::string& b, int n,
                    int mod, int offset) {
  std::string csv = a + "," + b + "\n";
  for (int i = 0; i < n; ++i) {
    csv += std::to_string(i + offset) + "," +
           std::to_string((i + offset) % mod) + "\n";
  }
  return csv;
}

// Little-endian scalars for hand-built payloads.
void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
void AppendString(std::string* out, const std::string& s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  *out += s;
}

// A relation over `columns` whose rows are the given codes.
Relation MakeRelation(const std::vector<std::string>& columns,
                      const std::vector<Tuple>& rows) {
  Relation rel(*Schema::Make(columns));
  for (const Tuple& row : rows) rel.AppendRow(row);
  return rel;
}

// This process's resident set size in KiB (VmRSS of /proc/self/status),
// or -1 when it cannot be read.
int64_t ResidentKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoll(line.substr(6));
  }
  return -1;
}

// Spins until `pred` holds or `timeout_micros` passes.
bool WaitFor(const std::function<bool()>& pred, int64_t timeout_micros) {
  const int64_t deadline = SteadyNowMicros() + timeout_micros;
  while (SteadyNowMicros() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// ---------------------------------------------------------------------------
// Wire format (no sockets).

TEST(FrameTest, HeaderRoundTripsEveryType) {
  for (FrameType type :
       {FrameType::kQuery, FrameType::kResult, FrameType::kError,
        FrameType::kPing, FrameType::kPong}) {
    FrameHeader header;
    header.type = type;
    header.payload_len = 12345;
    uint8_t wire[kFrameHeaderSize];
    EncodeFrameHeader(header, wire);
    auto decoded = DecodeFrameHeader(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->type, type);
    EXPECT_EQ(decoded->payload_len, 12345u);
    EXPECT_EQ(decoded->version, net::kProtocolVersion);
  }
}

TEST(FrameTest, HeaderRejectsEveryMalformedField) {
  FrameHeader header;
  header.type = FrameType::kQuery;
  header.payload_len = 4;
  uint8_t good[kFrameHeaderSize];
  EncodeFrameHeader(header, good);

  auto corrupt = [&](int offset, uint8_t value) {
    uint8_t bad[kFrameHeaderSize];
    std::copy(good, good + kFrameHeaderSize, bad);
    bad[offset] = value;
    return DecodeFrameHeader(bad);
  };

  EXPECT_FALSE(corrupt(0, 0x00).ok()) << "bad magic must be rejected";
  EXPECT_FALSE(corrupt(4, 99).ok()) << "unknown version must be rejected";
  EXPECT_FALSE(corrupt(5, 0).ok()) << "frame type 0 must be rejected";
  EXPECT_FALSE(corrupt(5, 200).ok()) << "unknown frame type must be rejected";
  EXPECT_FALSE(corrupt(6, 1).ok()) << "reserved bits must be zero";
  EXPECT_FALSE(corrupt(7, 0xff).ok()) << "reserved bits must be zero";
  // A version-1 peer speaks the uncoded result layout.
  EXPECT_EQ(corrupt(4, 1).status().code(), StatusCode::kParseError)
      << "protocol version 1 must be rejected";
  // Payload length over the 64 MiB cap.
  uint8_t oversize[kFrameHeaderSize];
  std::copy(good, good + kFrameHeaderSize, oversize);
  const uint32_t too_big = kMaxPayloadBytes + 1;
  for (int i = 0; i < 4; ++i) oversize[8 + i] = (too_big >> (8 * i)) & 0xff;
  EXPECT_FALSE(DecodeFrameHeader(oversize).ok());
}

TEST(FrameTest, QueryRequestRoundTripsAndRejectsDamage) {
  QueryRequest req;
  req.text = "Q(*) := R, S";
  req.tenant = "acme";
  req.max_rows = 1000;
  req.max_bytes = 1 << 20;
  req.deadline_micros = 5'000'000;
  const std::string wire = EncodeQueryRequest(req);

  auto decoded = DecodeQueryRequest(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->text, req.text);
  EXPECT_EQ(decoded->tenant, req.tenant);
  EXPECT_EQ(decoded->max_rows, req.max_rows);
  EXPECT_EQ(decoded->max_bytes, req.max_bytes);
  EXPECT_EQ(decoded->deadline_micros, req.deadline_micros);

  // Truncation at every prefix length fails typed, never crashes.
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    auto damaged = DecodeQueryRequest(std::string_view(wire.data(), cut));
    EXPECT_FALSE(damaged.ok()) << "prefix of " << cut << " bytes decoded";
    EXPECT_EQ(damaged.status().code(), StatusCode::kParseError);
  }
  // Trailing bytes mean a format mismatch and are rejected too.
  EXPECT_FALSE(DecodeQueryRequest(wire + "x").ok());
}

TEST(FrameTest, QueryResultSetRoundTripsIncludingEmpty) {
  QueryResultSet rs;
  rs.columns = {"A", "B", "C"};
  rs.rows = {{"1", "2", "3"}, {"", "yes", "42"}};
  auto wire = EncodeQueryResultSet(rs);
  ASSERT_TRUE(wire.ok());
  auto decoded = DecodeQueryResultSet(*wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->columns, rs.columns);
  EXPECT_EQ(decoded->rows, rs.rows);

  QueryResultSet empty;
  auto empty_wire = EncodeQueryResultSet(empty);
  ASSERT_TRUE(empty_wire.ok());
  auto empty_decoded = DecodeQueryResultSet(*empty_wire);
  ASSERT_TRUE(empty_decoded.ok());
  EXPECT_TRUE(empty_decoded->columns.empty());
  EXPECT_TRUE(empty_decoded->rows.empty());
}

TEST(FrameTest, CodedResultRoundTripsRepeatedEmptyAndLongCells) {
  const std::string long_cell(100'000, 'z');
  QueryResultSet rs;
  rs.columns = {"A", "B"};
  for (int i = 0; i < 300; ++i) {
    rs.rows.push_back({std::to_string(i % 3), i % 2 ? "" : long_cell});
  }
  auto wire = EncodeQueryResultSet(rs);
  ASSERT_TRUE(wire.ok());
  // Each distinct value crosses once: "0", "1", "2", "" and the long
  // cell, plus one index byte per cell.
  EXPECT_LT(wire->size(), long_cell.size() + 1000);
  auto decoded = DecodeQueryResultSet(*wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->columns, rs.columns);
  EXPECT_EQ(decoded->rows, rs.rows);

  // Columns and no rows.
  QueryResultSet no_rows;
  no_rows.columns = {"A", "B"};
  auto no_rows_wire = EncodeQueryResultSet(no_rows);
  ASSERT_TRUE(no_rows_wire.ok());
  auto no_rows_decoded = DecodeQueryResultSet(*no_rows_wire);
  ASSERT_TRUE(no_rows_decoded.ok());
  EXPECT_EQ(no_rows_decoded->columns, no_rows.columns);
  EXPECT_TRUE(no_rows_decoded->rows.empty());

  // No columns: one empty tuple round-trips, two are not a set.
  QueryResultSet unit;
  unit.rows = {{}};
  auto unit_wire = EncodeQueryResultSet(unit);
  ASSERT_TRUE(unit_wire.ok());
  auto unit_decoded = DecodeQueryResultSet(*unit_wire);
  ASSERT_TRUE(unit_decoded.ok());
  EXPECT_EQ(unit_decoded->rows.size(), 1u);
  unit.rows.push_back({});
  EXPECT_EQ(EncodeQueryResultSet(unit).status().code(),
            StatusCode::kInvalidArgument);

  // A row narrower than the column list is refused, not misframed.
  QueryResultSet ragged;
  ragged.columns = {"A", "B"};
  ragged.rows = {{"1"}};
  EXPECT_EQ(EncodeQueryResultSet(ragged).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FrameTest, RelationEncoderMatchesStringEncoderByteForByte) {
  Dictionary dict;
  std::vector<int64_t> codes;
  for (int i = 0; i < 2000; ++i) {
    codes.push_back(dict.Intern("v" + std::to_string(i)));
  }
  codes.push_back(dict.Intern(""));
  // Enough distinct codes to grow the encoder's map several times, in an
  // order unlike code order, with repeats within and across columns.
  std::vector<Tuple> rows;
  for (int i = 0; i < 3000; ++i) {
    const int64_t a = codes[(i * 7) % codes.size()];
    const int64_t c = codes[(i * 13) % codes.size()];
    rows.push_back({a, codes[i % 5], c});
  }
  // One encoder serves every answer, as a server worker's does.
  std::vector<Relation> answers;
  answers.push_back(MakeRelation({"A", "B", "C"}, rows));
  answers.push_back(MakeRelation({"X"}, {{codes[3]}, {codes[2000]}}));
  answers.push_back(MakeRelation({"A", "B", "C"}, rows));
  answers.push_back(MakeRelation({"Y"}, {}));
  ResultEncoder encoder;
  for (const Relation& rel : answers) {
    QueryResultSet rs;
    rs.columns = rel.schema().attributes();
    for (size_t r = 0; r < rel.num_rows(); ++r) {
      std::vector<std::string> row;
      for (size_t c = 0; c < rel.num_columns(); ++c) {
        row.push_back(dict.Decode(rel.at(r, c)));
      }
      rs.rows.push_back(std::move(row));
    }
    auto from_strings = EncodeQueryResultSet(rs);
    auto from_codes = encoder.Encode(rel, dict);
    ASSERT_TRUE(from_strings.ok());
    ASSERT_TRUE(from_codes.ok());
    EXPECT_EQ(*from_codes, *from_strings);
    auto decoded = DecodeQueryResultSet(*from_codes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->columns, rs.columns);
    EXPECT_EQ(decoded->rows, rs.rows);
  }
}

TEST(FrameTest, RelationCodeOutsideDictionaryDecodesAsHashCode) {
  Dictionary dict;
  const int64_t known = dict.Intern("known");
  ResultEncoder encoder;
  const Relation rel = MakeRelation({"A", "B"}, {{known, 999}, {999, -5}});
  auto wire = encoder.Encode(rel, dict);
  ASSERT_TRUE(wire.ok());
  auto decoded = DecodeQueryResultSet(*wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->rows.size(), 2u);
  EXPECT_EQ(decoded->rows[0], (std::vector<std::string>{"known", "#999"}));
  EXPECT_EQ(decoded->rows[1], (std::vector<std::string>{"#999", "#-5"}));
}

TEST(FrameTest, QueryResultSetRejectsHostileRowCount) {
  // A tiny payload claiming 2^40 rows must be rejected before any
  // allocation proportional to the claimed count.
  QueryResultSet rs;
  rs.columns = {"A"};
  rs.rows = {{"1"}};
  auto wire = EncodeQueryResultSet(rs);
  ASSERT_TRUE(wire.ok());
  std::string hostile = *wire;
  // The row count is the u64 right after the string table.
  const size_t count_at = 4 + 4 + 1 + 4 + 4 + 1;  // columns, "A", table, "1"
  const uint64_t absurd = uint64_t{1} << 40;
  for (int i = 0; i < 8; ++i) {
    hostile[count_at + i] = static_cast<char>((absurd >> (8 * i)) & 0xff);
  }
  auto decoded = DecodeQueryResultSet(hostile);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);

  // With no columns a row costs no bytes, so only set semantics bound
  // the count: 0-ary tuples form a set of at most one.
  // The row count of an empty result sits at offset 8, after the
  // column and table counts.
  auto empty_wire = EncodeQueryResultSet(QueryResultSet{});
  ASSERT_TRUE(empty_wire.ok());
  std::string no_columns = empty_wire->substr(0, 8);
  ASSERT_EQ(empty_wire->size(), no_columns.size() + 8);
  AppendU64(&no_columns, absurd);
  auto no_columns_decoded = DecodeQueryResultSet(no_columns);
  ASSERT_FALSE(no_columns_decoded.ok());
  EXPECT_EQ(no_columns_decoded.status().code(), StatusCode::kParseError);
}

TEST(FrameTest, CodedResultRejectsDamage) {
  QueryResultSet rs;
  rs.columns = {"A", "B"};
  rs.rows = {{"x", "y"}, {"y", "x"}, {"x", "x"}};
  auto wire = EncodeQueryResultSet(rs);
  ASSERT_TRUE(wire.ok());

  // Truncation at every prefix length fails typed, never crashes.
  for (size_t cut = 0; cut < wire->size(); ++cut) {
    auto damaged = DecodeQueryResultSet(std::string_view(wire->data(), cut));
    EXPECT_FALSE(damaged.ok()) << "prefix of " << cut << " bytes decoded";
    EXPECT_EQ(damaged.status().code(), StatusCode::kParseError);
  }
  // Trailing bytes mean a format mismatch.
  EXPECT_EQ(DecodeQueryResultSet(*wire + "x").status().code(),
            StatusCode::kParseError);

  // The six cell indexes are the last six bytes: 0 1 1 0 0 0.
  const size_t cells_at = wire->size() - 6;
  ASSERT_EQ(wire->substr(cells_at), std::string("\0\1\1\0\0\0", 6));
  std::string out_of_range = *wire;
  out_of_range[cells_at + 2] = 2;  // the table holds two entries
  EXPECT_EQ(DecodeQueryResultSet(out_of_range).status().code(),
            StatusCode::kParseError);
  std::string out_of_order = *wire;
  out_of_order[cells_at] = 1;  // "y" before "x" was first seen
  EXPECT_EQ(DecodeQueryResultSet(out_of_order).status().code(),
            StatusCode::kParseError);
  std::string unreferenced = *wire;
  unreferenced[cells_at + 1] = 0;
  unreferenced[cells_at + 2] = 0;
  EXPECT_EQ(DecodeQueryResultSet(unreferenced).status().code(),
            StatusCode::kParseError);

  // A varint longer than 10 bytes, and one that overflows 64 bits.
  std::string head;
  AppendU32(&head, 1);
  AppendString(&head, "A");
  AppendU32(&head, 1);
  AppendString(&head, "x");
  AppendU64(&head, 1);
  const std::string too_long = head + std::string(10, '\x80') + '\0';
  EXPECT_EQ(DecodeQueryResultSet(too_long).status().code(),
            StatusCode::kParseError);
  const std::string overflow = head + std::string(9, '\x80') + '\x02';
  EXPECT_EQ(DecodeQueryResultSet(overflow).status().code(),
            StatusCode::kParseError);
  EXPECT_TRUE(DecodeQueryResultSet(head + '\0').ok());
}

TEST(FrameTest, CodedResultCannotExpandPastTheCap) {
  // One 1 MiB table entry referenced by 65 cells has a logical size of
  // 65 * (4 + 1 MiB) > 64 MiB in a ~1 MiB payload: a decompression
  // bomb. The decoder refuses it before materializing the cells.
  const std::string mib(1u << 20, 'b');
  std::string bomb;
  AppendU32(&bomb, 1);
  AppendString(&bomb, "blob");
  AppendU32(&bomb, 1);
  AppendString(&bomb, mib);
  AppendU64(&bomb, 65);
  bomb += std::string(65, '\0');
  ASSERT_LT(bomb.size(), kMaxPayloadBytes);
  auto decoded = DecodeQueryResultSet(bomb);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);

  // The encoder applies the same logical cap to the same answer.
  Dictionary dict;
  const int64_t code = dict.Intern(mib);
  ResultEncoder encoder;
  const Relation over = MakeRelation({"blob"}, std::vector<Tuple>(65, {code}));
  auto encoded = encoder.Encode(over, dict);
  ASSERT_FALSE(encoded.ok());
  EXPECT_EQ(encoded.status().code(), StatusCode::kResourceExhausted);
  // 63 references stay under the cap, exactly as in the uncoded layout.
  const Relation under = MakeRelation({"blob"}, std::vector<Tuple>(63, {code}));
  auto fits = encoder.Encode(under, dict);
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_LT(fits->size(), mib.size() + 200);
}

TEST(FrameTest, OversizeResultSetFailsEncodeWithTypedStatus) {
  QueryResultSet rs;
  rs.columns = {"blob"};
  const std::string big(16u << 20, 'x');
  for (int i = 0; i < 5; ++i) rs.rows.push_back({big});
  auto wire = EncodeQueryResultSet(rs);
  ASSERT_FALSE(wire.ok());
  EXPECT_EQ(wire.status().code(), StatusCode::kResourceExhausted);
}

TEST(FrameTest, ErrorStatusRoundTripsWithAndWithoutRetryInfo) {
  const Status plain = Status::InvalidArgument("no such relation: Z");
  Status decoded;
  ASSERT_TRUE(DecodeErrorStatus(EncodeErrorStatus(plain), &decoded).ok());
  EXPECT_EQ(decoded, plain);
  EXPECT_FALSE(decoded.retry_info().has_value());

  const Status shed =
      Status::ResourceExhausted("tenant pool saturated")
          .WithRetryInfo(RetryInfo{/*retry_after_micros=*/75'000,
                                   /*queue_depth=*/3});
  ASSERT_TRUE(DecodeErrorStatus(EncodeErrorStatus(shed), &decoded).ok());
  EXPECT_EQ(decoded, shed);
  ASSERT_TRUE(decoded.retry_info().has_value());
  EXPECT_EQ(decoded.retry_info()->retry_after_micros, 75'000);
  EXPECT_EQ(decoded.retry_info()->queue_depth, 3);

  // A status code outside the enum range is a protocol violation.
  std::string forged = EncodeErrorStatus(plain);
  forged[0] = static_cast<char>(250);
  EXPECT_FALSE(DecodeErrorStatus(forged, &decoded).ok());
}

TEST(FrameTest, HealthReplyRoundTrips) {
  HealthReply health;
  health.draining = true;
  health.active_connections = 7;
  health.inflight = 2;
  health.served = 12345;
  health.shed = 67;
  auto decoded = DecodeHealthReply(EncodeHealthReply(health));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->draining);
  EXPECT_EQ(decoded->active_connections, 7);
  EXPECT_EQ(decoded->inflight, 2);
  EXPECT_EQ(decoded->served, 12345);
  EXPECT_EQ(decoded->shed, 67);
}

// ---------------------------------------------------------------------------
// Live loopback serving.

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.RegisterRelationCsv("R", MakeCsv("A", "B", 60, 7, 0)).ok());
    ASSERT_TRUE(db_.RegisterRelationCsv("S", MakeCsv("B", "C", 60, 7, 0)).ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown(/*drain_deadline_micros=*/0);
  }

  void StartServer(ServerOptions options = {}) {
    server_ = std::make_unique<XJoinServer>(&db_, options);
    const Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  /// Registers the large relations behind the deliberately slow
  /// blocker join (~3M output rows) used to hold a worker busy.
  void RegisterBlockerRelations() {
    ASSERT_TRUE(
        db_.RegisterRelationCsv("RB", MakeCsv("A", "B", 3000, 3, 0)).ok());
    ASSERT_TRUE(
        db_.RegisterRelationCsv("SB", MakeCsv("C", "B", 3000, 3, 0)).ok());
  }

  ClientOptions MakeClientOptions(int max_attempts = 4) const {
    ClientOptions options;
    options.port = server_->port();
    options.max_attempts = max_attempts;
    options.backoff_base_micros = 500;
    options.backoff_cap_micros = 20'000;
    return options;
  }

  /// The in-process answer for `query`, decoded exactly the way the
  /// server decodes rows for the wire.
  std::vector<std::vector<std::string>> ExpectedRows(
      const std::string& query) {
    auto result = db_.OpenSession().Query(query);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::vector<std::vector<std::string>> rows;
    if (!result.ok()) return rows;
    const Dictionary& dict = db_.dictionary();
    for (size_t r = 0; r < result->num_rows(); ++r) {
      std::vector<std::string> row;
      for (size_t c = 0; c < result->num_columns(); ++c) {
        const int64_t code = result->at(r, c);
        const std::string* decoded = nullptr;
        dict.DecodeMany(&code, 1, &decoded);
        row.push_back(decoded != nullptr ? *decoded
                                         : "#" + std::to_string(code));
      }
      rows.push_back(std::move(row));
    }
    return rows;
  }

  /// Raw connected socket to the server (caller closes).
  int RawConnect() {
    auto fd = ConnectTcp("127.0.0.1", server_->port(),
                         SteadyNowMicros() + 2'000'000);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    return fd.ok() ? *fd : -1;
  }

  MultiModelDatabase db_;
  std::unique_ptr<XJoinServer> server_;
  const std::string q_ = "Q(*) := R, S";
};

TEST_F(NetTest, QueryOverLoopbackMatchesInProcessExecution) {
  StartServer();
  const auto expected = ExpectedRows(q_);
  ASSERT_FALSE(expected.empty());

  XJoinClient client(MakeClientOptions());
  QueryRequest request;
  request.text = q_;
  auto result = client.Query(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows, expected);
  ASSERT_EQ(result->columns.size(), expected[0].size());

  // served_ok increments just after the response write syscall, so the
  // client can observe the reply first: wait, don't assert instantly.
  EXPECT_TRUE(
      WaitFor([&] { return server_->stats().served_ok == 1; }, 2'000'000));
  EXPECT_EQ(server_->stats().accepted, 1);
  EXPECT_EQ(client.stats().retries, 0);
}

TEST_F(NetTest, OneConnectionServesManyRequestsAndPings) {
  StartServer();
  const auto expected = ExpectedRows(q_);
  XJoinClient client(MakeClientOptions());
  QueryRequest request;
  request.text = q_;
  for (int i = 0; i < 5; ++i) {
    auto result = client.Query(request);
    ASSERT_TRUE(result.ok()) << "request " << i << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->rows, expected);
    // Let the worker's served_ok increment land before probing health.
    ASSERT_TRUE(WaitFor(
        [&] { return server_->stats().served_ok == i + 1; }, 2'000'000));
    auto health = client.Ping();
    ASSERT_TRUE(health.ok()) << health.status().ToString();
    EXPECT_FALSE(health->draining);
    EXPECT_EQ(health->served, i + 1);
  }
  // All eleven frames rode one TCP connection.
  EXPECT_EQ(client.stats().reconnects, 1);
  EXPECT_EQ(server_->stats().accepted, 1);
  EXPECT_EQ(server_->stats().pings, 5);
}

TEST_F(NetTest, BadQueryTextGetsTypedErrorAndConnectionSurvives) {
  ASSERT_TRUE(db_.RegisterDocumentXml("doc", "<t0><t1>x</t1></t0>").ok());
  StartServer();
  XJoinClient client(MakeClientOptions());
  // An unknown relation, and a twig nested 100,000 deep (~790 KB), far
  // past kMaxXmlDepth: the parser must refuse it, not recurse per '['.
  std::string deep_twig;
  for (int i = 0; i < 100000; ++i) {
    deep_twig += (i > 0 ? "[t" : "t") + std::to_string(i);
  }
  deep_twig.append(99999, ']');
  // And a twig 301 attributes wide, past kMaxQueryAttributes.
  std::string wide_twig = "r[";
  for (int i = 0; i < 300; ++i) {
    wide_twig += (i > 0 ? ",c" : "c") + std::to_string(i);
  }
  wide_twig += "]";
  const std::vector<std::pair<std::string, StatusCode>> bad_inputs = {
      {"Q(*) := NoSuchRelation", StatusCode::kNotFound},
      {"Q(*) := doc : " + deep_twig, StatusCode::kParseError},
      {"Q(*) := doc : " + wide_twig, StatusCode::kParseError},
  };
  for (const auto& [text, code] : bad_inputs) {
    QueryRequest bad;
    bad.text = text;
    auto result = client.Query(bad);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), code) << result.status().ToString();
  }
  // A semantic failure is not retryable: one attempt, no backoff.
  EXPECT_EQ(client.stats().retries, 0);

  // The same connection keeps serving.
  QueryRequest good;
  good.text = q_;
  EXPECT_TRUE(client.Query(good).ok());
  EXPECT_EQ(client.stats().reconnects, 1);
}

TEST_F(NetTest, MalformedQueryPayloadGetsTypedErrorAndKeepsConnection) {
  StartServer();
  const int fd = RawConnect();
  ASSERT_GE(fd, 0);
  const int64_t deadline = SteadyNowMicros() + 5'000'000;
  // Intact header, garbage payload: typed kInvalidArgument, stream
  // stays usable.
  ASSERT_TRUE(WriteFrame(fd, FrameType::kQuery, "\x01", deadline).ok());
  auto reply = ReadFrame(fd, deadline);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->first.type, FrameType::kError);
  Status error;
  ASSERT_TRUE(DecodeErrorStatus(reply->second, &error).ok());
  EXPECT_EQ(error.code(), StatusCode::kInvalidArgument) << error.ToString();

  ASSERT_TRUE(WriteFrame(fd, FrameType::kPing, "", deadline).ok());
  auto pong = ReadFrame(fd, deadline);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->first.type, FrameType::kPong);
  ::close(fd);
}

TEST_F(NetTest, GarbageHeaderPoisonsTheStream) {
  StartServer();
  const int fd = RawConnect();
  ASSERT_GE(fd, 0);
  const uint8_t junk[kFrameHeaderSize] = {'G', 'E', 'T', ' ', '/', ' ',
                                          'H', 'T', 'T', 'P', '/', '1'};
  ASSERT_TRUE(
      net::WriteFull(fd, junk, sizeof(junk), SteadyNowMicros() + 2'000'000)
          .ok());
  // The server closes without a reply: the next read sees EOF.
  auto reply = ReadFrame(fd, SteadyNowMicros() + 5'000'000);
  EXPECT_FALSE(reply.ok());
  EXPECT_TRUE(WaitFor([&] { return server_->stats().bad_frames >= 1; },
                      2'000'000));
  ::close(fd);
}

TEST_F(NetTest, DeclaredPayloadIsNotAllocatedBeforeItArrives) {
  StartServer();
  const auto expected = ExpectedRows(q_);
  ASSERT_FALSE(expected.empty());
  const int64_t rss_before = ResidentKiB();
  ASSERT_GT(rss_before, 0);

  // Each connection sends only a header that claims the largest payload
  // the protocol allows, then nothing.
  constexpr int kHeaderOnly = 4;
  FrameHeader header;
  header.type = FrameType::kQuery;
  header.payload_len = kMaxPayloadBytes;
  uint8_t wire[kFrameHeaderSize];
  EncodeFrameHeader(header, wire);
  std::vector<int> fds;
  for (int i = 0; i < kHeaderOnly; ++i) {
    const int fd = RawConnect();
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
    ASSERT_TRUE(
        net::WriteFull(fd, wire, sizeof(wire), SteadyNowMicros() + 2'000'000)
            .ok());
  }

  // Another connection is served meanwhile. Its ping follows the query,
  // so the event loop has polled again after reading every header.
  XJoinClient client(MakeClientOptions());
  QueryRequest request;
  request.text = q_;
  auto result = client.Query(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows, expected);
  ASSERT_TRUE(client.Ping().ok());

  const int64_t claimed_kib =
      int64_t{kHeaderOnly} * static_cast<int64_t>(kMaxPayloadBytes) / 1024;
  EXPECT_LT(ResidentKiB() - rss_before, claimed_kib / 16)
      << "claimed " << claimed_kib << " KiB";
  for (int fd : fds) ::close(fd);
}

TEST_F(NetTest, ServerFrameTypesAreRejectedWhenSentByAClient) {
  StartServer();
  const int fd = RawConnect();
  ASSERT_GE(fd, 0);
  // kResult arriving at the server is a protocol violation: close.
  ASSERT_TRUE(WriteFrame(fd, FrameType::kResult, "",
                         SteadyNowMicros() + 2'000'000)
                  .ok());
  auto reply = ReadFrame(fd, SteadyNowMicros() + 5'000'000);
  EXPECT_FALSE(reply.ok());
  EXPECT_TRUE(WaitFor([&] { return server_->stats().bad_frames >= 1; },
                      2'000'000));
  ::close(fd);
}

TEST_F(NetTest, ConnectionCeilingShedsWithRetryHint) {
  ServerOptions options;
  options.max_connections = 1;
  options.shed_retry_after_micros = 33'000;
  StartServer(options);

  XJoinClient keeper(MakeClientOptions());
  ASSERT_TRUE(keeper.Ping().ok());  // occupies the single slot

  const int fd = RawConnect();
  ASSERT_GE(fd, 0);
  auto reply = ReadFrame(fd, SteadyNowMicros() + 5'000'000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->first.type, FrameType::kError);
  Status shed;
  ASSERT_TRUE(DecodeErrorStatus(reply->second, &shed).ok());
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted) << shed.ToString();
  ASSERT_TRUE(shed.retry_info().has_value());
  EXPECT_EQ(shed.retry_info()->retry_after_micros, 33'000);
  // After the shed error the server closes this connection.
  EXPECT_FALSE(ReadFrame(fd, SteadyNowMicros() + 5'000'000).ok());
  ::close(fd);
  EXPECT_EQ(server_->stats().rejected_conn_limit, 1);

  // The established connection is unaffected.
  EXPECT_TRUE(keeper.Ping().ok());
}

TEST_F(NetTest, InflightCeilingShedsAndRetryingClientEventuallySucceeds) {
  RegisterBlockerRelations();
  ServerOptions options;
  options.num_workers = 1;
  options.max_inflight = 1;
  options.shed_retry_after_micros = 5'000;
  StartServer(options);
  const auto expected = ExpectedRows(q_);

  // Occupy the single in-flight slot with the slow blocker join.
  const int blocker = RawConnect();
  ASSERT_GE(blocker, 0);
  QueryRequest slow;
  slow.text = "QB(*) := RB, SB";
  ASSERT_TRUE(WriteFrame(blocker, FrameType::kQuery, EncodeQueryRequest(slow),
                         SteadyNowMicros() + 2'000'000)
                  .ok());
  ASSERT_TRUE(WaitFor([&] { return server_->stats().inflight >= 1; },
                      5'000'000))
      << "blocker query never started executing";

  // A single-attempt client is shed with the machine-readable hint.
  XJoinClient once(MakeClientOptions(/*max_attempts=*/1));
  QueryRequest request;
  request.text = q_;
  auto shed = once.Query(request);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted)
      << shed.status().ToString();
  ASSERT_TRUE(shed.status().retry_info().has_value());
  EXPECT_EQ(shed.status().retry_info()->retry_after_micros, 5'000);
  EXPECT_GE(server_->stats().shed_inflight, 1);

  // Disconnecting the blocker cancels its query cooperatively, which
  // frees the slot for the retrying client.
  ::close(blocker);
  XJoinClient retrying(MakeClientOptions(/*max_attempts=*/50));
  auto result = retrying.Query(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows, expected);
  EXPECT_TRUE(WaitFor(
      [&] { return server_->stats().cancelled_disconnect >= 1; }, 5'000'000));
  // The retry loop consumed the hint at least once unless the slot
  // freed before the first attempt; either way nothing hung.
  EXPECT_GE(retrying.stats().requests, 1);
}

TEST_F(NetTest, TenantPoolRejectionCarriesRetryInfoOverTheWire) {
  RegisterBlockerRelations();
  TenantPoolOptions pool;
  pool.max_concurrent = 1;
  pool.max_queue_depth = 0;  // saturation rejects immediately
  pool.queue_deadline_micros = 40'000;
  ASSERT_TRUE(db_.CreateTenantPool("acme", pool).ok());
  StartServer();

  const int blocker = RawConnect();
  ASSERT_GE(blocker, 0);
  QueryRequest slow;
  slow.text = "QB(*) := RB, SB";
  slow.tenant = "acme";
  ASSERT_TRUE(WriteFrame(blocker, FrameType::kQuery, EncodeQueryRequest(slow),
                         SteadyNowMicros() + 2'000'000)
                  .ok());
  ASSERT_TRUE(WaitFor(
      [&] { return (*db_.tenant_pool_stats("acme")).running >= 1; },
      5'000'000))
      << "blocker never occupied the tenant pool";

  // The pool's typed rejection — produced deep inside the database —
  // arrives at the client with its RetryInfo intact.
  XJoinClient once(MakeClientOptions(/*max_attempts=*/1));
  QueryRequest request;
  request.text = q_;
  request.tenant = "acme";
  auto rejected = once.Query(request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted)
      << rejected.status().ToString();
  ASSERT_TRUE(rejected.status().retry_info().has_value());
  EXPECT_EQ(rejected.status().retry_info()->retry_after_micros, 40'000);
  ::close(blocker);
}

TEST_F(NetTest, SlowClientIsEvicted) {
  ServerOptions options;
  options.read_timeout_micros = 50'000;
  StartServer(options);
  const int fd = RawConnect();
  ASSERT_GE(fd, 0);
  // Four header bytes, then silence: the read deadline fires and the
  // server closes the connection.
  const uint32_t magic = kFrameMagic;
  uint8_t partial[4];
  for (int i = 0; i < 4; ++i) partial[i] = (magic >> (8 * i)) & 0xff;
  ASSERT_TRUE(
      net::WriteFull(fd, partial, 4, SteadyNowMicros() + 2'000'000).ok());
  auto reply = ReadFrame(fd, SteadyNowMicros() + 5'000'000);
  EXPECT_FALSE(reply.ok());
  EXPECT_TRUE(WaitFor([&] { return server_->stats().evicted_slow >= 1; },
                      2'000'000));
  ::close(fd);
}

TEST_F(NetTest, IdleConnectionsAreEvictedWhenConfigured) {
  ServerOptions options;
  options.idle_timeout_micros = 50'000;
  StartServer(options);
  const int fd = RawConnect();
  ASSERT_GE(fd, 0);
  const int64_t deadline = SteadyNowMicros() + 5'000'000;
  ASSERT_TRUE(WriteFrame(fd, FrameType::kPing, "", deadline).ok());
  ASSERT_TRUE(ReadFrame(fd, deadline).ok());
  // No follow-up traffic: the idle sweep reclaims the connection.
  EXPECT_FALSE(ReadFrame(fd, SteadyNowMicros() + 5'000'000).ok());
  EXPECT_TRUE(WaitFor([&] { return server_->stats().evicted_slow >= 1; },
                      2'000'000));
  ::close(fd);
}

TEST_F(NetTest, ShutdownIsIdempotentAndStopsAccepting) {
  StartServer();
  XJoinClient client(MakeClientOptions(/*max_attempts=*/1));
  ASSERT_TRUE(client.Ping().ok());
  const int port = server_->port();
  server_->Shutdown();
  server_->Shutdown();  // second call is a no-op
  EXPECT_TRUE(server_->draining());
  auto fd = ConnectTcp("127.0.0.1", port, SteadyNowMicros() + 500'000);
  if (fd.ok()) {
    // A racing connect may be accepted by the kernel backlog before
    // the listener closed; it must at least never be served.
    EXPECT_FALSE(
        ReadFrame(*fd, SteadyNowMicros() + 1'000'000).ok());
    ::close(*fd);
  }
}

#ifdef XJOIN_FAULTS_ENABLED
// ---------------------------------------------------------------------------
// Deterministic network fault injection (XJOIN_FAULTS=ON builds only).

TEST_F(NetTest, EachNetFaultSiteFailsTypedAndServerRecovers) {
  // FailAt arms a site to fail its Nth hit and every hit after, so a
  // retrying client cannot ride it out — what must hold is that every
  // armed site degrades to a clean typed error (no hang, no crash) and
  // the server serves correct bytes again the moment the fault clears.
  StartServer();
  const auto expected = ExpectedRows(q_);
  for (const char* site :
       {"net.accept", "net.read", "net.write", "net.drop_response"}) {
    ScopedFaultInjection scoped;
    FaultInjector::Global().FailAt(site, 1);
    {
      XJoinClient client(MakeClientOptions(/*max_attempts=*/2));
      QueryRequest request;
      request.text = q_;
      auto result = client.Query(request);
      ASSERT_FALSE(result.ok()) << "site " << site << " never fired";
      EXPECT_GE(FaultInjector::Global().hits(site), 1) << "site " << site;
      EXPECT_FALSE(result.status().message().empty());
    }
    FaultInjector::Global().Disarm();
    XJoinClient calm(MakeClientOptions());
    QueryRequest request;
    request.text = q_;
    auto result = calm.Query(request);
    ASSERT_TRUE(result.ok())
        << "site " << site << " after disarm: " << result.status().ToString();
    EXPECT_EQ(result->rows, expected) << "site " << site;
  }
}

TEST_F(NetTest, SeededChaosMatrixNeverHangsAndRecoversByteIdentical) {
  // The acceptance chaos matrix: every fault site armed at p=0.05
  // across seeds {1, 7, 42, 1234} (CI adds an env-provided seed),
  // against a live loopback server. Every request must end in either
  // the exact correct rows or a clean typed error — never a hang, a
  // crash, or a torn result — and after the storm a fresh connection
  // answers byte-identically.
  StartServer();
  const auto expected = ExpectedRows(q_);
  ASSERT_FALSE(expected.empty());

  std::vector<uint64_t> seeds = {1, 7, 42, 1234};
  const uint64_t env_seed = EnvUint64OrDefault("XJOIN_FAULT_SEED", 0);
  if (env_seed != 0) seeds.push_back(env_seed);

  for (const uint64_t seed : seeds) {
    ScopedFaultInjection scoped;
    FaultInjector::Global().SetSeed(seed, 0.05);
    XJoinClient client(MakeClientOptions(/*max_attempts=*/4));
    for (int i = 0; i < 25; ++i) {
      if (i % 7 == 0) db_.ClearTrieCache();  // rebuilds through faults
      QueryRequest request;
      request.text = q_;
      auto result = client.Query(request);
      if (result.ok()) {
        EXPECT_EQ(result->rows, expected) << "seed " << seed << " it " << i;
      } else {
        const StatusCode code = result.status().code();
        EXPECT_TRUE(code == StatusCode::kInternal ||
                    code == StatusCode::kResourceExhausted ||
                    code == StatusCode::kCancelled ||
                    code == StatusCode::kIOError ||
                    code == StatusCode::kDeadlineExceeded)
            << "seed " << seed << " it " << i << ": "
            << result.status().ToString();
      }
    }
  }

  // Post-chaos: a fresh connection answers byte-identically.
  FaultInjector::Global().Disarm();
  XJoinClient calm(MakeClientOptions());
  QueryRequest request;
  request.text = q_;
  auto result = calm.Query(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows, expected);
}
#endif  // XJOIN_FAULTS_ENABLED

}  // namespace
}  // namespace xjoin
