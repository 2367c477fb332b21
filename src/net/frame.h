// Wire protocol for the xjoin network front-end: a length-prefixed
// framed request/response format over a byte stream, dependency-free
// (no protobuf), deterministic, and versioned.
//
// Every frame is a fixed 12-byte little-endian header followed by
// `payload_len` payload bytes:
//
//     offset  size  field
//     0       4     magic        0x584A4F49 ("XJOI" read as LE u32)
//     4       1     version      kProtocolVersion (currently 2)
//     5       1     type         FrameType
//     6       2     reserved     must be 0
//     8       4     payload_len  <= kMaxPayloadBytes (64 MiB)
//
// Frame conversation (client drives; one outstanding request per
// connection):
//
//     kQuery  ->                  <- kResult | kError
//     kPing   ->                  <- kPong
//
// A malformed HEADER (bad magic/version/oversized payload) poisons the
// stream — the receiver closes the connection. A malformed PAYLOAD on
// an intact header is recoverable — the server answers kError
// (kInvalidArgument) and keeps the connection.
//
// Payload encodings are little-endian with u32 length-prefixed strings.
// Error payloads carry the machine-readable StatusCode plus optional
// RetryInfo (retry-after suggestion + admission queue depth), so a
// client backs off on data instead of parsing the human message.
//
// A kResult payload (version 2) is dictionary-coded: cells travel as
// indexes into a response-local string table, so each distinct value
// crosses the wire once and the bytes mean the same thing on both
// sides of the socket (server dictionary codes never leave the server):
//
//     u32     num_columns, then num_columns strings (column names)
//     u32     num_strings, then num_strings strings (the table: each
//             distinct cell value once, in order of first appearance
//             in row-major order)
//     u64     num_rows
//     varint  num_rows * num_columns table indexes, row-major
//             (LEB128: 7 bits per byte, low group first, at most 10
//             bytes)
//
// Caps. The frame cap (kMaxPayloadBytes) bounds the coded bytes. A
// second cap bounds the *logical* size, the bytes the uncoded
// version-1 layout would take (4 + length per cell, plus the column
// block and row count), by the same 64 MiB, so one long table entry
// referenced by millions of cells cannot expand without bound on the
// client. A result is thus accepted exactly when the version-1 layout
// fit, except that a first occurrence costs its index on top of its
// table entry, so an answer near 64 MiB whose cells are nearly all
// distinct can hit the frame cap first. Over either cap the encoders
// fail kResourceExhausted and the decoder fails kParseError, before it
// allocates past the cap. The
// decoder also checks every claimed count (columns, table entries,
// rows, string lengths) against the bytes that remain, rejects a
// 0-column result claiming more than one row, and rejects indexes out
// of range or out of first-appearance order and unreferenced table
// entries.
#ifndef XJOIN_NET_FRAME_H_
#define XJOIN_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace xjoin {

class Dictionary;
class Relation;

namespace net {

inline constexpr uint32_t kFrameMagic = 0x584A4F49;  // "XJOI"
inline constexpr uint8_t kProtocolVersion = 2;
inline constexpr size_t kFrameHeaderSize = 12;
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;  // 64 MiB

enum class FrameType : uint8_t {
  kQuery = 1,   ///< client -> server: run a query
  kResult = 2,  ///< server -> client: rows
  kError = 3,   ///< server -> client: typed Status (+ retry context)
  kPing = 4,    ///< client -> server: health/readiness probe
  kPong = 5,    ///< server -> client: health snapshot
};

/// True for the five known frame types above.
bool IsKnownFrameType(uint8_t type);

struct FrameHeader {
  uint8_t version = kProtocolVersion;
  FrameType type = FrameType::kQuery;
  uint32_t payload_len = 0;
};

/// Serializes `header` into exactly kFrameHeaderSize bytes.
void EncodeFrameHeader(const FrameHeader& header,
                       uint8_t out[kFrameHeaderSize]);

/// Parses a header from exactly kFrameHeaderSize bytes. Fails
/// kParseError on bad magic, unknown version, unknown type, nonzero
/// reserved bits, or an oversized payload — all of which mean the
/// stream can no longer be trusted and the connection should close.
Result<FrameHeader> DecodeFrameHeader(const uint8_t* data);

/// A query request as it travels on the wire: the query text plus the
/// QueryOptions subset that makes sense cross-process (per-query
/// budgets and the tenant pool name; cancellation is implicit — the
/// connection is the cancel scope).
struct QueryRequest {
  std::string text;
  std::string tenant;          ///< "" = no admission pool
  int64_t max_rows = 0;        ///< 0 = unlimited
  int64_t max_bytes = 0;       ///< 0 = unlimited
  int64_t deadline_micros = 0; ///< relative to server-side start; 0 = none
};

std::string EncodeQueryRequest(const QueryRequest& req);
Result<QueryRequest> DecodeQueryRequest(std::string_view payload);

/// A query result as the client sees it: column names plus row-major
/// cells, each cell the dictionary-decoded string (cells whose code is
/// not in the server dictionary — possible only for synthetic data —
/// read "#<code>").
struct QueryResultSet {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
};

/// Encodes a result set as a kResult payload. Fails kResourceExhausted
/// (no retry context) when the result is over either cap; tighten
/// max_rows/max_bytes instead of retrying. Fails kInvalidArgument on a
/// row whose width is not the column count, or on more than one row
/// with no columns.
Result<std::string> EncodeQueryResultSet(const QueryResultSet& result);
/// Fails kParseError on a truncated, malformed or over-cap payload (see
/// the checks listed at the top of this file).
Result<QueryResultSet> DecodeQueryResultSet(std::string_view payload);

/// Encodes a query answer straight from its code columns, decoding each
/// distinct code once through one Dictionary::DecodeMany call. It
/// writes through the same writer as EncodeQueryResultSet, so when
/// every code is in the dictionary the bytes equal EncodeQueryResultSet
/// of the decoded answer. Keeps its scratch (a flat code -> table-index
/// map, the cell bytes) between calls: a server worker reuses one
/// instance for every response. Not thread-safe.
class ResultEncoder {
 public:
  Result<std::string> Encode(const Relation& result, const Dictionary& dict);

 private:
  /// Returns the table index of `code`, assigning the next one (and
  /// recording the code in distinct_) when it is new.
  uint32_t IndexOf(int64_t code);
  void Grow();

  // Open addressing with linear probing; a slot is live only when its
  // epoch is the current one, so starting a response costs O(1).
  struct Slot {
    int64_t code = 0;
    uint32_t index = 0;
    uint32_t epoch = 0;
  };
  std::vector<Slot> slots_;
  uint32_t epoch_ = 0;
  // Per response: the distinct codes in table order, their strings
  // ("#<code>" ones live in synthetic_), how many cells reference each,
  // and the varint cell section.
  std::vector<int64_t> distinct_;
  std::vector<const std::string*> decoded_;
  std::vector<std::string> synthetic_;
  std::vector<std::string_view> table_;
  std::vector<uint64_t> counts_;
  std::string cells_;
};

/// Serializes a non-OK Status, including its RetryInfo when present.
std::string EncodeErrorStatus(const Status& status);
/// Reconstructs the Status (code, message, retry context) from a kError
/// payload into *decoded. The return value reports the decode itself
/// (kParseError on a malformed payload; *decoded untouched then).
Status DecodeErrorStatus(std::string_view payload, Status* decoded);

/// The kPong payload: a point-in-time health/readiness snapshot.
struct HealthReply {
  bool draining = false;  ///< true once Shutdown began: not ready
  int32_t active_connections = 0;
  int32_t inflight = 0;  ///< requests queued or executing
  int64_t served = 0;    ///< responses written (rows or typed errors)
  int64_t shed = 0;      ///< requests rejected by overload ceilings
};

std::string EncodeHealthReply(const HealthReply& health);
Result<HealthReply> DecodeHealthReply(std::string_view payload);

}  // namespace net
}  // namespace xjoin

#endif  // XJOIN_NET_FRAME_H_
