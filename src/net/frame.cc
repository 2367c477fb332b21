#include "net/frame.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/dictionary.h"
#include "common/hash.h"
#include "relational/relation.h"

namespace xjoin {
namespace net {

namespace {

// Little-endian scalar/string writer over a std::string buffer.
class PayloadWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }
  void PutBytes(std::string_view s) { buf_.append(s.data(), s.size()); }
  void Reserve(size_t n) { buf_.reserve(n); }

  std::string Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

// Bounds-checked little-endian reader. Every Get* fails kParseError
// instead of reading past the payload, so a truncated or hostile frame
// can never walk off the buffer.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  Status GetU8(uint8_t* out) {
    if (pos_ + 1 > data_.size()) return Truncated();
    *out = static_cast<uint8_t>(data_[pos_++]);
    return Status::OK();
  }
  Status GetU32(uint32_t* out) {
    if (pos_ + 4 > data_.size()) return Truncated();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }
  Status GetU64(uint64_t* out) {
    if (pos_ + 8 > data_.size()) return Truncated();
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    *out = v;
    return Status::OK();
  }
  Status GetI64(int64_t* out) {
    uint64_t v = 0;
    XJ_RETURN_NOT_OK(GetU64(&v));
    *out = static_cast<int64_t>(v);
    return Status::OK();
  }
  Status GetI32(int32_t* out) {
    uint32_t v = 0;
    XJ_RETURN_NOT_OK(GetU32(&v));
    *out = static_cast<int32_t>(v);
    return Status::OK();
  }
  Status GetString(std::string* out) {
    std::string_view view;
    XJ_RETURN_NOT_OK(GetStringView(&view));
    out->assign(view.data(), view.size());
    return Status::OK();
  }
  /// A view into the payload; valid as long as the payload is.
  Status GetStringView(std::string_view* out) {
    uint32_t len = 0;
    XJ_RETURN_NOT_OK(GetU32(&len));
    if (len > remaining()) return Truncated();
    *out = data_.substr(pos_, len);
    pos_ += len;
    return Status::OK();
  }
  /// LEB128: 7 bits per byte, low group first, at most 10 bytes.
  Status GetVarint(uint64_t* out) {
    uint64_t v = 0;
    for (int shift = 0; shift < 70; shift += 7) {
      if (pos_ >= data_.size()) return Truncated();
      const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      if (shift == 63 && (byte & 0x7f) > 1) {
        return Status::ParseError("varint overflows 64 bits at offset " +
                                  std::to_string(pos_));
      }
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *out = v;
        return Status::OK();
      }
    }
    return Status::ParseError("varint longer than 10 bytes at offset " +
                              std::to_string(pos_));
  }

  size_t remaining() const { return data_.size() - pos_; }

  /// Decoders call this last: trailing bytes mean a version/format
  /// mismatch and must not be silently ignored.
  Status ExpectEnd() const {
    if (pos_ != data_.size()) {
      return Status::ParseError("frame payload has " +
                                std::to_string(data_.size() - pos_) +
                                " trailing bytes");
    }
    return Status::OK();
  }

 private:
  Status Truncated() const {
    return Status::ParseError("frame payload truncated at offset " +
                              std::to_string(pos_));
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace

bool IsKnownFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kQuery) &&
         type <= static_cast<uint8_t>(FrameType::kPong);
}

void EncodeFrameHeader(const FrameHeader& header,
                       uint8_t out[kFrameHeaderSize]) {
  const uint32_t magic = kFrameMagic;
  for (int i = 0; i < 4; ++i) out[i] = (magic >> (8 * i)) & 0xff;
  out[4] = header.version;
  out[5] = static_cast<uint8_t>(header.type);
  out[6] = 0;
  out[7] = 0;
  for (int i = 0; i < 4; ++i) {
    out[8 + i] = (header.payload_len >> (8 * i)) & 0xff;
  }
}

Result<FrameHeader> DecodeFrameHeader(const uint8_t* data) {
  uint32_t magic = 0;
  for (int i = 0; i < 4; ++i) {
    magic |= static_cast<uint32_t>(data[i]) << (8 * i);
  }
  if (magic != kFrameMagic) {
    return Status::ParseError("bad frame magic (not an xjoin stream)");
  }
  FrameHeader header;
  header.version = data[4];
  if (header.version != kProtocolVersion) {
    return Status::ParseError("unsupported protocol version " +
                              std::to_string(header.version));
  }
  if (!IsKnownFrameType(data[5])) {
    return Status::ParseError("unknown frame type " + std::to_string(data[5]));
  }
  header.type = static_cast<FrameType>(data[5]);
  if (data[6] != 0 || data[7] != 0) {
    return Status::ParseError("nonzero reserved bits in frame header");
  }
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(data[8 + i]) << (8 * i);
  }
  if (len > kMaxPayloadBytes) {
    return Status::ParseError("frame payload of " + std::to_string(len) +
                              " bytes exceeds the 64 MiB cap");
  }
  header.payload_len = len;
  return header;
}

std::string EncodeQueryRequest(const QueryRequest& req) {
  PayloadWriter w;
  w.PutString(req.text);
  w.PutString(req.tenant);
  w.PutI64(req.max_rows);
  w.PutI64(req.max_bytes);
  w.PutI64(req.deadline_micros);
  return w.Take();
}

Result<QueryRequest> DecodeQueryRequest(std::string_view payload) {
  PayloadReader r(payload);
  QueryRequest req;
  XJ_RETURN_NOT_OK(r.GetString(&req.text));
  XJ_RETURN_NOT_OK(r.GetString(&req.tenant));
  XJ_RETURN_NOT_OK(r.GetI64(&req.max_rows));
  XJ_RETURN_NOT_OK(r.GetI64(&req.max_bytes));
  XJ_RETURN_NOT_OK(r.GetI64(&req.deadline_micros));
  XJ_RETURN_NOT_OK(r.ExpectEnd());
  return req;
}

namespace {

Status ResultTooLarge() {
  return Status::ResourceExhausted(
      "serialized result exceeds the 64 MiB frame cap; constrain the "
      "query with max_rows / max_bytes");
}

// Bytes of the column block plus the row count; both layouts share them.
uint64_t HeadBytes(const std::vector<std::string>& columns) {
  uint64_t bytes = 4 + 8;
  for (const std::string& name : columns) bytes += 4 + name.size();
  return bytes;
}

// Appends table index `index` to the cell section (LEB128) and counts
// the reference, from which the writer derives the logical size.
void AppendCell(uint32_t index, std::string* cells,
                std::vector<uint64_t>* counts) {
  ++(*counts)[index];
  while (index >= 0x80) {
    cells->push_back(static_cast<char>((index & 0x7f) | 0x80));
    index >>= 7;
  }
  cells->push_back(static_cast<char>(index));
}

// The one writer of kResult payloads. `table` holds each distinct cell
// value once, in order of first appearance in row-major order,
// `counts[i]` how many cells reference table[i], and `cells` the cell
// section AppendCell built. Enforces both caps (see frame.h).
Result<std::string> WriteResultPayload(
    const std::vector<std::string>& columns,
    const std::vector<std::string_view>& table,
    const std::vector<uint64_t>& counts, uint64_t num_rows,
    std::string_view cells) {
  uint64_t logical = HeadBytes(columns);  // the version-1 size
  uint64_t coded = logical + 4 + cells.size();
  for (size_t i = 0; i < table.size(); ++i) {
    const uint64_t per_cell = 4 + table[i].size();
    if (counts[i] > kMaxPayloadBytes / per_cell) return ResultTooLarge();
    logical += counts[i] * per_cell;
    coded += per_cell;
    if (logical > kMaxPayloadBytes) return ResultTooLarge();
  }
  if (coded > kMaxPayloadBytes) return ResultTooLarge();
  PayloadWriter w;
  w.Reserve(static_cast<size_t>(coded));
  w.PutU32(static_cast<uint32_t>(columns.size()));
  for (const std::string& name : columns) w.PutString(name);
  w.PutU32(static_cast<uint32_t>(table.size()));
  for (std::string_view entry : table) w.PutString(entry);
  w.PutU64(num_rows);
  w.PutBytes(cells);
  return w.Take();
}

// Every cell costs at least 4 logical bytes (its length prefix).
bool CellsOverCap(uint64_t num_rows, uint64_t width) {
  return width > 0 && num_rows > kMaxPayloadBytes / 4 / width;
}

// Home slot of a code in a power-of-two table (Fibonacci hashing; join
// codes are dense small integers, so their low bits alone cluster).
size_t HomeSlot(int64_t code, size_t mask) {
  const uint64_t h = static_cast<uint64_t>(code) * 0x9e3779b97f4a7c15ULL;
  return static_cast<size_t>(h ^ (h >> 32)) & mask;
}

}  // namespace

Result<std::string> EncodeQueryResultSet(const QueryResultSet& result) {
  const size_t width = result.columns.size();
  if (width == 0 && result.rows.size() > 1) {
    return Status::InvalidArgument(
        "a result with no columns has at most one row");
  }
  if (CellsOverCap(result.rows.size(), width)) return ResultTooLarge();
  // A flat map from a cell's bytes to its table index: open addressing
  // with linear probing over table indices, at most half full.
  constexpr uint32_t kFree = UINT32_MAX;
  std::vector<uint32_t> slots(256, kFree);
  std::vector<std::string_view> table;
  std::vector<uint64_t> counts;
  std::string cells;
  cells.reserve(result.rows.size() * width);
  auto probe = [&slots, &table](std::string_view cell) {
    const size_t mask = slots.size() - 1;
    size_t i = HashBytes(0, cell) & mask;
    while (slots[i] != kFree && table[slots[i]] != cell) i = (i + 1) & mask;
    return i;
  };
  for (const auto& row : result.rows) {
    if (row.size() != width) {
      return Status::InvalidArgument("a result row has the wrong width");
    }
    for (const std::string& cell : row) {
      if ((table.size() + 1) * 2 > slots.size()) {
        slots.assign(slots.size() * 2, kFree);
        for (uint32_t t = 0; t < table.size(); ++t) slots[probe(table[t])] = t;
      }
      const size_t slot = probe(cell);
      if (slots[slot] == kFree) {
        slots[slot] = static_cast<uint32_t>(table.size());
        table.push_back(cell);
        counts.push_back(0);
      }
      AppendCell(slots[slot], &cells, &counts);
    }
  }
  return WriteResultPayload(result.columns, table, counts, result.rows.size(),
                            cells);
}

Result<std::string> ResultEncoder::Encode(const Relation& result,
                                          const Dictionary& dict) {
  const size_t width = result.num_columns();
  const size_t num_rows = result.num_rows();
  if (CellsOverCap(num_rows, width)) return ResultTooLarge();
  if (++epoch_ == 0) {  // wrapped: no stale slot may look live
    for (Slot& slot : slots_) slot.epoch = 0;
    epoch_ = 1;
  }
  distinct_.clear();
  counts_.clear();
  cells_.clear();
  std::vector<const int64_t*> columns(width);
  for (size_t c = 0; c < width; ++c) columns[c] = result.column(c).data();
  for (size_t r = 0; r < num_rows; ++r) {
    for (size_t c = 0; c < width; ++c) {
      AppendCell(IndexOf(columns[c][r]), &cells_, &counts_);
    }
  }

  decoded_.resize(distinct_.size());
  dict.DecodeMany(distinct_.data(), distinct_.size(), decoded_.data());
  // Every synthetic string exists before the table views any of them:
  // a growing vector moves its (short, inline) strings.
  synthetic_.clear();
  for (size_t i = 0; i < distinct_.size(); ++i) {
    if (decoded_[i] == nullptr) {
      synthetic_.push_back("#" + std::to_string(distinct_[i]));
    }
  }
  table_.clear();
  size_t next_synthetic = 0;
  for (const std::string* s : decoded_) {
    table_.push_back(s != nullptr ? *s : synthetic_[next_synthetic++]);
  }
  Result<std::string> payload = WriteResultPayload(
      result.schema().attributes(), table_, counts_, num_rows, cells_);

  // Scratch sized for one huge answer is not kept for every later one.
  constexpr size_t kRetainedScratchBytes = size_t{1} << 20;
  if (cells_.capacity() + slots_.size() * sizeof(Slot) >
      kRetainedScratchBytes) {
    *this = ResultEncoder();
  }
  return payload;
}

uint32_t ResultEncoder::IndexOf(int64_t code) {
  if ((distinct_.size() + 1) * 2 > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  for (size_t i = HomeSlot(code, mask);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.epoch != epoch_) {
      const uint32_t index = static_cast<uint32_t>(distinct_.size());
      slot = Slot{code, index, epoch_};
      distinct_.push_back(code);
      counts_.push_back(0);
      return index;
    }
    if (slot.code == code) return slot.index;
  }
}

void ResultEncoder::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::max<size_t>(256, old.size() * 2), Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& live : old) {
    if (live.epoch != epoch_) continue;
    size_t i = HomeSlot(live.code, mask);
    while (slots_[i].epoch == epoch_) i = (i + 1) & mask;
    slots_[i] = live;
  }
}

Result<QueryResultSet> DecodeQueryResultSet(std::string_view payload) {
  PayloadReader r(payload);
  QueryResultSet result;
  // Every claimed count is checked against the bytes that remain before
  // anything is sized by it: a column name or table entry costs at least
  // its 4-byte length, a cell at least one varint byte.
  uint32_t num_columns = 0;
  XJ_RETURN_NOT_OK(r.GetU32(&num_columns));
  if (num_columns > r.remaining() / 4) {
    return Status::ParseError("result column count " +
                              std::to_string(num_columns) +
                              " is impossible for the payload size");
  }
  result.columns.resize(num_columns);
  for (uint32_t c = 0; c < num_columns; ++c) {
    XJ_RETURN_NOT_OK(r.GetString(&result.columns[c]));
  }
  uint32_t num_strings = 0;
  XJ_RETURN_NOT_OK(r.GetU32(&num_strings));
  if (num_strings > r.remaining() / 4) {
    return Status::ParseError("result string table size " +
                              std::to_string(num_strings) +
                              " is impossible for the payload size");
  }
  std::vector<std::string_view> table(num_strings);
  for (uint32_t i = 0; i < num_strings; ++i) {
    XJ_RETURN_NOT_OK(r.GetStringView(&table[i]));
  }
  uint64_t num_rows = 0;
  XJ_RETURN_NOT_OK(r.GetU64(&num_rows));
  // A set of 0-ary tuples has at most one member.
  const uint64_t max_rows = num_columns == 0 ? 1 : r.remaining() / num_columns;
  if (num_rows > max_rows) {
    return Status::ParseError("result row count " + std::to_string(num_rows) +
                              " is impossible for the payload size");
  }
  // The logical (version-1) size is capped like the encoder caps it,
  // and checked before each cell's string is allocated.
  uint64_t logical = HeadBytes(result.columns);
  const uint64_t num_cells = num_rows * num_columns;
  if (logical + 4 * num_cells > kMaxPayloadBytes) {
    return Status::ParseError("result of " + std::to_string(num_cells) +
                              " cells expands past the 64 MiB cap");
  }
  result.rows.reserve(num_rows);
  uint64_t referenced = 0;  // table entries seen so far, in order
  for (uint64_t i = 0; i < num_rows; ++i) {
    std::vector<std::string> row;
    row.reserve(num_columns);
    for (uint32_t c = 0; c < num_columns; ++c) {
      uint64_t index = 0;
      XJ_RETURN_NOT_OK(r.GetVarint(&index));
      if (index >= table.size()) {
        return Status::ParseError("result cell references table entry " +
                                  std::to_string(index) + " of " +
                                  std::to_string(table.size()));
      }
      if (index > referenced) {
        return Status::ParseError(
            "result table is not in order of first appearance");
      }
      if (index == referenced) ++referenced;
      logical += 4 + table[index].size();
      if (logical > kMaxPayloadBytes) {
        return Status::ParseError("result expands past the 64 MiB cap");
      }
      row.emplace_back(table[index]);
    }
    result.rows.push_back(std::move(row));
  }
  if (referenced != table.size()) {
    return Status::ParseError("result string table has " +
                              std::to_string(table.size() - referenced) +
                              " unreferenced entries");
  }
  XJ_RETURN_NOT_OK(r.ExpectEnd());
  return result;
}

std::string EncodeErrorStatus(const Status& status) {
  PayloadWriter w;
  w.PutU8(static_cast<uint8_t>(status.code()));
  w.PutString(status.message());
  if (status.retry_info().has_value()) {
    w.PutU8(1);
    w.PutI64(status.retry_info()->retry_after_micros);
    w.PutI32(status.retry_info()->queue_depth);
  } else {
    w.PutU8(0);
    w.PutI64(0);
    w.PutI32(-1);
  }
  return w.Take();
}

Status DecodeErrorStatus(std::string_view payload, Status* decoded) {
  PayloadReader r(payload);
  uint8_t code = 0;
  std::string message;
  uint8_t has_retry = 0;
  int64_t retry_after = 0;
  int32_t queue_depth = -1;
  XJ_RETURN_NOT_OK(r.GetU8(&code));
  XJ_RETURN_NOT_OK(r.GetString(&message));
  XJ_RETURN_NOT_OK(r.GetU8(&has_retry));
  XJ_RETURN_NOT_OK(r.GetI64(&retry_after));
  XJ_RETURN_NOT_OK(r.GetI32(&queue_depth));
  XJ_RETURN_NOT_OK(r.ExpectEnd());
  if (code == 0 || code > static_cast<uint8_t>(StatusCode::kCancelled)) {
    return Status::ParseError("error frame carries invalid status code " +
                              std::to_string(code));
  }
  Status st(static_cast<StatusCode>(code), std::move(message));
  if (has_retry != 0) {
    st = st.WithRetryInfo(RetryInfo{retry_after, queue_depth});
  }
  *decoded = std::move(st);
  return Status::OK();
}

std::string EncodeHealthReply(const HealthReply& health) {
  PayloadWriter w;
  w.PutU8(health.draining ? 1 : 0);
  w.PutI32(health.active_connections);
  w.PutI32(health.inflight);
  w.PutI64(health.served);
  w.PutI64(health.shed);
  return w.Take();
}

Result<HealthReply> DecodeHealthReply(std::string_view payload) {
  PayloadReader r(payload);
  HealthReply health;
  uint8_t draining = 0;
  XJ_RETURN_NOT_OK(r.GetU8(&draining));
  health.draining = draining != 0;
  XJ_RETURN_NOT_OK(r.GetI32(&health.active_connections));
  XJ_RETURN_NOT_OK(r.GetI32(&health.inflight));
  XJ_RETURN_NOT_OK(r.GetI64(&health.served));
  XJ_RETURN_NOT_OK(r.GetI64(&health.shed));
  XJ_RETURN_NOT_OK(r.ExpectEnd());
  return health;
}

}  // namespace net
}  // namespace xjoin
