// Endian-explicit binary serialization: Writer appends to an owning
// buffer, Reader consumes a span. Bitcoin wire encoding is little-endian
// with CompactSize varints; both are provided here.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.h"

namespace btcfast {

/// Appends primitive values to a growing byte buffer.
class Writer {
 public:
  Writer() = default;
  /// Continue writing at the end of `buf` (moved in; take() hands it back).
  explicit Writer(Bytes&& buf) noexcept : buf_(std::move(buf)) {}

  /// Pre-size the buffer (exact or upper-bound) so hot serialization
  /// paths pay one allocation instead of a growth sequence.
  void reserve(std::size_t n) { buf_.reserve(n); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16le(std::uint16_t v);
  void u32le(std::uint32_t v);
  void u64le(std::uint64_t v);
  void u32be(std::uint32_t v);
  void u64be(std::uint64_t v);
  void i64le(std::int64_t v) { u64le(static_cast<std::uint64_t>(v)); }

  /// Bitcoin CompactSize encoding.
  void varint(std::uint64_t v);

  void bytes(ByteSpan data) { append(buf_, data); }

  /// varint length prefix followed by raw bytes.
  void bytes_with_len(ByteSpan data) {
    varint(data.size());
    bytes(data);
  }

  void str_with_len(const std::string& s) { bytes_with_len(as_bytes(s)); }

  [[nodiscard]] const Bytes& data() const noexcept { return buf_; }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Consumes primitive values from a byte span. All accessors return
/// std::nullopt once the stream is exhausted or malformed; `ok()` stays
/// false afterwards so callers may batch reads and check once.
class Reader {
 public:
  explicit Reader(ByteSpan data) noexcept : data_(data) {}

  [[nodiscard]] std::optional<std::uint8_t> u8();
  [[nodiscard]] std::optional<std::uint16_t> u16le();
  [[nodiscard]] std::optional<std::uint32_t> u32le();
  [[nodiscard]] std::optional<std::uint64_t> u64le();
  [[nodiscard]] std::optional<std::uint32_t> u32be();
  [[nodiscard]] std::optional<std::uint64_t> u64be();
  [[nodiscard]] std::optional<std::int64_t> i64le();
  [[nodiscard]] std::optional<std::uint64_t> varint();

  /// Copies exactly n bytes out of the stream.
  [[nodiscard]] std::optional<Bytes> bytes(std::size_t n);

  /// varint length prefix followed by that many bytes. `max_len` bounds the
  /// announced length to defuse absurd allocations from corrupt input.
  [[nodiscard]] std::optional<Bytes> bytes_with_len(std::size_t max_len = 1 << 24);

  /// Zero-copy variants: a view into the underlying buffer, valid only as
  /// long as the buffer outlives the Reader. Hot scan paths (the dispute
  /// storm sweep) use these to walk megabytes of evidence without copying.
  [[nodiscard]] std::optional<ByteSpan> span(std::size_t n);
  [[nodiscard]] std::optional<ByteSpan> span_with_len(std::size_t max_len = 1 << 24);

  [[nodiscard]] std::optional<std::string> str_with_len(std::size_t max_len = 1 << 20);

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const noexcept { return ok_ && remaining() == 0; }

 private:
  [[nodiscard]] bool take(std::size_t n, const std::uint8_t** out);

  ByteSpan data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace btcfast
