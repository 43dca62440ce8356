// Byte-level serialization for wire messages.
//
// Every protocol message in Atum is serialized through ByteWriter/ByteReader
// so that (a) message sizes are realistic inputs to the bandwidth model and
// (b) Byzantine nodes can emit arbitrary byte strings that correct nodes
// must parse defensively. Readers throw SerdeError on malformed input;
// protocol code treats that as a faulty sender.
#pragma once

#include <concepts>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace atum {

using Bytes = std::vector<std::uint8_t>;

class SerdeError : public std::runtime_error {
 public:
  explicit SerdeError(const std::string& what) : std::runtime_error(what) {}
};

class ByteWriter {
 public:
  ByteWriter() = default;
  // Reserves `capacity` bytes up front: a writer told its message's size
  // allocates once instead of growing as it goes.
  explicit ByteWriter(std::size_t capacity) { buf_.reserve(capacity); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  // Fixed-width integers are little-endian, appended with one insert.
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  // LEB128 variable-length unsigned integer; compact for small counts.
  void varint(std::uint64_t v);
  // How many bytes varint(v) appends (for exact capacities).
  static std::size_t varint_size(std::uint64_t v) {
    std::size_t n = 1;
    for (; v >= 0x80; v >>= 7) ++n;
    return n;
  }
  void bytes(const Bytes& b);             // length-prefixed
  void bytes(const std::uint8_t* p, std::size_t n);  // length-prefixed range
  void raw(const std::uint8_t* p, std::size_t n);  // no length prefix
  void str(std::string_view s);           // length-prefixed

  template <typename T, typename Fn>
  void vec(const std::vector<T>& v, Fn&& write_elem) {
    varint(v.size());
    for (const T& e : v) write_elem(*this, e);
  }

  const Bytes& data() const { return buf_; }
  Bytes take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const Bytes& buf) : p_(buf.data()), end_(buf.data() + buf.size()) {}
  ByteReader(const std::uint8_t* p, std::size_t n) : p_(p), end_(p + n) {}
  // Any contiguous byte buffer (in particular net::Payload, which common/
  // cannot name without inverting the layer order).
  template <typename B>
    requires requires(const B& b) {
      { b.data() } -> std::convertible_to<const std::uint8_t*>;
      { b.size() } -> std::convertible_to<std::size_t>;
    }
  explicit ByteReader(const B& buf) : p_(buf.data()), end_(buf.data() + buf.size()) {}
  // A reader does not own its buffer, so constructing one from a temporary
  // (`ByteReader(payload.slice(...))`, `ByteReader(w.take())`) leaves p_
  // dangling the moment the statement ends. That exact bug shipped once in
  // pbft's NEW-VIEW parser; reject the whole class at compile time.
  explicit ByteReader(Bytes&&) = delete;
  template <typename B>
  explicit ByteReader(const B&&) = delete;

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::uint64_t varint();
  Bytes bytes();
  // Length-prefixed byte range returned as a view into the underlying
  // buffer — no copy. Valid for the buffer's lifetime; pair it with
  // net::Payload::slice() to hand the range up the stack refcounted.
  std::span<const std::uint8_t> bytes_view();
  std::string str();
  void raw(std::uint8_t* out, std::size_t n);

  template <typename T, typename Fn>
  std::vector<T> vec(Fn&& read_elem) {
    std::uint64_t n = varint();
    check(n <= remaining(), "vector length exceeds buffer");
    std::vector<T> out;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) out.push_back(read_elem(*this));
    return out;
  }

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  bool done() const { return p_ == end_; }
  void expect_done() const { check(done(), "trailing bytes after message"); }

 private:
  static void check(bool ok, const char* what) {
    if (!ok) throw SerdeError(what);
  }
  void need(std::size_t n) const { check(remaining() >= n, "truncated message"); }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

}  // namespace atum
