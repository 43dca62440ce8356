// Miniature Atum API surface for the atum_analyze fixture corpus.
//
// Mirrors the canonical shapes the analyzer keys on — atum::net::Payload's
// zero-copy frame sharing, ByteReader's throwing reads, SerdeError, the
// simulator's schedule_* entry points — without pulling in the real tree,
// so each fixture is a one-file translation unit that parses in
// milliseconds. Class and method names must stay aligned with src/: the
// rules match on them (Payload::data(), ByteReader::u64(), ...).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace atum {

using Bytes = std::vector<std::uint8_t>;
using NodeId = std::uint64_t;

struct SerdeError : std::runtime_error {
  explicit SerdeError(const char* what) : std::runtime_error(what) {}
};

class ByteReader {
 public:
  explicit ByteReader(const Bytes& b) : p_(b.data()), end_(b.data() + b.size()) {}
  ByteReader(const std::uint8_t* p, std::size_t n) : p_(p), end_(p + n) {}

  std::uint8_t u8() {
    need(1);
    return *p_++;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | *p_++;
    return v;
  }
  std::uint64_t varint() { return u64(); }
  std::string_view bytes_view() {
    std::size_t n = static_cast<std::size_t>(u64());
    need(n);
    const char* s = reinterpret_cast<const char*>(p_);
    p_ += n;
    return {s, n};
  }
  void raw(std::uint8_t* out, std::size_t n) {
    need(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = *p_++;
  }
  void expect_done() const {
    if (p_ != end_) throw SerdeError("trailing bytes");
  }
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

 private:
  void need(std::size_t n) const {
    if (remaining() < n) throw SerdeError("truncated");
  }
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u64(std::uint64_t v) {
    for (int i = 7; i >= 0; --i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  Bytes take() { return std::move(buf_); }
  const Bytes& data() const { return buf_; }

 private:
  Bytes buf_;
};

// common/flat_table.h's shape: FlatMap and FlatSet are aliases, so the
// canonical type of every flat table names FlatTable. Iteration order
// follows the hash.
template <typename Key, typename Mapped>
class FlatTable {
 public:
  using value_type = std::pair<Key, Mapped>;
  value_type* begin() { return slots_.data(); }
  value_type* end() { return slots_.data() + slots_.size(); }
  const value_type* begin() const { return slots_.data(); }
  const value_type* end() const { return slots_.data() + slots_.size(); }

 private:
  std::vector<value_type> slots_;
};
template <typename Key, typename Mapped>
using FlatMap = FlatTable<Key, Mapped>;

namespace net {

class Payload {
 public:
  Payload() = default;
  // lint: hot-path-alloc-ok(frame control block: one refcounted allocation per adopted buffer)
  Payload(Bytes b) : frame_(std::make_shared<Bytes>(std::move(b))) {}

  const std::uint8_t* data() const { return frame_ ? frame_->data() : nullptr; }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + size(); }
  std::size_t size() const { return frame_ ? frame_->size() : 0; }
  Payload slice(std::span<const std::uint8_t>) const { return *this; }
  Bytes to_bytes() const { return frame_ ? *frame_ : Bytes{}; }

 private:
  std::shared_ptr<Bytes> frame_;
};

struct Message {
  NodeId from = 0;
  std::uint16_t type = 0;
  Payload payload;
};

}  // namespace net

namespace sim {

using TimeMicros = std::int64_t;

class Simulator {
 public:
  template <typename F>
  std::uint64_t schedule_at(TimeMicros, F&&) {
    return 0;
  }
  template <typename F>
  std::uint64_t schedule_after(TimeMicros, F&&) {
    return 0;
  }
};

}  // namespace sim
}  // namespace atum
