#include "common/serde.h"

namespace atum {

namespace {

template <typename T>
void append_le(Bytes& buf, T v) {
  std::uint8_t le[sizeof(T)];
  for (std::size_t i = 0; i < sizeof(T); ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  buf.insert(buf.end(), le, le + sizeof(T));
}

}  // namespace

void ByteWriter::u16(std::uint16_t v) { append_le(buf_, v); }

void ByteWriter::u32(std::uint32_t v) { append_le(buf_, v); }

void ByteWriter::u64(std::uint64_t v) { append_le(buf_, v); }

void ByteWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void ByteWriter::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::bytes(const Bytes& b) {
  varint(b.size());
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void ByteWriter::bytes(const std::uint8_t* p, std::size_t n) {
  varint(n);
  buf_.insert(buf_.end(), p, p + n);
}

void ByteWriter::raw(const std::uint8_t* p, std::size_t n) { buf_.insert(buf_.end(), p, p + n); }

void ByteWriter::str(std::string_view s) {
  varint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

std::uint8_t ByteReader::u8() {
  need(1);
  return *p_++;
}

std::uint16_t ByteReader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(p_[0] | (p_[1] << 8));
  p_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p_[i]) << (8 * i);
  p_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p_[i]) << (8 * i);
  p_ += 8;
  return v;
}

double ByteReader::f64() {
  std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t ByteReader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    need(1);
    std::uint8_t b = *p_++;
    if (shift == 63 && (b & 0x7e) != 0) throw SerdeError("varint overflow");
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    if (shift > 63) throw SerdeError("varint too long");
  }
}

Bytes ByteReader::bytes() {
  std::uint64_t n = varint();
  need(static_cast<std::size_t>(n));
  Bytes out(p_, p_ + n);
  p_ += n;
  return out;
}

std::span<const std::uint8_t> ByteReader::bytes_view() {
  std::uint64_t n = varint();
  need(static_cast<std::size_t>(n));
  std::span<const std::uint8_t> out(p_, static_cast<std::size_t>(n));
  p_ += n;
  return out;
}

std::string ByteReader::str() {
  std::uint64_t n = varint();
  need(static_cast<std::size_t>(n));
  // memcpy instead of a reinterpret_cast<const char*> constructor call:
  // byte-to-char conversion without a pointer-type pun (see the atum_lint
  // reinterpret-cast rule).
  std::string out(static_cast<std::size_t>(n), '\0');
  std::memcpy(out.data(), p_, static_cast<std::size_t>(n));
  p_ += n;
  return out;
}

void ByteReader::raw(std::uint8_t* out, std::size_t n) {
  need(n);
  std::memcpy(out, p_, n);
  p_ += n;
}

}  // namespace atum
