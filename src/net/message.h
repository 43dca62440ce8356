// Wire message envelope. `type` dispatches to the protocol handler; the
// payload is an opaque byte string produced by ByteWriter.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <utility>

#include "common/serde.h"
#include "common/types.h"
#include "crypto/sha256.h"

namespace atum::net {

// Message type tags. Grouped per layer; values are part of the wire format.
enum class MsgType : std::uint16_t {
  // SMR layer
  kDsBroadcast = 0x0100,      // Dolev-Strong value + signature chain
  kPbftRequest = 0x0200,
  kPbftPrePrepare = 0x0201,
  kPbftPrepare = 0x0202,
  kPbftCommit = 0x0203,
  kPbftViewChange = 0x0204,
  kPbftNewView = 0x0205,
  kPbftCheckpoint = 0x0206,
  kPbftStateFetch = 0x0207,
  kPbftStateReply = 0x0208,
  kSmrRemovalNotice = 0x0209, // new-epoch members -> reconfigured-out members
  // Overlay layer
  kGroupMsgFull = 0x0300,     // full copy of a group message
  kGroupMsgDigest = 0x0301,   // digest-only copy (§5.1 optimization)
  kGroupMsgEnvelope = 0x0302, // several full/digest frames coalesced per tick
  // Group / core layer
  kHeartbeat = 0x0400,
  kJoinRequest = 0x0401,
  kJoinReply = 0x0402,
  // Applications
  kAppData = 0x0500,
  kChunkRequest = 0x0501,
  kChunkReply = 0x0502,
  kStreamPush = 0x0503,
  kStreamPull = 0x0504,
  kStreamChunk = 0x0505,
};

// Immutable, reference-counted view of a message body.
//
// Ownership model (end-to-end, see ARCHITECTURE.md and README "Payload
// API"):
//  * The PRODUCER freezes bytes exactly once — constructing a Payload from
//    Bytes is the last copy/move that buffer will ever see. A vgroup
//    fan-out (g = 7..20 recipients per destination group, times several
//    neighbor groups per gossip relay) then shares that one buffer: copying
//    a Payload copies one shared_ptr plus a range.
//  * CONSUMERS decode without copying: slice() carves a sub-message (a
//    group-message body, a decided SMR op, a broadcast payload) out of a
//    received frame as a new Payload that shares the parent's buffer and
//    keeps it alive. A frame is therefore materialized once per node and
//    every layer above the transport works on views of it.
//  * LIFETIME: a slice pins the whole parent frame (frame_size() exposes
//    how much). That is the right trade for protocol frames (delivered
//    promptly, then dropped); code that archives a tiny slice of a huge
//    frame long-term should copy via to_bytes() instead, and a long-lived
//    store of slices should bound how many it keeps (AStream's
//    store_window).
//
// Digest cache: digest() returns the SHA-256 of the viewed range and
// memoizes it on the shared buffer control block, so every holder of the
// same frame — the vouching receiver, the gossip relay re-deriving the
// GroupMessageId, the digest-rank sender — reuses one computation. The
// memo is sound because the buffer is truly immutable: senders mutating
// their original Bytes after send() cannot affect in-flight messages, and
// receivers cannot corrupt the copy other receivers see. INVARIANT: digest
// validity is tied to that immutability — any future mutable-buffer
// variant of Payload must drop or re-key the memo.
class Payload {
 public:
  Payload() : data_(empty_buffer()) {}
  // Implicit: freezes the bytes (one copy/move — the last one this buffer
  // will ever see).
  // lint: hot-path-alloc-ok(frame control block: one refcounted allocation per adopted buffer)
  Payload(Bytes bytes) : data_(std::make_shared<Frame>(std::move(bytes))) {
    size_ = data_->bytes.size();
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const std::uint8_t* data() const { return data_->bytes.data() + offset_; }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + size_; }

  // Size of the whole backing frame this view pins (>= size(); equal iff
  // the view is the whole buffer). Lifetime introspection: long-lived
  // stores compare frame_size() against size() to decide whether keeping a
  // slice is cheap or whether to copy out, and tests use it to prove a
  // payload is a zero-copy slice of a larger frame.
  std::size_t frame_size() const { return data_->bytes.size(); }

  // A Payload restricted to `view`, sharing (and keeping alive) this
  // payload's buffer. `view` must lie inside this payload — the intended
  // use is passing a range obtained from ByteReader::bytes_view() on this
  // payload up the stack without copying.
  Payload slice(std::span<const std::uint8_t> view) const {
    if (!view.empty() && (view.data() < data() || view.data() + view.size() > end())) {
      throw std::out_of_range("Payload::slice: view outside buffer");
    }
    Payload out;
    out.data_ = data_;
    out.offset_ = view.empty() ? offset_
                               : offset_ + static_cast<std::size_t>(view.data() - data());
    out.size_ = view.size();
    return out;
  }

  // How many (offset, size) ranges the per-frame digest memo retains. Four
  // covers the protocols here with headroom: a batched SMR pre-prepare
  // hashes the whole ops region plus per-op sub-ranges, and a coalesced
  // gossip envelope carries several group-message bodies that each get
  // vouch-hashed — without one range's digest evicting the next before its
  // reuse (the PR-3 single-slot memo thrashed under exactly that pattern).
  static constexpr std::size_t kDigestMemoSlots = 4;

  // SHA-256 of the viewed bytes, computed at most once per (frame, range)
  // and memoized on the shared control block: every Payload sharing this
  // buffer — across sends, slices, relays, even across nodes in the
  // simulator — reuses the cached value. The memo is a tiny fixed-size set
  // of kDigestMemoSlots (offset, size, digest) entries with round-robin
  // replacement: a frame hashed over more distinct ranges than that simply
  // recomputes the oldest ones (linear scan of 4 entries is cheaper than
  // any map for this cardinality).
  //
  // Thread safety: the memo is guarded by a per-frame mutex, so concurrent
  // digest() calls on Payloads sharing one buffer are race-free (the
  // sharded simulator and the real transport both hash from worker
  // threads). The bytes themselves are immutable and need no lock. An
  // uncontended lock costs ~20 ns against a >1 µs hash, and the
  // single-threaded hot path stays allocation-free.
  crypto::Digest digest() const {
    Frame& f = *data_;
    std::lock_guard<std::mutex> lock(f.digest_mu);
    for (const Frame::DigestMemo& m : f.memo) {
      if (m.valid && m.offset == offset_ && m.size == size_) return m.digest;
    }
    Frame::DigestMemo& slot = f.memo[f.memo_next];
    f.memo_next = (f.memo_next + 1) % kDigestMemoSlots;
    slot.valid = true;
    slot.offset = offset_;
    slot.size = size_;
    slot.digest = crypto::sha256(data(), size_);
    return slot.digest;
  }

  // Deep copy, for the rare consumer that needs independent ownership
  // (e.g. a long-lived store that must not pin the parent frame).
  Bytes to_bytes() const { return Bytes(begin(), end()); }

  // How many Payload instances share this buffer (tests/benches: proves a
  // fan-out shared one allocation instead of copying).
  long use_count() const { return data_.use_count(); }

  // Content equality (also comparable against raw Bytes, e.g. in tests).
  friend bool operator==(const Payload& a, const Payload& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const Payload& a, const Bytes& b) {
    return a.size_ == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  // Control block: the frozen bytes plus the per-frame digest memo, which
  // caches the digests of up to kDigestMemoSlots (offset, size) ranges. The
  // memo fields are mutated through shared_ptr under digest_mu; the bytes
  // are const and lock-free to read.
  struct Frame {
    explicit Frame(Bytes b) : bytes(std::move(b)) {}
    const Bytes bytes;
    std::mutex digest_mu;
    struct DigestMemo {
      bool valid = false;
      std::size_t offset = 0;
      std::size_t size = 0;
      crypto::Digest digest{};
    };
    std::array<DigestMemo, kDigestMemoSlots> memo{};
    std::size_t memo_next = 0;  // round-robin replacement cursor
  };

  static const std::shared_ptr<Frame>& empty_buffer() {
    // lint: hot-path-alloc-ok(function-local static: allocated once per process, not per call)
    static const std::shared_ptr<Frame> kEmpty = std::make_shared<Frame>(Bytes{});
    return kEmpty;
  }

  std::shared_ptr<Frame> data_;
  std::size_t offset_ = 0;
  std::size_t size_ = 0;
};

struct Message {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  MsgType type = MsgType::kAppData;
  Payload payload;

  // Bytes on the wire: payload plus transport/auth framing (addresses,
  // type, length, MAC tag) — roughly a TCP+TLS-record overhead.
  static constexpr std::size_t kHeaderOverhead = 64;
  std::size_t wire_size() const { return payload.size() + kHeaderOverhead; }
};

}  // namespace atum::net
