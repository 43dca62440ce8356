#include "smr/dolev_strong.h"

#include <algorithm>
#include <cassert>

namespace atum::smr {

namespace {

struct WireValue {
  std::uint64_t slot;
  NodeId origin;
  Bytes payload;
  std::vector<std::pair<NodeId, crypto::Signature>> chain;
};

Bytes encode_wire(const WireValue& v) {
  ByteWriter w;
  w.u64(v.slot);
  w.u64(v.origin);
  w.bytes(v.payload);
  w.varint(v.chain.size());
  for (const auto& [node, sig] : v.chain) {
    w.u64(node);
    w.raw(sig.data(), sig.size());
  }
  return w.take();
}

WireValue decode_wire(const net::Payload& buf) {
  ByteReader r(buf);
  WireValue v;
  v.slot = r.u64();
  v.origin = r.u64();
  v.payload = r.bytes();
  std::uint64_t n = r.varint();
  if (n > 1024) throw SerdeError("signature chain too long");
  v.chain.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    NodeId node = r.u64();
    crypto::Signature sig;
    r.raw(sig.data(), sig.size());
    v.chain.emplace_back(node, sig);
  }
  r.expect_done();
  return v;
}

}  // namespace

DolevStrongSmr::DolevStrongSmr(net::Transport transport, GroupConfig config,
                               crypto::KeyStore& keys, DolevStrongOptions options,
                               DsFaultMode fault)
    : transport_(std::move(transport)),
      config_(std::move(config)),
      keys_(keys),
      options_(options),
      fault_(fault) {
  config_.normalize();
  transport_.listen({net::MsgType::kDsBroadcast},
                    [this](const net::Message& m) { on_message(m); });

  // Align to the next round boundary and tick from there.
  TimeMicros now = transport_.simulator().now();
  std::int64_t rounds_elapsed =
      now <= 0 ? 0 : (now + options_.round_duration - 1) / options_.round_duration;
  TimeMicros next_boundary = rounds_elapsed * options_.round_duration;
  auto total = static_cast<std::uint64_t>(rounds_elapsed);
  slot_ = total / rounds_per_slot();
  round_in_slot_ = static_cast<std::size_t>(total % rounds_per_slot());
  round_event_ = transport_.simulator().schedule_at(next_boundary, [this] { on_round_boundary(); });
}

DolevStrongSmr::~DolevStrongSmr() { stop(); }

void DolevStrongSmr::stop() {
  if (stopped_) return;
  stopped_ = true;
  transport_.simulator().cancel(round_event_);
  transport_.close();
}

void DolevStrongSmr::set_decide_handler(DecideFn fn) { decide_ = std::move(fn); }

void DolevStrongSmr::propose(Bytes op) {
  if (fault_ == DsFaultMode::kSilent) return;  // faulty replica drops its ops
  outbox_.push_back(std::move(op));
}

crypto::Digest DolevStrongSmr::value_digest(std::uint64_t slot, NodeId origin,
                                            const Bytes& payload) const {
  ByteWriter w;
  w.str("ds-value");
  w.u64(slot);
  w.u64(origin);
  w.bytes(payload);
  return crypto::sha256(w.data());
}

void DolevStrongSmr::on_round_boundary() {
  if (stopped_) return;
  round_event_ = transport_.simulator().schedule_after(options_.round_duration,
                                                       [this] { on_round_boundary(); });
  if (round_in_slot_ == 0) {
    begin_slot();
  }
  ++round_in_slot_;
  if (round_in_slot_ == rounds_per_slot()) {
    finish_slot();
    round_in_slot_ = 0;
    ++slot_;
  }
}

void DolevStrongSmr::begin_slot() {
  slot_values_.clear();
  equivocators_.clear();
  if (fault_ == DsFaultMode::kSilent) {
    outbox_.clear();
    return;
  }
  if (fault_ == DsFaultMode::kEquivocate && !config_.members.empty()) {
    // Send value A to the first half of the group and value B to the rest.
    Bytes a = {0x41}, b = {0x42};
    auto chain_for = [&](const Bytes& payload) {
      crypto::Digest d = value_digest(slot_, transport_.self(), payload);
      Bytes msg_bytes(d.begin(), d.end());
      return std::vector<std::pair<NodeId, crypto::Signature>>{
          {transport_.self(), keys_.key_of(transport_.self()).sign(msg_bytes)}};
    };
    std::size_t half = config_.size() / 2;
    for (std::size_t i = 0; i < config_.size(); ++i) {
      const Bytes& payload = (i < half) ? a : b;
      WireValue v{slot_, transport_.self(), payload, chain_for(payload)};
      transport_.send(config_.members[i], net::MsgType::kDsBroadcast, encode_wire(v));
    }
    outbox_.clear();
    return;
  }
  // One value per origin per slot: all pending ops travel as a single
  // batch, otherwise a replica proposing twice in a slot would look like an
  // equivocator to its peers.
  if (!outbox_.empty()) {
    ByteWriter w;
    w.vec(outbox_, [](ByteWriter& bw, const Bytes& op) { bw.bytes(op); });
    broadcast_value(w.take(), slot_);
    outbox_.clear();
  }
}

void DolevStrongSmr::broadcast_value(const Bytes& payload, std::uint64_t slot) {
  crypto::Digest d = value_digest(slot, transport_.self(), payload);
  Bytes digest_bytes(d.begin(), d.end());
  crypto::Signature sig = keys_.key_of(transport_.self()).sign(digest_bytes);
  WireValue v{slot, transport_.self(), payload, {{transport_.self(), sig}}};
  net::Payload wire(encode_wire(v));  // frozen once, shared by all peers
  for (NodeId peer : config_.members) {
    if (peer == transport_.self()) continue;
    transport_.send(peer, net::MsgType::kDsBroadcast, wire);
  }
  // Locally accept our own value immediately.
  PendingValue pv{transport_.self(), payload, {{transport_.self(), sig}}, true};
  slot_values_.emplace(ValueKey{transport_.self(), crypto::digest_prefix64(d)}, std::move(pv));
}

void DolevStrongSmr::on_message(const net::Message& msg) {
  if (stopped_ || msg.type != net::MsgType::kDsBroadcast) return;
  if (fault_ == DsFaultMode::kSilent) return;
  if (!config_.contains(msg.from)) return;

  WireValue v;
  try {
    v = decode_wire(msg.payload);
  } catch (const SerdeError&) {
    return;  // malformed — sender is faulty
  }
  if (v.slot != slot_) return;  // late or early; synchrony bounds make this faulty
  if (!config_.contains(v.origin)) return;
  if (v.chain.empty() || v.chain.front().first != v.origin) return;
  if (v.chain.size() > rounds_per_slot()) return;

  // Validate the signature chain: distinct group members, each signing the
  // value digest. (Classic DS has signer i also cover the prefix chain;
  // over authenticated point-to-point links signing the value digest gives
  // the same unforgeability of "i vouched for v in this slot".)
  crypto::Digest d = value_digest(v.slot, v.origin, v.payload);
  Bytes digest_bytes(d.begin(), d.end());
  std::map<NodeId, crypto::Signature> sigs;
  for (const auto& [node, sig] : v.chain) {
    if (!config_.contains(node) || sigs.contains(node)) return;
    if (options_.verify_signatures && !keys_.verify(node, digest_bytes, sig)) return;
    sigs.emplace(node, sig);
  }
  // A value must carry at least r signatures when first seen in round r
  // (round_in_slot_ counts rounds already completed in this slot).
  if (sigs.size() < std::min<std::size_t>(round_in_slot_, max_faults() + 1)) return;

  ValueKey key{v.origin, crypto::digest_prefix64(d)};
  auto [it, inserted] = slot_values_.try_emplace(key, PendingValue{v.origin, v.payload, {}, false});
  PendingValue& pv = it->second;
  pv.sigs.insert(sigs.begin(), sigs.end());

  // Detect equivocation: two distinct accepted values from one origin.
  for (const auto& [other_key, other] : slot_values_) {
    if (other_key.first == v.origin && other_key.second != key.second) {
      equivocators_.insert(v.origin);
      break;
    }
  }

  if (!pv.relayed) {
    pv.relayed = true;
    relay(pv, v.slot);
  }
}

void DolevStrongSmr::relay(PendingValue& v, std::uint64_t slot) {
  // Append our signature to the chain we actually received and forward.
  crypto::Digest d = value_digest(slot, v.origin, v.payload);
  Bytes digest_bytes(d.begin(), d.end());
  if (!v.sigs.contains(transport_.self())) {
    v.sigs.emplace(transport_.self(), keys_.key_of(transport_.self()).sign(digest_bytes));
  }

  std::vector<std::pair<NodeId, crypto::Signature>> chain;
  chain.reserve(v.sigs.size());
  // Chain must start with the origin; the rest may be in any order.
  auto origin_it = v.sigs.find(v.origin);
  if (origin_it == v.sigs.end()) return;  // cannot happen for accepted values
  chain.emplace_back(origin_it->first, origin_it->second);
  for (const auto& [n, sig] : v.sigs) {
    if (n != v.origin) chain.emplace_back(n, sig);
  }

  WireValue wire{slot, v.origin, v.payload, std::move(chain)};
  net::Payload encoded(encode_wire(wire));  // frozen once, shared by all peers
  for (NodeId peer : config_.members) {
    if (peer == transport_.self()) continue;
    transport_.send(peer, net::MsgType::kDsBroadcast, encoded);
  }
}

void DolevStrongSmr::finish_slot() {
  // Deterministic order: by origin, then by payload digest prefix (the map
  // key already sorts that way). Equivocators' values are voided. Each
  // value is a batch of operations from its origin.
  for (auto& [key, v] : slot_values_) {
    if (equivocators_.contains(key.first)) continue;
    // Freeze the accepted batch once (a move — slot_values_ is discarded
    // below); each decided op travels up the stack as a slice of it.
    net::Payload batch(std::move(v.payload));
    try {
      ByteReader r(batch);
      auto views = r.vec<std::span<const std::uint8_t>>(
          [](ByteReader& br) { return br.bytes_view(); });
      r.expect_done();
      for (const auto& view : views) {
        if (decide_) decide_(decided_, v.origin, batch.slice(view));
        ++decided_;
      }
    } catch (const SerdeError&) {
      // Malformed batch: the origin is faulty; void its slot.
    }
  }
  slot_values_.clear();
}

}  // namespace atum::smr
