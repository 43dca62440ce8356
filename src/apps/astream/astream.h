// AStream: data streaming on Atum (§4.3).
//
// Two tiers:
//  1. Atum reliably disseminates per-chunk SHA-256 digests (small
//     authentication metadata). The application's `forward` callback tunes
//     this tier: flooding for latency, one or two H-graph cycles for
//     throughput (the Figure 12 Single/Double scenarios).
//  2. A lightweight multicast forest carries the actual stream data:
//     a deterministic function picks one H-graph cycle and a direction;
//     every node adopts f+1 random parents from its neighbor vgroup in
//     that direction (nodes neighboring the source adopt the source
//     itself), guaranteeing at least one correct parent. Shortcut parents
//     from the other neighbor vgroups bound the path length. Data moves
//     push-first-chunk, then pull: each node pulls successive chunks from
//     its first working parent and fails over on timeout or on a digest
//     mismatch.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/atum.h"

namespace atum::astream {

struct StreamConfig {
  std::uint64_t stream_id = 1;
  // Bounded chunk store (ROADMAP: verified_ otherwise keeps every chunk of
  // the stream forever). When > 0, chunks more than store_window behind the
  // stream head — the furthest of this node's own delivery horizon and the
  // furthest chunk any child has pulled — are evicted from the store
  // (verified data, digests, unverified buffers and parked pulls alike),
  // never past the node's own in-order delivery horizon. A child lagging
  // more than the window behind finds its pull unanswerable here and fails
  // over to another parent (the §4.3 mechanism), exactly as if this parent
  // had crashed; pick a window comfortably above the pull pipeline depth.
  // 0 = unbounded (archive semantics).
  std::size_t store_window = 0;
};

class AStreamNode {
 public:
  // Called once per chunk, in order, after digest verification. The data is
  // a refcounted view of the verified chunk store (shared with pulls being
  // served); copy via to_bytes() to keep it past the callback.
  using ChunkFn = std::function<void(std::uint64_t seq, const net::Payload& data)>;

  AStreamNode(core::AtumSystem& system, NodeId id, StreamConfig config);
  ~AStreamNode();
  AStreamNode(const AStreamNode&) = delete;
  AStreamNode& operator=(const AStreamNode&) = delete;

  NodeId id() const { return id_; }

  // Byzantine behavior (§4.3): serves corrupted chunks to its children.
  void set_corrupt_chunks(bool corrupt) { corrupt_chunks_ = corrupt; }

  // Builds this node's parent set for a stream rooted at `source` from its
  // local overlay view, and registers with the chosen parents.
  void join_stream(NodeId source);

  // Source side: disseminate the next chunk (tier 1 digest broadcast +
  // tier 2 push of the first chunk / serving pulls).
  void stream_chunk(Bytes data);

  void set_chunk_handler(ChunkFn fn) { on_chunk_ = std::move(fn); }
  // Fires when a chunk's tier-1 digest arrives (instrumentation: isolates
  // second-tier latency = verified delivery - digest arrival).
  using DigestFn = std::function<void(std::uint64_t seq)>;
  void set_digest_handler(DigestFn fn) { on_digest_ = std::move(fn); }

  const std::vector<NodeId>& parents() const { return parents_; }
  std::size_t child_count() const { return children_.size(); }
  // Windowing introspection (store_window tests/benches).
  std::size_t store_size() const { return verified_.size(); }
  std::size_t digest_count() const { return digests_.size(); }
  std::uint64_t eviction_floor() const { return eviction_floor_; }

 private:
  void on_deliver(NodeId origin, const net::Payload& payload);  // tier-1 digests
  void on_stream_message(const net::Message& msg);
  void accept_chunk(std::uint64_t seq, net::Payload data, NodeId from);
  void try_verify_buffered();
  // Sends seq's frame to every child (when include_children) and to any
  // pulls that raced ahead of it, sharing one frozen buffer per fan-out.
  void fan_out_chunk(std::uint64_t seq, bool include_children);
  void pull_next();
  void arm_pull_timer(std::uint64_t seq);
  // Applies StreamConfig::store_window: advances eviction_floor_ and drops
  // every per-chunk structure at or below it.
  void maybe_evict_store();
  net::Payload outgoing_chunk(std::uint64_t seq) const;
  // stream_id + seq + chunk body, the frame pushed down the tree.
  Bytes encode_chunk_frame(std::uint64_t seq) const;

  core::AtumSystem& sys_;
  NodeId id_;
  core::AtumNode& atum_;
  net::Transport transport_;
  Rng rng_;
  StreamConfig config_;
  bool corrupt_chunks_ = false;

  NodeId source_ = kInvalidNode;
  std::vector<NodeId> parents_;          // f+1 from the tree vgroup + shortcuts
  std::size_t preferred_parent_ = 0;
  std::set<NodeId> children_;

  std::map<std::uint64_t, crypto::Digest> digests_;   // tier-1 metadata
  // Chunk stores hold refcounted views: a received chunk stays a slice of
  // the frame it arrived in (zero-copy receive path), which pins that whole
  // frame while the chunk is stored. A frame is the chunk plus ~20 bytes of
  // framing; StreamConfig::store_window bounds how many chunks stay stored.
  std::map<std::uint64_t, net::Payload> verified_;    // chunk store (serves pulls)
  std::map<std::uint64_t, std::pair<net::Payload, NodeId>> unverified_;
  std::map<std::uint64_t, std::vector<NodeId>> pending_pulls_;  // seq -> waiting children
  std::uint64_t delivered_up_to_ = 0;    // all chunks <= this are delivered
  std::uint64_t source_seq_ = 0;
  // Furthest chunk any child pulled or was pushed; with delivered_up_to_
  // this defines the stream head the store_window trails behind.
  std::uint64_t furthest_child_pull_ = 0;
  std::uint64_t eviction_floor_ = 0;     // chunks <= this were evicted
  sim::EventId pull_timer_ = 0;
  ChunkFn on_chunk_;
  DigestFn on_digest_;
};

}  // namespace atum::astream
