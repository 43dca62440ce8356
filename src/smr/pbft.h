// PBFT-style asynchronous BFT SMR [20] (Castro & Liskov), the engine behind
// Atum's Async implementation.
//
// g replicas tolerate f = floor((g-1)/3) Byzantine faults. Safety never
// depends on timing; liveness needs eventual synchrony, which the replica
// approximates with view-change timers that double on every failed view.
//
// Protocol surface implemented here:
//   REQUEST      every member doubles as a client: ops are broadcast to all
//                replicas, buffered, and assigned a sequence by the primary
//   PRE-PREPARE  primary -> backups, carries a BATCH of requests: the
//                primary buffers arriving ops and assigns ONE sequence
//                number per batch frame (bounded by batch_max_ops /
//                batch_max_bytes, or flushed by a sim-deterministic
//                deadline), so one quorum and one batch digest are
//                amortized over every op in the frame
//   PREPARE      all -> all; a batch is *prepared* after pre-prepare +
//                2f matching prepares on the batch digest
//   COMMIT       all -> all; *committed-local* after 2f+1 matching commits;
//                executed in sequence order, firing decide per op in batch
//                order
//   CHECKPOINT   every K executions; carries the incremental state digest,
//                the executed-op count and the request ledger at the
//                boundary; stable after 2f+1 matching body digests, which
//                advances the low watermark, truncates the log behind the
//                boundary (memory stops growing), and records the stable
//                checkpoint for serving
//   VIEW-CHANGE / NEW-VIEW
//                timer-driven primary replacement carrying prepared BATCH
//                certificates so decided batches survive the view change
//   STATE FETCH  lagging replicas fetch state from a peer; the one reply
//                carries the stable checkpoint only to a fetcher below the
//                server's truncation point, then the executed records above
//                it. Acceptance is one rule: evidence (f+1 votes on the
//                checkpoint body, or on a digest-chain boundary the records
//                reach) or f+1 byte-identical whole replies
//
// Batch wire format (pre-prepare body, also embedded in view-change proofs
// and new-view O entries):
//   u64 view, u64 seq, digest, bytes(ops_region)
//   ops_region := varint op_count, op_count x { u64 origin, u64 origin_seq,
//                 bytes op }
// The batch digest is the SHA-256 of the ops_region bytes — the encoding is
// canonical (a region with a longer varint is dropped), so the primary
// (hashing the buffer it wrote) and the backups (hashing a slice of the
// arrival frame, hitting the Payload digest memo) agree byte-for-byte, and
// a record executed from the batch folds that digest as its own (see
// ExecState). An empty ops_region (op_count 0) is the null batch
// that fills view-change gaps; its digest is the all-zero digest (never
// hashed), which a PRE-PREPARE of it must name.
//
// Zero-copy op path: Request::op is a net::Payload — a refcounted slice of
// the frame the op arrived in (client request, pre-prepare, state reply),
// or of the locally frozen propose() buffer. The log's batches and executed
// records and pending_ all share those buffers, and the decide callback
// hands the SAME slice up the stack, so the async decide path copies
// nothing: a committed batch decides k ops as k slices of the one
// pre-prepare frame. Lifetime consequence (net/message.h slice-ownership
// contract): a retained op pins its WHOLE arrival frame. The pinned set is
// bounded: the log truncates every slot at or below the stable checkpoint,
// and in_window caps next_exec_ at stable_seq_ + watermark_window, so at
// most watermark_window executed records stay pinned however long the
// instance runs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "common/flat_table.h"
#include "crypto/keys.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "smr/smr.h"

namespace atum::obs {
class Registry;
class Tracer;
class Counter;
class Histogram;
enum class TracePoint : std::uint8_t;
}  // namespace atum::obs

namespace atum::smr {

struct PbftOptions {
  DurationMicros view_change_timeout = seconds(2.0);
  std::uint64_t checkpoint_interval = 64;
  // Log window size (high watermark = low + window).
  std::uint64_t watermark_window = 256;
  bool verify_signatures = true;
  // --- batching (on by default) ---
  // The primary buffers arriving ops and flushes one pre-prepare per batch:
  // when batch_max_ops ops or batch_max_bytes payload bytes are buffered,
  // or when the flush deadline (armed at the first buffered op; pure sim
  // time, deterministic) fires — whichever comes first. batch_max_ops = 1
  // degenerates to classic one-op-per-seq PBFT.
  std::size_t batch_max_ops = 16;
  std::size_t batch_max_bytes = 64 * 1024;
  DurationMicros batch_flush_delay = millis(5);
  // Instance tag scoping state fetch/reply to one engine instance. 0 (the
  // default) derives the tag from the member list; ReconfigurableSmr sets
  // it from the config-history epoch hash, so two non-adjacent epochs with
  // identical membership (A -> B -> A) can never share a tag.
  std::uint64_t instance_tag = 0;
  // Observability sinks (nullable = off). The registry cells are shared
  // across every engine wired to the same registry — system-wide SMR
  // totals that survive per-epoch engine turnover. The tracer records the
  // propose -> pre-prepare -> prepare -> commit -> decide lifecycle keyed
  // by op/batch digest prefixes (see obs/trace.h on keyspaces).
  obs::Registry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

enum class PbftFaultMode {
  kCorrect,
  kSilent,             // no participation at all
  kSilentPrimary,      // behaves correctly unless primary, then goes quiet
  kEquivocatePrimary,  // as primary, sends conflicting pre-prepares
};

// Compact executed/assigned request-id ledger: per origin, a contiguous low
// watermark (every origin-seq <= low is contained) plus the sparse set of
// seqs above it. Origins submit with consecutive origin-seqs, so the sparse
// part stays tiny and the ledger is O(group size) however many requests
// execute — unlike the std::set<RequestId> it replaces, which grew by one
// node per executed op forever. The origins sit in one vector sorted by
// origin, one entry each: a group's members, so a lookup is a short binary
// search with no node to chase. The deterministic encoding rides inside the
// checkpoint body, so a checkpoint-installing replica restores the exact
// dedup state and a Byzantine client re-submitting a pre-checkpoint op
// still executes as a no-op.
class RequestLedger {
 public:
  bool contains(NodeId origin, std::uint64_t seq) const {
    auto it = std::ranges::lower_bound(origins_, origin, {}, &OriginState::origin);
    if (it == origins_.end() || it->origin != origin) return false;
    return seq <= it->low || (!it->above.empty() && it->above.contains(seq));
  }
  // Returns true when the id was newly inserted; folds runs contiguous with
  // the watermark into it. The next in-order seq (low + 1, the common case)
  // only raises the watermark: only out-of-order seqs add a set node. An
  // unseen origin gets its entry even when the seq is not fresh (seq 0).
  bool insert(NodeId origin, std::uint64_t seq) {
    auto it = std::ranges::lower_bound(origins_, origin, {}, &OriginState::origin);
    if (it == origins_.end() || it->origin != origin) {
      it = origins_.insert(it, OriginState{.origin = origin, .low = 0, .above = {}});
    }
    OriginState& st = *it;
    if (seq <= st.low) return false;
    if (seq == st.low + 1) {
      // A decoded ledger may still hold low + 1 in above: already held.
      if (!st.above.empty() && st.above.contains(seq)) return false;
      st.low = seq;
    } else if (!st.above.insert(seq).second) {
      return false;
    }
    while (!st.above.empty() && st.above.erase(st.low + 1) != 0) ++st.low;
    return true;
  }
  // Canonical encoding (origins and seqs in order => deterministic bytes):
  // varint origin count, per origin { u64 origin, u64 low, varint above
  // count, count x u64 }.
  void encode(ByteWriter& w) const {
    w.varint(origins_.size());
    for (const OriginState& st : origins_) {
      w.u64(st.origin);
      w.u64(st.low);
      w.varint(st.above.size());
      for (std::uint64_t s : st.above) w.u64(s);
    }
  }
  // Throws SerdeError on malformed bytes (counts are bounded by the bytes
  // actually present before any allocation). Any origin order decodes: a
  // map sorts the entries, and a repeated origin keeps its last entry.
  static RequestLedger decode(ByteReader& r) {
    std::map<NodeId, OriginState> by_origin;
    std::uint64_t origins = r.varint();
    if (origins > r.remaining()) throw SerdeError("ledger origin count exceeds buffer");
    for (std::uint64_t i = 0; i < origins; ++i) {
      OriginState st;
      st.origin = r.u64();
      st.low = r.u64();
      std::uint64_t above = r.varint();
      if (above > r.remaining()) throw SerdeError("ledger seq count exceeds buffer");
      for (std::uint64_t j = 0; j < above; ++j) st.above.insert(r.u64());
      by_origin[st.origin] = std::move(st);
    }
    RequestLedger ledger;
    ledger.origins_.reserve(by_origin.size());
    for (auto& [origin, st] : by_origin) ledger.origins_.push_back(std::move(st));
    return ledger;
  }
  friend bool operator==(const RequestLedger&, const RequestLedger&) = default;

 private:
  struct OriginState {
    NodeId origin = 0;
    std::uint64_t low = 0;
    std::set<std::uint64_t> above;
    friend bool operator==(const OriginState&, const OriginState&) = default;
  };
  std::vector<OriginState> origins_;  // sorted by origin, one entry each
};

class PbftSmr final : public SmrEngine {
 public:
  PbftSmr(net::Transport transport, GroupConfig config, crypto::KeyStore& keys,
          PbftOptions options, PbftFaultMode fault = PbftFaultMode::kCorrect);
  ~PbftSmr() override;

  void propose(Bytes op) override;
  void set_decide_handler(DecideFn fn) override;
  void stop() override;

  // Checkpoint-install notification: fired when state transfer adopts a
  // stable checkpoint wholesale instead of replaying records, i.e. the ops
  // in (from_ops, to_ops] were decided by the group but will NEVER fire
  // decide_ here (sequences from_seq+1..to_seq were skipped). The layer
  // above accounts for the gap (ReconfigurableSmr advances its global
  // sequence; Atum recovers skipped broadcasts via gossip redelivery).
  using InstallFn = std::function<void(std::uint64_t from_seq, std::uint64_t to_seq,
                                       std::uint64_t from_ops, std::uint64_t to_ops)>;
  void set_install_handler(InstallFn fn) { install_ = std::move(fn); }

  // Batch observability (tests/benches): executed log slots and the exact
  // per-slot batch sizes are what prove the quorum amortization happened.
  std::uint64_t batches_executed() const { return next_exec_; }
  // Memory-bound observability: the log holds executed records for exactly
  // seqs (history_base(), history_base() + history_size()], and
  // history_size() never exceeds watermark_window (each record pins its
  // batch frames; see the header comment).
  std::size_t history_size() const { return static_cast<std::size_t>(next_exec_ - base_); }
  std::uint64_t history_base() const { return base_; }
  // Vote-storage observability: CHECKPOINT votes above the stable checkpoint
  // plus state-reply votes. One member holds at most one vote per boundary
  // in the window, its newest ceil(watermark_window / checkpoint_interval)
  // + 1 boundaries above it, and its latest reply digest.
  std::size_t stored_votes() const;
  // Pre-prepares held until a request they name arrives (at most
  // kFutureBufferCap).
  std::size_t stashed_pre_prepares() const { return stashed_pre_prepares_.size(); }
  std::uint64_t instance_tag() const { return instance_tag_; }

  // fault_ is consulted per message/phase, so flipping it on a live
  // replica takes effect from the next protocol action.
  void set_silent(bool silent) override {
    fault_ = silent ? PbftFaultMode::kSilent : PbftFaultMode::kCorrect;
  }

  std::size_t max_faults() const { return async_max_faults(config_.size()); }
  std::size_t quorum() const { return 2 * max_faults() + 1; }
  std::uint64_t view() const { return view_; }
  std::uint64_t stable_seq() const { return stable_seq_; }
  bool is_primary() const { return primary_of(view_) == transport_.self(); }
  NodeId primary_of(std::uint64_t v) const {
    return config_.members[static_cast<std::size_t>(v % config_.size())];
  }

 private:
  // (origin, origin-local seq) identifies a request end-to-end.
  struct RequestId {
    NodeId origin;
    std::uint64_t seq;
    friend auto operator<=>(const RequestId&, const RequestId&) = default;
  };
  struct Request {
    RequestId id;
    net::Payload op;  // slice of the arrival frame; never deep-copied
  };
  // Agreement state of one seq: one BATCH of requests. An empty batch is
  // the null filler a new view uses for gaps (digest all-zero, executes as
  // a no-op). Each phase keeps one vote per voter with the digest it named,
  // so a repeated PREPARE or COMMIT counts once, and a vote that arrived
  // before the PRE-PREPARE counts only if it names the batch's digest.
  struct Agreement {
    std::uint64_t view = 0;
    crypto::Digest digest{};
    std::vector<Request> batch;
    bool pre_prepared = false;
    VoteRecord prepares;
    VoteRecord commits;
    // Pre-prepared with 2f prepares on its digest.
    bool prepared(std::size_t f) const {
      return pre_prepared && prepares.reaches(digest, 2 * f);
    }
  };
  // The executed record of one seq: its whole batch in delivery order. Ops
  // that executed as no-ops (duplicates) are recorded with the null origin
  // and no bytes so replayed histories skip them too; the agreed batch stays
  // intact beside it, since view changes still carry it as a prepared proof.
  using ExecRecord = std::vector<Request>;
  // Checkpoint at one boundary; write_checkpoint_body encodes exactly
  // these fields.
  struct Checkpoint {
    std::uint64_t seq = 0;
    crypto::Digest state_digest{};
    std::uint64_t ops = 0;
    Bytes ledger_wire;
  };
  // The executed state a checkpoint body pins. Local execution, state-
  // transfer adoption and validate_chain (on a copy) advance it a record at
  // a time through admit and fold; an install replaces it whole.
  struct ExecState {
    // sha256(prev || D) per record, D the record's digest: equal across
    // replicas iff their executed prefixes are.
    crypto::Digest digest{};
    // Fresh ops executed, counted at admission, so ahead of decided_ops_
    // while a record's decides fire: a nested execution at seq+1 must
    // checkpoint with the outer record fully counted.
    std::uint64_t ops = 0;
    RequestLedger requests;  // executed ids: none is delivered twice

    // Records the id and counts the op; false if it already executed.
    bool admit(const RequestId& id) {
      if (!requests.insert(id.origin, id.seq)) return false;
      ++ops;
      return true;
    }
    // Admits a served record's ops as its server executed them, and folds
    // the digest computed from the record.
    void advance(const ExecRecord& rec);
    // One step of the chain: 64 bytes hashed, whatever the record's size.
    void fold(const crypto::Digest& record_digest);
    Checkpoint checkpoint(std::uint64_t seq) const;  // the body at boundary seq
  };
  // Every seq-indexed fact about one seq but its boundary votes (those
  // live in checkpoints_). An adopted slot carries no agreement state (a
  // late pre-prepare may set some; the record stays).
  struct Slot {
    Agreement agreement;
    ExecRecord record;                    // filled once seq <= next_exec_
    std::unique_ptr<Checkpoint> capture;  // our boundary capture, if executed
  };
  struct PreparedProof {
    std::uint64_t seq;
    std::uint64_t view;
    crypto::Digest digest;
    std::vector<Request> batch;  // empty = null batch
  };
  struct ViewChangeMsg {
    std::uint64_t new_view;
    std::uint64_t stable_seq;
    std::vector<PreparedProof> prepared;
  };
  // A batch as a frame carries it: its ops and its ops region, slices of
  // the frame.
  struct FrameBatch {
    std::vector<Request> ops;
    net::Payload region;
    // The recomputed batch digest, on demand (a PRE-PREPARE that the view
    // and window checks drop is never hashed); all-zero for the null batch.
    crypto::Digest digest() const { return ops.empty() ? crypto::Digest{} : region.digest(); }
  };

  void on_message(const net::Message& msg);
  void handle_request(const net::Message& msg);
  void handle_pre_prepare(const net::Message& msg);
  void handle_prepare(const net::Message& msg);
  void handle_commit(const net::Message& msg);
  void handle_checkpoint(const net::Message& msg);
  void handle_view_change(const net::Message& msg);
  void handle_new_view(const net::Message& msg);
  void handle_state_fetch(const net::Message& msg);
  void handle_state_reply(const net::Message& msg);

  // Primary-side batching: enqueue buffers an op (flushing when the size
  // bounds trip and arming the deadline timer otherwise); flush assigns the
  // next seq to everything buffered and broadcasts one pre-prepare.
  void enqueue_op(const Request& req);
  void flush_batch();
  // Buffers every pending op (the primary re-proposing) and flushes.
  void enqueue_pending();
  // A copy of pending_ sorted by id: what every walk that sends or assigns
  // goes over, so that neither depends on the table's hash order.
  std::vector<Request> pending_by_id() const;
  void arm_batch_timer();
  void disarm_batch_timer();
  // Canonical ops-region encoding, shared by batches and executed records;
  // the batch digest is the SHA-256 of exactly these bytes.
  static void encode_ops_region(ByteWriter& w, const std::vector<Request>& batch);
  // The exact byte length encode_ops_region writes: encoders reserve it.
  static std::size_t ops_region_size(const std::vector<Request>& batch);
  // Reads varint count + that many ops as zero-copy slices of `frame`.
  static std::vector<Request> read_ops(const net::Payload& frame, ByteReader& r);
  // The batch helper pair of PRE-PREPAREs, VIEW-CHANGE proofs and NEW-VIEW
  // O entries, which all carry bytes(ops_region). write_batch writes it in
  // place (batch_size bytes); read_batch throws SerdeError on malformed
  // bytes or an op under the null origin.
  static void write_batch(ByteWriter& w, const std::vector<Request>& batch);
  static std::size_t batch_size(const std::vector<Request>& batch);
  static FrameBatch read_batch(const net::Payload& frame, ByteReader& r);
  // The SHA-256 of the ops region, all-zero when empty: a batch's digest,
  // and an executed record's digest D, which the state chain folds.
  static crypto::Digest batch_digest(const std::vector<Request>& batch);
  void maybe_send_commit(std::uint64_t seq);
  void try_execute();
  void execute_entry(std::uint64_t seq, Slot& slot);
  // The one apply path of executed and adopted records, admitted and
  // folded: sets next_exec_, retires the requests, checkpoints a boundary
  // and fires the decides. Only a local execution is counted and traced.
  void apply_record(std::uint64_t seq, Slot& slot, bool local);
  // The one framing path: every frame is written through frame_writer,
  // which returns a writer already holding the instance tag (the envelope
  // on_message checks and strips before dispatch) with room for body_bytes
  // more. The helpers below write the frames sent from more than one place.
  ByteWriter frame_writer(std::size_t body_bytes = 0) const;
  Bytes request_frame(const Request& req) const;
  // PREPARE and COMMIT share one body: u64 view, u64 seq, digest.
  Bytes vote_frame(std::uint64_t view, std::uint64_t seq, const crypto::Digest& digest) const;
  // STATE FETCH for [next_exec_, upto); upto 0 asks for everything.
  Bytes fetch_frame(std::uint64_t upto) const;
  // Signs a VIEW-CHANGE or NEW-VIEW body (the bytes after the tag) and
  // appends the signature.
  void sign_frame(ByteWriter& w) const;
  // The signed-body reader both share: a reader over the body, or nullopt
  // when the sender's signature is missing or does not verify.
  std::optional<ByteReader> signed_body(const net::Message& msg) const;
  // Freezes the frame once and sends that buffer to every other member.
  void broadcast(net::MsgType type, Bytes frame);
  void send_checkpoint(std::uint64_t seq);
  void collect_garbage(std::uint64_t stable_seq);

  void arm_view_timer();
  void disarm_view_timer();
  // explicit_target == 0 means "next view after the current target".
  void start_view_change(std::uint64_t explicit_target = 0);
  // Called on execution progress: a replica that complained because it had
  // fallen behind (not because the primary died) withdraws its view change
  // once the current view demonstrably serves it again.
  void abandon_view_change();
  void replay_future_view_msgs();
  void maybe_assemble_new_view();
  void enter_view(std::uint64_t v, const std::vector<PreparedProof>& carried);
  void request_state_transfer();

  bool in_window(std::uint64_t seq) const {
    return seq > stable_seq_ && seq <= stable_seq_ + options_.watermark_window;
  }
  // The slot for seq (> base_), growing the log up to it.
  Slot& slot(std::uint64_t seq);
  // The slot for seq, or null when seq lies outside the log.
  const Slot* find_slot(std::uint64_t seq) const;
  std::uint64_t log_end() const { return base_ + slots_.size(); }
  bool faulty_now() const;

  // Tracing helper: no-op unless options_.tracer is enabled.
  void trace(obs::TracePoint point, std::uint64_t key, std::uint64_t a = 0,
             std::uint64_t b = 0) const;

  net::Transport transport_;
  GroupConfig config_;
  crypto::KeyStore& keys_;
  PbftOptions options_;
  PbftFaultMode fault_;
  DecideFn decide_;
  InstallFn install_;

  // Registry cells cached at construction (registration locks once; the
  // increments are lock-free). Null when no registry is wired.
  // lint: adhoc-counter-ok(these ARE the obs::Registry cells)
  obs::Counter* ctr_pre_prepares_ = nullptr;
  obs::Counter* ctr_prepares_ = nullptr;
  obs::Counter* ctr_commits_ = nullptr;
  obs::Counter* ctr_batches_ = nullptr;
  obs::Counter* ctr_ops_ = nullptr;
  obs::Counter* ctr_view_changes_ = nullptr;
  obs::Counter* ctr_checkpoints_ = nullptr;
  obs::Counter* ctr_installs_ = nullptr;
  obs::Histogram* hist_batch_ops_ = nullptr;

  std::uint64_t view_ = 0;
  std::uint64_t next_seq_ = 1;       // primary's next assignment
  std::uint64_t next_exec_ = 0;      // count of executed entries == next seq-1
  std::uint64_t stable_seq_ = 0;     // last stable checkpoint
  std::uint64_t origin_seq_ = 0;     // local client sequence
  std::uint64_t decided_ops_ = 0;    // ops fired through decide_
  ExecState executed_;  // what checkpoint bodies carry

  // The log: one slot per seq in (base_, log_end()], grown on demand as
  // seqs are touched and truncated from the front. base_ is the truncation
  // point: it equals stable_seq_ except while an execute/adopt frame is live
  // (trim_history defers), so records never move under a decide callback.
  // Executed records fill exactly (base_, next_exec_]. A deque, so that a
  // decide callback can grow the log without moving its own slot; its
  // first block is allocated when the engine is built.
  std::deque<Slot> slots_;
  std::uint64_t base_ = 0;
  // Carried NEW-VIEW seqs sit relative to a stable point the new primary
  // claims; slots are made for them at most this many windows past our own
  // stable checkpoint, so a Byzantine primary cannot grow the log at will.
  static constexpr std::uint64_t kCarriedWindows = 4;

  // Requests known here and not yet executed (assigned ones stay until
  // they execute: the view-change timer watches them), each op under its
  // id: one probe to add, find or retire a request. The walks that send or
  // assign (enqueue_pending, enter_view's retransmit) go over
  // pending_by_id(); the install-time erase is order-free.
  FlatMap<RequestId, net::Payload> pending_;
  RequestLedger assigned_or_executed_;  // dedup
  // Pre-prepares whose client request has not arrived yet; replayed when it
  // does (the request broadcast can be overtaken by the primary's message).
  // An entry goes once its request executes or an installed ledger covers
  // it, since it could never replay then; at most kFutureBufferCap are kept.
  std::map<RequestId, net::Message> stashed_pre_prepares_;
  // Protocol messages for views we have not entered yet: replicas enter a
  // new view at different instants, and prepares sent by early entrants
  // must not be lost for late ones. Replayed by enter_view, swapped out
  // whole; empty, it holds no allocation.
  std::vector<net::Message> future_view_msgs_;
  static constexpr std::size_t kFutureBufferCap = 4096;
  // CHECKPOINT votes per boundary above the stable checkpoint, in the
  // window and above it (a laggard's evidence that the group moved on);
  // record_vote bounds each voter above the window, and collect_garbage
  // drops the boundaries the stable checkpoint passes. The vote is the
  // SHA-256 of the full checkpoint body.
  std::map<std::uint64_t, VoteRecord> checkpoints_;
  // The latest STABLE checkpoint (2f+1 matching votes or installed): what
  // handle_state_fetch serves to fetchers below the truncation point.
  std::optional<Checkpoint> stable_ckpt_;

  // Checkpoint plumbing (see pbft.cpp for contracts).
  static void write_checkpoint_body(ByteWriter& w, const Checkpoint& c);
  static std::size_t checkpoint_body_size(const Checkpoint& c);
  static crypto::Digest checkpoint_digest(const Checkpoint& c);
  // Votes at a boundary above the stable checkpoint (null when none).
  const VoteRecord* votes_at(std::uint64_t seq) const;
  // Whether f+1 votes at boundary seq name body_digest: one is correct.
  bool vouched(std::uint64_t seq, const crypto::Digest& body_digest) const;
  void record_vote(std::uint64_t seq, NodeId voter, const crypto::Digest& body_digest);
  void maybe_stabilize();
  void trim_history();
  std::uint64_t validate_chain(const std::vector<ExecRecord>& entries) const;
  void adopt_entries(const std::vector<ExecRecord>& entries, std::uint64_t count);
  void install_checkpoint(Checkpoint ckpt, RequestLedger ledger);
  std::vector<ExecRecord> parse_exec_records(const net::Message& msg, ByteReader& r) const;

  // Nested-execution guard: decide callbacks may propose, and with tiny
  // quorums that executes the NEXT seq inline. History truncation must not
  // run while any execute/adopt frame is live on the stack (it would pop
  // records mid-delivery); trim_history defers until the outermost frame
  // unwinds.
  int exec_depth_ = 0;

  // Head-gap catch-up: a replica whose engine attached mid-instance (a
  // state-synced joiner) or that was cut off (partition heal) may hold
  // committed log entries beyond a head it never received; with too few
  // decisions for a checkpoint, the checkpoint-driven transfer never
  // triggers and the replica would stall at next_exec_ forever. The gap is
  // detected in try_execute, history is fetched from 2f+1 peers, and a
  // reply that no checkpoint can validate is accepted once f+1 distinct
  // replicas sent byte-identical copies (at least one of them is correct).
  void maybe_fetch_missing_head();
  // min()/4 (not min()): "now - last" must not overflow on the first check.
  TimeMicros last_head_fetch_ = std::numeric_limits<TimeMicros>::min() / 4;
  // Set from options_.instance_tag, or derived from the member list when
  // that is 0; state fetch/reply are scoped to one engine instance by this
  // tag (see the ctor comment).
  std::uint64_t instance_tag_ = 0;
  // Head-gap fetch rounds since the last execution progress; finite so a
  // replica whose instance was retired under it stops probing (and so the
  // residual same-membership tag collision has a bounded window).
  static constexpr int kMaxHeadFetchRounds = 8;
  int head_fetch_rounds_ = 0;
  // Each sender's latest reply digest; f+1 equal ones vouch for a reply.
  VoteRecord state_reply_votes_;

  // Primary-side batch buffer: ops waiting for the next flush. They stay in
  // pending_ too (the view-change timer watches pending_), so a cleared
  // buffer — e.g. on losing primaryship — loses nothing.
  std::vector<Request> batch_buf_;
  std::size_t batch_buf_bytes_ = 0;
  sim::EventId batch_timer_ = 0;
  // Re-entrancy guard: a decide callback fired from inside flush_batch may
  // propose (and thus try to flush) again; the outer flush loop drains it.
  bool flushing_ = false;

  // View change state.
  bool view_changing_ = false;
  std::uint64_t target_view_ = 0;
  std::map<std::uint64_t, std::map<NodeId, ViewChangeMsg>> view_changes_;
  sim::EventId view_timer_ = 0;
  DurationMicros current_timeout_;

  bool stopped_ = false;
};

}  // namespace atum::smr
