#include "smr/pbft.h"

#include <algorithm>
#include <cassert>

#include "obs/registry.h"
#include "obs/trace.h"

namespace atum::smr {

namespace {

constexpr NodeId kNullOrigin = kInvalidNode;  // origin of gap-filling null requests
constexpr std::size_t kTagBytes = 8;          // the u64 instance tag leading every frame

void write_digest(ByteWriter& w, const crypto::Digest& d) { w.raw(d.data(), d.size()); }

crypto::Digest read_digest(ByteReader& r) {
  crypto::Digest d;
  r.raw(d.data(), d.size());
  return d;
}

}  // namespace

PbftSmr::PbftSmr(net::Transport transport, GroupConfig config, crypto::KeyStore& keys,
                 PbftOptions options, PbftFaultMode fault)
    : transport_(std::move(transport)),
      config_(std::move(config)),
      keys_(keys),
      options_(options),
      fault_(fault),
      current_timeout_(options.view_change_timeout) {
  config_.normalize();
  // Instance tag: scopes EVERY message — the three-phase traffic as much
  // as state fetch/reply — to THIS engine instance, as the leading u64 of
  // each frame (checked and stripped in on_message). Consensus frames from
  // a different instance over the same node ids must be invisible, not
  // merely unlikely to quorum: a joiner attached mid-epoch with an empty
  // log would otherwise assemble quorums out of the NEXT instance's
  // traffic at its own seq numbering and fork. Every replica of one
  // instance — including a state-synced joiner whose local epoch counter
  // differs — must hold the same tag. ReconfigurableSmr passes one derived
  // from the config-history epoch hash (collision-free across epochs, even
  // A -> B -> A membership cycles); a directly constructed engine (tests,
  // single-epoch uses) falls back to deriving it from the member list.
  if (options_.instance_tag != 0) {
    instance_tag_ = options_.instance_tag;
  } else {
    ByteWriter tw;
    tw.str("pbft-instance");
    for (NodeId n : config_.members) tw.u64(n);
    instance_tag_ = crypto::digest_prefix64(crypto::sha256(tw.data()));
  }
  if (options_.metrics != nullptr) {
    obs::Registry& m = *options_.metrics;
    ctr_pre_prepares_ = &m.counter("smr.pre_prepares");
    ctr_prepares_ = &m.counter("smr.prepares");
    ctr_commits_ = &m.counter("smr.commits");
    ctr_batches_ = &m.counter("smr.batches_executed");
    ctr_ops_ = &m.counter("smr.ops_decided");
    ctr_view_changes_ = &m.counter("smr.view_changes");
    ctr_checkpoints_ = &m.counter("smr.checkpoints_stable");
    ctr_installs_ = &m.counter("smr.checkpoint_installs");
    hist_batch_ops_ = &m.histogram("smr.batch_ops");
  }
  transport_.listen({net::MsgType::kPbftRequest, net::MsgType::kPbftPrePrepare,
                     net::MsgType::kPbftPrepare, net::MsgType::kPbftCommit,
                     net::MsgType::kPbftCheckpoint, net::MsgType::kPbftViewChange,
                     net::MsgType::kPbftNewView, net::MsgType::kPbftStateFetch,
                     net::MsgType::kPbftStateReply},
                    [this](const net::Message& m) { on_message(m); });
}

PbftSmr::~PbftSmr() { stop(); }

void PbftSmr::stop() {
  if (stopped_) return;
  stopped_ = true;
  disarm_view_timer();
  disarm_batch_timer();
  transport_.close();
}

void PbftSmr::set_decide_handler(DecideFn fn) { decide_ = std::move(fn); }

void PbftSmr::trace(obs::TracePoint point, std::uint64_t key, std::uint64_t a,
                    std::uint64_t b) const {
  obs::Tracer* t = options_.tracer;
  if (t == nullptr || !t->enabled()) return;
  t->record(transport_.simulator().now(), transport_.self(), point, key, a, b);
}

bool PbftSmr::faulty_now() const {
  switch (fault_) {
    case PbftFaultMode::kCorrect: return false;
    case PbftFaultMode::kSilent: return true;
    case PbftFaultMode::kSilentPrimary: return is_primary();
    case PbftFaultMode::kEquivocatePrimary: return false;  // handled in primary_assign
  }
  return false;
}

void PbftSmr::encode_ops_region(ByteWriter& w, const std::vector<Request>& batch) {
  w.varint(batch.size());
  for (const Request& req : batch) {
    w.u64(req.id.origin);
    w.u64(req.id.seq);
    w.bytes(req.op.data(), req.op.size());
  }
}

std::size_t PbftSmr::ops_region_size(const std::vector<Request>& batch) {
  std::size_t n = ByteWriter::varint_size(batch.size());
  for (const Request& req : batch) {
    n += 8 + 8 + ByteWriter::varint_size(req.op.size()) + req.op.size();
  }
  return n;
}

std::vector<PbftSmr::Request> PbftSmr::read_ops(const net::Payload& frame, ByteReader& r) {
  std::uint64_t count = r.varint();
  // Each op is at least 17 bytes; a Byzantine count far beyond the bytes
  // present must fail as malformed before any reserve.
  if (count > r.remaining()) throw SerdeError("op count exceeds buffer");
  std::vector<Request> ops;
  ops.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    // Braced init reads the fields in order; the op is a view of the frame.
    ops.push_back(Request{RequestId{r.u64(), r.u64()}, frame.slice(r.bytes_view())});
  }
  return ops;
}

void PbftSmr::write_batch(ByteWriter& w, const std::vector<Request>& batch) {
  w.varint(ops_region_size(batch));
  encode_ops_region(w, batch);
}

std::size_t PbftSmr::batch_size(const std::vector<Request>& batch) {
  const std::size_t region = ops_region_size(batch);
  return ByteWriter::varint_size(region) + region;
}

PbftSmr::FrameBatch PbftSmr::read_batch(const net::Payload& frame, ByteReader& r) {
  const std::span<const std::uint8_t> region = r.bytes_view();
  ByteReader rr(region.data(), region.size());
  FrameBatch batch{read_ops(frame, rr), frame.slice(region)};
  rr.expect_done();
  // Only the canonical encoding (every varint minimal, which the size pins)
  // is accepted: the digest of these bytes becomes an executed record's D,
  // which a replica adopting the record recomputes from its ops.
  if (ops_region_size(batch.ops) != region.size()) throw SerdeError("ops region not canonical");
  // The null origin is reserved for gap-filling empty batches and the
  // executed records' no-ops; an op claiming it could never be matched
  // against a client broadcast.
  for (const Request& req : batch.ops) {
    if (req.id.origin == kNullOrigin) throw SerdeError("op with null origin");
  }
  return batch;
}

crypto::Digest PbftSmr::batch_digest(const std::vector<Request>& batch) {
  if (batch.empty()) return crypto::Digest{};  // null batch: never hashed
  ByteWriter w(ops_region_size(batch));
  encode_ops_region(w, batch);
  return crypto::sha256(w.data());
}

ByteWriter PbftSmr::frame_writer(std::size_t body_bytes) const {
  ByteWriter w(kTagBytes + body_bytes);
  w.u64(instance_tag_);
  return w;
}

Bytes PbftSmr::request_frame(const Request& req) const {
  ByteWriter w = frame_writer(8 + 8 + ByteWriter::varint_size(req.op.size()) + req.op.size());
  w.u64(req.id.origin);
  w.u64(req.id.seq);
  w.bytes(req.op.data(), req.op.size());
  return w.take();
}

Bytes PbftSmr::vote_frame(std::uint64_t view, std::uint64_t seq,
                          const crypto::Digest& digest) const {
  ByteWriter w = frame_writer(8 + 8 + digest.size());
  w.u64(view);
  w.u64(seq);
  write_digest(w, digest);
  return w.take();
}

Bytes PbftSmr::fetch_frame(std::uint64_t upto) const {
  ByteWriter w = frame_writer(8 + 8);
  w.u64(next_exec_);
  w.u64(upto);
  return w.take();
}

void PbftSmr::sign_frame(ByteWriter& w) const {
  const crypto::Signature sig =
      keys_.key_of(transport_.self()).sign(w.data().data() + kTagBytes, w.size() - kTagBytes);
  w.raw(sig.data(), sig.size());
}

std::optional<ByteReader> PbftSmr::signed_body(const net::Message& msg) const {
  crypto::Signature sig;
  if (msg.payload.size() < sig.size()) return std::nullopt;
  const std::size_t body = msg.payload.size() - sig.size();
  std::copy(msg.payload.begin() + body, msg.payload.end(), sig.begin());
  if (options_.verify_signatures && !keys_.verify(msg.from, msg.payload.data(), body, sig)) {
    return std::nullopt;
  }
  return ByteReader(msg.payload.data(), body);
}

void PbftSmr::broadcast(net::MsgType type, Bytes frame) {
  const net::Payload frozen(std::move(frame));  // one buffer shared by every replica
  for (NodeId peer : config_.members) {
    if (peer == transport_.self()) continue;
    transport_.send(peer, type, frozen);
  }
}

PbftSmr::Slot& PbftSmr::slot(std::uint64_t seq) {
  assert(seq > base_);
  if (seq > log_end()) slots_.resize(static_cast<std::size_t>(seq - base_));
  return slots_[static_cast<std::size_t>(seq - base_ - 1)];
}

const PbftSmr::Slot* PbftSmr::find_slot(std::uint64_t seq) const {
  if (seq <= base_ || seq > log_end()) return nullptr;
  return &slots_[static_cast<std::size_t>(seq - base_ - 1)];
}

// ---------------------------------------------------------------------------
// Request submission
// ---------------------------------------------------------------------------

void PbftSmr::propose(Bytes op) {
  if (fault_ == PbftFaultMode::kSilent) return;
  // Freeze the op once; pending_, the log, and the decide path all share it.
  Request req{RequestId{transport_.self(), ++origin_seq_}, net::Payload(std::move(op))};
  if (options_.tracer != nullptr && options_.tracer->enabled()) {
    trace(obs::TracePoint::kPropose, crypto::digest_prefix64(req.op.digest()), req.id.seq);
  }

  broadcast(net::MsgType::kPbftRequest, request_frame(req));

  pending_[req.id] = req.op;
  if (is_primary() && !view_changing_) {
    enqueue_op(req);
  }
  arm_view_timer();
}

void PbftSmr::handle_request(const net::Message& msg) {
  ByteReader r(msg.payload);
  Request req;
  req.id.origin = r.u64();
  req.id.seq = r.u64();
  req.op = msg.payload.slice(r.bytes_view());     // zero-copy: view of the frame
  if (req.id.origin != msg.from) return;          // clients are the members themselves
  if (!config_.contains(req.id.origin)) return;
  if (assigned_or_executed_.contains(req.id.origin, req.id.seq)) return;

  pending_[req.id] = req.op;  // a resent request replaces the op held under its id
  if (is_primary() && !view_changing_) {
    enqueue_op(req);
  }
  // A pre-prepare may have overtaken this request; replay it now that the
  // client's copy is available for cross-checking. The replay may stash the
  // same message again under the batch's NEXT still-missing request id.
  if (auto it = stashed_pre_prepares_.find(req.id); it != stashed_pre_prepares_.end()) {
    net::Message stashed = std::move(it->second);
    stashed_pre_prepares_.erase(it);
    handle_pre_prepare(stashed);
  }
  arm_view_timer();  // backup: expect the primary to order it
}

// ---------------------------------------------------------------------------
// Primary-side batching
// ---------------------------------------------------------------------------

void PbftSmr::enqueue_op(const Request& req) {
  if (fault_ == PbftFaultMode::kSilentPrimary) return;
  if (assigned_or_executed_.contains(req.id.origin, req.id.seq)) return;
  for (const Request& buffered : batch_buf_) {
    if (buffered.id == req.id) return;  // already awaiting the next flush
  }
  batch_buf_.push_back(req);
  batch_buf_bytes_ += req.op.size();
  if (batch_buf_.size() >= options_.batch_max_ops ||
      batch_buf_bytes_ >= options_.batch_max_bytes) {
    flush_batch();
  } else {
    arm_batch_timer();  // deadline flush; pure sim time, deterministic
  }
}

void PbftSmr::arm_batch_timer() {
  if (batch_timer_ != 0 || stopped_) return;
  batch_timer_ = transport_.simulator().schedule_after(options_.batch_flush_delay, [this] {
    batch_timer_ = 0;
    if (is_primary() && !view_changing_) flush_batch();
  });
}

void PbftSmr::disarm_batch_timer() {
  if (batch_timer_ != 0) {
    transport_.simulator().cancel(batch_timer_);
    batch_timer_ = 0;
  }
}

void PbftSmr::flush_batch() {
  // maybe_send_commit below can execute a committed entry inline, whose
  // decide callback may propose fresh ops; the guarded re-entrant call
  // returns and the outer loop drains what it enqueued.
  if (flushing_) return;
  disarm_batch_timer();
  // Ops that got handled since buffering (e.g. adopted through state
  // transfer) must not be re-proposed; drop them before burning a seq.
  std::erase_if(batch_buf_, [&](const Request& r) {
    return assigned_or_executed_.contains(r.id.origin, r.id.seq);
  });
  flushing_ = true;
  // The buffer can hold more than one batch's worth (accumulated behind a
  // closed window, or re-proposals after a view change): carve batches
  // bounded by batch_max_ops/batch_max_bytes until the buffer drains or
  // the window closes. collect_garbage retries whatever stays behind.
  while (!batch_buf_.empty() && in_window(next_seq_)) {
    std::size_t count = 0, bytes = 0;
    while (count < batch_buf_.size() && count < options_.batch_max_ops &&
           bytes < options_.batch_max_bytes) {
      bytes += batch_buf_[count].op.size();
      ++count;
    }
    std::vector<Request> batch(std::make_move_iterator(batch_buf_.begin()),
                               std::make_move_iterator(batch_buf_.begin() + static_cast<long>(count)));
    batch_buf_.erase(batch_buf_.begin(), batch_buf_.begin() + static_cast<long>(count));
    std::uint64_t seq = next_seq_++;
    crypto::Digest d = batch_digest(batch);
    for (const Request& r : batch) assigned_or_executed_.insert(r.id.origin, r.id.seq);
    // NOTE: the requests stay in pending_ until EXECUTED — the view-change
    // timer watches pending_, and an assigned-but-never-committed request
    // must still be able to trigger a view change.

    auto encode = [&](const std::vector<Request>& b, const crypto::Digest& b_digest) {
      ByteWriter w = frame_writer(8 + 8 + b_digest.size() + batch_size(b));
      w.u64(view_);
      w.u64(seq);
      write_digest(w, b_digest);
      write_batch(w, b);
      return w.take();
    };

    Agreement& entry = slot(seq).agreement;
    entry.view = view_;
    entry.digest = d;
    entry.batch = std::move(batch);
    entry.pre_prepared = true;

    if (fault_ == PbftFaultMode::kEquivocatePrimary) {
      // Conflicting batches to the two halves of the group (same seq, same
      // request ids, one op's content mutated). Correct replicas can never
      // gather 2f matching prepares for either copy.
      std::vector<Request> alt = entry.batch;
      Bytes alt_op = alt.front().op.to_bytes();
      alt_op.push_back(0xFF);
      alt.front().op = net::Payload(std::move(alt_op));
      const net::Payload wire_a(encode(entry.batch, d));
      const net::Payload wire_b(encode(alt, batch_digest(alt)));
      std::size_t half = config_.size() / 2;
      for (std::size_t i = 0; i < config_.size(); ++i) {
        if (config_.members[i] == transport_.self()) continue;
        transport_.send(config_.members[i], net::MsgType::kPbftPrePrepare,
                        i < half ? wire_a : wire_b);
      }
      break;  // one equivocated batch per flush is plenty
    }

    if (ctr_pre_prepares_ != nullptr) ctr_pre_prepares_->inc();
    trace(obs::TracePoint::kPrePrepare, crypto::digest_prefix64(d), seq, entry.batch.size());
    broadcast(net::MsgType::kPbftPrePrepare, encode(entry.batch, d));
    entry.prepares.add(transport_.self(), d, config_.size());  // the pre-prepare is our prepare
    maybe_send_commit(seq);
  }
  flushing_ = false;
  batch_buf_bytes_ = 0;
  for (const Request& r : batch_buf_) batch_buf_bytes_ += r.op.size();
}

// ---------------------------------------------------------------------------
// Three-phase agreement
// ---------------------------------------------------------------------------

void PbftSmr::handle_pre_prepare(const net::Message& msg) {
  if (msg.from != primary_of(view_)) return;
  ByteReader r(msg.payload);
  std::uint64_t view = r.u64();
  std::uint64_t seq = r.u64();
  crypto::Digest digest = read_digest(r);
  // Zero-copy: every op stays a slice of the pre-prepare frame. Every
  // replica shares the primary's one frozen buffer, so the whole group
  // logs, executes, and decides this batch without materializing a copy.
  FrameBatch batch = read_batch(msg.payload, r);

  if (view > view_ || (view == view_ && view_changing_)) {
    // Also buffer current-view traffic while mid-view-change: the change
    // may abort back into this view via a NEW-VIEW for it.
    if (future_view_msgs_.size() < kFutureBufferCap) future_view_msgs_.push_back(msg);
    return;
  }
  if (view != view_) return;
  if (!in_window(seq)) return;
  // The named digest must be the batch's: the SHA-256 of the ops region
  // (the slice hits the frame's digest memo, shared with any other holder
  // of this frame), all-zero for a null batch.
  if (batch.digest() != digest) return;

  // The primary must not invent or alter another member's request: accept
  // only ops we can match against the client's own broadcast (or the
  // primary's own ops — the primary is its own client). A batch with an
  // unknown request is stashed until that client's copy arrives (and may
  // re-stash under the next missing id when replayed).
  for (const Request& req : batch.ops) {
    if (req.id.origin == msg.from ||
        assigned_or_executed_.contains(req.id.origin, req.id.seq)) {
      continue;
    }
    const net::Payload* client_copy = pending_.find(req.id);
    if (client_copy == nullptr) {
      if (stashed_pre_prepares_.size() < kFutureBufferCap) stashed_pre_prepares_[req.id] = msg;
      return;
    }
    if (*client_copy != req.op) return;  // forged content: ignore
  }

  Agreement& entry = slot(seq).agreement;
  if (entry.pre_prepared) {
    if (entry.view == view && entry.digest != digest) return;  // equivocation: ignore
    if (entry.view == view) return;                            // duplicate
  }
  entry.view = view;
  entry.digest = digest;
  entry.batch = std::move(batch.ops);
  entry.pre_prepared = true;
  for (const Request& req : entry.batch) {
    assigned_or_executed_.insert(req.id.origin, req.id.seq);
  }
  // The requests remain pending_ until executed (liveness timer input).

  if (ctr_prepares_ != nullptr) ctr_prepares_->inc();
  trace(obs::TracePoint::kPrepare, crypto::digest_prefix64(digest), seq, entry.batch.size());
  broadcast(net::MsgType::kPbftPrepare, vote_frame(view, seq, digest));
  entry.prepares.add(transport_.self(), digest, config_.size());
  maybe_send_commit(seq);
  arm_view_timer();
}

void PbftSmr::handle_prepare(const net::Message& msg) {
  ByteReader r(msg.payload);
  std::uint64_t view = r.u64();
  std::uint64_t seq = r.u64();
  crypto::Digest digest = read_digest(r);
  if (view > view_) {
    if (future_view_msgs_.size() < kFutureBufferCap) future_view_msgs_.push_back(msg);
    return;
  }
  if (view != view_ || !in_window(seq)) return;

  Agreement& entry = slot(seq).agreement;
  if (entry.pre_prepared && entry.digest != digest) return;
  entry.prepares.add(msg.from, digest, config_.size());
  maybe_send_commit(seq);
}

void PbftSmr::maybe_send_commit(std::uint64_t seq) {
  Agreement& entry = slot(seq).agreement;
  // Prepared: pre-prepare + 2f prepares on its digest (self included).
  if (entry.commits.vote_of(transport_.self()) != nullptr) return;
  if (!entry.prepared(max_faults())) return;

  if (ctr_commits_ != nullptr) ctr_commits_->inc();
  trace(obs::TracePoint::kCommit, crypto::digest_prefix64(entry.digest), seq);
  broadcast(net::MsgType::kPbftCommit, vote_frame(view_, seq, entry.digest));
  entry.commits.add(transport_.self(), entry.digest, config_.size());
  try_execute();
}

void PbftSmr::handle_commit(const net::Message& msg) {
  ByteReader r(msg.payload);
  std::uint64_t view = r.u64();
  std::uint64_t seq = r.u64();
  crypto::Digest digest = read_digest(r);
  if (!in_window(seq)) return;

  Agreement& entry = slot(seq).agreement;
  if (entry.pre_prepared && entry.digest != digest) return;
  (void)view;  // commits from any view count once the digest matches
  entry.commits.add(msg.from, digest, config_.size());
  try_execute();
}

void PbftSmr::try_execute() {
  while (next_exec_ < log_end()) {
    Slot& s = slot(next_exec_ + 1);
    const Agreement& a = s.agreement;
    if (!a.prepared(max_faults()) || !a.commits.reaches(a.digest, quorum())) break;
    execute_entry(next_exec_ + 1, s);
  }
  maybe_fetch_missing_head();
}

void PbftSmr::maybe_fetch_missing_head() {
  // Only when the next sequence cannot be reconstructed locally: it is
  // either absent from the log or present as a shell of prepares/commits
  // whose pre-prepare — the message that carries the op — predates this
  // replica's attachment (state-synced joiner) or was lost to a partition.
  // Evidence required before fetching: quorum commits on some entry at or
  // beyond the head, proving the instance decided it without us.
  const Slot* head = find_slot(next_exec_ + 1);
  if (head != nullptr && head->agreement.pre_prepared) return;  // normal path
  // Rate limit and round bound BEFORE the anchor scan: with a gap open,
  // try_execute runs on every prepare/commit and the O(window) scan below
  // must not ride the message hot path. Rounds are finite so a permanent
  // zombie (its instance retired under it) stops fetching instead of
  // probing forever — which also bounds the window for the residual
  // instance-tag collision (see the ctor comment); the counter resets
  // whenever execution progresses.
  const TimeMicros now = transport_.simulator().now();
  if (now - last_head_fetch_ < options_.view_change_timeout) return;
  if (head_fetch_rounds_ >= kMaxHeadFetchRounds) return;
  // First seq at/beyond the head with a quorum of distinct committers,
  // whatever digests they named: the slot may have no digest here.
  std::uint64_t anchor = 0;
  for (std::uint64_t seq = next_exec_ + 1; seq <= log_end(); ++seq) {
    if (find_slot(seq)->agreement.commits.size() >= quorum()) {
      anchor = seq;
      break;
    }
  }
  if (anchor == 0) return;  // no proof the instance is ahead of us
  last_head_fetch_ = now;
  ++head_fetch_rounds_;
  state_reply_votes_.clear();  // votes from older rounds cover other ranges
  // Ask 2f+1 peers for exactly [next_exec_, anchor): pinning the range end
  // makes every correct replier's bytes identical, so the f+1-matching
  // acceptance rule can fire. Up to f of those asked may be faulty or
  // equally behind; enough matching replies can still form.
  // Freeze the request once: every recipient gets the same frame, so the
  // 2f+1 fan-out shares one buffer instead of copying the bytes per peer.
  const net::Payload frame(fetch_frame(anchor));
  std::size_t asked = 0;
  for (NodeId node : config_.members) {
    if (node == transport_.self()) continue;
    if (asked++ >= 2 * max_faults() + 1) break;
    transport_.send(node, net::MsgType::kPbftStateFetch, frame);
  }
}

void PbftSmr::execute_entry(std::uint64_t seq, Slot& s) {
  head_fetch_rounds_ = 0;  // progress: future gaps get fresh fetch rounds
  // One exec record per seq, holding the whole batch in delivery order
  // (empty for a null batch). An op that already executed under an earlier
  // seq — an equivocating client re-submitting — is recorded as a null op
  // so replayed histories skip it identically.
  ExecRecord& rec = s.record;
  rec.reserve(s.agreement.batch.size());
  bool nulled = false;
  for (const Request& req : s.agreement.batch) {
    if (executed_.admit(req.id)) {
      rec.push_back(req);
    } else {
      rec.push_back(Request{RequestId{kNullOrigin, req.id.seq}, {}});
      nulled = true;
    }
  }
  // A record that nulled nothing is the agreed batch, whose digest this
  // replica computed (as primary) or recomputed from the frame (as backup,
  // and for every batch a NEW-VIEW carries): the fold hashes no ops.
  executed_.fold(nulled ? batch_digest(rec) : s.agreement.digest);
  apply_record(seq, s, true);
  trim_history();
  maybe_stabilize();
  // Progress was made: withdraw any view change this replica started out of
  // lag, then restart (or disarm) the liveness timer.
  abandon_view_change();
  current_timeout_ = options_.view_change_timeout;
  disarm_view_timer();
  arm_view_timer();  // no-op while nothing is pending
}

void PbftSmr::apply_record(std::uint64_t seq, Slot& s, bool local) {
  next_exec_ = seq;
  const ExecRecord& rec = s.record;
  std::uint64_t ops = 0;
  for (const Request& op : rec) {
    if (op.id.origin == kNullOrigin) continue;
    assigned_or_executed_.insert(op.id.origin, op.id.seq);
    pending_.erase(op.id);
    // handle_request drops an executed id before it looks at the stash, so
    // a pre-prepare stashed under it could never replay.
    stashed_pre_prepares_.erase(op.id);
    ++ops;
  }
  // A drained pool gives its table back: most engines in a system hold one
  // request at a time, and a table kept per engine outweighs the one
  // allocation the next request costs.
  if (pending_.size() == 0) pending_ = {};
  // Checkpoint BEFORE any decide (the record is already counted and
  // folded): a callback may propose and (with tiny quorums) execute the
  // next seq inline, and that execution's checkpoint must see this record
  // whole.
  if (local) {
    if (ctr_batches_ != nullptr) ctr_batches_->inc();
    if (hist_batch_ops_ != nullptr) hist_batch_ops_->record(ops);
  }
  if (seq % options_.checkpoint_interval == 0) send_checkpoint(seq);
  // Nested executions below may grow the log, which moves no slot, and
  // never truncate it while exec_depth_ > 0, so `rec` stays put.
  ++exec_depth_;
  for (const Request& op : rec) {
    if (op.id.origin == kNullOrigin) continue;
    // Zero-copy decide: the op is a slice of the frame it arrived in (the
    // pre-prepare its batch-mates share, or the state reply), and the first
    // argument is the per-op delivery ordinal.
    ++decided_ops_;
    if (local) {
      if (ctr_ops_ != nullptr) ctr_ops_->inc();
      if (options_.tracer != nullptr && options_.tracer->enabled()) {
        trace(obs::TracePoint::kDecide, crypto::digest_prefix64(op.op.digest()), seq);
      }
    }
    if (decide_) decide_(decided_ops_ - 1, op.id.origin, op.op);
  }
  --exec_depth_;
}

// ---------------------------------------------------------------------------
// Checkpoints & state transfer
// ---------------------------------------------------------------------------

void PbftSmr::ExecState::advance(const ExecRecord& rec) {
  for (const Request& op : rec) {
    if (op.id.origin != kNullOrigin) admit(op.id);
  }
  fold(batch_digest(rec));
}

// D is the SHA-256 of the record's ops region, all-zero for an empty record.
// It is the agreed batch digest whenever no op was nulled, so local
// execution folds that; a served record's D is recomputed from its ops,
// never read off the wire, so a fetcher re-folding served records
// reproduces the server's chain byte-for-byte.
void PbftSmr::ExecState::fold(const crypto::Digest& record_digest) {
  crypto::Sha256 h;
  h.update(digest.data(), digest.size());
  h.update(record_digest.data(), record_digest.size());
  digest = h.finish();
}

PbftSmr::Checkpoint PbftSmr::ExecState::checkpoint(std::uint64_t seq) const {
  ByteWriter lw;
  requests.encode(lw);
  return Checkpoint{seq, digest, ops, lw.take()};
}

// Checkpoint body CB(seq) — the full wire message AND the thing voted on
// (votes store the SHA-256 of these bytes): the incremental state digest
// pins the executed prefix, the op count pins the decide ordinal space, and
// the request-ledger encoding lets an installing replica restore its dedup
// state without replaying the truncated prefix.
void PbftSmr::write_checkpoint_body(ByteWriter& w, const Checkpoint& c) {
  w.u64(c.seq);
  write_digest(w, c.state_digest);
  w.u64(c.ops);
  w.bytes(c.ledger_wire);
}

std::size_t PbftSmr::checkpoint_body_size(const Checkpoint& c) {
  return 8 + c.state_digest.size() + 8 + ByteWriter::varint_size(c.ledger_wire.size()) +
         c.ledger_wire.size();
}

crypto::Digest PbftSmr::checkpoint_digest(const Checkpoint& c) {
  ByteWriter w(checkpoint_body_size(c));
  write_checkpoint_body(w, c);
  return crypto::sha256(w.data());
}

const VoteRecord* PbftSmr::votes_at(std::uint64_t seq) const {
  auto it = checkpoints_.find(seq);
  return it != checkpoints_.end() && !it->second.empty() ? &it->second : nullptr;
}

bool PbftSmr::vouched(std::uint64_t seq, const crypto::Digest& body_digest) const {
  const VoteRecord* votes = votes_at(seq);
  return votes != nullptr && votes->reaches(body_digest, max_faults() + 1);
}

// Precondition: seq > stable_seq_ (votes at or below it are moot).
void PbftSmr::record_vote(std::uint64_t seq, NodeId voter, const crypto::Digest& body_digest) {
  checkpoints_[seq].add(voter, body_digest, config_.size());
  if (in_window(seq)) return;
  // Above the window a voter keeps only its newest boundaries, as many as a
  // window spans plus one: a member voting for endless future boundaries
  // cannot grow the store.
  const std::uint64_t interval = options_.checkpoint_interval;
  const std::uint64_t keep = (options_.watermark_window + interval - 1) / interval + 1;
  const std::uint64_t window_top = stable_seq_ + options_.watermark_window;
  std::uint64_t held = 0;
  for (auto it = checkpoints_.end(); it != checkpoints_.begin();) {
    --it;
    if (it->first <= window_top) break;
    if (it->second.vote_of(voter) == nullptr || ++held <= keep) continue;
    it->second.erase(voter);
    if (it->second.empty()) it = checkpoints_.erase(it);
  }
}

std::size_t PbftSmr::stored_votes() const {
  std::size_t count = state_reply_votes_.size();
  for (const auto& [seq, votes] : checkpoints_) count += votes.size();
  return count;
}

void PbftSmr::send_checkpoint(std::uint64_t seq) {
  Checkpoint capture = executed_.checkpoint(seq);
  ByteWriter w = frame_writer(checkpoint_body_size(capture));
  write_checkpoint_body(w, capture);
  // Our vote is the digest of the body, the bytes after the tag.
  record_vote(seq, transport_.self(),
              crypto::sha256(w.data().data() + kTagBytes, w.size() - kTagBytes));
  broadcast(net::MsgType::kPbftCheckpoint, w.take());
  slot(seq).capture = std::make_unique<Checkpoint>(std::move(capture));
  // Stabilization (our vote may complete a quorum) is NOT checked here:
  // send_checkpoint runs before the boundary record's decides fire, and
  // truncating the log mid-delivery would pop the record under them.
  // execute_entry/adopt_entries call maybe_stabilize() after unwinding.
}

void PbftSmr::handle_checkpoint(const net::Message& msg) {
  ByteReader r(msg.payload);
  std::uint64_t seq = r.u64();
  (void)read_digest(r);  // state digest: covered by the body digest below
  (void)r.u64();         // op count: likewise
  {
    // The ledger region must at least parse — a vote whose body could never
    // be installed is dropped as malformed (SerdeError -> on_message net).
    std::span<const std::uint8_t> region = r.bytes_view();
    ByteReader lr(region.data(), region.size());
    (void)RequestLedger::decode(lr);
    lr.expect_done();
  }
  r.expect_done();
  if (seq <= stable_seq_) return;
  if (seq % options_.checkpoint_interval != 0) return;  // not a boundary

  // The vote is the digest of the whole body (memoized on the frame).
  crypto::Digest d = msg.payload.digest();
  record_vote(seq, msg.from, d);
  if (seq <= next_exec_) {
    maybe_stabilize();  // this vote may complete a quorum
  } else if (seq > next_exec_ + options_.watermark_window / 2 && vouched(seq, d)) {
    // We have fallen behind a vouched checkpoint: fetch state.
    request_state_transfer();
  }
}

void PbftSmr::maybe_stabilize() {
  // The one path by which 2f+1 votes advance the stable checkpoint, run on
  // every vote and after every execution: the quorum may complete on a
  // peer's vote or, when peers voted first, on our own. Count votes
  // matching our own; newest eligible boundary wins.
  const std::uint64_t interval = options_.checkpoint_interval;
  for (std::uint64_t seq = next_exec_ - next_exec_ % interval; seq > stable_seq_;
       seq -= interval) {
    const VoteRecord* votes = votes_at(seq);
    if (votes == nullptr) continue;
    const crypto::Digest* mine = votes->vote_of(transport_.self());
    if (mine == nullptr) continue;
    if (votes->reaches(*mine, quorum())) {
      if (ctr_checkpoints_ != nullptr) ctr_checkpoints_->inc();
      collect_garbage(seq);
      return;
    }
  }
}

void PbftSmr::trim_history() {
  if (exec_depth_ > 0) return;  // mid-delivery: deferred to the unwind
  while (base_ < stable_seq_ && !slots_.empty()) {
    slots_.pop_front();
    ++base_;
  }
  base_ = std::max(base_, stable_seq_);  // an install may jump past the log
}

void PbftSmr::collect_garbage(std::uint64_t stable_seq) {
  if (stable_seq <= stable_seq_) return;
  stable_seq_ = stable_seq;
  // Promote our capture of this boundary to the served stable checkpoint
  // (install_checkpoint sets stable_ckpt_ itself and leaves no capture).
  if (stable_seq <= log_end() && slot(stable_seq).capture) {
    stable_ckpt_ = std::move(*slot(stable_seq).capture);
  }
  // Votes at or below the stable checkpoint are moot.
  checkpoints_.erase(checkpoints_.begin(), checkpoints_.upper_bound(stable_seq));
  // The memory bound: every slot at or below the stable checkpoint leaves
  // the log (and unpins its batch frames). in_window caps next_exec_ at
  // stable_seq_ + watermark_window, so after the trim the log never holds
  // more than watermark_window executed records.
  trim_history();
  // Requests stuck behind the window may now be assignable (and a batch
  // flush that stalled against the window can retry).
  if (is_primary() && !view_changing_) enqueue_pending();
}

void PbftSmr::enqueue_pending() {
  // enqueue_op may execute inline, which erases from pending_: the walk is
  // over a copy.
  for (const Request& req : pending_by_id()) enqueue_op(req);
  flush_batch();
}

std::vector<PbftSmr::Request> PbftSmr::pending_by_id() const {
  std::vector<Request> requests;
  requests.reserve(pending_.size());
  // lint: unordered-iter-ok(collected, then sorted by id below)
  for (const auto& [id, op] : pending_) requests.push_back(Request{id, op});
  std::ranges::sort(requests, {}, &Request::id);
  return requests;
}

void PbftSmr::request_state_transfer() {
  // Ask a voter of the freshest vouched checkpoint for history: boundaries
  // newest first, those above the window before the window's. The lowest-id
  // voter other than this replica is asked.
  for (auto it = checkpoints_.rbegin(); it != checkpoints_.rend(); ++it) {
    const VoteRecord& votes = it->second;
    if (votes.size() < max_faults() + 1) continue;
    NodeId asked = kInvalidNode;
    for (const VoteRecord::Vote& v : votes) {
      if (v.voter != transport_.self()) asked = std::min(asked, v.voter);
    }
    if (asked == kInvalidNode) continue;
    // No range cap: the reply is validated against the vouched checkpoint.
    transport_.send(asked, net::MsgType::kPbftStateFetch, fetch_frame(0));
    return;  // one fetch at a time; retried on the next checkpoint signal
  }
}

// The one state-reply shape: u64 tag, u8 has-checkpoint, u64 from_seq
// (echoed to match the request), the stable checkpoint if flagged (u64 seq,
// digest, u64 ops, bytes ledger), varint count, records for the next seqs.
void PbftSmr::handle_state_fetch(const net::Message& msg) {
  if (faulty_now()) return;
  ByteReader r(msg.payload);
  std::uint64_t from_seq = r.u64();
  std::uint64_t upto = r.u64();  // exclusive end of the decided prefix; 0 = all
  r.expect_done();

  // A fetcher below the truncation point gets the stable checkpoint and
  // every record above it; any other gets the records for (from_seq,
  // min(next_exec_, upto)], exactly the gap it asked for.
  const bool with_ckpt = from_seq < base_;
  if (with_ckpt && !stable_ckpt_) return;
  std::uint64_t end = next_exec_;
  if (!with_ckpt && upto != 0) end = std::min(end, upto);
  const std::uint64_t first = std::max(from_seq, base_);
  if (!with_ckpt && first >= end) return;  // have not executed the requested range yet
  std::size_t body = 1 + 8 + ByteWriter::varint_size(end - first);
  if (with_ckpt) body += checkpoint_body_size(*stable_ckpt_);
  for (std::uint64_t seq = first + 1; seq <= end; ++seq) {
    body += ops_region_size(find_slot(seq)->record);
  }
  ByteWriter w = frame_writer(body);
  w.u8(with_ckpt ? 1 : 0);
  w.u64(from_seq);
  if (with_ckpt) write_checkpoint_body(w, *stable_ckpt_);
  w.varint(end - first);
  for (std::uint64_t seq = first + 1; seq <= end; ++seq) {
    encode_ops_region(w, find_slot(seq)->record);
  }
  transport_.send(msg.from, net::MsgType::kPbftStateReply, w.take());
}

std::vector<PbftSmr::ExecRecord> PbftSmr::parse_exec_records(const net::Message& msg,
                                                             ByteReader& r) const {
  std::uint64_t count = r.varint();
  // Bound the claimed counts by the bytes actually present (each record is
  // at least 1 byte, each op at least 17) BEFORE reserving: a Byzantine
  // reply declaring 2^60 entries must be dropped as malformed, not turned
  // into a length_error/bad_alloc that escapes the SerdeError net in
  // on_message and kills the replica.
  if (count > r.remaining()) throw SerdeError("state reply count exceeds buffer");
  std::vector<ExecRecord> entries;
  entries.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) entries.push_back(read_ops(msg.payload, r));
  return entries;
}

// Chain validation: advance a copy of the executed state through `entries`
// (seqs next_exec_+1 onward) as adoption would, and at every boundary count
// the votes for the body the copy implies. Returns the highest boundary f+1
// voters confirm (0 = none): everything up to it is provably the group's
// history, because a correct voter hashed the same chain over the same
// records.
std::uint64_t PbftSmr::validate_chain(const std::vector<ExecRecord>& entries) const {
  ExecState state = executed_;
  std::uint64_t best = 0;
  std::uint64_t seq = next_exec_;
  for (const ExecRecord& rec : entries) {
    ++seq;
    state.advance(rec);
    if (seq % options_.checkpoint_interval != 0) continue;
    if (votes_at(seq) == nullptr) continue;
    if (vouched(seq, checkpoint_digest(state.checkpoint(seq)))) best = seq;
  }
  return best;
}

void PbftSmr::handle_state_reply(const net::Message& msg) {
  ByteReader r(msg.payload);
  const std::uint8_t has_ckpt = r.u8();
  if (has_ckpt > 1) return;
  if (r.u64() != next_exec_) return;  // stale reply
  std::optional<Checkpoint> ckpt;  // braced init reads the fields in order
  if (has_ckpt != 0) ckpt = Checkpoint{r.u64(), read_digest(r), r.u64(), r.bytes()};
  std::vector<ExecRecord> records = parse_exec_records(msg, r);
  r.expect_done();
  RequestLedger ledger;
  if (ckpt) {
    if (ckpt->seq <= next_exec_) return;  // already past the offered boundary
    if (ckpt->seq % options_.checkpoint_interval != 0) return;
    ByteReader lr(ckpt->ledger_wire);
    ledger = RequestLedger::decode(lr);
    lr.expect_done();
  } else if (records.empty()) {
    return;
  }

  // Evidence one reply can stand on: f+1 CHECKPOINT votes on the offered
  // body or, with no checkpoint, an f+1-vouched boundary reached by
  // re-folding the records onto local state. Lacking it, the reply counts
  // once f+1 distinct replicas sent byte-identical copies: at least one is
  // correct, and correct replicas serve only what they executed, so a reply
  // vouched whole is adopted in full.
  std::uint64_t vouched_to = 0;
  const bool evidence = ckpt ? vouched(ckpt->seq, checkpoint_digest(*ckpt))
                             : (vouched_to = validate_chain(records)) > next_exec_;
  if (!evidence) {
    const crypto::Digest d = msg.payload.digest();
    state_reply_votes_.add(msg.from, d, config_.size());
    if (!state_reply_votes_.reaches(d, max_faults() + 1)) return;
    state_reply_votes_.clear();
  }

  // The records continue from the checkpoint, or from our position. An
  // install ends in try_execute, which may run committed local entries past
  // the boundary (the same records, by agreement); adopting that covered
  // prefix again would re-deliver its ops and fork the digest chain.
  const bool installing = ckpt.has_value();
  const std::uint64_t start = installing ? ckpt->seq : next_exec_;
  if (installing) install_checkpoint(std::move(*ckpt), std::move(ledger));
  const auto covered = static_cast<std::ptrdiff_t>(
      std::min<std::uint64_t>(next_exec_ - start, records.size()));
  records.erase(records.begin(), records.begin() + covered);
  if (!evidence) {
    adopt_entries(records, records.size());
  } else {
    // Checkpoint votes cover only the body — a Byzantine server holding a
    // genuine checkpoint could still forge records. Adopt only the prefix a
    // vouched boundary confirms through the digest chain.
    if (installing) vouched_to = validate_chain(records);
    if (vouched_to > next_exec_) {
      adopt_entries(records, vouched_to - next_exec_);
      // The vouched boundary is the new stable point, after an install as
      // without one: f+1 votes and the digest chain prove it, as they
      // prove an installed checkpoint.
      collect_garbage(vouched_to);
    }
  }
  maybe_stabilize();
}

void PbftSmr::install_checkpoint(Checkpoint ckpt, RequestLedger ledger) {
  const std::uint64_t from_seq = next_exec_;
  const std::uint64_t from_ops = executed_.ops;
  const std::uint64_t cseq = ckpt.seq;
  const std::uint64_t ops = ckpt.ops;
  if (ctr_installs_ != nullptr) ctr_installs_->inc();
  next_exec_ = cseq;
  decided_ops_ = ops;  // skipped ops never fire locally; ordinals resume past them
  // View-change-carried assignments above the checkpoint are forgotten
  // here; worst case the primary re-assigns such a request and execution
  // dedups it against the ledger — a null op, not a double delivery.
  assigned_or_executed_ = ledger;
  executed_ = ExecState{ckpt.state_digest, ops, std::move(ledger)};
  // lint: unordered-iter-ok(erase predicate is per-entry, order-free)
  pending_.erase_if([&](const auto& entry) {
    return executed_.requests.contains(entry.first.origin, entry.first.seq);
  });
  std::erase_if(stashed_pre_prepares_, [&](const auto& entry) {
    return executed_.requests.contains(entry.first.origin, entry.first.seq);
  });
  stable_ckpt_ = std::move(ckpt);
  next_seq_ = std::max(next_seq_, cseq + 1);
  head_fetch_rounds_ = 0;
  // Truncates the log through the boundary (no slot there holds a capture,
  // so the stable_ckpt_ set above stays) and re-arms the primary.
  collect_garbage(cseq);
  if (install_) install_(from_seq, cseq, from_ops, ops);
  // Entries logged beyond the installed boundary may be executable now.
  try_execute();
  // The install moved next_exec_: the current view is serving us state, so
  // any lag-triggered view change is moot (see abandon_view_change).
  abandon_view_change();
}

void PbftSmr::adopt_entries(const std::vector<ExecRecord>& entries, std::uint64_t count) {
  if (count == 0 || entries.empty()) return;
  const std::uint64_t start = next_exec_;
  for (std::uint64_t i = 0; i < count && i < entries.size(); ++i) {
    const std::uint64_t seq = start + i + 1;
    // A decide callback below may propose and execute ahead of us (tiny
    // quorums commit inline); once next_exec_ moves past the entry we are
    // about to adopt, the rest of the reply is stale — bail out rather
    // than fold records out of order.
    if (seq != next_exec_ + 1) break;
    // Take the record VERBATIM as served: the state digest chain covers the
    // null-op markers too, so re-nulling against local ledger state would
    // fork the chain from the group's.
    const ExecRecord& rec = entries[static_cast<std::size_t>(i)];
    executed_.advance(rec);
    Slot& s = slot(seq);
    s.agreement = {};  // an unexecutable duplicate must not shadow the record
    s.record = rec;
    apply_record(seq, s, false);
  }
  trim_history();
  maybe_stabilize();
  head_fetch_rounds_ = 0;  // progress: future gaps get fresh fetch rounds
  next_seq_ = std::max(next_seq_, next_exec_ + 1);
  // Entries logged beyond the adopted gap may be executable now.
  try_execute();
  // Adoption that moved next_exec_ is progress in the current view; a
  // lag-triggered view change is moot then (see abandon_view_change).
  if (next_exec_ > start) abandon_view_change();
}

// ---------------------------------------------------------------------------
// View changes
// ---------------------------------------------------------------------------

void PbftSmr::arm_view_timer() {
  if (faulty_now() || stopped_) return;
  if (view_timer_ != 0) return;  // already armed
  if (pending_.size() == 0) return;
  view_timer_ = transport_.simulator().schedule_after(current_timeout_, [this] {
    view_timer_ = 0;
    if (pending_.size() != 0 || view_changing_) start_view_change();
  });
}

void PbftSmr::disarm_view_timer() {
  if (view_timer_ != 0) {
    transport_.simulator().cancel(view_timer_);
    view_timer_ = 0;
  }
}

void PbftSmr::start_view_change(std::uint64_t explicit_target) {
  if (faulty_now()) return;
  view_changing_ = true;
  if (explicit_target > view_) {
    target_view_ = explicit_target;
  } else {
    target_view_ = std::max(target_view_ + 1, view_ + 1);
  }
  current_timeout_ *= 2;  // exponential backoff to reach eventual synchrony

  ViewChangeMsg vc;
  vc.new_view = target_view_;
  vc.stable_seq = stable_seq_;
  for (std::uint64_t seq = stable_seq_ + 1; seq <= log_end(); ++seq) {
    const Agreement& entry = find_slot(seq)->agreement;
    if (entry.prepared(max_faults())) {
      vc.prepared.push_back(PreparedProof{seq, entry.view, entry.digest, entry.batch});
    }
  }

  ByteWriter w = frame_writer();
  w.u64(vc.new_view);
  w.u64(vc.stable_seq);
  w.varint(vc.prepared.size());
  for (const auto& p : vc.prepared) {
    w.u64(p.seq);
    w.u64(p.view);
    write_batch(w, p.batch);
  }
  sign_frame(w);
  broadcast(net::MsgType::kPbftViewChange, w.take());

  view_changes_[vc.new_view][transport_.self()] = std::move(vc);
  maybe_assemble_new_view();
  arm_view_timer();  // if this view change stalls, try the next view
  if (view_timer_ == 0) {
    // No pending request, but the view change itself must complete.
    view_timer_ = transport_.simulator().schedule_after(current_timeout_, [this] {
      view_timer_ = 0;
      if (view_changing_) start_view_change();
    });
  }
}

void PbftSmr::abandon_view_change() {
  // A lone laggard's view change can never complete: the other replicas see
  // a live primary and will not join, while the complainer sits deaf to
  // current-view traffic (buffered, not handled) and so can never see the
  // progress that would... have come from the traffic it is buffering. The
  // exit is execution progress through state transfer: once installs or
  // adopted records move next_exec_, the current view is demonstrably
  // serving us — withdraw the complaint and replay what was buffered.
  // target_view_ is kept so a later genuine complaint still escalates past
  // every view number this replica has already voted for.
  if (!view_changing_) return;
  view_changing_ = false;
  current_timeout_ = options_.view_change_timeout;
  replay_future_view_msgs();
}

void PbftSmr::replay_future_view_msgs() {
  std::vector<net::Message> replay;
  replay.swap(future_view_msgs_);
  for (const net::Message& m : replay) {
    // Higher-view messages re-buffer themselves inside the handlers.
    if (m.type == net::MsgType::kPbftPrePrepare) {
      handle_pre_prepare(m);
    } else if (m.type == net::MsgType::kPbftPrepare) {
      handle_prepare(m);
    }
  }
}

void PbftSmr::handle_view_change(const net::Message& msg) {
  // Read the signed body in place; carried ops stay slices of this frame.
  std::optional<ByteReader> body = signed_body(msg);
  if (!body) return;
  ByteReader& r = *body;
  ViewChangeMsg vc;
  vc.new_view = r.u64();
  vc.stable_seq = r.u64();
  std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t seq = r.u64();
    const std::uint64_t view = r.u64();
    // The proof's digest is recomputed from the ops region, never trusted
    // off the wire; hashing the slice hits this frame's digest memo, so the
    // new primary assembling O from many proofs hashes each region once.
    FrameBatch batch = read_batch(msg.payload, r);
    vc.prepared.push_back(PreparedProof{seq, view, batch.digest(), std::move(batch.ops)});
  }
  if (vc.new_view <= view_) return;

  view_changes_[vc.new_view][msg.from] = std::move(vc);

  // View synchronization (PBFT's liveness rule): once f+1 distinct
  // replicas demand views above our CURRENT TARGET, adopt the smallest
  // such view — this funnels replicas whose timeouts diverged (e.g.
  // across a healed partition) into one view that can reach a quorum,
  // without getting pinned to stale demands for already-dead views.
  std::uint64_t threshold = view_changing_ ? target_view_ : view_;
  std::set<NodeId> demanders;
  std::uint64_t smallest = 0;
  for (const auto& [v, senders] : view_changes_) {
    if (v <= threshold) continue;
    if (smallest == 0) smallest = v;
    for (const auto& [s, m] : senders) demanders.insert(s);
  }
  if (smallest != 0 && demanders.size() >= max_faults() + 1) {
    start_view_change(smallest);
    return;
  }
  maybe_assemble_new_view();
}

void PbftSmr::maybe_assemble_new_view() {
  if (!view_changing_) return;
  auto it = view_changes_.find(target_view_);
  if (it == view_changes_.end()) return;
  if (primary_of(target_view_) != transport_.self()) return;
  if (it->second.size() < quorum()) return;
  if (faulty_now()) return;

  // Compute the re-proposal set O: for every prepared seq, the proof with
  // the highest view wins; gaps become null batches.
  std::map<std::uint64_t, PreparedProof> chosen;
  std::uint64_t max_stable = 0, max_seq = 0;
  for (const auto& [sender, vc] : it->second) {
    max_stable = std::max(max_stable, vc.stable_seq);
    for (const auto& p : vc.prepared) {
      max_seq = std::max(max_seq, p.seq);
      auto [cit, inserted] = chosen.try_emplace(p.seq, p);
      if (!inserted && p.view > cit->second.view) cit->second = p;
    }
  }
  std::vector<PreparedProof> o;
  for (std::uint64_t seq = max_stable + 1; seq <= max_seq; ++seq) {
    auto cit = chosen.find(seq);
    o.push_back(cit != chosen.end() ? std::move(cit->second)
                                    : PreparedProof{seq, target_view_, crypto::Digest{}, {}});
  }

  // Each O entry is bytes(u64 seq, bytes(ops_region)).
  ByteWriter w = frame_writer();
  w.u64(target_view_);
  w.u64(max_stable);
  w.varint(o.size());
  for (const PreparedProof& p : o) {
    w.varint(8 + batch_size(p.batch));
    w.u64(p.seq);
    write_batch(w, p.batch);
  }
  sign_frame(w);
  broadcast(net::MsgType::kPbftNewView, w.take());

  // Enter the view locally and re-propose O.
  enter_view(target_view_, o);
}

void PbftSmr::handle_new_view(const net::Message& msg) {
  std::optional<ByteReader> body = signed_body(msg);
  if (!body) return;
  ByteReader& r = *body;
  std::uint64_t new_view = r.u64();
  std::uint64_t stable = r.u64();
  if (new_view <= view_) return;
  if (primary_of(new_view) != msg.from) return;

  std::uint64_t n = r.varint();
  std::vector<PreparedProof> carried;
  std::uint64_t seq_expected = stable + 1;
  for (std::uint64_t i = 0; i < n; ++i, ++seq_expected) {
    // Read each O entry in place: carried ops become slices of the NEW-VIEW
    // frame.
    std::span<const std::uint8_t> entry = r.bytes_view();
    ByteReader er(entry.data(), entry.size());
    std::uint64_t seq = er.u64();
    if (seq != seq_expected) return;  // malformed O
    // Batch digests are recomputed locally (an op_count of 0 is the null
    // batch with the all-zero digest), never trusted off the wire.
    FrameBatch batch = read_batch(msg.payload, er);
    er.expect_done();
    carried.push_back(PreparedProof{seq, new_view, batch.digest(), std::move(batch.ops)});
  }
  // O is taken as sent: the NEW-VIEW carries neither the VIEW-CHANGE set it
  // was built from (PBFT's V) nor each proof's original view, so nothing
  // here can show that the new primary dropped or replaced a batch that
  // prepared (ROADMAP direction 4).
  enter_view(new_view, carried);
}

void PbftSmr::enter_view(std::uint64_t v, const std::vector<PreparedProof>& carried) {
  view_ = v;
  target_view_ = v;
  view_changing_ = false;
  if (ctr_view_changes_ != nullptr) ctr_view_changes_->inc();
  current_timeout_ = options_.view_change_timeout;
  disarm_view_timer();
  // A batch buffered while we were primary of a dead view was never
  // pre-prepared; its ops are still in pending_ and get re-enqueued below
  // (as primary) or re-proposed by their clients (as backup).
  disarm_batch_timer();
  batch_buf_.clear();
  batch_buf_bytes_ = 0;
  view_changes_.erase(view_changes_.begin(), view_changes_.upper_bound(v));

  // Assignments from abandoned views are void: only executed requests and
  // the ones the new view carries over count as handled. Anything else in
  // pending_ becomes assignable again.
  assigned_or_executed_ = executed_.requests;
  for (const auto& p : carried) {
    for (const Request& req : p.batch) assigned_or_executed_.insert(req.id.origin, req.id.seq);
  }

  // Reset per-view agreement state above the stable checkpoint and replay O.
  // Sequence assignments from dead views are void: the new view's number
  // space restarts right after what the view change carried over —
  // otherwise a stale next_seq_ leaves unfillable holes below it.
  std::uint64_t carried_max = std::max(next_exec_, stable_seq_);
  for (const auto& p : carried) carried_max = std::max(carried_max, p.seq);
  for (std::uint64_t seq = log_end(); seq > carried_max; --seq) slot(seq).agreement = {};
  next_seq_ = carried_max + 1;

  for (const auto& p : carried) {
    if (p.seq <= next_exec_) continue;  // already executed here
    if (p.seq - stable_seq_ > kCarriedWindows * options_.watermark_window) continue;
    Agreement& entry = slot(p.seq).agreement;
    entry = Agreement{.view = v, .digest = p.digest, .batch = p.batch, .pre_prepared = true,
                      .prepares = {}, .commits = {}};
    entry.prepares.add(transport_.self(), p.digest, config_.size());
    broadcast(net::MsgType::kPbftPrepare, vote_frame(v, p.seq, p.digest));
  }

  // Replay protocol messages that arrived for this view before we entered
  // it (early entrants' prepares must not be lost).
  replay_future_view_msgs();

  // The new primary picks up whatever is still pending: everything not
  // carried over gets batched afresh (enqueue flushes full batches as it
  // goes; the final flush sends the remainder immediately — a new view
  // must not sit on re-proposals for a deadline tick).
  if (is_primary()) {
    enqueue_pending();
  } else if (!faulty_now()) {
    // Retransmit our own unordered requests: the new primary may never
    // have received them (e.g. it was partitioned when they were issued).
    for (const Request& req : pending_by_id()) {
      if (req.id.origin != transport_.self()) continue;
      transport_.send(primary_of(view_), net::MsgType::kPbftRequest, request_frame(req));
    }
  }
  if (pending_.size() != 0) arm_view_timer();
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void PbftSmr::on_message(const net::Message& raw) {
  if (stopped_) return;
  if (fault_ == PbftFaultMode::kSilent) return;
  if (!config_.contains(raw.from)) return;
  // Envelope check: the leading u64 of every frame is the instance tag.
  // Frames from another instance (an earlier or later epoch running over
  // overlapping node ids) are dropped here, before any handler can mistake
  // their seq numbering for this instance's.
  if (raw.payload.size() < kTagBytes) return;
  net::Message msg = raw;
  {
    ByteReader r(raw.payload);
    // lint: handler-serde-safety-ok(8-byte read is gated by the size()<kTagBytes early return above)
    if (r.u64() != instance_tag_) return;
    msg.payload = raw.payload.slice(std::span<const std::uint8_t>(
        raw.payload.data() + kTagBytes, raw.payload.size() - kTagBytes));
  }
  try {
    switch (msg.type) {
      case net::MsgType::kPbftRequest: handle_request(msg); break;
      case net::MsgType::kPbftPrePrepare: handle_pre_prepare(msg); break;
      case net::MsgType::kPbftPrepare: handle_prepare(msg); break;
      case net::MsgType::kPbftCommit: handle_commit(msg); break;
      case net::MsgType::kPbftCheckpoint: handle_checkpoint(msg); break;
      case net::MsgType::kPbftViewChange: handle_view_change(msg); break;
      case net::MsgType::kPbftNewView: handle_new_view(msg); break;
      case net::MsgType::kPbftStateFetch: handle_state_fetch(msg); break;
      case net::MsgType::kPbftStateReply: handle_state_reply(msg); break;
      default: break;
    }
  } catch (const SerdeError&) {
    // Malformed bytes mark the sender as faulty; drop silently.
  }
}

}  // namespace atum::smr
