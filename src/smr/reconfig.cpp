#include "smr/reconfig.h"

#include <algorithm>

namespace atum::smr {

namespace {
constexpr std::uint8_t kAppOp = 0;
constexpr std::uint8_t kConfigOp = 1;

// Removal-notice retry backoff: the first send races the removed node's own
// decide path (usually it decided the op itself and the notice is a no-op);
// the retries cover a partition healing after the instance died.
constexpr DurationMicros kNoticeRetries[] = {seconds(1.0), seconds(5.0)};

crypto::Digest genesis_hash(const GroupConfig& config) {
  crypto::Sha256 h;
  h.update("atum-epoch-genesis");
  ByteWriter w;
  for (NodeId n : config.members) w.u64(n);
  h.update(w.data());
  return h.finish();
}

crypto::Digest chain_hash(const crypto::Digest& prev, const crypto::Digest& config_op_digest) {
  crypto::Sha256 h;
  h.update(prev.data(), prev.size());
  h.update(config_op_digest.data(), config_op_digest.size());
  return h.finish();
}

// A fresh engine of options.kind for one epoch's configuration.
std::unique_ptr<SmrEngine> make_engine(net::Transport transport, GroupConfig config,
                                       crypto::KeyStore& keys, const EngineOptions& options) {
  if (options.kind == EngineKind::kSync) {
    return std::make_unique<DolevStrongSmr>(
        std::move(transport), std::move(config), keys, options.ds,
        options.silent ? DsFaultMode::kSilent : DsFaultMode::kCorrect);
  }
  return std::make_unique<PbftSmr>(
      std::move(transport), std::move(config), keys, options.pbft,
      options.silent ? PbftFaultMode::kSilent : PbftFaultMode::kCorrect);
}
}  // namespace

ReconfigurableSmr::ReconfigurableSmr(net::SimNetwork& net, NodeId self, GroupConfig initial,
                                     crypto::KeyStore& keys, EngineOptions options,
                                     std::optional<EpochState> resume)
    : net_(net),
      self_(self),
      config_(std::move(initial)),
      keys_(keys),
      options_(options),
      notice_transport_(net, self) {
  config_.normalize();
  if (resume) {
    // A state-synced joiner resumes the chain where the group is; deriving
    // genesis from the member list here would fork the chain (and the
    // instance tag) from the incumbents'.
    epoch_ = resume->epoch;
    epoch_hash_ = resume->hash;
  } else {
    epoch_hash_ = genesis_hash(config_);
  }
  notice_transport_.listen({net::MsgType::kSmrRemovalNotice},
                           [this](const net::Message& m) { on_removal_notice(m); });
  start_engine();
}

ReconfigurableSmr::~ReconfigurableSmr() { stop(); }

void ReconfigurableSmr::stop() {
  stopped_ = true;
  for (sim::EventId id : notice_timers_) net_.simulator().cancel(id);
  notice_timers_.clear();
  notice_transport_.close();
  if (engine_) {
    engine_->stop();
    engine_.reset();
  }
}

void ReconfigurableSmr::set_silent(bool silent) {
  options_.silent = silent;
  if (engine_) engine_->set_silent(silent);
}

void ReconfigurableSmr::start_engine() {
  // The instance tag is the chain head, not the member list: A -> B -> A
  // yields three distinct tags, so a laggard from the first A-instance can
  // never adopt the second A-instance's history.
  options_.pbft.instance_tag = crypto::digest_prefix64(epoch_hash_);
  engine_ = make_engine(net::Transport(net_, self_), config_, keys_, options_);
  engine_->set_decide_handler([this](std::uint64_t, NodeId origin, const net::Payload& op) {
    on_engine_decide(origin, op);
  });
  if (auto* e = dynamic_cast<PbftSmr*>(engine_.get())) {
    e->set_install_handler([this](std::uint64_t, std::uint64_t, std::uint64_t from_ops,
                                  std::uint64_t to_ops) {
      // The skipped ops were decided by the group; keep the cross-epoch
      // sequence aligned with replicas that executed them one by one.
      global_seq_ += to_ops - from_ops;
    });
  }
  // Reconfiguration must not lose in-flight proposals (SMART carries them
  // into the next configuration's instance). A checkpoint install may have
  // adopted one of these without firing decide_ here, in which case the
  // re-proposal executes as a ledger-deduped null op — at-least-once into
  // the ledger, exactly-once into the decided sequence.
  for (const Bytes& op : unacked_) {
    engine_->propose(op);
  }
}

void ReconfigurableSmr::propose(Bytes op) {
  ByteWriter w;
  w.u8(kAppOp);
  w.bytes(op);
  Bytes wrapped = w.take();
  unacked_.push_back(wrapped);
  if (engine_) engine_->propose(std::move(wrapped));
}

void ReconfigurableSmr::propose_reconfig(GroupConfig new_config) {
  new_config.normalize();
  ByteWriter w;
  w.u8(kConfigOp);
  w.vec(new_config.members, [](ByteWriter& bw, NodeId n) { bw.u64(n); });
  Bytes wrapped = w.take();
  unacked_.push_back(wrapped);
  if (engine_) engine_->propose(std::move(wrapped));
}

void ReconfigurableSmr::on_engine_decide(NodeId origin, const net::Payload& wrapped) {
  // A config op is the LAST decision applied in an instance. The engine
  // swap is deferred (schedule_after(0)), so the retiring engine can still
  // deliver decisions ordered after the config op — e.g. the tail of the
  // same commit batch. Whether a given replica's engine delivers those
  // before its swap fires is timing, not agreement: applying them here
  // would fork global_seq_ and the epoch-hash chain across replicas. Drop
  // them instead — and do NOT ack them, so their origins re-propose them
  // into the next instance (the SMART carry-over), where they decide for
  // everyone or no one.
  if (switching_) return;
  if (origin == self_) {
    // Payload <-> Bytes content equality, no materialization.
    auto it = std::find(unacked_.begin(), unacked_.end(), wrapped);
    if (it != unacked_.end()) unacked_.erase(it);
  }

  ByteReader r(wrapped);
  std::uint8_t tag;
  try {
    tag = r.u8();
    if (tag == kAppOp) {
      net::Payload op = wrapped.slice(r.bytes_view());  // unwrap without copying
      std::uint64_t seq = global_seq_++;
      if (decide_) decide_(seq, origin, op);
      return;
    }
    if (tag != kConfigOp) return;  // unknown tag: faulty proposer, ignore

    GroupConfig next;
    next.members = r.vec<NodeId>([](ByteReader& br) { return br.u64(); });
    next.normalize();
    if (next.members.empty()) return;  // refuse to reconfigure to nothing
    if (next.members == config_.members) return;  // no-op (e.g. several
    // members proposed the same change and one already won)

    ++global_seq_;
    ++epoch_;
    // Extend the config-history chain over the decided op's bytes. Every
    // correct replica decides the same op at the same slot, so the chain
    // head (and the next instance's tag) agrees group-wide.
    epoch_hash_ = chain_hash(epoch_hash_, wrapped.digest());
    pre_switch_members_ = config_.members;
    config_ = next;
    // Defer the engine swap out of the decide callback: the old engine is
    // still on the stack. The switching_ cut above keeps this the only
    // pending swap.
    switching_ = true;
    net_.simulator().schedule_after(0, [this] {
      switching_ = false;
      if (engine_) {
        engine_->stop();
        engine_.reset();
      }
      std::vector<NodeId> removed;
      for (NodeId n : pre_switch_members_) {
        if (!config_.contains(n)) removed.push_back(n);
      }
      if (config_.contains(self_)) {
        start_engine();
        // Continuing members tell the removed set the epoch moved on; a
        // removed replica partitioned across the switch would otherwise
        // wait forever on the retired instance (the leave-confirmation
        // gap — the config op killed the instance that decided it).
        send_removal_notices(removed);
      }
      if (config_changed_) config_changed_(epoch_, config_);  // may destroy this
    });
  } catch (const SerdeError&) {
    // Malformed decided op: a faulty origin proposed garbage. Skip it.
  }
}

void ReconfigurableSmr::send_removal_notices(const std::vector<NodeId>& removed) {
  if (removed.empty()) return;
  ByteWriter w;
  w.u64(epoch_);
  w.raw(epoch_hash_.data(), epoch_hash_.size());
  w.vec(config_.members, [](ByteWriter& bw, NodeId n) { bw.u64(n); });
  Bytes notice = w.take();  // identical bytes at every correct continuing member
  auto send_all = [this, removed, notice] {
    for (NodeId n : removed) {
      notice_transport_.send(n, net::MsgType::kSmrRemovalNotice, notice);
    }
  };
  send_all();
  for (DurationMicros delay : kNoticeRetries) {
    notice_timers_.push_back(net_.simulator().schedule_after(delay, send_all));
  }
}

void ReconfigurableSmr::on_removal_notice(const net::Message& msg) {
  if (stopped_) return;
  std::uint64_t epoch;
  crypto::Digest hash;
  GroupConfig next;
  try {
    ByteReader r(msg.payload);
    epoch = r.u64();
    r.raw(hash.data(), hash.size());
    next.members = r.vec<NodeId>([](ByteReader& br) { return br.u64(); });
    r.expect_done();
  } catch (const SerdeError&) {
    return;
  }
  next.normalize();
  if (epoch <= epoch_) return;             // stale: we already reached that epoch
  if (next.members.empty()) return;
  if (next.contains(self_)) return;        // a "removal" that keeps us is garbage
  if (!config_.contains(msg.from)) return; // only our last-known peers may vouch

  // No prev-hash link check: a laggard several epochs behind cannot verify
  // the chain segment it missed. f+1 byte-identical notices from members of
  // its own last-known config guarantee one correct sender instead.
  const crypto::Digest d = msg.payload.digest();
  notice_votes_.add(msg.from, d, config_.size());
  if (!notice_votes_.reaches(d, max_faults(options_.kind, config_.size()) + 1)) return;
  notice_votes_.clear();

  epoch_ = epoch;
  epoch_hash_ = hash;
  config_ = next;
  if (engine_) {
    engine_->stop();
    engine_.reset();
  }
  if (config_changed_) config_changed_(epoch_, config_);  // may destroy this
}

}  // namespace atum::smr
