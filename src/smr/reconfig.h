// Epoch-based SMR reconfiguration, after the SMART approach [55] the paper
// combines with PBFT: each membership change closes the current engine and
// starts a fresh one for the new configuration. Decisions keep a single
// monotonically increasing sequence across epochs; operations proposed but
// not yet decided when an epoch closes are re-proposed in the next epoch.
//
// Config-history hash chain: every epoch is identified by
//   epoch_hash = SHA-256(prev_epoch_hash || config_op_digest)
// rooted at a genesis hash over the initial member list. The chain value —
// not the member list — derives the PBFT instance tag, so two non-adjacent
// epochs with identical membership (A -> B -> A) can never share a tag and
// an old-instance laggard can never adopt a successor instance's history.
// The (epoch, hash) pair travels in the join snapshot (core/atum.cpp), so a
// state-synced joiner resumes the chain at the group's position.
//
// Removal notices close the leave-confirmation gap at the protocol level: a
// config op that removes members retires the very instance that decided it,
// so a removed replica partitioned across the switch would otherwise wait
// forever on a dead instance (zombie member). After the switch, continuing
// members send the removed set a kSmrRemovalNotice carrying the new epoch,
// its chain hash and member list (retried on a short backoff); a removed
// node accepts once f+1 members of its own last-known config sent
// byte-identical notices — at least one is correct; a member's latest
// notice is its one vote — and fires the config handler as if it had
// decided the op itself. The scenario driver's
// announce/retry/timeout flow stays as the client-side fallback.
//
// The wrapper manages only the *local* replica's lifecycle. Creating
// replicas on newly added members (and state-syncing them) is the group
// layer's job — it learns about membership changes via the config handler.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "net/network.h"
#include "smr/dolev_strong.h"
#include "smr/pbft.h"
#include "smr/smr.h"

namespace atum::smr {

struct EngineOptions {
  EngineKind kind = EngineKind::kSync;
  DolevStrongOptions ds;
  PbftOptions pbft;
  // §6.1.3: a faulty node's replica takes part in nothing.
  bool silent = false;
};

// Position in the config-history hash chain; rides in the join snapshot so
// a joiner's ReconfigurableSmr resumes at the group's epoch instead of
// re-deriving epoch 0 from the member list.
struct EpochState {
  std::uint64_t epoch = 0;
  crypto::Digest hash{};
};

class ReconfigurableSmr {
 public:
  using ConfigFn = std::function<void(std::uint64_t epoch, const GroupConfig&)>;

  ReconfigurableSmr(net::SimNetwork& net, NodeId self, GroupConfig initial,
                    crypto::KeyStore& keys, EngineOptions options,
                    std::optional<EpochState> resume = std::nullopt);
  ~ReconfigurableSmr();

  // Proposes an application operation (totally ordered across epochs).
  void propose(Bytes op);
  // Proposes a membership change; decided like any op, then switches epoch.
  void propose_reconfig(GroupConfig new_config);

  void set_decide_handler(DecideFn fn) { decide_ = std::move(fn); }
  void set_config_handler(ConfigFn fn) { config_changed_ = std::move(fn); }

  // Runtime fault conversion: applies to the live engine immediately and to
  // every engine started for later epochs (scenario Byzantine primitives
  // convert correct nodes mid-run).
  void set_silent(bool silent);

  const GroupConfig& config() const { return config_; }
  std::uint64_t epoch() const { return epoch_; }
  // Head of the config-history hash chain (the current epoch's identity).
  const crypto::Digest& epoch_hash() const { return epoch_hash_; }
  // False once the local node has been reconfigured out of the group.
  bool active() const { return engine_ != nullptr; }
  void stop();

 private:
  void start_engine();
  void on_engine_decide(NodeId origin, const net::Payload& wrapped);
  void send_removal_notices(const std::vector<NodeId>& removed);
  void on_removal_notice(const net::Message& msg);

  net::SimNetwork& net_;
  NodeId self_;
  GroupConfig config_;
  crypto::KeyStore& keys_;
  EngineOptions options_;

  DecideFn decide_;
  ConfigFn config_changed_;

  std::unique_ptr<SmrEngine> engine_;
  // Dedicated transport for removal notices: it outlives engine swaps (the
  // notice targets exactly the nodes whose engines are gone) and its
  // registrations coexist with the engine's on the same node.
  net::Transport notice_transport_;
  std::uint64_t epoch_ = 0;
  crypto::Digest epoch_hash_{};
  std::uint64_t global_seq_ = 0;
  // Ops this node proposed that have not been decided yet; re-proposed on
  // epoch change so reconfiguration cannot silently drop them.
  std::vector<Bytes> unacked_;
  bool switching_ = false;
  // Members of the config that decided the pending switch; the removed set
  // (pre-switch minus post-switch) gets notices after the swap.
  std::vector<NodeId> pre_switch_members_;
  // Removal-notice retry timers (canceled in stop()).
  std::vector<sim::EventId> notice_timers_;
  // Each sender's latest notice digest; accepted at f+1 matching votes
  // from the last-known config.
  VoteRecord notice_votes_;
  bool stopped_ = false;
};

}  // namespace atum::smr
