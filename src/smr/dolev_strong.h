// Synchronous BFT SMR built from Dolev-Strong authenticated broadcast [32].
//
// Time is divided into lock-step rounds of fixed duration (1-1.5 s in the
// paper's experiments). Rounds are grouped into slots of (f+2) rounds:
//
//   round 0        every replica with pending ops signs and broadcasts them
//   rounds 1..f+1  relay: a value carrying r valid distinct signatures seen
//                  in round r is accepted and re-broadcast with one more
//                  signature (only the first f+1 relays matter)
//   end of slot    each replica holds the same accepted set; values are
//                  ordered deterministically (origin id, then payload
//                  digest) and decided
//
// With at most f = floor((g-1)/2) faults and a synchronous network, every
// correct replica accepts exactly the same set: if any correct replica
// accepts a value at round r <= f, its relay reaches everyone by r+1; a
// value first appearing at round f+1 must carry f+1 signatures, at least
// one from a correct replica that therefore relayed it earlier.
// Equivocation (two values from one origin in one slot) voids that origin's
// proposals for the slot, exactly like the classic reduction to ⊥.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "crypto/keys.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "smr/smr.h"

namespace atum::smr {

struct DolevStrongOptions {
  // Rounds count from simulated time 0 at every replica (the paper's Sync
  // deployment assumes synchronized clocks).
  DurationMicros round_duration = seconds(1.0);
  bool verify_signatures = true;  // off = trusted-crypto fast path for big sims
};

// Byzantine behavior knobs for experiments (§6.1.3): a faulty replica keeps
// heartbeating but otherwise stays silent, or equivocates.
enum class DsFaultMode {
  kCorrect,
  kSilent,       // participates in nothing
  kEquivocate,   // sends conflicting values to different peers in round 0
};

class DolevStrongSmr final : public SmrEngine {
 public:
  DolevStrongSmr(net::Transport transport, GroupConfig config, crypto::KeyStore& keys,
                 DolevStrongOptions options, DsFaultMode fault = DsFaultMode::kCorrect);
  ~DolevStrongSmr() override;

  void propose(Bytes op) override;
  void set_decide_handler(DecideFn fn) override;
  void stop() override;

  // fault_ is consulted at every send/propose/relay decision, so flipping
  // it on a live replica takes effect from the next protocol action.
  void set_silent(bool silent) override {
    fault_ = silent ? DsFaultMode::kSilent : DsFaultMode::kCorrect;
  }

  std::size_t max_faults() const { return sync_max_faults(config_.size()); }
  // Rounds per slot: f+1 relay rounds plus the initial broadcast round.
  std::size_t rounds_per_slot() const { return max_faults() + 2; }

  // Expected decide latency for an op proposed now (used by Fig 8 analysis).
  DurationMicros expected_slot_latency() const {
    return static_cast<DurationMicros>(rounds_per_slot()) * options_.round_duration;
  }

 private:
  struct PendingValue {
    NodeId origin;
    Bytes payload;
    // Distinct valid signers seen so far, with the signatures actually
    // received (relays must forward real signatures, never re-mint them).
    std::map<NodeId, crypto::Signature> sigs;
    bool relayed = false;
  };
  // Keyed by (origin, payload digest prefix) within the current slot.
  using ValueKey = std::pair<NodeId, std::uint64_t>;

  void on_message(const net::Message& msg);
  void on_round_boundary();
  void begin_slot();
  void finish_slot();
  void broadcast_value(const Bytes& payload, std::uint64_t slot);
  void relay(PendingValue& v, std::uint64_t slot);
  crypto::Digest value_digest(std::uint64_t slot, NodeId origin, const Bytes& payload) const;

  net::Transport transport_;
  GroupConfig config_;
  crypto::KeyStore& keys_;
  DolevStrongOptions options_;
  DsFaultMode fault_;
  DecideFn decide_;

  std::vector<Bytes> outbox_;            // ops waiting for the next slot
  std::uint64_t slot_ = 0;               // slot currently collecting values
  std::size_t round_in_slot_ = 0;
  std::map<ValueKey, PendingValue> slot_values_;
  std::set<NodeId> equivocators_;
  std::uint64_t decided_ = 0;
  sim::EventId round_event_ = 0;
  bool stopped_ = false;
};

}  // namespace atum::smr
