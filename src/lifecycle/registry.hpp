// lifecycle::BundleRegistry — bounded, pin-aware model-version store.
//
// The gateway keeps every deployable SessionModel here: a small fixed
// number of slots (an embedded collector cannot hoard every version ever
// pushed), an `active` version that new sessions and fleet-wide swaps
// target, and the previously active version kept addressable for
// rollback. Reclamation is by pin count: a slot's model is "pinned" while
// anything outside the registry still references it (live sessions hold
// the SessionModel by shared_ptr, so the pin count is simply the
// shared_ptr's external use count) — an evicted version can therefore
// never be one a session is still classifying with.
//
// Admission is deliberately strict and deterministic:
//   - a version already registered is refused (Duplicate) even with
//     identical content — re-pushing is a pusher-side bug worth surfacing;
//   - a version older than the active one is refused (Downgrade); going
//     back is what rollback() is for, on the version already vetted;
//   - a model whose window length, coefficient count or downsample factor
//     differs from the incumbent's is refused (BadGeometry) — sessions swap
//     classifiers at a beat boundary without re-windowing, and a selective
//     node's BEAT_SUMMARY carries the window already downsampled, so shapes
//     must match;
//   - at capacity the lowest-version unpinned slot that is neither active
//     nor the rollback target is evicted; if none qualifies the push is
//     refused (RegistryFull) rather than evicting something live.
//
// All operations are mutex-guarded and cold-path: the hot path holds
// SessionModel shared_ptrs and never touches the registry.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "service/session.hpp"

namespace hbrp::lifecycle {

struct RegistryConfig {
  /// Bounded version slots (>= 2 so active + one candidate always fit).
  std::size_t max_slots = 4;
};

enum class AdmitResult : std::uint8_t {
  Ok = 0,
  Duplicate,
  Downgrade,
  BadGeometry,
  RegistryFull,
};

const char* to_string(AdmitResult r);

class BundleRegistry {
 public:
  explicit BundleRegistry(RegistryConfig cfg = {});

  /// Registers a decoded, digest-verified model. On Ok the model occupies
  /// a slot but nothing is promoted — deployment is a separate decision.
  AdmitResult admit(std::shared_ptr<const service::SessionModel> model,
                    std::uint64_t digest);

  /// Makes `version` the active deployment target; the incumbent becomes
  /// the rollback target. False when the version is not registered.
  bool promote(std::uint64_t version);

  /// Reverts active to the previously active version (they swap, so a
  /// second rollback undoes the first). False when there is none.
  bool rollback();

  std::shared_ptr<const service::SessionModel> active() const;
  std::uint64_t active_version() const;
  std::shared_ptr<const service::SessionModel> find(
      std::uint64_t version) const;
  /// External (non-registry) references on a registered version's model —
  /// the pin count eviction honours. 0 when unknown or unpinned.
  std::size_t pins(std::uint64_t version) const;
  std::size_t size() const;
  std::size_t capacity() const { return cfg_.max_slots; }

 private:
  struct Slot {
    std::shared_ptr<const service::SessionModel> model;
    std::uint64_t digest = 0;
  };

  RegistryConfig cfg_;
  mutable std::mutex mutex_;
  std::vector<Slot> slots_;
  std::uint64_t active_ = 0;    // version; 0 = none
  std::uint64_t previous_ = 0;  // rollback target; 0 = none
};

}  // namespace hbrp::lifecycle
