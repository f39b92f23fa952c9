#include "lifecycle/registry.hpp"

#include <algorithm>

#include "math/check.hpp"

namespace hbrp::lifecycle {

const char* to_string(AdmitResult r) {
  switch (r) {
    case AdmitResult::Ok: return "ok";
    case AdmitResult::Duplicate: return "duplicate-version";
    case AdmitResult::Downgrade: return "downgrade";
    case AdmitResult::BadGeometry: return "bad-geometry";
    case AdmitResult::RegistryFull: return "registry-full";
  }
  return "?";
}

BundleRegistry::BundleRegistry(RegistryConfig cfg) : cfg_(cfg) {
  HBRP_REQUIRE(cfg_.max_slots >= 2,
               "BundleRegistry: max_slots must be >= 2 (active + candidate)");
  slots_.reserve(cfg_.max_slots);
}

AdmitResult BundleRegistry::admit(
    std::shared_ptr<const service::SessionModel> model, std::uint64_t digest) {
  HBRP_REQUIRE(model != nullptr && model->version >= 1,
               "BundleRegistry: model must be non-null with version >= 1");
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Slot& s : slots_)
    if (s.model->version == model->version) return AdmitResult::Duplicate;
  const Slot* incumbent = nullptr;
  for (const Slot& s : slots_)
    if (s.model->version == active_) incumbent = &s;
  if (incumbent != nullptr) {
    if (model->version < active_) return AdmitResult::Downgrade;
    const auto& in = incumbent->model->classifier.projector();
    const auto& nu = model->classifier.projector();
    // The downsample factor too: a selective node uploads a flagged beat
    // as the window's averaged codes, and the gateway projects them with
    // whatever model the session runs by then.
    if (in.expected_window() != nu.expected_window() ||
        in.coefficients() != nu.coefficients() ||
        in.downsample_factor() != nu.downsample_factor())
      return AdmitResult::BadGeometry;
  }
  if (slots_.size() >= cfg_.max_slots) {
    // Evict the lowest-version slot that is unpinned (use_count == 1:
    // only the registry's own reference remains) and neither active nor
    // the rollback target.
    std::size_t victim = slots_.size();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const Slot& s = slots_[i];
      const std::uint64_t v = s.model->version;
      if (v == active_ || v == previous_ || s.model.use_count() != 1)
        continue;
      if (victim == slots_.size() ||
          v < slots_[victim].model->version)
        victim = i;
    }
    if (victim == slots_.size()) return AdmitResult::RegistryFull;
    slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(victim));
  }
  slots_.push_back(Slot{std::move(model), digest});
  return AdmitResult::Ok;
}

bool BundleRegistry::promote(std::uint64_t version) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::find_if(slots_.begin(), slots_.end(),
                               [&](const Slot& s) {
                                 return s.model->version == version;
                               });
  if (it == slots_.end()) return false;
  if (active_ != version) {
    previous_ = active_;
    active_ = version;
  }
  return true;
}

bool BundleRegistry::rollback() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (previous_ == 0) return false;
  std::swap(active_, previous_);
  return true;
}

std::shared_ptr<const service::SessionModel> BundleRegistry::active() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Slot& s : slots_)
    if (s.model->version == active_) return s.model;
  return nullptr;
}

std::uint64_t BundleRegistry::active_version() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return active_;
}

std::shared_ptr<const service::SessionModel> BundleRegistry::find(
    std::uint64_t version) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Slot& s : slots_)
    if (s.model->version == version) return s.model;
  return nullptr;
}

std::size_t BundleRegistry::pins(std::uint64_t version) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Slot& s : slots_)
    if (s.model->version == version)
      return static_cast<std::size_t>(
          std::max<long>(0, s.model.use_count() - 1));
  return 0;
}

std::size_t BundleRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

}  // namespace hbrp::lifecycle
