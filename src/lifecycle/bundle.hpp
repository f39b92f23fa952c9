// lifecycle::ModelBundle — the versioned deployment artefact.
//
// A trained classifier is only half of what a fleet deploys: the drift
// tracker's centroid seeds are computed from the *same* training split and
// projections, and a session running model version N against seeds exported
// for version M silently corrupts novelty detection (the centroids live in
// the old matrix's RP space). The bundle closes that gap by packaging the
// TrainedClassifier, its RP matrix identity and its drift centroids/sigmas
// as one atomic unit under a monotonic `version` and a content digest.
//
// The bundle is the only model file format. Its encoded image is hardened
// against flash, filesystem and transport corruption: a version-bearing
// magic ("HBRPBN01"), an explicit payload size, a CRC32 over the payload
// verified before any length field is trusted, dimensions bounds-checked
// before any allocation, and atomic temp+rename saves. The same byte image
// is what streams over MODEL_PUSH_PART frames: `bundle_digest()` over the
// image is the end-to-end integrity check the gateway recomputes after
// reassembly, independent of the per-frame CRCs.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <vector>

#include "core/trainer.hpp"
#include "drift/tracker.hpp"
#include "service/session.hpp"

namespace hbrp::lifecycle {

struct ModelBundle {
  /// Monotonic deployment version; the registry refuses downgrades.
  std::uint64_t version = 1;
  core::TrainedClassifier model;
  /// Drift seeds exported with the model (empty `centroids.centroids`
  /// means the bundle ships no seeds and sessions run with drift off).
  drift::TrainingCentroids centroids;
  /// Deployment threshold for quantize(); negative = use alpha_train.
  double alpha_test = -1.0;
};

/// Serializes the bundle to its canonical byte image (magic + sizes + CRC
/// + payload) — the unit that is saved to disk and streamed over the wire.
std::vector<unsigned char> encode_bundle(const ModelBundle& bundle);

/// Parses an image produced by encode_bundle(). Throws hbrp::Error on bad
/// magic, bad CRC, truncation or any malformed/out-of-bounds field.
ModelBundle decode_bundle(std::span<const unsigned char> image);

/// FNV-1a 64-bit content digest over the full encoded image. Announced in
/// MODEL_PUSH and recomputed by the gateway over the reassembled parts.
std::uint64_t bundle_digest(std::span<const unsigned char> image);

/// Atomic save (temp + rename, parents created). Throws hbrp::Error.
void save_bundle(const ModelBundle& bundle, const std::filesystem::path& path);

/// Loads an image written by save_bundle(). Throws hbrp::Error.
ModelBundle load_bundle(const std::filesystem::path& path);

/// Quantizes the bundle into the runtime handle sessions actually hold:
/// the embedded classifier at alpha_test (or alpha_train when negative)
/// plus the shared centroid seeds (null when the bundle ships none).
/// Throws hbrp::Error when non-empty centroids disagree with the model's
/// coefficient count — the exact skew the bundle exists to prevent.
std::shared_ptr<const service::SessionModel> instantiate_bundle(
    const ModelBundle& bundle);

}  // namespace hbrp::lifecycle
