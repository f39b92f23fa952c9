#include "embedded/bundle.hpp"

#include <ostream>

#include "math/check.hpp"
#include "math/fixed.hpp"

namespace hbrp::embedded {

EmbeddedClassifier::EmbeddedClassifier(rp::BeatProjector projector,
                                       IntClassifier classifier,
                                       std::uint32_t alpha_q16)
    : projector_(std::move(projector)), classifier_(std::move(classifier)) {
  HBRP_REQUIRE(projector_.coefficients() == classifier_.coefficients(),
               "EmbeddedClassifier: projector/classifier coefficient "
               "count mismatch");
  set_alpha_q16(alpha_q16);
}

void EmbeddedClassifier::set_alpha_q16(std::uint32_t alpha_q16) {
  HBRP_REQUIRE(alpha_q16 <= math::kQ16One,
               "EmbeddedClassifier: alpha must be <= 1.0 in Q16");
  alpha_q16_ = alpha_q16;
}

ecg::BeatClass EmbeddedClassifier::classify_window(
    std::span<const dsp::Sample> window, ClassifyScratch& scratch) const {
  scratch.u.resize(projector_.coefficients());
  projector_.project_int_into(window, scratch.u, scratch.projection);
  return classifier_.classify(scratch.u, alpha_q16_);
}

ecg::BeatClass EmbeddedClassifier::classify_downsampled(
    std::span<const dsp::Sample> codes, ClassifyScratch& scratch) const {
  scratch.u.resize(projector_.coefficients());
  projector_.project_downsampled_into(codes, scratch.u);
  return classifier_.classify(scratch.u, alpha_q16_);
}

void EmbeddedClassifier::classify_batch(std::span<const dsp::Sample> windows,
                                        std::size_t count,
                                        std::span<ecg::BeatClass> out,
                                        ClassifyScratch& scratch) const {
  HBRP_REQUIRE(out.size() >= count,
               "EmbeddedClassifier::classify_batch(): output too small");
  const std::size_t k = projector_.coefficients();
  scratch.u.resize(count * k);
  projector_.project_int_batch(windows, count, scratch.u,
                               scratch.projection);
  classifier_.classify_batch(scratch.u, count, alpha_q16_, out,
                             scratch.fuzzify);
}

std::size_t EmbeddedClassifier::memory_bytes() const {
  return projector_.packed().memory_bytes() + classifier_.memory_bytes();
}

void EmbeddedClassifier::export_c_header(std::ostream& out,
                                         const char* symbol_prefix) const {
  const auto& dense = projector_.matrix();
  out << "/* Generated by hbrp: embedded RP neuro-fuzzy classifier. */\n";
  out << "#include <stdint.h>\n\n";
  out << "#define " << symbol_prefix << "_COEFFICIENTS "
      << projector_.coefficients() << "\n";
  out << "#define " << symbol_prefix << "_INPUT_SAMPLES "
      << dense.cols() << "\n";
  out << "#define " << symbol_prefix << "_DOWNSAMPLE "
      << projector_.downsample_factor() << "\n";
  out << "#define " << symbol_prefix << "_ALPHA_Q16 " << alpha_q16_ << "u\n\n";

  // The projector's stored 2-bit code, byte for byte: rp/packed_matrix.hpp
  // owns the format, so the firmware table cannot drift from it.
  out << "static const uint8_t " << symbol_prefix << "_projection[] = {";
  std::size_t emitted = 0;
  for (const std::uint8_t byte : projector_.packed().bytes()) {
    out << (emitted % 12 == 0 ? "\n  " : " ") << static_cast<unsigned>(byte)
        << ",";
    ++emitted;
  }
  out << "\n};\n\n";

  // MF tables: {center, S} for the linearized shape, {center, 2S} for the
  // triangular one, laid out [coefficient][class].
  const bool linear = classifier_.shape() == MfShape::Linearized;
  out << "/* MF shape: " << (linear ? "linearized" : "triangular")
      << "; entries laid out [coefficient][class N,V,L] */\n";
  out << "static const int32_t " << symbol_prefix << "_mf_center[] = {";
  for (std::size_t k = 0; k < classifier_.coefficients(); ++k) {
    out << "\n  ";
    for (std::size_t l = 0; l < ecg::kNumClasses; ++l) {
      const std::int32_t c = linear ? classifier_.linear_mf(k, l).center
                                    : classifier_.triangular_mf(k, l).center;
      out << c << ", ";
    }
  }
  out << "\n};\n\n";
  out << "static const uint32_t " << symbol_prefix << "_mf_width[] = {";
  for (std::size_t k = 0; k < classifier_.coefficients(); ++k) {
    out << "\n  ";
    for (std::size_t l = 0; l < ecg::kNumClasses; ++l) {
      const std::uint32_t w = linear
                                  ? classifier_.linear_mf(k, l).s
                                  : classifier_.triangular_mf(k, l).half_base;
      out << w << "u, ";
    }
  }
  out << "\n};\n";
}

}  // namespace hbrp::embedded
