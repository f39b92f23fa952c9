#include "lifecycle/bundle.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>

#include "math/check.hpp"
#include "math/crc32.hpp"
#include "math/endian.hpp"

namespace hbrp::lifecycle {

namespace {

// Image layout (all multi-byte fields little-endian via math/endian.hpp):
//   magic "HBRPBN01" (8 bytes)
//   u32 payload_size | u32 crc32(payload)
//   payload:
//     u64 version | double alpha_test
//     u32 rows | u32 cols | u32 downsample
//     rows*cols int8 matrix
//     rows*kNumClasses {double center, double sigma}
//     double alpha_train
//     u32 centroid_count
//     when centroid_count > 0:
//       u32 coefficients (must equal rows) | double scale
//       per centroid: double mass | double sigma | coefficients doubles
constexpr char kMagic[8] = {'H', 'B', 'R', 'P', 'B', 'N', '0', '1'};

// Sanity bounds far above any model this library trains (k <= 32, d <= 200)
// and any real centroid export (one centroid per beat class), but small
// enough that a corrupt header cannot demand gigabytes.
constexpr std::uint32_t kMaxRows = 4096;
constexpr std::uint32_t kMaxCols = 65536;
constexpr std::uint32_t kMaxDownsample = 4096;
constexpr std::uint32_t kMaxCentroids = 256;
constexpr std::size_t kMaxImageBytes = std::size_t{1} << 28;
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 2 * sizeof(std::uint32_t);

void append_payload(std::vector<unsigned char>& out,
                    const ModelBundle& bundle) {
  using math::append_le;
  const rp::TernaryMatrix& p = bundle.model.projector.matrix();
  const std::size_t k = bundle.model.nfc.coefficients();
  HBRP_REQUIRE(k == p.rows(), "bundle: inconsistent model");
  HBRP_REQUIRE(bundle.version >= 1, "bundle: version must be >= 1");
  append_le(out, bundle.version);
  append_le(out, bundle.alpha_test);
  append_le(out, static_cast<std::uint32_t>(p.rows()));
  append_le(out, static_cast<std::uint32_t>(p.cols()));
  append_le(out, static_cast<std::uint32_t>(
                     bundle.model.projector.downsample_factor()));
  for (std::size_t r = 0; r < p.rows(); ++r)
    for (std::size_t c = 0; c < p.cols(); ++c)
      append_le(out, static_cast<std::int8_t>(p.at(r, c)));
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t l = 0; l < ecg::kNumClasses; ++l) {
      const nfc::GaussianMF& m = bundle.model.nfc.mf(i, l);
      append_le(out, m.center);
      append_le(out, m.sigma);
    }
  append_le(out, bundle.model.alpha_train);
  const auto& seeds = bundle.centroids;
  append_le(out, static_cast<std::uint32_t>(seeds.centroids.size()));
  if (!seeds.centroids.empty()) {
    HBRP_REQUIRE(seeds.coefficients == k,
                 "bundle: centroid coefficients differ from the model");
    append_le(out, static_cast<std::uint32_t>(seeds.coefficients));
    append_le(out, seeds.scale);
    for (const auto& c : seeds.centroids) {
      HBRP_REQUIRE(c.mean.size() == seeds.coefficients,
                   "bundle: centroid dimension mismatch");
      append_le(out, c.mass);
      append_le(out, c.sigma);
      for (const double v : c.mean) append_le(out, v);
    }
  }
}

ModelBundle decode_payload(std::span<const unsigned char> payload) {
  math::ByteReader r(payload.data(), payload.size());
  HBRP_REQUIRE(payload.size() >= 8 + 8 + 3 * 4, "bundle: truncated payload");
  const auto version = r.get<std::uint64_t>();
  const double alpha_test = r.get<double>();
  const auto rows = r.get<std::uint32_t>();
  const auto cols = r.get<std::uint32_t>();
  const auto downsample = r.get<std::uint32_t>();
  HBRP_REQUIRE(version >= 1, "bundle: version must be >= 1");
  HBRP_REQUIRE(std::isfinite(alpha_test) || alpha_test < 0.0,
               "bundle: alpha_test not finite");
  HBRP_REQUIRE(alpha_test <= 1.0, "bundle: alpha_test out of range");
  HBRP_REQUIRE(rows >= 1 && rows <= kMaxRows && cols >= 1 &&
                   cols <= kMaxCols && downsample >= 1 &&
                   downsample <= kMaxDownsample,
               "bundle: malformed model header");
  const std::size_t model_bytes =
      static_cast<std::size_t>(rows) * cols +
      static_cast<std::size_t>(rows) * ecg::kNumClasses * 2 * sizeof(double) +
      sizeof(double) + sizeof(std::uint32_t);
  HBRP_REQUIRE(r.remaining() >= model_bytes, "bundle: truncated model");

  rp::TernaryMatrix p(rows, cols);
  for (std::size_t row = 0; row < rows; ++row)
    for (std::size_t c = 0; c < cols; ++c)
      p.set(row, c, r.get<std::int8_t>());  // set() validates {-1, 0, 1}

  nfc::NeuroFuzzyClassifier classifier(rows);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t l = 0; l < ecg::kNumClasses; ++l) {
      nfc::GaussianMF m;
      m.center = r.get<double>();
      m.sigma = r.get<double>();
      HBRP_REQUIRE(std::isfinite(m.center) && std::isfinite(m.sigma) &&
                       m.sigma > 0.0,
                   "bundle: invalid membership function");
      classifier.mf(i, l) = m;
    }
  const double alpha_train = r.get<double>();
  HBRP_REQUIRE(std::isfinite(alpha_train) && alpha_train >= 0.0 &&
                   alpha_train <= 1.0,
               "bundle: alpha_train out of range");

  ModelBundle bundle{version,
                     core::TrainedClassifier{
                         rp::BeatProjector(std::move(p), downsample),
                         std::move(classifier), alpha_train},
                     {},
                     alpha_test};

  const auto centroid_count = r.get<std::uint32_t>();
  HBRP_REQUIRE(centroid_count <= kMaxCentroids,
               "bundle: implausible centroid count");
  if (centroid_count > 0) {
    HBRP_REQUIRE(r.remaining() >= sizeof(std::uint32_t) + sizeof(double),
                 "bundle: truncated centroid header");
    const auto coefficients = r.get<std::uint32_t>();
    const double scale = r.get<double>();
    HBRP_REQUIRE(coefficients == rows,
                 "bundle: centroid coefficients differ from the model");
    HBRP_REQUIRE(std::isfinite(scale) && scale > 0.0,
                 "bundle: centroid scale out of range");
    const std::size_t per_centroid =
        2 * sizeof(double) + coefficients * sizeof(double);
    HBRP_REQUIRE(r.remaining() == centroid_count * per_centroid,
                 "bundle: centroid block size mismatch");
    bundle.centroids.coefficients = coefficients;
    bundle.centroids.scale = scale;
    bundle.centroids.centroids.resize(centroid_count);
    for (auto& c : bundle.centroids.centroids) {
      c.mass = r.get<double>();
      c.sigma = r.get<double>();
      HBRP_REQUIRE(std::isfinite(c.mass) && c.mass >= 0.0 &&
                       std::isfinite(c.sigma) && c.sigma >= 0.0,
                   "bundle: invalid centroid moments");
      c.mean.resize(coefficients);
      for (double& v : c.mean) {
        v = r.get<double>();
        HBRP_REQUIRE(std::isfinite(v), "bundle: non-finite centroid mean");
      }
    }
  }
  HBRP_REQUIRE(r.remaining() == 0, "bundle: trailing bytes in payload");
  return bundle;
}

}  // namespace

std::vector<unsigned char> encode_bundle(const ModelBundle& bundle) {
  std::vector<unsigned char> payload;
  append_payload(payload, bundle);
  std::vector<unsigned char> image(std::begin(kMagic), std::end(kMagic));
  image.reserve(kHeaderBytes + payload.size());
  math::append_le(image, static_cast<std::uint32_t>(payload.size()));
  math::append_le(image, math::crc32(payload.data(), payload.size()));
  image.insert(image.end(), payload.begin(), payload.end());
  return image;
}

ModelBundle decode_bundle(std::span<const unsigned char> image) {
  HBRP_REQUIRE(image.size() >= kHeaderBytes && image.size() <= kMaxImageBytes,
               "bundle: implausible image size");
  HBRP_REQUIRE(std::equal(kMagic, kMagic + sizeof(kMagic),
                          reinterpret_cast<const char*>(image.data())),
               "bundle: bad magic");
  const auto declared =
      math::load_le<std::uint32_t>(image.data() + sizeof(kMagic));
  const auto crc_stored =
      math::load_le<std::uint32_t>(image.data() + sizeof(kMagic) + 4);
  HBRP_REQUIRE(declared == image.size() - kHeaderBytes,
               "bundle: payload size mismatch");
  const std::span<const unsigned char> payload = image.subspan(kHeaderBytes);
  HBRP_REQUIRE(math::crc32(payload.data(), payload.size()) == crc_stored,
               "bundle: checksum mismatch");
  return decode_payload(payload);
}

std::uint64_t bundle_digest(std::span<const unsigned char> image) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64 offset basis
  for (const unsigned char b : image) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

void save_bundle(const ModelBundle& bundle,
                 const std::filesystem::path& path) {
  const std::vector<unsigned char> image = encode_bundle(bundle);
  if (path.has_parent_path())
    std::filesystem::create_directories(path.parent_path());
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    HBRP_REQUIRE(out.good(), "bundle: cannot open for write: " + tmp.string());
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
    out.flush();
    HBRP_REQUIRE(out.good(), "bundle: write failure: " + tmp.string());
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp);
    HBRP_REQUIRE(false,
                 "bundle: cannot publish " + path.string() + ": " +
                     ec.message());
  }
}

ModelBundle load_bundle(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  HBRP_REQUIRE(in.good(), "bundle: cannot open: " + path.string());
  std::error_code ec;
  const auto file_size = std::filesystem::file_size(path, ec);
  HBRP_REQUIRE(!ec, "bundle: cannot stat: " + path.string());
  HBRP_REQUIRE(file_size >= kHeaderBytes && file_size <= kMaxImageBytes,
               "bundle: implausible file size in " + path.string());
  std::vector<unsigned char> image(static_cast<std::size_t>(file_size));
  in.read(reinterpret_cast<char*>(image.data()),
          static_cast<std::streamsize>(image.size()));
  HBRP_REQUIRE(in.good(), "bundle: truncated read: " + path.string());
  return decode_bundle(image);
}

std::shared_ptr<const service::SessionModel> instantiate_bundle(
    const ModelBundle& bundle) {
  std::shared_ptr<const drift::TrainingCentroids> seeds;
  if (!bundle.centroids.centroids.empty()) {
    HBRP_REQUIRE(bundle.centroids.coefficients ==
                     bundle.model.nfc.coefficients(),
                 "bundle: centroid coefficients differ from the model");
    seeds = std::make_shared<const drift::TrainingCentroids>(bundle.centroids);
  }
  return std::make_shared<const service::SessionModel>(service::SessionModel{
      bundle.version,
      bundle.model.quantize(embedded::MfShape::Linearized, bundle.alpha_test),
      std::move(seeds)});
}

}  // namespace hbrp::lifecycle
