// Model lifecycle tests: ModelBundle encode/decode/digest and file
// hardening, BundleRegistry admission/eviction/rollback edges,
// deterministic A/B splits, FleetEngine hot-swap identity (the
// verdict stream splits at the swap boundary into an exact prefix of the
// old model's run and an exact suffix of the new model's run, for any
// thread/shard count), and the gateway MODEL_PUSH wire path mid-ingest —
// including every NACK leaving the active model and the live traffic
// untouched.
#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <new>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "core/trainer.hpp"
#include "ecg/dataset.hpp"
#include "ecg/synth.hpp"
#include "lifecycle/ab.hpp"
#include "lifecycle/bundle.hpp"
#include "lifecycle/registry.hpp"
#include "math/check.hpp"
#include "math/crc32.hpp"
#include "math/endian.hpp"
#include "math/rng.hpp"
#include "net/client.hpp"
#include "net/gateway.hpp"
#include "net/push.hpp"
#include "net/socket.hpp"
#include "service/fleet.hpp"

namespace {
// Largest single operator-new request made on this thread since the last
// reset: lets a test show that a hostile length field was rejected before
// it could size an allocation.
thread_local std::size_t tl_largest_new = 0;
}  // namespace

// Both out of line, so GCC never sees a malloc() from an inlined new meet
// an operator delete (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  tl_largest_new = std::max(tl_largest_new, n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

namespace fs = std::filesystem;
using namespace hbrp;
using Clock = std::chrono::steady_clock;

// --- cheap hand-built fixtures (no training) -------------------------------

core::TrainedClassifier make_model(std::uint64_t seed, std::size_t k = 8,
                                   std::size_t cols = 50,
                                   std::size_t downsample = 4) {
  math::Rng rng(seed);
  auto p = rp::make_achlioptas(k, cols, rng);
  nfc::NeuroFuzzyClassifier nfc(k);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t l = 0; l < 3; ++l)
      nfc.mf(i, l) = {rng.normal(0, 200), rng.uniform(5.0, 150.0)};
  return core::TrainedClassifier{rp::BeatProjector(std::move(p), downsample),
                                 std::move(nfc), rng.uniform(0.1, 0.5)};
}

drift::TrainingCentroids make_centroids(std::uint64_t seed,
                                        std::size_t k = 8,
                                        std::size_t count = 3) {
  math::Rng rng(seed);
  drift::TrainingCentroids tc;
  tc.coefficients = k;
  tc.scale = rng.uniform(50.0, 150.0);
  for (std::size_t c = 0; c < count; ++c) {
    drift::TrainingCentroids::Centroid ct;
    for (std::size_t i = 0; i < k; ++i) ct.mean.push_back(rng.normal(0, 300));
    ct.mass = rng.uniform(10.0, 500.0);
    ct.sigma = rng.uniform(20.0, 90.0);
    tc.centroids.push_back(std::move(ct));
  }
  return tc;
}

lifecycle::ModelBundle make_bundle(std::uint64_t version, std::uint64_t seed,
                                   bool with_centroids = true) {
  lifecycle::ModelBundle b{.version = version,
                           .model = make_model(seed),
                           .centroids = {},
                           .alpha_test = 0.25};
  if (with_centroids) b.centroids = make_centroids(seed + 1);
  return b;
}

std::shared_ptr<const service::SessionModel> make_session_model(
    std::uint64_t version, std::uint64_t seed, std::size_t k = 8,
    std::size_t cols = 50) {
  return std::make_shared<const service::SessionModel>(service::SessionModel{
      version, make_model(seed, k, cols).quantize(), nullptr});
}

fs::path temp_path(const char* tag) {
  return fs::temp_directory_path() /
         (std::string("hbrp_lifecycle_") + tag + "_" +
          std::to_string(::getpid()) + ".bin");
}

// --- bundle format ---------------------------------------------------------

TEST(LifecycleBundle, RoundTripPreservesEverything) {
  const lifecycle::ModelBundle b = make_bundle(7, 100);
  const auto image = lifecycle::encode_bundle(b);
  const lifecycle::ModelBundle back = lifecycle::decode_bundle(image);

  EXPECT_EQ(back.version, 7u);
  EXPECT_DOUBLE_EQ(back.alpha_test, b.alpha_test);
  EXPECT_EQ(back.model.projector.matrix(), b.model.projector.matrix());
  EXPECT_EQ(back.model.projector.downsample_factor(),
            b.model.projector.downsample_factor());
  EXPECT_DOUBLE_EQ(back.model.alpha_train, b.model.alpha_train);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t l = 0; l < 3; ++l) {
      EXPECT_DOUBLE_EQ(back.model.nfc.mf(i, l).center,
                       b.model.nfc.mf(i, l).center);
      EXPECT_DOUBLE_EQ(back.model.nfc.mf(i, l).sigma,
                       b.model.nfc.mf(i, l).sigma);
    }
  ASSERT_EQ(back.centroids.centroids.size(), b.centroids.centroids.size());
  EXPECT_EQ(back.centroids.coefficients, b.centroids.coefficients);
  EXPECT_DOUBLE_EQ(back.centroids.scale, b.centroids.scale);
  for (std::size_t c = 0; c < b.centroids.centroids.size(); ++c) {
    EXPECT_EQ(back.centroids.centroids[c].mean, b.centroids.centroids[c].mean);
    EXPECT_DOUBLE_EQ(back.centroids.centroids[c].mass,
                     b.centroids.centroids[c].mass);
    EXPECT_DOUBLE_EQ(back.centroids.centroids[c].sigma,
                     b.centroids.centroids[c].sigma);
  }
}

TEST(LifecycleBundle, SeedlessBundleRoundTrips) {
  const lifecycle::ModelBundle b = make_bundle(3, 200, /*with_centroids=*/false);
  const auto back = lifecycle::decode_bundle(lifecycle::encode_bundle(b));
  EXPECT_TRUE(back.centroids.centroids.empty());
  const auto model = lifecycle::instantiate_bundle(back);
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->version, 3u);
  EXPECT_EQ(model->centroids, nullptr) << "no seeds means drift stays off";
}

TEST(LifecycleBundle, DigestIsStableAndContentSensitive) {
  const lifecycle::ModelBundle b = make_bundle(4, 300);
  const auto image = lifecycle::encode_bundle(b);
  EXPECT_EQ(lifecycle::bundle_digest(image),
            lifecycle::bundle_digest(lifecycle::encode_bundle(b)));
  auto tampered = image;
  tampered[tampered.size() / 2] ^= 0x40u;
  EXPECT_NE(lifecycle::bundle_digest(tampered),
            lifecycle::bundle_digest(image));
}

TEST(LifecycleBundle, CorruptionAnywhereIsRejected) {
  const auto image = lifecycle::encode_bundle(make_bundle(5, 400));
  // Truncations at every boundary class (inside the magic, the size field,
  // the CRC and the payload), plus a single-bit flip at every byte: the
  // format has no unchecked padding.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, std::size_t{4}, std::size_t{7},
        std::size_t{8}, std::size_t{12}, std::size_t{15}, std::size_t{16},
        image.size() / 4, image.size() / 2, image.size() - 1}) {
    const std::span<const unsigned char> cut(image.data(), len);
    EXPECT_THROW((void)lifecycle::decode_bundle(cut), hbrp::Error)
        << "truncated to " << len;
  }
  for (std::size_t pos = 0; pos < image.size(); ++pos) {
    auto bad = image;
    bad[pos] ^= 0x01u;
    EXPECT_THROW((void)lifecycle::decode_bundle(bad), hbrp::Error)
        << "flip at byte " << pos;
  }

  // Inflated length fields behind a recomputed CRC — what a hostile
  // MODEL_PUSH can send — must be rejected before any of them sizes an
  // allocation: nothing larger than the image itself is ever requested.
  constexpr std::size_t kPayload = 16;  // magic, size, CRC
  constexpr std::size_t kRows = kPayload + 16;  // after version, alpha_test
  constexpr std::size_t kCols = kRows + 4;
  // After cols, downsample, the 8 x 50 matrix, 8 x 3 MFs and alpha_train.
  constexpr std::size_t centroid_count_at =
      kCols + 8 + 8 * 50 + 8 * 3 * 16 + 8;
  ASSERT_EQ(math::load_le<std::uint32_t>(image.data() + centroid_count_at),
            3u);
  const std::vector<std::vector<std::pair<std::size_t, std::uint32_t>>>
      inflations = {{{kRows, 0x00FFFFFFu}},
                    {{kCols, 0x00FFFFFFu}},
                    {{kRows, 4096u}, {kCols, 65536u}},  // inside the bounds
                    {{centroid_count_at, 0xFFFFFFFFu}},
                    {{centroid_count_at, 256u}}};
  for (const auto& patches : inflations) {
    auto bad = image;
    for (const auto& [at, value] : patches)
      math::store_le<std::uint32_t>(bad.data() + at, value);
    math::store_le<std::uint32_t>(
        bad.data() + 12, math::crc32(bad.data() + kPayload,
                                     bad.size() - kPayload));
    tl_largest_new = 0;
    EXPECT_THROW((void)lifecycle::decode_bundle(bad), hbrp::Error)
        << "inflated field at byte " << patches.front().first;
    EXPECT_LT(tl_largest_new, image.size())
        << "inflated field at byte " << patches.front().first
        << " sized an allocation";
  }
}

TEST(LifecycleBundle, SaveLoadIsAtomicAndSelfDescribing) {
  const auto path = temp_path("save");
  fs::path tmp = path;
  tmp += ".tmp";
  const lifecycle::ModelBundle b = make_bundle(9, 500);
  lifecycle::save_bundle(b, path);
  EXPECT_FALSE(fs::exists(tmp)) << "the temp sibling is renamed away";
  const auto back = lifecycle::load_bundle(path);
  EXPECT_EQ(back.version, 9u);
  EXPECT_EQ(back.model.projector.matrix(), b.model.projector.matrix());

  // A corrupt file at the destination is replaced whole, not patched.
  {
    std::ofstream junk(path, std::ios::binary | std::ios::trunc);
    junk << "junk";
  }
  EXPECT_THROW((void)lifecycle::load_bundle(path), hbrp::Error);
  lifecycle::save_bundle(b, path);
  EXPECT_FALSE(fs::exists(tmp));
  EXPECT_EQ(lifecycle::encode_bundle(lifecycle::load_bundle(path)),
            lifecycle::encode_bundle(b));
  fs::remove(path);
  EXPECT_THROW((void)lifecycle::load_bundle(path), hbrp::Error)
      << "a missing file must throw";
}

TEST(LifecycleBundle, InstantiateRejectsCentroidSkew) {
  lifecycle::ModelBundle b = make_bundle(2, 700);
  b.centroids = make_centroids(701, /*k=*/6);  // model has 8 coefficients
  EXPECT_THROW((void)lifecycle::instantiate_bundle(b), hbrp::Error)
      << "seeds from another RP space must never attach to this model";
}

// --- registry --------------------------------------------------------------

TEST(LifecycleRegistry, DuplicateVersionRefusedEvenWithNewContent) {
  lifecycle::BundleRegistry reg;
  EXPECT_EQ(reg.admit(make_session_model(5, 1), 11),
            lifecycle::AdmitResult::Ok);
  EXPECT_EQ(reg.admit(make_session_model(5, 2), 22),
            lifecycle::AdmitResult::Duplicate);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(LifecycleRegistry, DowngradeBelowActiveRefused) {
  lifecycle::BundleRegistry reg;
  ASSERT_EQ(reg.admit(make_session_model(5, 1), 0),
            lifecycle::AdmitResult::Ok);
  ASSERT_TRUE(reg.promote(5));
  EXPECT_EQ(reg.admit(make_session_model(3, 2), 0),
            lifecycle::AdmitResult::Downgrade);
  // With nothing active there is no downgrade notion: a fresh registry
  // takes any version.
  lifecycle::BundleRegistry fresh;
  EXPECT_EQ(fresh.admit(make_session_model(3, 2), 0),
            lifecycle::AdmitResult::Ok);
}

TEST(LifecycleRegistry, GeometryMismatchWithIncumbentRefused) {
  lifecycle::BundleRegistry reg;
  ASSERT_EQ(reg.admit(make_session_model(1, 1), 0),
            lifecycle::AdmitResult::Ok);
  ASSERT_TRUE(reg.promote(1));
  EXPECT_EQ(reg.admit(make_session_model(2, 2, /*k=*/6), 0),
            lifecycle::AdmitResult::BadGeometry);
  EXPECT_EQ(reg.admit(make_session_model(2, 2, /*k=*/8, /*cols=*/40), 0),
            lifecycle::AdmitResult::BadGeometry);
  // The same 200-sample window at half the downsample factor: a selective
  // node's averaged codes would no longer fit the model.
  const auto halved = std::make_shared<const service::SessionModel>(
      service::SessionModel{2, make_model(2, 8, 100, 2).quantize(), nullptr});
  ASSERT_EQ(halved->classifier.projector().expected_window(), 200u);
  EXPECT_EQ(reg.admit(halved, 0), lifecycle::AdmitResult::BadGeometry);
  EXPECT_EQ(reg.admit(make_session_model(2, 2), 0),
            lifecycle::AdmitResult::Ok);
}

TEST(LifecycleRegistry, PromoteRollbackAreInverses) {
  lifecycle::BundleRegistry reg;
  EXPECT_FALSE(reg.rollback()) << "nothing to roll back to yet";
  ASSERT_EQ(reg.admit(make_session_model(1, 1), 0),
            lifecycle::AdmitResult::Ok);
  ASSERT_TRUE(reg.promote(1));
  EXPECT_FALSE(reg.rollback()) << "no previously active version";
  ASSERT_EQ(reg.admit(make_session_model(2, 2), 0),
            lifecycle::AdmitResult::Ok);
  ASSERT_TRUE(reg.promote(2));
  EXPECT_EQ(reg.active_version(), 2u);
  ASSERT_TRUE(reg.rollback());
  EXPECT_EQ(reg.active_version(), 1u);
  ASSERT_TRUE(reg.rollback()) << "rollback swaps, so it is its own inverse";
  EXPECT_EQ(reg.active_version(), 2u);
  EXPECT_FALSE(reg.promote(99)) << "unknown versions cannot be promoted";
}

TEST(LifecycleRegistry, EvictionHonoursPinsActiveAndRollbackTarget) {
  lifecycle::BundleRegistry reg(lifecycle::RegistryConfig{3});
  ASSERT_EQ(reg.admit(make_session_model(1, 1), 0),
            lifecycle::AdmitResult::Ok);
  ASSERT_TRUE(reg.promote(1));
  ASSERT_EQ(reg.admit(make_session_model(2, 2), 0),
            lifecycle::AdmitResult::Ok);
  ASSERT_TRUE(reg.promote(2));  // active 2, rollback target 1
  ASSERT_EQ(reg.admit(make_session_model(3, 3), 0),
            lifecycle::AdmitResult::Ok);

  // Pin version 3 the way a live session would: by holding its model.
  std::shared_ptr<const service::SessionModel> pin = reg.find(3);
  ASSERT_NE(pin, nullptr);
  EXPECT_EQ(reg.pins(3), 1u);
  // v1 is the rollback target, v2 is active, v3 is pinned: nothing may go.
  EXPECT_EQ(reg.admit(make_session_model(4, 4), 0),
            lifecycle::AdmitResult::RegistryFull);

  pin.reset();
  EXPECT_EQ(reg.pins(3), 0u);
  EXPECT_EQ(reg.admit(make_session_model(4, 4), 0),
            lifecycle::AdmitResult::Ok)
      << "the unpinned non-active slot must be reclaimed";
  EXPECT_EQ(reg.find(3), nullptr) << "version 3 was the eviction victim";
  EXPECT_NE(reg.find(1), nullptr) << "the rollback target must survive";
}

TEST(LifecycleRegistry, PromoteWhilePinnedKeepsOldModelAddressable) {
  lifecycle::BundleRegistry reg;
  ASSERT_EQ(reg.admit(make_session_model(1, 1), 0),
            lifecycle::AdmitResult::Ok);
  ASSERT_TRUE(reg.promote(1));
  // Sessions still hold version 1 while the ward promotes version 2.
  std::shared_ptr<const service::SessionModel> pinned = reg.find(1);
  ASSERT_EQ(reg.admit(make_session_model(2, 2), 0),
            lifecycle::AdmitResult::Ok);
  EXPECT_TRUE(reg.promote(2));
  EXPECT_EQ(reg.active_version(), 2u);
  EXPECT_EQ(reg.pins(1), 1u);
  // The pinned incumbent remains addressable for the swap tail and for
  // rollback — promotion never invalidates it.
  EXPECT_EQ(reg.find(1), pinned);
  ASSERT_TRUE(reg.rollback());
  EXPECT_EQ(reg.active(), pinned);
}

// --- A/B split -------------------------------------------------------------

TEST(LifecycleAb, DeterministicSeededAndRoughlyBalanced) {
  const lifecycle::AbSplit split{1234, 50};
  std::size_t arm_b = 0;
  for (std::uint64_t node = 0; node < 1000; ++node) {
    const std::uint8_t a = split.arm(node);
    EXPECT_EQ(a, split.arm(node)) << "assignment must be a pure function";
    EXPECT_LE(a, 1);
    arm_b += a;
  }
  EXPECT_GT(arm_b, 350u);
  EXPECT_LT(arm_b, 650u);

  const lifecycle::AbSplit all_a{1234, 0};
  const lifecycle::AbSplit all_b{1234, 100};
  const lifecycle::AbSplit reseeded{99, 50};
  std::size_t moved = 0;
  for (std::uint64_t node = 0; node < 200; ++node) {
    EXPECT_EQ(all_a.arm(node), 0);
    EXPECT_EQ(all_b.arm(node), 1);
    moved += split.arm(node) != reseeded.arm(node) ? 1u : 0u;
  }
  EXPECT_GT(moved, 0u) << "the seed must actually permute the split";
}

// --- fleet hot-swap (trained models) ---------------------------------------

struct VerdictSig {
  std::uint64_t sequence;
  std::uint64_t r_peak;
  std::uint8_t beat_class;
  std::uint8_t quality;
  bool operator==(const VerdictSig&) const = default;
};

struct TaggedVerdict {
  VerdictSig sig;
  std::uint64_t model_version;
};

class LifecycleSwapTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ecg::DatasetBuilderConfig cfg;
    cfg.record_duration_s = 120.0;
    cfg.max_per_record_per_class = 20;
    cfg.seed = 191;
    ts1_ = new ecg::BeatDataset(ecg::build_dataset({150, 150, 150}, cfg));
    cfg.max_per_record_per_class = 80;
    cfg.seed = 192;
    const auto ts2 = ecg::build_dataset({1200, 120, 150}, cfg);
    core::TwoStepConfig tcfg;
    tcfg.ga.population = 4;
    tcfg.ga.generations = 2;
    tcfg.seed = 19;
    trained_a_ = new core::TrainedClassifier(
        core::TwoStepTrainer(*ts1_, ts2, tcfg).run());
    tcfg.seed = 29;  // an independently evolved projection matrix
    trained_b_ = new core::TrainedClassifier(
        core::TwoStepTrainer(*ts1_, ts2, tcfg).run());
    clf_a_ = new embedded::EmbeddedClassifier(trained_a_->quantize());
    clf_b_ = new embedded::EmbeddedClassifier(trained_b_->quantize());
    centroids_a_ = std::make_shared<const drift::TrainingCentroids>(
        core::compute_training_centroids(*clf_a_, *ts1_));
    centroids_b_ = std::make_shared<const drift::TrainingCentroids>(
        core::compute_training_centroids(*clf_b_, *ts1_));
  }
  static void TearDownTestSuite() {
    centroids_a_.reset();
    centroids_b_.reset();
    delete clf_a_;
    delete clf_b_;
    delete trained_a_;
    delete trained_b_;
    delete ts1_;
    clf_a_ = clf_b_ = nullptr;
    trained_a_ = trained_b_ = nullptr;
    ts1_ = nullptr;
  }

  static std::shared_ptr<const service::SessionModel> model_b(
      std::uint64_t version = 2) {
    return std::make_shared<const service::SessionModel>(
        service::SessionModel{version, *clf_b_, centroids_b_});
  }

  static ecg::BeatDataset* ts1_;
  static core::TrainedClassifier* trained_a_;
  static core::TrainedClassifier* trained_b_;
  static embedded::EmbeddedClassifier* clf_a_;
  static embedded::EmbeddedClassifier* clf_b_;
  static std::shared_ptr<const drift::TrainingCentroids> centroids_a_;
  static std::shared_ptr<const drift::TrainingCentroids> centroids_b_;
};

ecg::BeatDataset* LifecycleSwapTest::ts1_ = nullptr;
core::TrainedClassifier* LifecycleSwapTest::trained_a_ = nullptr;
core::TrainedClassifier* LifecycleSwapTest::trained_b_ = nullptr;
embedded::EmbeddedClassifier* LifecycleSwapTest::clf_a_ = nullptr;
embedded::EmbeddedClassifier* LifecycleSwapTest::clf_b_ = nullptr;
std::shared_ptr<const drift::TrainingCentroids>
    LifecycleSwapTest::centroids_a_;
std::shared_ptr<const drift::TrainingCentroids>
    LifecycleSwapTest::centroids_b_;

dsp::Signal patient_lead(std::uint64_t seed, double seconds) {
  ecg::SynthConfig cfg;
  cfg.profile = ecg::RecordProfile::PvcOccasional;
  cfg.duration_s = seconds;
  cfg.num_leads = 1;
  cfg.seed = seed;
  return ecg::generate_record(cfg).leads[0];
}

/// Direct ingest of a lead on one engine; returns tagged verdicts.
std::vector<TaggedVerdict> run_engine(
    const embedded::EmbeddedClassifier& classifier,
    std::span<const dsp::Sample> lead, std::size_t threads, std::size_t shards,
    const std::function<void(service::FleetEngine&, service::SessionId,
                             std::size_t)>& mid_hook = nullptr) {
  service::FleetConfig cfg;
  cfg.threads = threads;
  cfg.shards = shards;
  service::FleetEngine engine(classifier, cfg);
  std::vector<TaggedVerdict> out;
  const auto id =
      engine.open_session([&out](const service::SessionResult& r) {
        out.push_back(TaggedVerdict{
            VerdictSig{r.sequence, static_cast<std::uint64_t>(r.beat.r_peak),
                       static_cast<std::uint8_t>(r.beat.predicted),
                       static_cast<std::uint8_t>(r.beat.quality)},
            r.model_version});
      });
  EXPECT_TRUE(id.has_value());
  std::size_t off = 0;
  while (off < lead.size()) {
    const std::size_t n = std::min<std::size_t>(2048, lead.size() - off);
    off += engine.offer(*id, lead.subspan(off, n)).accepted;
    engine.pump();
    if (mid_hook) mid_hook(engine, *id, off);
  }
  engine.drain();
  EXPECT_TRUE(engine.close_session(*id));
  return out;
}

std::vector<VerdictSig> sigs(const std::vector<TaggedVerdict>& tagged) {
  std::vector<VerdictSig> out;
  out.reserve(tagged.size());
  for (const auto& t : tagged) out.push_back(t.sig);
  return out;
}

// The acceptance criterion, engine-level: the swapped run's verdicts split
// at the swap sequence into an exact prefix of the model-A run and an
// exact suffix of the model-B run — for any thread/shard count.
TEST_F(LifecycleSwapTest, SwapSplitsVerdictStreamExactly) {
  const auto lead = patient_lead(40, 25.0);
  const auto ref_a = run_engine(*clf_a_, lead, 1, 1);
  const auto ref_b = run_engine(*clf_b_, lead, 1, 1);
  ASSERT_FALSE(ref_a.empty());
  ASSERT_EQ(ref_a.size(), ref_b.size())
      << "detection is classifier-independent, so beat counts must agree";
  ASSERT_NE(sigs(ref_a), sigs(ref_b))
      << "the two models must be distinguishable for this test to bite";
  for (const auto& t : ref_a) EXPECT_EQ(t.model_version, 1u);

  const std::pair<std::size_t, std::size_t> combos[] = {{1, 1}, {2, 2}, {4, 2}};
  for (const auto& [threads, shards] : combos) {
    bool staged = false;
    const auto swapped = run_engine(
        *clf_a_, lead, threads, shards,
        [&staged, this](service::FleetEngine& engine, service::SessionId id,
                        std::size_t off) {
          if (!staged && off >= 2048 * 3) {
            EXPECT_TRUE(engine.stage_swap(id, model_b()));
            staged = true;
          }
        });
    ASSERT_EQ(swapped.size(), ref_a.size());
    // The swap point is the first verdict tagged with the new version.
    std::size_t split = swapped.size();
    for (std::size_t i = 0; i < swapped.size(); ++i) {
      if (swapped[i].model_version == 2u) {
        split = i;
        break;
      }
    }
    ASSERT_GT(split, 0u) << "swap must not predate the first beat";
    ASSERT_LT(split, swapped.size()) << "swap must land mid-stream";
    for (std::size_t i = 0; i < swapped.size(); ++i) {
      if (i < split) {
        EXPECT_EQ(swapped[i].sig, ref_a[i].sig)
            << "prefix diverged at " << i << " (threads " << threads << ")";
        EXPECT_EQ(swapped[i].model_version, 1u);
      } else {
        EXPECT_EQ(swapped[i].sig, ref_b[i].sig)
            << "suffix diverged at " << i << " (threads " << threads << ")";
        EXPECT_EQ(swapped[i].model_version, 2u);
      }
      EXPECT_EQ(swapped[i].sig.sequence, i) << "no gaps, no duplicates";
    }
  }
}

// close() is a beat boundary too: a swap staged after the last pump round
// lands before the tail is drained, so every tail verdict — queued samples
// and the monitor's flush alike — is classified by, and tagged with, the
// new model.
TEST_F(LifecycleSwapTest, SwapStagedAfterLastPumpClassifiesCloseTail) {
  const auto lead = patient_lead(43, 25.0);
  const auto ref_a = run_engine(*clf_a_, lead, 1, 1);
  const auto ref_b = run_engine(*clf_b_, lead, 1, 1);
  ASSERT_EQ(ref_a.size(), ref_b.size());

  service::FleetEngine engine(*clf_a_, {});
  std::vector<TaggedVerdict> out;
  const auto id =
      engine.open_session([&out](const service::SessionResult& r) {
        out.push_back(TaggedVerdict{
            VerdictSig{r.sequence, static_cast<std::uint64_t>(r.beat.r_peak),
                       static_cast<std::uint8_t>(r.beat.predicted),
                       static_cast<std::uint8_t>(r.beat.quality)},
            r.model_version});
      });
  ASSERT_TRUE(id.has_value());
  // The first half is pumped through; the second stays queued until close.
  const std::span<const dsp::Sample> all(lead);
  const std::size_t half = lead.size() / 2;
  for (std::size_t off = 0; off < half; off += 2048) {
    const std::size_t n = std::min<std::size_t>(2048, half - off);
    ASSERT_EQ(engine.offer(*id, all.subspan(off, n)).accepted, n);
    engine.pump();
  }
  engine.drain();
  ASSERT_EQ(engine.offer(*id, all.subspan(half)).accepted, lead.size() - half);
  const std::size_t pumped = out.size();
  ASSERT_GT(pumped, 0u);
  ASSERT_TRUE(engine.stage_swap(*id, model_b()));
  ASSERT_TRUE(engine.close_session(*id));

  ASSERT_EQ(out.size(), ref_a.size());
  std::size_t tail_differs = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const bool tail = i >= pumped;
    EXPECT_EQ(out[i].sig, tail ? ref_b[i].sig : ref_a[i].sig) << "beat " << i;
    EXPECT_EQ(out[i].model_version, tail ? 2u : 1u) << "beat " << i;
    tail_differs += tail && !(ref_a[i].sig == ref_b[i].sig) ? 1 : 0;
  }
  EXPECT_GT(tail_differs, 0u)
      << "the two models must disagree somewhere in the tail to bite";
}

TEST_F(LifecycleSwapTest, RestagingSameModelIsIdempotent) {
  const auto lead = patient_lead(41, 12.0);
  service::FleetEngine engine(*clf_a_, {});
  std::vector<TaggedVerdict> out;
  const auto id =
      engine.open_session([&out](const service::SessionResult& r) {
        out.push_back(TaggedVerdict{VerdictSig{}, r.model_version});
      });
  ASSERT_TRUE(id.has_value());
  const auto m = model_b();
  std::size_t off = 0;
  bool staged = false;
  while (off < lead.size()) {
    const std::size_t n = std::min<std::size_t>(2048, lead.size() - off);
    off += engine.offer(*id, std::span<const dsp::Sample>(lead).subspan(off, n))
               .accepted;
    engine.pump();
    if (!staged && off >= 2048 * 2) {
      EXPECT_TRUE(engine.stage_swap(*id, m));
      engine.pump();  // applies the swap
      EXPECT_TRUE(engine.stage_swap(*id, m));  // same model again
      staged = true;
    }
  }
  engine.drain();
  const service::SessionTelemetry* t = engine.session_telemetry(*id);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->swap_count.load(), 1u)
      << "re-staging the identical model must not count as a second swap";
  EXPECT_EQ(t->model_version.load(), 2u);
  EXPECT_EQ(engine.telemetry().swaps_staged.load(), 2u);
  EXPECT_EQ(engine.telemetry().swaps_applied.load(), 1u);
  EXPECT_TRUE(engine.close_session(*id));
}

// Satellite (a): the swap re-seeds the drift tracker from the NEW bundle's
// centroids — the old tracker state (built in the old RP space) is
// discarded, so the fresh beat count restarts below the old one.
TEST_F(LifecycleSwapTest, SwapReseedsDriftFromBundleCentroids) {
  const auto lead = patient_lead(42, 20.0);
  service::FleetConfig cfg;
  cfg.session.model = std::make_shared<const service::SessionModel>(
      service::SessionModel{cfg.initial_model_version, *clf_a_, centroids_a_});
  service::FleetEngine engine(*clf_a_, cfg);
  const auto id = engine.open_session([](const service::SessionResult&) {});
  ASSERT_TRUE(id.has_value());

  // Three quarters of the stream on the old seeds, one quarter on the new:
  // the fresh tracker's beat count must restart well below the old one.
  const std::size_t pre_swap = lead.size() * 3 / 4;
  std::size_t off = 0;
  while (off < pre_swap) {
    const std::size_t n = std::min<std::size_t>(2048, pre_swap - off);
    off += engine.offer(*id, std::span<const dsp::Sample>(lead).subspan(off, n))
               .accepted;
    engine.pump();
  }
  const service::SessionTelemetry* t = engine.session_telemetry(*id);
  ASSERT_NE(t, nullptr);
  const std::uint64_t beats_before = t->drift_beats.load();
  ASSERT_GT(beats_before, 4u) << "first half must classify some beats";

  ASSERT_TRUE(engine.stage_swap(*id, model_b()));
  engine.pump();  // applies the swap, re-seeding from centroids_b_
  while (off < lead.size()) {
    const std::size_t n = std::min<std::size_t>(2048, lead.size() - off);
    off += engine.offer(*id, std::span<const dsp::Sample>(lead).subspan(off, n))
               .accepted;
    engine.pump();
  }
  engine.drain();
  const std::uint64_t beats_after = t->drift_beats.load();
  EXPECT_LT(beats_after, beats_before)
      << "a fresh tracker seeded from the new bundle restarts its count";
  EXPECT_EQ(t->model_version.load(), 2u);
  EXPECT_EQ(t->swap_count.load(), 1u);
  EXPECT_TRUE(engine.close_session(*id));
}

// --- gateway wire path -----------------------------------------------------

std::vector<VerdictSig> direct_ingest(
    const embedded::EmbeddedClassifier& classifier,
    std::span<const dsp::Sample> codes) {
  service::FleetEngine engine(classifier, {});
  std::vector<VerdictSig> out;
  const auto id =
      engine.open_session([&out](const service::SessionResult& r) {
        out.push_back(VerdictSig{r.sequence,
                                 static_cast<std::uint64_t>(r.beat.r_peak),
                                 static_cast<std::uint8_t>(r.beat.predicted),
                                 static_cast<std::uint8_t>(r.beat.quality)});
      });
  EXPECT_TRUE(id.has_value());
  std::size_t off = 0;
  while (off < codes.size()) {
    const std::size_t n = std::min<std::size_t>(1024, codes.size() - off);
    off += engine.offer(*id, codes.subspan(off, n)).accepted;
    engine.pump();
  }
  engine.drain();
  EXPECT_TRUE(engine.close_session(*id));
  return out;
}

struct GatewayHarness {
  net::GatewayServer gw;
  std::thread thread;
  GatewayHarness(const embedded::EmbeddedClassifier& classifier,
                 net::GatewayConfig cfg)
      : gw(classifier, std::move(cfg)), thread([this] { gw.serve(); }) {}
  ~GatewayHarness() {
    gw.stop();
    thread.join();
  }
};

/// Splits a wire verdict stream against the two reference runs: everything
/// before the first divergence from ref_a must equal ref_a, everything
/// from it on must equal ref_b. Returns the split index.
std::size_t expect_split(const std::vector<VerdictSig>& got,
                         const std::vector<VerdictSig>& ref_a,
                         const std::vector<VerdictSig>& ref_b) {
  EXPECT_EQ(got.size(), ref_a.size()) << "dropped or duplicated verdicts";
  std::size_t split = got.size();
  for (std::size_t i = 0; i < got.size() && i < ref_a.size(); ++i) {
    if (!(got[i] == ref_a[i])) {
      split = i;
      break;
    }
  }
  for (std::size_t i = split; i < got.size() && i < ref_b.size(); ++i)
    EXPECT_EQ(got[i], ref_b[i]) << "suffix diverged from the new model at "
                                << i << " (split " << split << ")";
  return split;
}

// The acceptance criterion, wire-level: a MODEL_PUSH mid-ingest hot-swaps
// every targeted session at a beat boundary — each client's verdict stream
// is an exact prefix of the old model's run followed by an exact suffix of
// the new model's run, with zero drops or duplicates, for 1 and 2 reactors.
TEST_F(LifecycleSwapTest, GatewayPushMidIngestSwapsEverySession) {
  constexpr std::size_t kClients = 2;
  std::vector<dsp::Signal> leads;
  std::vector<std::vector<VerdictSig>> ref_a(kClients), ref_b(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    leads.push_back(patient_lead(60 + i, 20.0));
    ref_a[i] = direct_ingest(*clf_a_, leads[i]);
    ref_b[i] = direct_ingest(*clf_b_, leads[i]);
    ASSERT_FALSE(ref_a[i].empty());
    ASSERT_EQ(ref_a[i].size(), ref_b[i].size());
  }

  const lifecycle::ModelBundle bundle{
      .version = 2, .model = *trained_b_, .centroids = *centroids_b_};

  for (const std::size_t reactors : {std::size_t{1}, std::size_t{2}}) {
    net::GatewayConfig gcfg;
    gcfg.reactors = reactors;
    GatewayHarness harness(*clf_a_, gcfg);
    ASSERT_EQ(harness.gw.active_model_version(), 1u);

    std::atomic<std::size_t> at_barrier{0};
    std::atomic<bool> pushed{false};
    std::vector<std::vector<VerdictSig>> got(kClients);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        net::NodeConfig ncfg;
        ncfg.port = harness.gw.port();
        ncfg.node_id = static_cast<std::uint32_t>(i);
        ncfg.policy = net::TxPolicy::StreamEverything;
        net::SensorNodeClient client(*clf_a_, ncfg);
        client.set_verdict_sink(
            [&got, i](std::uint64_t seq, const net::BeatVerdictMsg& v) {
              got[i].push_back(
                  VerdictSig{seq, v.r_peak, v.beat_class, v.quality});
            });
        const std::span<const dsp::Sample> lead(leads[i]);
        // Rendezvous: hold the stream mid-ingest until the push lands so
        // the swap provably targets live sessions with traffic in flight —
        // the session must exist and have delivered verdicts on the OLD
        // model before the push, else it would simply open on the new one.
        // Feed a second at a time past the halfway mark until the first
        // verdict lands (detector warm-up is signal-dependent).
        std::size_t fed = lead.size() / 2;
        client.push(lead.first(fed));
        while (got[i].empty() && fed < lead.size()) {
          const std::size_t step =
              std::min<std::size_t>(360, lead.size() - fed);
          client.push(lead.subspan(fed, step));
          fed += step;
          for (int s = 0; s < 50 && got[i].empty(); ++s) client.poll_once(5);
        }
        EXPECT_FALSE(got[i].empty()) << "client " << i;
        at_barrier.fetch_add(1);
        while (!pushed.load()) {
          client.poll_once(5);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        client.push(lead.subspan(fed));
        client.finish();
        EXPECT_TRUE(client.drain(30000)) << "client " << i;
        client.close(5000);
      });
    }
    while (at_barrier.load() < kClients)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const net::PushResult push =
        net::push_bundle(harness.gw.port(), bundle);
    EXPECT_TRUE(push.delivered) << push.error;
    EXPECT_EQ(push.status, net::ModelPushStatus::Ok);
    EXPECT_EQ(push.version, 2u);
    pushed.store(true);
    for (auto& t : threads) t.join();

    EXPECT_EQ(harness.gw.active_model_version(), 2u);
    EXPECT_EQ(harness.gw.stats().model_pushes_ok.load(), 1u);
    EXPECT_EQ(harness.gw.engine().telemetry().swaps_applied.load(),
              kClients)
        << "every live session must apply the swap";
    for (std::size_t i = 0; i < kClients; ++i) {
      const std::size_t split = expect_split(got[i], ref_a[i], ref_b[i]);
      EXPECT_LT(split, got[i].size())
          << "client " << i << ": the swap must land before the stream ends"
          << " (reactors " << reactors << ")";
      for (std::size_t j = 0; j < got[i].size(); ++j)
        EXPECT_EQ(got[i][j].sequence, j);
    }
  }
}

// A selective node uploads each flagged beat as a BEAT_SUMMARY of averaged
// codes, and the gateway classifies them with the model the session runs
// at that moment — here bundle B, pushed before the node connects, whose
// projection matrix differs from the node's model A. Every summary's
// verdict must equal B's classify_window on the beat's full window.
TEST_F(LifecycleSwapTest, SummaryVerdictsFollowThePushedModel) {
  const rp::BeatProjector& pa = clf_a_->projector();
  const rp::BeatProjector& pb = clf_b_->projector();
  ASSERT_EQ(pa.expected_window(), pb.expected_window());
  ASSERT_EQ(pa.downsample_factor(), pb.downsample_factor());
  bool projections_differ = false;
  for (std::size_t r = 0; r < pa.coefficients(); ++r)
    for (std::size_t c = 0; c < pa.downsampled_window(); ++c)
      projections_differ |= pa.matrix().at(r, c) != pb.matrix().at(r, c);
  ASSERT_TRUE(projections_differ);

  // The beats the node uploads (flagged under A), with what each model
  // makes of the full window, by R peak.
  const dsp::Signal lead = patient_lead(77, 60.0);
  std::map<std::uint64_t, std::pair<std::uint8_t, std::uint8_t>> want;
  {
    core::StreamingBeatMonitor monitor(*clf_a_);
    embedded::ClassifyScratch scratch;
    const core::PendingBeatSink sink = [&](const core::PendingBeat& p) {
      if (p.window.empty()) return;
      const ecg::BeatClass a = clf_a_->classify_window(p.window, scratch);
      if (!ecg::is_pathological(a)) return;
      const ecg::BeatClass b = clf_b_->classify_window(p.window, scratch);
      want[p.beat.r_peak] = {static_cast<std::uint8_t>(a),
                             static_cast<std::uint8_t>(b)};
    };
    monitor.push_block(lead, sink);
    monitor.flush(sink);
  }
  ASSERT_GT(want.size(), 5u);
  // The two models must call some of these beats differently, or the
  // check below could not tell which one the gateway used.
  EXPECT_GT(std::count_if(want.begin(), want.end(),
                          [](const auto& w) {
                            return w.second.first != w.second.second;
                          }),
            0);

  for (const bool push : {false, true}) {
    GatewayHarness harness(*clf_a_, {});
    if (push) {
      const lifecycle::ModelBundle bundle{
          .version = 2, .model = *trained_b_, .centroids = {}};
      const net::PushResult r = net::push_bundle(harness.gw.port(), bundle);
      ASSERT_TRUE(r.delivered) << r.error;
      ASSERT_EQ(r.status, net::ModelPushStatus::Ok);
    }
    net::NodeConfig ncfg;
    ncfg.port = harness.gw.port();
    ncfg.policy = net::TxPolicy::Selective;
    net::SensorNodeClient client(*clf_a_, ncfg);
    std::map<std::uint64_t, std::uint8_t> got;
    client.set_verdict_sink(
        [&got](std::uint64_t, const net::BeatVerdictMsg& v) {
          got[v.r_peak] = v.beat_class;
        });
    client.push(std::span<const dsp::Sample>(lead));
    client.finish();
    EXPECT_TRUE(client.drain(20000));
    client.close(5000);
    EXPECT_EQ(client.stats().beats_summarized, want.size());
    EXPECT_EQ(harness.gw.stats().beat_summaries_rx.load(), want.size());
    for (const auto& [r_peak, classes] : want) {
      const auto it = got.find(r_peak);
      ASSERT_NE(it, got.end()) << "beat at " << r_peak;
      EXPECT_EQ(it->second, push ? classes.second : classes.first)
          << "beat at " << r_peak << (push ? " under B" : " under A");
    }
  }
}

/// Minimal hand-rolled pusher that can announce a digest of our choosing —
/// the one NACK (BadDigest) an honest client can never produce.
net::PushResult raw_push(std::uint16_t port, const net::ModelPushMsg& m,
                         std::span<const unsigned char> image,
                         std::size_t chunk) {
  net::PushResult res;
  res.version = m.version;
  net::Socket sock = net::connect_loopback(port);
  if (!sock.valid()) {
    res.error = "connect failed";
    return res;
  }
  pollfd p{};
  p.fd = sock.fd();
  p.events = POLLOUT;
  if (::poll(&p, 1, 5000) <= 0 || !net::connect_finished(sock.fd())) {
    res.error = "connect failed";
    return res;
  }
  std::vector<unsigned char> out;
  net::append_frame(out, net::FrameType::ModelPush, 0,
                    net::encode_model_push(m));
  for (std::size_t i = 0; i * chunk < image.size(); ++i)
    net::append_frame(
        out, net::FrameType::ModelPushPart, i,
        image.subspan(i * chunk,
                      std::min(chunk, image.size() - i * chunk)));
  std::size_t head = 0;
  net::FrameParser parser;
  unsigned char buf[8192];
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < deadline) {
    p.events = static_cast<short>(POLLIN | (head < out.size() ? POLLOUT : 0));
    (void)::poll(&p, 1, 20);
    if (head < out.size()) {
      const net::IoResult w = net::send_some(
          sock.fd(), std::span<const unsigned char>(out).subspan(head));
      if (w.error) {
        res.error = "send failed";
        return res;
      }
      head += w.n;
    }
    const net::IoResult r = net::recv_some(sock.fd(), buf);
    if (r.n > 0) {
      if (!parser.feed(std::span<const unsigned char>(buf, r.n))) {
        res.error = "corrupt ack";
        return res;
      }
      net::FrameView f;
      while (parser.next(f) == net::FrameParser::Status::Ok) {
        if (f.type != net::FrameType::ModelAck) continue;
        const auto ack = net::decode_model_ack(f.payload);
        if (!ack.has_value()) {
          res.error = "bad ack";
          return res;
        }
        res.delivered = true;
        res.status = ack->status;
        res.version = ack->version;
        return res;
      }
    } else if (r.eof || r.error) {
      res.error = "closed before ack";
      return res;
    }
  }
  res.error = "timeout";
  return res;
}

// Satellite (c) over the wire: every refused push is NACKed with the right
// reason, the active model never moves, and a client streaming through the
// whole barrage gets the bit-identical old-model verdict stream.
TEST_F(LifecycleSwapTest, NackedPushesLeaveModelAndTrafficUntouched) {
  const auto lead = patient_lead(70, 18.0);
  const auto ref_a = direct_ingest(*clf_a_, lead);
  ASSERT_FALSE(ref_a.empty());

  net::GatewayConfig gcfg;
  gcfg.reactors = 1;
  GatewayHarness harness(*clf_a_, gcfg);
  const std::uint16_t port = harness.gw.port();

  std::vector<VerdictSig> got;
  std::atomic<bool> half_done{false};
  std::atomic<bool> pushes_done{false};
  std::thread client_thread([&] {
    net::NodeConfig ncfg;
    ncfg.port = port;
    ncfg.policy = net::TxPolicy::StreamEverything;
    net::SensorNodeClient client(*clf_a_, ncfg);
    client.set_verdict_sink(
        [&got](std::uint64_t seq, const net::BeatVerdictMsg& v) {
          got.push_back(VerdictSig{seq, v.r_peak, v.beat_class, v.quality});
        });
    const std::span<const dsp::Sample> span(lead);
    // Feed at least half, then keep feeding a second at a time until the
    // gateway has delivered a verdict — the NACK barrage below must hit a
    // session that is provably live with traffic in flight.
    std::size_t fed = span.size() / 2;
    client.push(span.first(fed));
    while (got.empty() && fed < span.size()) {
      const std::size_t step = std::min<std::size_t>(360, span.size() - fed);
      client.push(span.subspan(fed, step));
      fed += step;
      for (int i = 0; i < 50 && got.empty(); ++i) client.poll_once(5);
    }
    EXPECT_FALSE(got.empty());
    half_done.store(true);
    while (!pushes_done.load()) {
      client.poll_once(5);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    client.push(span.subspan(fed));
    client.finish();
    EXPECT_TRUE(client.drain(30000));
    client.close(5000);
  });
  while (!half_done.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // (1) Duplicate: version 1 is the seeded incumbent.
  const lifecycle::ModelBundle dup{
      .version = 1, .model = *trained_b_, .centroids = {}};
  auto r = net::push_bundle(port, dup);
  EXPECT_TRUE(r.delivered) << r.error;
  EXPECT_EQ(r.status, net::ModelPushStatus::Duplicate);

  // (2) Malformed: valid framing, garbage bundle image (digest matches,
  // decode must throw).
  std::vector<unsigned char> garbage(4096, 0x5Au);
  r = net::push_image(port, 6, garbage);
  EXPECT_TRUE(r.delivered) << r.error;
  EXPECT_EQ(r.status, net::ModelPushStatus::Malformed);

  // (3) Malformed: a real bundle with one payload byte flipped — the
  // announced digest is recomputed over the tampered image, so it passes
  // the digest check and must die on the bundle's own CRC.
  const lifecycle::ModelBundle v3{
      .version = 3, .model = *trained_b_, .centroids = {}};
  auto tampered = lifecycle::encode_bundle(v3);
  tampered[tampered.size() - 9] ^= 0x10u;
  r = net::push_image(port, 3, tampered);
  EXPECT_TRUE(r.delivered) << r.error;
  EXPECT_EQ(r.status, net::ModelPushStatus::Malformed);

  // (4) BadGeometry: a well-formed bundle whose projector shape does not
  // match the incumbent's.
  const lifecycle::ModelBundle odd{
      .version = 4,
      .model = make_model(900, /*k=*/6, /*cols=*/30),
      .centroids = {}};
  ASSERT_NE(odd.model.projector.expected_window(),
            trained_a_->projector.expected_window());
  r = net::push_bundle(port, odd);
  EXPECT_TRUE(r.delivered) << r.error;
  EXPECT_EQ(r.status, net::ModelPushStatus::BadGeometry);

  // (5) BadDigest: announce a digest that does not match the bytes.
  const auto good = lifecycle::encode_bundle(v3);
  net::ModelPushMsg lie;
  lie.version = 3;
  lie.total_bytes = good.size();
  lie.digest = lifecycle::bundle_digest(good) ^ 0xDEADBEEFull;
  lie.chunk_bytes = 8192;
  lie.part_count =
      static_cast<std::uint32_t>((good.size() + 8191) / 8192);
  r = raw_push(port, lie, good, 8192);
  EXPECT_TRUE(r.delivered) << r.error;
  EXPECT_EQ(r.status, net::ModelPushStatus::BadDigest);

  // (6) TooLarge: an announce whose size exceeds the bundle cap is NACKed
  // before any part is accepted.
  net::ModelPushMsg huge;
  huge.version = 5;
  huge.total_bytes = net::kMaxBundleBytes + 1;
  huge.digest = 1;
  huge.chunk_bytes = 8192;
  huge.part_count = 4096;
  r = raw_push(port, huge, {}, 8192);
  EXPECT_TRUE(r.delivered) << r.error;
  EXPECT_EQ(r.status, net::ModelPushStatus::TooLarge);

  EXPECT_EQ(harness.gw.active_model_version(), 1u)
      << "six refused pushes must not move the active model";
  EXPECT_EQ(harness.gw.stats().model_push_nacks.load(), 6u);
  EXPECT_EQ(harness.gw.stats().model_pushes_ok.load(), 0u);
  EXPECT_EQ(harness.gw.engine().telemetry().swaps_staged.load(), 0u);

  pushes_done.store(true);
  client_thread.join();
  EXPECT_EQ(got, ref_a) << "traffic through the barrage must be "
                           "bit-identical to the old model's run";
}

// Satellite (c): downgrade refusal and rollback after a deployment, over
// the wire. Registry-full behavior with every slot protected.
TEST_F(LifecycleSwapTest, DowngradeRollbackAndRegistryFullOverWire) {
  net::GatewayConfig gcfg;
  gcfg.reactors = 1;
  gcfg.registry.max_slots = 2;  // initial + exactly one more
  GatewayHarness harness(*clf_a_, gcfg);
  const std::uint16_t port = harness.gw.port();

  const lifecycle::ModelBundle v10{
      .version = 10, .model = *trained_b_, .centroids = *centroids_b_};
  auto r = net::push_bundle(port, v10);
  ASSERT_TRUE(r.delivered) << r.error;
  ASSERT_EQ(r.status, net::ModelPushStatus::Ok);
  EXPECT_EQ(harness.gw.active_model_version(), 10u);

  // Downgrade: older than the new incumbent.
  const lifecycle::ModelBundle v7{
      .version = 7, .model = *trained_b_, .centroids = {}};
  r = net::push_bundle(port, v7);
  EXPECT_TRUE(r.delivered) << r.error;
  EXPECT_EQ(r.status, net::ModelPushStatus::Downgrade);

  // RegistryFull: both slots are now active (10) and rollback target (1).
  const lifecycle::ModelBundle v11{
      .version = 11, .model = *trained_b_, .centroids = {}};
  r = net::push_bundle(port, v11);
  EXPECT_TRUE(r.delivered) << r.error;
  EXPECT_EQ(r.status, net::ModelPushStatus::RegistryFull);

  // Rollback after the deployment: back to version 1, staged fleet-wide.
  EXPECT_TRUE(harness.gw.rollback_model());
  EXPECT_EQ(harness.gw.active_model_version(), 1u);
  // Rollback swaps active and previous, so a second one re-deploys v10.
  EXPECT_TRUE(harness.gw.rollback_model());
  EXPECT_EQ(harness.gw.active_model_version(), 10u);
}

// A/B: with a split enabled, an accepted push deploys to arm B only; arm A
// sessions keep the incumbent verdict stream while arm B swaps — and
// promote_candidate() graduates it fleet-wide.
TEST_F(LifecycleSwapTest, AbSplitDeploysCandidateToArmBOnly) {
  // Pick two node ids on opposite arms of the default split.
  lifecycle::AbSplit split;
  split.percent_b = 50;
  std::uint32_t node_a = 0, node_b = 0;
  bool have_a = false, have_b = false;
  for (std::uint32_t n = 0; n < 64 && !(have_a && have_b); ++n) {
    if (split.arm(n) == 0 && !have_a) {
      node_a = n;
      have_a = true;
    } else if (split.arm(n) == 1 && !have_b) {
      node_b = n;
      have_b = true;
    }
  }
  ASSERT_TRUE(have_a && have_b);

  const auto lead = patient_lead(80, 16.0);
  const auto ref_a = direct_ingest(*clf_a_, lead);
  const auto ref_b = direct_ingest(*clf_b_, lead);
  ASSERT_FALSE(ref_a.empty());

  net::GatewayConfig gcfg;
  gcfg.reactors = 1;
  GatewayHarness harness(*clf_a_, gcfg);
  harness.gw.enable_ab(split);
  ASSERT_TRUE(harness.gw.ab_enabled());

  const lifecycle::ModelBundle bundle{
      .version = 2, .model = *trained_b_, .centroids = *centroids_b_};

  std::atomic<std::size_t> at_barrier{0};
  std::atomic<bool> pushed{false};
  std::vector<std::vector<VerdictSig>> got(2);
  std::vector<std::thread> threads;
  const std::uint32_t nodes[2] = {node_a, node_b};
  for (std::size_t i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      net::NodeConfig ncfg;
      ncfg.port = harness.gw.port();
      ncfg.node_id = nodes[i];
      ncfg.policy = net::TxPolicy::StreamEverything;
      net::SensorNodeClient client(*clf_a_, ncfg);
      client.set_verdict_sink(
          [&got, i](std::uint64_t seq, const net::BeatVerdictMsg& v) {
            got[i].push_back(
                VerdictSig{seq, v.r_peak, v.beat_class, v.quality});
          });
      const std::span<const dsp::Sample> span(lead);
      // Session must be live on its arm's model before the candidate push
      // (see the mid-ingest test for why); feed until the first verdict.
      std::size_t fed = span.size() / 2;
      client.push(span.first(fed));
      while (got[i].empty() && fed < span.size()) {
        const std::size_t step = std::min<std::size_t>(360, span.size() - fed);
        client.push(span.subspan(fed, step));
        fed += step;
        for (int s = 0; s < 50 && got[i].empty(); ++s) client.poll_once(5);
      }
      EXPECT_FALSE(got[i].empty()) << "client " << i;
      at_barrier.fetch_add(1);
      while (!pushed.load()) {
        client.poll_once(5);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      client.push(span.subspan(fed));
      client.finish();
      EXPECT_TRUE(client.drain(30000));
      client.close(5000);
    });
  }
  while (at_barrier.load() < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const auto push = net::push_bundle(harness.gw.port(), bundle);
  EXPECT_TRUE(push.delivered) << push.error;
  EXPECT_EQ(push.status, net::ModelPushStatus::Ok);
  pushed.store(true);
  for (auto& t : threads) t.join();

  // Candidate deployments do not move the fleet-wide active version.
  EXPECT_EQ(harness.gw.active_model_version(), 1u);
  EXPECT_EQ(harness.gw.stats().ab_sessions_a.load(), 1u);
  EXPECT_EQ(harness.gw.stats().ab_sessions_b.load(), 1u);
  // Arm A never swaps: its stream is the incumbent's, end to end.
  EXPECT_EQ(got[0], ref_a) << "arm A must be untouched";
  // Arm B splits from the incumbent onto the candidate mid-stream.
  const std::size_t split_at = expect_split(got[1], ref_a, ref_b);
  EXPECT_LT(split_at, got[1].size()) << "arm B must actually swap";

  // Graduation: the candidate becomes the fleet-wide active version.
  EXPECT_TRUE(harness.gw.promote_candidate());
  EXPECT_EQ(harness.gw.active_model_version(), 2u);
  EXPECT_FALSE(harness.gw.promote_candidate())
      << "nothing left to graduate";
}

// A bundle may carry up to 256 drift seeds (the decoder's cap), and a
// tracker takes any number of them. Pushes of 16 and then 256 seeds onto a
// live streaming session must each be ACKed Ok and swap the session at a
// beat boundary, its verdict stream staying dense and complete; a session
// HELLOing afterwards opens on the 256-seed model with drift on. The
// gateway is stepped with poll_once() on this thread, so an exception
// thrown inside a pump fails this test rather than a reactor thread.
TEST_F(LifecycleSwapTest, PushWithManyDriftSeedsSwapsLiveSession) {
  const auto lead = patient_lead(90, 30.0);
  const std::span<const dsp::Sample> span(lead);
  const std::size_t expected = direct_ingest(*clf_a_, lead).size();
  ASSERT_GT(expected, 0u);

  net::GatewayConfig gcfg;
  gcfg.reactors = 1;
  net::GatewayServer gw(*clf_a_, gcfg);
  const service::FleetEngine& engine = gw.engine();

  net::NodeConfig ncfg;
  ncfg.port = gw.port();
  ncfg.policy = net::TxPolicy::StreamEverything;
  net::SensorNodeClient client(*clf_a_, ncfg);
  std::vector<std::uint64_t> seqs;
  client.set_verdict_sink(
      [&seqs](std::uint64_t seq, const net::BeatVerdictMsg&) {
        seqs.push_back(seq);
      });

  const auto step = [&gw](net::SensorNodeClient& node) {
    gw.poll_once(1);
    node.poll_once(0);
  };
  // Steps the gateway and `node` until `done` holds (false after 10 s).
  const auto step_until = [&step](net::SensorNodeClient& node,
                                  const std::function<bool()>& done) {
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (!done()) {
      if (Clock::now() >= deadline) return false;
      step(node);
    }
    return true;
  };
  // Feeds `client` a second of the lead at a time until `done` holds,
  // then keeps stepping (up to 10 s) if the lead ran out first.
  std::size_t fed = 0;
  const auto feed_until = [&](const std::function<bool()>& done) {
    while (!done() && fed < span.size()) {
      const std::size_t n = std::min<std::size_t>(360, span.size() - fed);
      client.push(span.subspan(fed, n));
      fed += n;
      for (int i = 0; i < 20 && !done(); ++i) step(client);
    }
    return step_until(client, done);
  };

  ASSERT_TRUE(feed_until([&] { return !seqs.empty(); }));
  // The first HELLO opened the engine's first session (ids start at 1).
  constexpr service::SessionId kLive = 1;
  const service::SessionTelemetry* live = engine.session_telemetry(kLive);
  ASSERT_NE(live, nullptr);
  ASSERT_EQ(live->model_version.load(), 1u);

  const std::size_t k = clf_b_->projector().coefficients();
  std::uint64_t version = 1;
  for (const std::size_t seeds : {std::size_t{16}, std::size_t{256}}) {
    ++version;
    const lifecycle::ModelBundle bundle{
        .version = version,
        .model = *trained_b_,
        .centroids = make_centroids(version, k, seeds)};
    auto push = std::async(std::launch::async, [&gw, &bundle] {
      return net::push_bundle(gw.port(), bundle);
    });
    ASSERT_TRUE(step_until(client, [&push] {
      return push.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
    }));
    const net::PushResult r = push.get();
    ASSERT_TRUE(r.delivered) << r.error;
    EXPECT_EQ(r.status, net::ModelPushStatus::Ok) << seeds << " seeds";

    // The swap lands at the session's next beat boundary, and verdicts
    // keep flowing on the new model.
    const std::size_t before = seqs.size();
    EXPECT_TRUE(feed_until([&] {
      return live->model_version.load() == version &&
             seqs.size() > before + 2;
    })) << seeds << " seeds";
    EXPECT_EQ(live->model_version.load(), version);
    const drift::DriftTracker* tracker = engine.session_drift(kLive);
    ASSERT_NE(tracker, nullptr) << "the swap must turn drift on";
    EXPECT_GT(tracker->beats(), 0u);
  }

  // Close the session: the rest of the lead, then BYE and the verdict
  // tail. The client blocks in close(), so it runs beside the gateway.
  auto closing = std::async(std::launch::async, [&client, &fed, span] {
    client.push(span.subspan(fed));
    client.close(20000);
  });
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (closing.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready &&
         Clock::now() < deadline)
    gw.poll_once(1);
  closing.get();
  EXPECT_EQ(seqs.size(), expected) << "dropped or duplicated verdicts";
  for (std::size_t j = 0; j < seqs.size(); ++j) EXPECT_EQ(seqs[j], j);

  // A fresh HELLO opens session 2 on the 256-seed model, drift on.
  ncfg.node_id = 1;
  net::SensorNodeClient fresh(*clf_a_, ncfg);
  fresh.push(span.first(span.size() / 2));
  constexpr service::SessionId kFresh = 2;
  ASSERT_TRUE(step_until(fresh, [&] {
    const service::SessionTelemetry* st = engine.session_telemetry(kFresh);
    return st != nullptr && st->drift_beats.load() > 0;
  }));
  ASSERT_NE(engine.session_model(kFresh), nullptr);
  EXPECT_EQ(engine.session_model(kFresh)->version, version);
  EXPECT_NE(engine.session_drift(kFresh), nullptr);
}

}  // namespace
