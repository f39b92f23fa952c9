#include "ecg/mitdb.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "math/check.hpp"

namespace hbrp::ecg::mitdb {

namespace {

constexpr int kSkipCode = 59;

// Bounds for header fields: a corrupt or hostile .hea file must fail a
// cheap check instead of driving a multi-gigabyte allocation or an
// out-of-bounds read loop.
constexpr std::size_t kMaxSignals = 64;
constexpr std::size_t kMaxSamples = 100'000'000;  // ~77 h at 360 Hz
constexpr int kMaxFsHz = 100'000;

void require_stream(const std::ios& s, const std::string& what) {
  HBRP_REQUIRE(s.good(), "mitdb: I/O failure while " + what);
}

// --- signal packing -------------------------------------------------------

// Format 212: two 12-bit two's-complement samples in 3 bytes.
void write_212(std::ofstream& out, const dsp::Signal& a,
               const dsp::Signal& b) {
  HBRP_REQUIRE(a.size() == b.size(), "mitdb: 212 leads must be equal length");
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto s0 = static_cast<std::uint32_t>(a[i]) & 0xFFFu;
    const auto s1 = static_cast<std::uint32_t>(b[i]) & 0xFFFu;
    const std::uint8_t bytes[3] = {
        static_cast<std::uint8_t>(s0 & 0xFF),
        static_cast<std::uint8_t>(((s1 >> 8) << 4) | (s0 >> 8)),
        static_cast<std::uint8_t>(s1 & 0xFF),
    };
    out.write(reinterpret_cast<const char*>(bytes), 3);
  }
}

// A 12-bit two's-complement field is exactly the code range of
// dsp/signal.hpp, so the narrowing below is exact.
dsp::Sample sign_extend_12(std::uint32_t v) {
  const auto code = static_cast<int>(v & 0xFFFu);
  return static_cast<dsp::Sample>(code >= 0x800 ? code - 4096 : code);
}

void read_212(std::ifstream& in, std::size_t n_samples, dsp::Signal& a,
              dsp::Signal& b) {
  a.resize(n_samples);
  b.resize(n_samples);
  for (std::size_t i = 0; i < n_samples; ++i) {
    std::uint8_t bytes[3];
    in.read(reinterpret_cast<char*>(bytes), 3);
    require_stream(in, "reading 212 samples");
    const std::uint32_t s0 =
        static_cast<std::uint32_t>(bytes[0]) |
        ((static_cast<std::uint32_t>(bytes[1]) & 0x0Fu) << 8);
    const std::uint32_t s1 =
        static_cast<std::uint32_t>(bytes[2]) |
        ((static_cast<std::uint32_t>(bytes[1]) & 0xF0u) << 4);
    a[i] = sign_extend_12(s0);
    b[i] = sign_extend_12(s1);
  }
}

void write_16(std::ofstream& out, const std::vector<dsp::Signal>& leads) {
  const std::size_t n = leads.front().size();
  for (std::size_t i = 0; i < n; ++i) {
    for (const dsp::Signal& lead : leads) {
      const auto v = static_cast<std::uint16_t>(lead[i]);
      const std::uint8_t bytes[2] = {
          static_cast<std::uint8_t>(v & 0xFF),
          static_cast<std::uint8_t>(v >> 8),
      };
      out.write(reinterpret_cast<const char*>(bytes), 2);
    }
  }
}

void read_16(std::ifstream& in, std::size_t n_samples,
             std::vector<dsp::Signal>& leads) {
  for (dsp::Signal& lead : leads) lead.resize(n_samples);
  for (std::size_t i = 0; i < n_samples; ++i) {
    for (dsp::Signal& lead : leads) {
      std::uint8_t bytes[2];
      in.read(reinterpret_cast<char*>(bytes), 2);
      require_stream(in, "reading 16-bit samples");
      const auto raw = static_cast<std::uint16_t>(
          bytes[0] | (static_cast<std::uint16_t>(bytes[1]) << 8));
      // Any int16: a format-16 file may hold values outside the code
      // range, which a monitor clamps to its rails.
      lead[i] = static_cast<dsp::Sample>(raw);
    }
  }
}

// --- annotation packing ---------------------------------------------------

void put_word(std::ofstream& out, int code, std::uint32_t time) {
  HBRP_ASSERT(time < 1024);
  const auto word = static_cast<std::uint16_t>(
      (static_cast<std::uint32_t>(code) << 10) | time);
  const std::uint8_t bytes[2] = {static_cast<std::uint8_t>(word & 0xFF),
                                 static_cast<std::uint8_t>(word >> 8)};
  out.write(reinterpret_cast<const char*>(bytes), 2);
}

std::uint16_t get_word(std::ifstream& in, bool& eof) {
  std::uint8_t bytes[2];
  in.read(reinterpret_cast<char*>(bytes), 2);
  if (!in.good()) {
    eof = true;
    return 0;
  }
  return static_cast<std::uint16_t>(
      bytes[0] | (static_cast<std::uint16_t>(bytes[1]) << 8));
}

}  // namespace

std::optional<BeatClass> beat_class_from_code(int code) {
  switch (code) {
    case kCodeNormal: return BeatClass::N;
    case kCodeLbbb: return BeatClass::L;
    case kCodePvc: return BeatClass::V;
    default: return std::nullopt;
  }
}

int code_from_beat_class(BeatClass cls) {
  switch (cls) {
    case BeatClass::N: return kCodeNormal;
    case BeatClass::L: return kCodeLbbb;
    case BeatClass::V: return kCodePvc;
    case BeatClass::Unknown: break;
  }
  HBRP_REQUIRE(false, "mitdb: Unknown has no annotation code");
}

void write_record(const Record& record, const std::filesystem::path& dir,
                  const WriteOptions& options) {
  HBRP_REQUIRE(!record.name.empty(), "mitdb: record needs a name");
  HBRP_REQUIRE(!record.leads.empty(), "mitdb: record has no leads");
  for (const auto& lead : record.leads)
    HBRP_REQUIRE(lead.size() == record.duration_samples(),
                 "mitdb: all leads must have equal length");
  HBRP_REQUIRE(options.signal_format == 212 || options.signal_format == 16,
               "mitdb: unsupported signal format");
  HBRP_REQUIRE(options.signal_format != 212 || record.leads.size() == 2,
               "mitdb: format 212 stores exactly two signals");

  std::filesystem::create_directories(dir);
  const AdcSpec adc;  // MIT-BIH standard gain/zero

  // Header.
  {
    std::ofstream hea(dir / (record.name + ".hea"));
    require_stream(hea, "opening header for write");
    hea << record.name << ' ' << record.leads.size() << ' ' << record.fs_hz
        << ' ' << record.duration_samples() << '\n';
    for (std::size_t s = 0; s < record.leads.size(); ++s) {
      hea << record.name << ".dat " << options.signal_format << ' '
          << adc.gain_adu_per_mv << " 11 " << adc.baseline_adu << " 0 0 0 lead"
          << s << '\n';
    }
    require_stream(hea, "writing header");
  }

  // Signal file.
  {
    std::ofstream dat(dir / (record.name + ".dat"), std::ios::binary);
    require_stream(dat, "opening signal file for write");
    if (options.signal_format == 212)
      write_212(dat, record.leads[0], record.leads[1]);
    else
      write_16(dat, record.leads);
    require_stream(dat, "writing signal file");
  }

  // Annotations.
  {
    std::ofstream atr(dir / (record.name + ".atr"), std::ios::binary);
    require_stream(atr, "opening annotation file for write");
    std::size_t prev = 0;
    for (const BeatAnnotation& ann : record.beats) {
      HBRP_REQUIRE(ann.sample >= prev,
                   "mitdb: annotations must be sorted by sample");
      std::size_t delta = ann.sample - prev;
      if (delta >= 1024) {
        // SKIP escape: zero-time skip word followed by a 32-bit interval
        // (high half first, both little-endian), then the annotation with
        // time 0.
        put_word(atr, kSkipCode, 0);
        const auto d32 = static_cast<std::uint32_t>(delta);
        put_word(atr, static_cast<int>(d32 >> 26),
                 (d32 >> 16) & 0x3FFu);  // high 16 bits as raw word
        put_word(atr, static_cast<int>((d32 & 0xFFFFu) >> 10),
                 d32 & 0x3FFu);  // low 16 bits as raw word
        delta = 0;
      }
      put_word(atr, code_from_beat_class(ann.cls),
               static_cast<std::uint32_t>(delta));
      prev = ann.sample;
    }
    put_word(atr, 0, 0);  // end of annotations
    require_stream(atr, "writing annotation file");
  }
}

Record read_record(const std::filesystem::path& dir, const std::string& name) {
  Record rec;
  rec.name = name;

  std::size_t n_samples = 0;
  std::size_t n_signals = 0;
  int fmt = 0;

  {
    std::ifstream hea(dir / (name + ".hea"));
    HBRP_REQUIRE(hea.good(), "mitdb: cannot open header " + name + ".hea");
    std::string line;
    std::getline(hea, line);
    std::istringstream head(line);
    std::string rec_name;
    head >> rec_name >> n_signals >> rec.fs_hz >> n_samples;
    HBRP_REQUIRE(!head.fail(), "mitdb: malformed record line");
    HBRP_REQUIRE(n_signals >= 1 && n_signals <= kMaxSignals,
                 "mitdb: implausible signal count in header");
    HBRP_REQUIRE(rec.fs_hz > 0 && rec.fs_hz <= kMaxFsHz,
                 "mitdb: implausible sampling rate in header");
    HBRP_REQUIRE(n_samples <= kMaxSamples,
                 "mitdb: implausible sample count in header");
    for (std::size_t s = 0; s < n_signals; ++s) {
      std::getline(hea, line);
      require_stream(hea, "reading signal lines");
      std::istringstream sig(line);
      std::string file;
      int this_fmt = 0;
      sig >> file >> this_fmt;
      HBRP_REQUIRE(!sig.fail(), "mitdb: malformed signal line");
      if (s == 0)
        fmt = this_fmt;
      else
        HBRP_REQUIRE(this_fmt == fmt,
                     "mitdb: mixed signal formats are unsupported");
    }
  }
  HBRP_REQUIRE(fmt == 212 || fmt == 16, "mitdb: unsupported signal format");
  HBRP_REQUIRE(fmt != 212 || n_signals == 2,
               "mitdb: format 212 requires two signals");

  {
    const std::filesystem::path dat_path = dir / (name + ".dat");
    // Bounded read: the declared sample count must be backed by actual
    // bytes on disk *before* any buffer is sized from it, so a truncated
    // or length-inflated header throws instead of allocating garbage.
    std::error_code ec;
    const auto dat_size = std::filesystem::file_size(dat_path, ec);
    HBRP_REQUIRE(!ec, "mitdb: cannot stat signal file " + name + ".dat");
    const std::size_t needed =
        fmt == 212 ? n_samples * 3 : n_samples * n_signals * 2;
    HBRP_REQUIRE(dat_size >= needed,
                 "mitdb: signal file shorter than header declares: " + name +
                     ".dat");

    std::ifstream dat(dat_path, std::ios::binary);
    HBRP_REQUIRE(dat.good(), "mitdb: cannot open signal file " + name + ".dat");
    rec.leads.resize(n_signals);
    if (fmt == 212)
      read_212(dat, n_samples, rec.leads[0], rec.leads[1]);
    else
      read_16(dat, n_samples, rec.leads);
  }

  {
    std::ifstream atr(dir / (name + ".atr"), std::ios::binary);
    HBRP_REQUIRE(atr.good(),
                 "mitdb: cannot open annotation file " + name + ".atr");
    std::size_t t = 0;
    bool eof = false;
    for (;;) {
      const std::uint16_t word = get_word(atr, eof);
      if (eof) break;
      const int code = word >> 10;
      const std::uint32_t delta = word & 0x3FFu;
      if (code == 0 && delta == 0) break;  // end marker
      if (code == kSkipCode) {
        const std::uint16_t hi = get_word(atr, eof);
        const std::uint16_t lo = get_word(atr, eof);
        HBRP_REQUIRE(!eof, "mitdb: truncated SKIP annotation");
        t += (static_cast<std::size_t>(hi) << 16) | lo;
        HBRP_REQUIRE(t <= n_samples,
                     "mitdb: SKIP interval beyond end of record in " + name +
                         ".atr");
        continue;
      }
      t += delta;
      HBRP_REQUIRE(t <= n_samples,
                   "mitdb: annotation beyond end of record in " + name +
                       ".atr");
      if (const auto cls = beat_class_from_code(code)) {
        BeatAnnotation ann;
        ann.sample = t;
        ann.cls = *cls;
        rec.beats.push_back(ann);
      }
      // Unsupported codes (rhythm changes, comments) are skipped silently,
      // as WFDB readers conventionally do for unknown beat types.
    }
  }
  return rec;
}

}  // namespace hbrp::ecg::mitdb
