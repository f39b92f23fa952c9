#include "net/client.hpp"

#include <poll.h>

#include <algorithm>
#include <thread>

#include "ecg/types.hpp"
#include "math/check.hpp"

namespace hbrp::net {

const char* to_string(LinkState s) {
  switch (s) {
    case LinkState::Idle: return "idle";
    case LinkState::Connecting: return "connecting";
    case LinkState::AwaitAck: return "await-ack";
    case LinkState::Established: return "established";
    case LinkState::Backoff: return "backoff";
    case LinkState::Closed: return "closed";
  }
  return "?";
}

SensorNodeClient::SensorNodeClient(embedded::EmbeddedClassifier classifier,
                                   NodeConfig cfg)
    : classifier_(std::move(classifier)),
      cfg_(std::move(cfg)),
      last_code_(dsp::mid_rail(cfg_.monitor.quality)) {
  HBRP_REQUIRE(cfg_.port != 0, "SensorNodeClient: gateway port is required");
  HBRP_REQUIRE(cfg_.chunk_samples >= 1 &&
                   cfg_.chunk_samples <= kMaxChunkSamples,
               "SensorNodeClient: chunk_samples out of range");
  HBRP_REQUIRE(cfg_.max_unacked_full_beats >= 1,
               "SensorNodeClient: max_unacked_full_beats must be >= 1");
  // Every code this node frames must fit the wire's 12 bits: raw codes are
  // clamped to these rails, and a conditioned window (x - close(open(x)),
  // then min/max and a rounded average) stays within
  // +/-(rail_high - rail_low).
  const dsp::QualityConfig& rails = cfg_.monitor.quality;
  HBRP_REQUIRE(rails.rail_low >= kMinWireCode &&
                   rails.rail_high <= kMaxWireCode &&
                   rails.rail_low < rails.rail_high &&
                   rails.rail_high - rails.rail_low <= kMaxWireCode,
               "SensorNodeClient: ADC rails must lie in the 12-bit wire "
               "range and span at most 2047 codes");
  backoff_ms_ = std::max(1, cfg_.backoff_initial_ms);
  if (cfg_.policy == TxPolicy::Selective) {
    monitor_.emplace(classifier_, cfg_.monitor);
    pending_sink_ = [this](const core::PendingBeat& pb) {
      on_pending_beat(pb);
    };
    // Drift escalation observes in on_pending_beat, which classifies every
    // beat itself, the monitor flush tail included: the node's one
    // classification and observation point.
    if (cfg_.drift_centroids != nullptr)
      drift_.emplace(*cfg_.drift_centroids, cfg_.drift);
  }
}

dsp::Sample SensorNodeClient::sanitize(double x,
                                       const dsp::QualityConfig& rails,
                                       dsp::Sample& last,
                                       std::uint64_t* nonfinite_count) {
  dsp::SampleFix fix = dsp::SampleFix::None;
  const dsp::Sample code = dsp::sanitize_sample(x, rails, last, fix);
  if (fix == dsp::SampleFix::Held && nonfinite_count != nullptr)
    ++*nonfinite_count;
  return code;
}

void SensorNodeClient::push(dsp::Sample x) {
  ++stats_.samples_in;
  if (monitor_.has_value())
    monitor_->push(x, pending_sink_);
  else
    stage_stream_sample(x);
}

void SensorNodeClient::push(double x) {
  push(sanitize(x, cfg_.monitor.quality, last_code_,
                &stats_.sanitized_nonfinite));
}

void SensorNodeClient::push(std::span<const dsp::Sample> xs) {
  if (monitor_.has_value()) {
    // Block fast path: the monitor's conditioner batches across the whole
    // span instead of sample-at-a-time.
    stats_.samples_in += xs.size();
    monitor_->push_block(xs, pending_sink_);
    return;
  }
  for (const dsp::Sample x : xs) push(x);
}

void SensorNodeClient::push(std::span<const double> xs) {
  for (const double x : xs) push(x);
}

void SensorNodeClient::finish() {
  if (finished_) return;
  finished_ = true;
  if (monitor_.has_value())
    monitor_->flush(pending_sink_);
  else
    flush_stage(/*final_partial=*/true);
}

void SensorNodeClient::on_pending_beat(const core::PendingBeat& pb) {
  const ecg::BeatClass verdict =
      pb.needs_classification
          ? classifier_.classify_window(pb.window, scratch_)
          : pb.beat.predicted;
  const auto cls = static_cast<std::uint8_t>(verdict);
  const auto quality = static_cast<std::uint8_t>(pb.beat.quality);
  bool escalate = false;
  if (drift_.has_value() && pb.needs_classification) {
    // classify_window above left this beat's projection in scratch_.u —
    // the tracker reuses it at zero extra projection cost. Suspect beats
    // (needs_classification == false) carry no projection and are already
    // uploaded in full anyway. Only normal verdicts can come back novel,
    // which is exactly the escalation condition: a beat the selective
    // policy would silently log as one local byte.
    const drift::DriftObservation obs = drift_->observe(
        std::span<const std::int32_t>(scratch_.u.data(), scratch_.u.size()),
        !ecg::is_pathological(verdict));
    if (obs.novel) {
      const std::uint64_t beat_no = drift_->beats();
      if (last_escalation_beat_ == 0 ||
          beat_no - last_escalation_beat_ > cfg_.drift_min_gap_beats) {
        escalate = true;
        last_escalation_beat_ = beat_no;
      }
    }
  }
  if (!ecg::is_pathological(verdict) &&
      pb.beat.quality == dsp::SignalQuality::Good) {
    if (!escalate) {
      // The paper's optimized policy: a normal beat costs one local byte
      // and zero radio. Class in bits [0,2), quality in bits [2,4).
      ++stats_.beats_local;
      local_log_.push_back(static_cast<std::uint8_t>(
          (cls & 0x3u) | ((quality & 0x3u) << 2)));
      return;
    }
    // Drift escalation: the beat classified normal but its morphology is
    // novel — upload the full window so the gateway can see it. The frame
    // is an ordinary FULL_BEAT (held unacked, retransmitted across
    // reconnects, deduped gateway-side by seq), just with a normal+Good
    // header that the plain selective policy never produces.
    ++stats_.drift_escalations;
  }
  FullBeatMsg m;
  m.r_peak = pb.beat.r_peak;
  m.beat_class = cls;
  m.quality = quality;
  if (unacked_.size() >= cfg_.max_unacked_full_beats) {
    // The window is full: the oldest upload gives way. Unless it is in
    // flight on the live connection (then its verdict or disconnect()
    // settles it), no verdict can come: count it, and mark it seen so its
    // gap cannot pin the dedup watermark.
    const std::uint64_t oldest = unacked_.begin()->first;
    unacked_.erase(unacked_.begin());
    if (state_ != LinkState::Established || oldest >= upload_cursor_) {
      ++stats_.frames_dropped;
      mark_verdict_seen(oldest);
    }
  }
  unacked_.emplace(next_beat_seq_++, encode_full_beat(m, pb.window));
  ++stats_.beats_uploaded;
}

void SensorNodeClient::stage_stream_sample(dsp::Sample x) {
  // The gateway's monitor would clamp an out-of-rail code to the same
  // value; clamping here keeps every framed code inside 12 bits.
  const dsp::QualityConfig& rails = cfg_.monitor.quality;
  if (x < rails.rail_low || x > rails.rail_high) {
    ++stats_.samples_clamped;
    x = std::clamp(x, rails.rail_low, rails.rail_high);
  }
  stage_.push_back(x);
  if (stage_.size() >= cfg_.chunk_samples) flush_stage(false);
}

void SensorNodeClient::flush_stage(bool final_partial) {
  std::size_t at = 0;
  while (stage_.size() - at >= cfg_.chunk_samples) {
    enqueue(FrameType::SampleChunk,
            encode_sample_chunk(std::span<const dsp::Sample>(
                stage_.data() + at, cfg_.chunk_samples)));
    at += cfg_.chunk_samples;
  }
  if (final_partial && at < stage_.size()) {
    enqueue(FrameType::SampleChunk,
            encode_sample_chunk(std::span<const dsp::Sample>(
                stage_.data() + at, stage_.size() - at)));
    at = stage_.size();
  }
  stage_.erase(stage_.begin(), stage_.begin() + static_cast<std::ptrdiff_t>(at));
}

void SensorNodeClient::enqueue(FrameType type,
                               std::vector<unsigned char> payload) {
  const std::size_t frame_bytes = kHeaderBytes + payload.size();
  // Shed the oldest sample chunks and heartbeats first; a BYE is never shed.
  while (sendq_bytes_ + frame_bytes > cfg_.send_buffer_cap) {
    auto victim = std::find_if(
        sendq_.begin(), sendq_.end(),
        [](const QueuedFrame& f) { return f.type != FrameType::Bye; });
    if (victim == sendq_.end()) break;
    sendq_bytes_ -= kHeaderBytes + victim->payload.size();
    sendq_.erase(victim);
    ++stats_.frames_dropped;
  }
  if (sendq_bytes_ + frame_bytes > cfg_.send_buffer_cap) {
    ++stats_.frames_dropped;
    return;
  }
  sendq_bytes_ += frame_bytes;
  sendq_.push_back(QueuedFrame{type, std::move(payload)});
}

bool SensorNodeClient::fill_wire_out() {
  if (wire_head_ < wire_out_.size()) return false;
  // Uploads go first, in ascending seq: the lowest one this connection has
  // not sent yet. The gateway's per-node escalation high-water relies on
  // that order.
  const auto upload = unacked_.lower_bound(upload_cursor_);
  if (upload == unacked_.end() && sendq_.empty()) return false;
  wire_out_.clear();
  wire_head_ = 0;
  if (upload != unacked_.end()) {
    const std::uint64_t seq = upload->first;
    append_frame(wire_out_, FrameType::FullBeat, seq, upload->second);
    upload_cursor_ = seq + 1;
    if (seq < sent_below_) ++stats_.retransmits;
    sent_below_ = std::max(sent_below_, seq + 1);
  } else {
    const QueuedFrame& f = sendq_.front();
    std::uint64_t seq = 0;  // BYE
    if (f.type == FrameType::SampleChunk) seq = next_chunk_seq_++;
    if (f.type == FrameType::Heartbeat) seq = next_heartbeat_seq_++;
    append_frame(wire_out_, f.type, seq, f.payload);
    sendq_bytes_ -= kHeaderBytes + f.payload.size();
    sendq_.pop_front();
  }
  ++stats_.frames_tx;
  return true;
}

std::size_t SensorNodeClient::pending_bytes() const {
  std::size_t bytes = sendq_bytes_ + (wire_out_.size() - wire_head_);
  for (auto it = unacked_.lower_bound(upload_cursor_); it != unacked_.end();
       ++it)
    bytes += kHeaderBytes + it->second.size();
  return bytes;
}

void SensorNodeClient::send_hello() {
  wire_out_.clear();
  wire_head_ = 0;
  parser_ = FrameParser();
  HelloMsg m;
  m.node_id = cfg_.node_id;
  m.policy = cfg_.policy;
  m.window = static_cast<std::uint16_t>(
      classifier_.projector().expected_window());
  m.fs_hz = cfg_.fs_hz;
  append_frame(wire_out_, FrameType::Hello, 0, encode_hello(m));
  ++stats_.frames_tx;
}

void SensorNodeClient::on_established(Clock::time_point now) {
  state_ = LinkState::Established;
  state_since_ = now;
  last_tx_ = now;
  backoff_ms_ = std::max(1, cfg_.backoff_initial_ms);
  if (ever_established_) ++stats_.reconnects;
  ever_established_ = true;
  if (cfg_.policy == TxPolicy::StreamEverything) next_verdict_seq_ = 0;
  // A fresh connection is a fresh session: the dense chunk numbering
  // restarts, and every unacked upload goes out again (at-least-once).
  next_chunk_seq_ = 0;
  upload_cursor_ = 0;
}

void SensorNodeClient::disconnect(Clock::time_point now, bool backoff) {
  sock_.close();
  wire_out_.clear();
  wire_head_ = 0;
  for (const QueuedFrame& f : sendq_)
    if (f.type == FrameType::SampleChunk) ++stats_.frames_dropped;
  sendq_.clear();
  sendq_bytes_ = 0;
  // Uploads that left the window in flight lose their last chance of a
  // verdict: every unseen seq below the window is one.
  const std::uint64_t held_from =
      unacked_.empty() ? next_beat_seq_ : unacked_.begin()->first;
  while (verdict_seen_below_ < held_from) {
    ++stats_.frames_dropped;
    mark_verdict_seen(verdict_seen_below_);
  }
  parser_ = FrameParser();
  if (!backoff) {
    state_ = LinkState::Closed;
    return;
  }
  state_ = LinkState::Backoff;
  next_attempt_ = now + std::chrono::milliseconds(backoff_ms_);
  backoff_ms_ = std::min(backoff_ms_ * 2, std::max(1, cfg_.backoff_max_ms));
}

void SensorNodeClient::handle_frame(const FrameView& f) {
  const auto now = Clock::now();
  switch (f.type) {
    case FrameType::HelloAck: {
      const auto ack = decode_hello_ack(f.payload);
      if (!ack.has_value() || state_ != LinkState::AwaitAck) {
        ++stats_.parse_rejects;
        disconnect(now, true);
        return;
      }
      if (ack->status != HelloStatus::Ok) {
        ++stats_.hello_rejects;
        disconnect(now, true);
        return;
      }
      on_established(now);
      return;
    }
    case FrameType::BeatVerdict: {
      const auto v = decode_beat_verdict(f.payload);
      if (!v.has_value()) {
        ++stats_.parse_rejects;
        disconnect(now, true);
        return;
      }
      if (cfg_.policy == TxPolicy::StreamEverything) {
        ++stats_.verdicts_rx;
        if (f.seq != next_verdict_seq_) ++stats_.verdict_seq_gaps;
        next_verdict_seq_ = f.seq + 1;
        if (on_verdict_) on_verdict_(f.seq, *v);
        return;
      }
      // Selective: the verdict is the authoritative acknowledgement of
      // upload seq f.seq — release the held payload. At-least-once
      // retransmission plus the gateway's dup re-verdict means the same
      // seq can arrive again; dedup so the application sees each upload's
      // verdict exactly once.
      unacked_.erase(f.seq);
      if (!mark_verdict_seen(f.seq)) {
        ++stats_.verdict_dups;
        return;
      }
      ++stats_.verdicts_rx;
      if (on_verdict_) on_verdict_(f.seq, *v);
      return;
    }
    default:
      // Hello / SampleChunk / FullBeat / Heartbeat / Bye never flow
      // gateway -> node.
      ++stats_.parse_rejects;
      disconnect(now, true);
      return;
  }
}

bool SensorNodeClient::mark_verdict_seen(std::uint64_t seq) {
  if (seq < verdict_seen_below_) return false;
  if (!verdict_seen_.insert(seq).second) return false;
  // Compact the contiguous prefix: upload seqs are dense from 0, so in the
  // common in-order case the set stays empty and the watermark advances.
  while (!verdict_seen_.empty() &&
         *verdict_seen_.begin() == verdict_seen_below_) {
    verdict_seen_.erase(verdict_seen_.begin());
    ++verdict_seen_below_;
  }
  return true;
}

bool SensorNodeClient::pump_io(Clock::time_point now, int timeout_ms) {
  bool progress = false;
  const bool want_write =
      wire_head_ < wire_out_.size() ||
      (state_ == LinkState::Established &&
       (!sendq_.empty() ||
        unacked_.lower_bound(upload_cursor_) != unacked_.end()));
  pollfd p{};
  p.fd = sock_.fd();
  p.events = static_cast<short>(POLLIN | (want_write ? POLLOUT : 0));
  (void)::poll(&p, 1, timeout_ms);
  if ((p.revents & POLLNVAL) != 0) {
    disconnect(now, true);
    return true;
  }

  // Write side: flush the handshake / queued frames until would-block.
  while (state_ == LinkState::AwaitAck ||
         state_ == LinkState::Established) {
    if (wire_head_ >= wire_out_.size()) {
      // Only an established link may pull application frames; the
      // handshake flushes nothing but the HELLO already staged.
      if (state_ != LinkState::Established || !fill_wire_out()) break;
    }
    const IoResult r = send_some(
        sock_.fd(), std::span<const unsigned char>(wire_out_)
                        .subspan(wire_head_));
    if (r.n > 0) {
      wire_head_ += r.n;
      stats_.bytes_tx += r.n;
      last_tx_ = now;
      progress = true;
      continue;
    }
    if (r.would_block) break;
    disconnect(now, true);
    return true;
  }

  // Read side: drain the socket, parse, dispatch.
  unsigned char buf[16384];
  while (state_ == LinkState::AwaitAck ||
         state_ == LinkState::Established) {
    const IoResult r = recv_some(sock_.fd(), buf);
    if (r.n > 0) {
      stats_.bytes_rx += r.n;
      progress = true;
      if (!parser_.feed(std::span<const unsigned char>(buf, r.n))) {
        ++stats_.parse_rejects;
        disconnect(now, true);
        return true;
      }
      FrameView f;
      FrameParser::Status st;
      while ((st = parser_.next(f)) == FrameParser::Status::Ok) {
        ++stats_.frames_rx;
        handle_frame(f);
        if (state_ != LinkState::AwaitAck &&
            state_ != LinkState::Established)
          return true;  // handle_frame tore the link down
      }
      if (st == FrameParser::Status::Corrupt) {
        ++stats_.parse_rejects;
        disconnect(now, true);
        return true;
      }
      continue;
    }
    if (r.would_block) break;
    if (r.eof) {
      peer_closed_ = true;
      disconnect(now, /*backoff=*/!closing_);
      return true;
    }
    disconnect(now, true);
    return true;
  }
  return progress;
}

bool SensorNodeClient::step_link(Clock::time_point now, int timeout_ms) {
  switch (state_) {
    case LinkState::Closed:
      return false;
    case LinkState::Idle: {
      sock_ = connect_loopback(cfg_.port);
      if (!sock_.valid()) {
        disconnect(now, true);
        return true;
      }
      state_ = LinkState::Connecting;
      state_since_ = now;
      return true;
    }
    case LinkState::Backoff: {
      if (now >= next_attempt_) {
        state_ = LinkState::Idle;
        return true;
      }
      if (timeout_ms > 0) {
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                next_attempt_ - now);
        std::this_thread::sleep_for(std::min(
            remaining, std::chrono::milliseconds(timeout_ms)));
      }
      return false;
    }
    case LinkState::Connecting: {
      pollfd p{};
      p.fd = sock_.fd();
      p.events = POLLOUT;
      (void)::poll(&p, 1, timeout_ms);
      if ((p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
        disconnect(now, true);
        return true;
      }
      if ((p.revents & POLLOUT) != 0) {
        if (!connect_finished(sock_.fd())) {
          disconnect(now, true);
          return true;
        }
        send_hello();
        state_ = LinkState::AwaitAck;
        state_since_ = now;
        return true;
      }
      if (now - state_since_ >
          std::chrono::milliseconds(cfg_.handshake_timeout_ms)) {
        disconnect(now, true);
        return true;
      }
      return false;
    }
    case LinkState::AwaitAck: {
      if (now - state_since_ >
          std::chrono::milliseconds(cfg_.handshake_timeout_ms)) {
        disconnect(now, true);
        return true;
      }
      return pump_io(now, timeout_ms);
    }
    case LinkState::Established: {
      if (cfg_.heartbeat_interval_ms > 0 && pending_bytes() == 0 &&
          now - last_tx_ >
              std::chrono::milliseconds(cfg_.heartbeat_interval_ms))
        enqueue(FrameType::Heartbeat, {});
      return pump_io(now, timeout_ms);
    }
  }
  return false;
}

bool SensorNodeClient::poll_once(int timeout_ms) {
  return step_link(Clock::now(), timeout_ms);
}

bool SensorNodeClient::drain(int deadline_ms) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(deadline_ms);
  while (true) {
    if (state_ == LinkState::Established && pending_bytes() == 0 &&
        unacked_.empty())
      return true;
    if (Clock::now() >= deadline)
      return pending_bytes() == 0 && unacked_.empty();
    poll_once(5);
  }
}

void SensorNodeClient::close(int deadline_ms) {
  finish();
  closing_ = true;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(deadline_ms);
  while (state_ != LinkState::Closed && Clock::now() < deadline) {
    if (state_ == LinkState::Established && !bye_sent_ &&
        pending_bytes() == 0 && unacked_.empty()) {
      enqueue(FrameType::Bye, {});
      bye_sent_ = true;
    }
    poll_once(5);
  }
  sock_.close();
  state_ = LinkState::Closed;
}

}  // namespace hbrp::net
