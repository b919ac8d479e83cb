#include "flashware/fault_injector.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/serialize.h"
#include "obs/tracer.h"

namespace flash {

namespace {

// Salt namespaces so the drop/dup/reorder decisions about one fragment are
// independent draws.
constexpr uint64_t kDropSalt = 0x1ull << 48;
constexpr uint64_t kDupSalt = 0x2ull << 48;
constexpr uint64_t kReorderSalt = 0x3ull << 48;

// SplitMix64 finalizer: the mixing step of the counter-based PRNG.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t FragmentSalt(uint64_t kind, uint64_t seq, uint64_t attempt) {
  return kind | (seq << 8) | attempt;
}

}  // namespace

std::string FaultPlan::ToString() const {
  std::ostringstream out;
  out << "seed=" << seed << " drop=" << msg_drop_rate
      << " dup=" << msg_dup_rate << " reorder=" << msg_reorder_rate
      << " retries=" << max_retries << " frag=" << fragment_bytes
      << " ckpt_interval=" << EffectiveCheckpointInterval() << " crashes=[";
  for (size_t i = 0; i < worker_crash_schedule.size(); ++i) {
    if (i > 0) out << ",";
    out << worker_crash_schedule[i].worker << "@"
        << worker_crash_schedule[i].superstep;
  }
  out << "]";
  return out.str();
}

Status FaultPlan::Check() const {
  for (const auto& [name, rate] : {std::pair{"msg_drop_rate", msg_drop_rate},
                                   std::pair{"msg_dup_rate", msg_dup_rate},
                                   std::pair{"msg_reorder_rate",
                                             msg_reorder_rate}}) {
    if (!(rate >= 0 && rate < 1.0)) {
      std::ostringstream out;
      out << "fault_plan." << name << " must be in [0, 1), got " << rate;
      return Status::InvalidArgument(out.str());
    }
  }
  if (max_retries < 0) {
    return Status::InvalidArgument(
        "fault_plan.max_retries must be at least 0, got " +
        std::to_string(max_retries));
  }
  return Status::OK();
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  FLASH_CHECK_OK(plan_.Check());
  if (plan_.fragment_bytes == 0) plan_.fragment_bytes = 1024;
  crash_fired_.assign(plan_.worker_crash_schedule.size(), 0);
}

double FaultInjector::Draw(uint64_t epoch, int src, int dst,
                           uint64_t salt) const {
  uint64_t h = Mix64(plan_.seed);
  h = Mix64(h ^ epoch);
  h = Mix64(h ^ ((static_cast<uint64_t>(static_cast<uint32_t>(src)) << 32) |
                 static_cast<uint32_t>(dst)));
  h = Mix64(h ^ salt);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::vector<int> FaultInjector::TakeCrashes(uint64_t superstep) {
  std::vector<int> crashed;
  for (size_t i = 0; i < plan_.worker_crash_schedule.size(); ++i) {
    if (crash_fired_[i]) continue;
    if (plan_.worker_crash_schedule[i].superstep > superstep) continue;
    crash_fired_[i] = 1;
    crashed.push_back(plan_.worker_crash_schedule[i].worker);
  }
  std::sort(crashed.begin(), crashed.end());
  crashed.erase(std::unique(crashed.begin(), crashed.end()), crashed.end());
  return crashed;
}

void FaultInjector::TransmitChannel(uint64_t epoch, int src, int dst,
                                    const std::vector<uint8_t>& payload,
                                    std::vector<uint8_t>& delivered,
                                    uint64_t* wire_bytes,
                                    uint64_t* delivered_bytes) {
  delivered.clear();
  if (payload.empty()) return;

  const uint64_t frag = plan_.fragment_bytes;
  const uint64_t nfrags = (payload.size() + frag - 1) / frag;
  const auto frag_size = [&](uint64_t seq) {
    return std::min<uint64_t>(frag, payload.size() - seq * frag);
  };

  // Sender side: per fragment, transmit until the (simulated) ack arrives
  // or the retry budget runs out; then the recovery path resends it — the
  // checkpoint replay regenerates exactly these bytes, so correctness is
  // independent of how often the wire misbehaved.
  std::vector<uint32_t>& arrivals = arrivals_scratch_;  // Seqs in wire order.
  arrivals.clear();
  arrivals.reserve(nfrags);
  for (uint64_t seq = 0; seq < nfrags; ++seq) {
    const uint64_t bytes = frag_size(seq);
    ++stats_.fragments_sent;
    bool acked = false;
    for (int attempt = 0; attempt <= plan_.max_retries; ++attempt) {
      if (attempt > 0) {
        ++stats_.retries;
        OBS_INSTANT(tracer_, "fault:retry", obs::SpanKind::kInstant, src, dst,
                    seq, static_cast<uint64_t>(attempt));
      }
      *wire_bytes += bytes;
      if (Draw(epoch, src, dst, FragmentSalt(kDropSalt, seq, attempt)) <
          plan_.msg_drop_rate) {
        ++stats_.drops;
        OBS_INSTANT(tracer_, "fault:drop", obs::SpanKind::kInstant, src, dst,
                    seq, static_cast<uint64_t>(attempt));
        continue;
      }
      acked = true;
      arrivals.push_back(static_cast<uint32_t>(seq));
      if (Draw(epoch, src, dst, FragmentSalt(kDupSalt, seq, attempt)) <
          plan_.msg_dup_rate) {
        ++stats_.duplicates;
        OBS_INSTANT(tracer_, "fault:dup", obs::SpanKind::kInstant, src, dst,
                    seq, static_cast<uint64_t>(attempt));
        *wire_bytes += bytes;
        arrivals.push_back(static_cast<uint32_t>(seq));
      }
      break;
    }
    if (!acked) {
      ++stats_.escalations;
      OBS_INSTANT(tracer_, "fault:escalate", obs::SpanKind::kInstant, src,
                  dst, seq, static_cast<uint64_t>(plan_.max_retries));
      *wire_bytes += bytes;
      arrivals.push_back(static_cast<uint32_t>(seq));
    }
  }

  // Wire reordering: adjacent-swap scramble of the arrival sequence.
  for (size_t i = 1; i < arrivals.size(); ++i) {
    if (Draw(epoch, src, dst, FragmentSalt(kReorderSalt, i, 0)) <
        plan_.msg_reorder_rate) {
      std::swap(arrivals[i - 1], arrivals[i]);
    }
  }

  // Receiver side: discard duplicate seqs, count out-of-order arrivals, and
  // reassemble fragments at their seq offsets.
  delivered.resize(payload.size());
  std::vector<uint8_t>& seen = seen_scratch_;
  seen.assign(nfrags, 0);
  uint32_t highest_seen = 0;
  bool any_seen = false;
  for (uint32_t seq : arrivals) {
    const uint64_t bytes = frag_size(seq);
    *delivered_bytes += bytes;
    if (any_seen && seq < highest_seen) {
      ++stats_.reorders;
      OBS_INSTANT(tracer_, "fault:reorder", obs::SpanKind::kInstant, src, dst,
                  seq, highest_seen);
    }
    highest_seen = std::max(highest_seen, seq);
    any_seen = true;
    if (seen[seq]) continue;  // Duplicate delivery: already acked, drop it.
    seen[seq] = 1;
    std::memcpy(delivered.data() + static_cast<size_t>(seq) * frag,
                payload.data() + static_cast<size_t>(seq) * frag, bytes);
  }
  for (uint64_t seq = 0; seq < nfrags; ++seq) {
    FLASH_DCHECK(seen[seq]) << "reliable transport lost fragment " << seq;
  }
  RecyclePooled(arrivals, arrivals_high_water_);
  RecyclePooled(seen, seen_high_water_);
}

}  // namespace flash
