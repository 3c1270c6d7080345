// Async copy-stream model: a FIFO DMA engine (one per PCIe direction) that
// serializes transfers against its own busy window. The serving engine
// enqueues every swap-out (D2H) and swap-in (H2D) here; a transfer's
// completion time gates when the restored sequence becomes runnable, and
// BusyWithin() meters how much copy time was hidden under executed compute
// steps. With PreemptionConfig::overlap_swap off, the engine also runs no
// step while either stream is busy, so the same transfers are all stall.
//
// The model is deliberately simple — simulated time only, no threads:
//   begin = max(now, stream busy-until), end = begin + duration.
// Duration is priced by the caller (latency + per-page overhead + bytes/BW),
// so both swap modes move identical byte counts and differ only in whether
// compute runs under the transfer.
#pragma once

#include <cstdint>
#include <deque>

namespace flashinfer {
namespace gpusim {

class CopyStream {
 public:
  struct Transfer {
    double begin_s = 0.0;
    double end_s = 0.0;
  };

  /// Enqueues a transfer of `duration_us` issued at simulated time `now_s`.
  /// FIFO: it starts when the stream frees up, never before `now_s`.
  Transfer Enqueue(double now_s, double duration_us);

  /// Records an externally-timed interval (begin/end fixed by another stream,
  /// e.g. an inter-replica migration link) so BusyWithin() meters it against
  /// this stream's compute windows. Unlike Enqueue, the interval is NOT
  /// serialized against the local busy window — intervals from independent
  /// links may overlap, and each contributes its full overlap to BusyWithin.
  /// Inserted in begin_s order to preserve the early-exit scan invariant.
  void Record(const Transfer& t);

  /// Total stream-busy time (seconds) intersected with [a_s, b_s].
  /// Queries must be issued with non-decreasing `a_s` (step windows are
  /// monotone); fully-consumed intervals are pruned as a side effect.
  double BusyWithin(double a_s, double b_s);

  /// Simulated time at which the last enqueued transfer completes
  /// (0 when nothing was ever enqueued).
  double busy_until_s() const noexcept { return busy_until_s_; }

  int64_t num_transfers() const noexcept { return num_transfers_; }
  /// Total enqueued transfer time in microseconds.
  double total_busy_us() const noexcept { return total_busy_us_; }

  void Reset();

 private:
  std::deque<Transfer> inflight_;
  double busy_until_s_ = 0.0;
  int64_t num_transfers_ = 0;
  double total_busy_us_ = 0.0;
};

}  // namespace gpusim
}  // namespace flashinfer
