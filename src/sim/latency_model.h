#ifndef CACHEKV_SIM_LATENCY_MODEL_H_
#define CACHEKV_SIM_LATENCY_MODEL_H_

#include <atomic>
#include <cstdint>

namespace cachekv {

/// Device-latency cost table, in nanoseconds, for the simulated hardware.
/// Values follow the published Optane PMem characterizations (Yang et al.,
/// FAST'20; Xiang et al., EuroSys'22): media reads ~2-3x DRAM latency,
/// media writes limited by ~2.3 GB/s per DIMM, clwb ~tens of ns plus fence
/// stalls. `scale` multiplies every cost; scale 0 disables latency
/// injection entirely (useful for unit tests).
struct LatencyCosts {
  double scale = 1.0;
  /// Writing one 256 B XPLine to the 3D-XPoint media.
  uint64_t media_write_xpline_ns = 110;
  /// Reading one 256 B XPLine from the media (XPBuffer miss / RMW read).
  uint64_t media_read_xpline_ns = 300;
  /// Cost of executing one clwb/clflush instruction on the core.
  uint64_t clwb_ns = 40;
  /// Additional stall of an ordering fence that must drain writes to the
  /// ADR domain. Free under eADR reasoning but the instruction itself is
  /// modeled when issued.
  uint64_t sfence_ns = 90;
  /// DRAM-side access penalty for a cache miss that is served from the
  /// simulated PMem space (load path).
  uint64_t cache_miss_load_ns = 170;
  /// Per-64B-line cost of a non-temporal store reaching the iMC.
  uint64_t nt_store_line_ns = 25;
};

/// LatencyModel injects simulated device time into the calling thread by
/// calibrated busy-waiting. It also accumulates the total injected time so
/// harnesses can report how much of the wall clock was device time.
class LatencyModel {
 public:
  explicit LatencyModel(const LatencyCosts& costs = LatencyCosts());

  /// Busy-waits for approximately ns * scale nanoseconds.
  void Charge(uint64_t ns);

  void ChargeMediaWrite(uint64_t xplines) {
    Charge(xplines * costs_.media_write_xpline_ns);
  }
  void ChargeMediaRead(uint64_t xplines) {
    Charge(xplines * costs_.media_read_xpline_ns);
  }
  void ChargeClwb(uint64_t lines) { Charge(lines * costs_.clwb_ns); }
  void ChargeSfence() { Charge(costs_.sfence_ns); }
  void ChargeCacheMissLoad(uint64_t lines) {
    Charge(lines * costs_.cache_miss_load_ns);
  }
  void ChargeNtStore(uint64_t lines) {
    Charge(lines * costs_.nt_store_line_ns);
  }

  const LatencyCosts& costs() const { return costs_; }
  bool enabled() const { return costs_.scale > 0; }

  /// Total nanoseconds injected across all threads since construction.
  uint64_t total_injected_ns() const {
    return total_injected_ns_.load(std::memory_order_relaxed);
  }

  /// Busy-waits the calling thread for ~ns nanoseconds (unscaled).
  /// Exposed for calibration tests.
  static void SpinFor(uint64_t ns);

 private:
  LatencyCosts costs_;
  std::atomic<uint64_t> total_injected_ns_;
};

}  // namespace cachekv

#endif  // CACHEKV_SIM_LATENCY_MODEL_H_
