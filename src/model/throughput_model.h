// The paper's Eq. (1) and Eq. (2): compression-throughput and write-time
// prediction.
//
// Eq. (1) models single-core compression throughput as a bounded power
// function of the predicted bit-rate B:
//
//     S(B) = (C_max - C_min) * (B/3)^a + C_min,      a < 0
//
// calibrated so S(3) = C_max (the "3" is the paper's empirically best
// pivot). As printed in the paper the function exceeds C_max for B < 3;
// the paper's own Fig. 5/6 shows throughput *bounded* by C_max there
// (the predict+encode pass still touches every point), so we clamp S to
// [C_min, C_max]. This is the only deviation from the printed formula and
// it matches the paper's stated observation (1) in §III-B.
//
// Eq. (2) models write time as compressed bytes over a stable per-process
// write throughput C_thr. The paper deliberately keeps this coarse: only
// *relative* write times across partitions matter for scheduling. The
// size-dependent saturating curve (Fig. 7) is also provided; the planner
// uses the stable plateau (reproducing the paper's low-bit-rate error in
// Fig. 13) while the I/O simulator uses the full curve.
#pragma once

#include <cstddef>
#include <span>

namespace pcw::model {

struct ThroughputSample {
  double bit_rate = 0.0;       // bits/value
  double throughput = 0.0;     // bytes of *original* data per second
};

class CompressionThroughputModel {
 public:
  CompressionThroughputModel() = default;
  constexpr CompressionThroughputModel(double c_min, double c_max, double a)
      : c_min_(c_min), c_max_(c_max), a_(a) {}

  /// Fits C_min, C_max (from sample extrema) and the exponent `a` (grid
  /// search + golden refinement) against offline (bit-rate, throughput)
  /// samples. Needs >= 3 samples.
  static CompressionThroughputModel calibrate(std::span<const ThroughputSample> samples);

  /// Predicted throughput (original bytes/s) at compressed bit-rate B.
  double throughput(double bit_rate) const;

  /// Eq. (1): predicted seconds to compress `original_bytes` at bit-rate B.
  double predict_time(double original_bytes, double bit_rate) const;

  double c_min() const { return c_min_; }
  double c_max() const { return c_max_; }
  double exponent() const { return a_; }

 private:
  double c_min_ = 100e6;   // defaults in the paper's observed band
  double c_max_ = 250e6;
  double a_ = -1.7;
};

struct WriteSample {
  double bytes = 0.0;          // request size per process
  double throughput = 0.0;     // bytes/s per process
};

class WriteThroughputModel {
 public:
  WriteThroughputModel() = default;
  constexpr WriteThroughputModel(double plateau, double half_size)
      : plateau_(plateau), half_size_(half_size) {}

  /// Fits the saturating curve thr(s) = plateau * s / (s + s_half) against
  /// offline per-process write measurements (Fig. 7 offline phase).
  static WriteThroughputModel calibrate(std::span<const WriteSample> samples);

  /// Size-dependent per-process throughput (bytes/s).
  double throughput(double bytes) const;

  /// The stable plateau C_thr used by Eq. (2).
  double stable_throughput() const { return plateau_; }

  /// Eq. (2): T_write = compressed_bytes / C_thr.
  double predict_time(double compressed_bytes) const {
    return plateau_ > 0.0 ? compressed_bytes / plateau_ : 0.0;
  }

  double half_size() const { return half_size_; }

 private:
  double plateau_ = 400e6;     // bytes/s; overridden by calibrate()
  double half_size_ = 2e6;     // bytes at which throughput is half plateau
};

/// The paper's §IV-B Summit fits of Eq. (1) and Eq. (2), which the engine
/// schedules with.
inline constexpr CompressionThroughputModel kSummitCompressionModel{101.7e6, 240.6e6, -1.716};
inline constexpr WriteThroughputModel kSummitWriteModel{400e6, 2e6};

}  // namespace pcw::model
