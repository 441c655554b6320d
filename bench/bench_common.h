// Shared helpers for the figure/table reproduction benches.
//
// Every bench follows the same recipe the paper's evaluation uses:
//   1. generate synthetic Nyx/VPIC/RTM partitions (pcw::data),
//   2. *measure* real compressions of sample partitions (times + sizes +
//      model predictions),
//   3. bootstrap the measured samples to the target process count,
//   4. play the write schedules against the iosim platform model,
//   5. print the paper-shaped rows.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "pcw/kernels.h"
#include "pcw/models.h"
#include "pcw/sim.h"
#include "pcw/text.h"
#include "pcw/workloads.h"

namespace pcw::bench {

/// Measured sample pool for one field.
struct FieldSamples {
  std::string name;
  double abs_error_bound = 0.0;
  std::vector<core::PartitionProfile> pool;
};

/// Compresses one partition for real and records everything the timing
/// engine needs. Times are min-of-2 warm runs: the sample partitions are
/// deliberately small, so a single cold measurement is allocator/page-
/// fault noise, and that noise would be scaled up 512x downstream.
template <typename T>
core::PartitionProfile profile_partition(std::span<const T> data, const sz::Dims& dims,
                                         const sz::Params& params) {
  core::PartitionProfile prof;
  prof.raw_bytes = static_cast<double>(data.size_bytes());
  prof.elem_count = static_cast<double>(data.size());
  const auto est = model::estimate_ratio<T>(data, dims, params);
  prof.predicted_bytes =
      static_cast<double>(core::predicted_bytes_for(est.bit_rate, data.size()));
  prof.predicted_ratio = est.ratio;
  double best = 1e300;
  std::size_t size = 0;
  for (int rep = 0; rep < 2; ++rep) {
    util::trace::StageTimer timer("profile_compress", "bench", "bytes",
                                  data.size_bytes());
    const auto blob = sz::compress<T>(data, dims, params);
    best = std::min(best, timer.seconds());
    size = blob.size();
  }
  prof.comp_seconds = best;
  prof.actual_bytes = static_cast<double>(size);
  return prof;
}

/// Fits the Eq.-(1) compression-throughput model to the measured samples
/// so Algorithm 1's predicted compression times live in this machine's
/// band rather than the paper platform's.
inline model::CompressionThroughputModel calibrate_comp_model(
    const std::vector<FieldSamples>& samples) {
  std::vector<model::ThroughputSample> pts;
  for (const auto& fs : samples) {
    for (const auto& p : fs.pool) {
      if (p.comp_seconds > 0.0 && p.elem_count > 0.0) {
        pts.push_back({8.0 * p.actual_bytes / p.elem_count, p.raw_bytes / p.comp_seconds});
      }
    }
  }
  if (pts.size() < 3) return model::CompressionThroughputModel();
  return model::CompressionThroughputModel::calibrate(pts);
}

/// Measures `n_samples` partitions of every primary Nyx field. Each
/// sample is a distinct `part_dims` block of a larger logical volume.
/// `eb_scale` scales the paper bounds (1.0 = paper config). `threads`
/// feeds sz::Params::threads for each measured compression (0 = all
/// hardware threads).
inline std::vector<FieldSamples> collect_nyx_samples(int n_fields,
                                                     const sz::Dims& part_dims,
                                                     int n_samples, std::uint64_t seed,
                                                     double eb_scale = 1.0,
                                                     unsigned threads = 1) {
  std::vector<FieldSamples> out;
  const sz::Dims volume = sz::Dims::make_3d(
      part_dims.d0, part_dims.d1, part_dims.d2 * static_cast<std::size_t>(n_samples));
  for (int f = 0; f < n_fields; ++f) {
    const auto field = static_cast<data::NyxField>(f);
    const auto info = data::nyx_field_info(field);
    FieldSamples fs;
    fs.name = info.name;
    fs.abs_error_bound = info.abs_error_bound * eb_scale;
    sz::Params params;
    params.error_bound = fs.abs_error_bound;
    params.threads = threads;
    for (int s = 0; s < n_samples; ++s) {
      std::vector<float> block(part_dims.count());
      data::fill_nyx_field(block, part_dims,
                           {0, 0, static_cast<std::size_t>(s) * part_dims.d2}, volume,
                           field, seed);
      fs.pool.push_back(profile_partition<float>(block, part_dims, params));
    }
    out.push_back(std::move(fs));
  }
  return out;
}

/// Measures `n_samples` slices of every VPIC field. `threads` feeds
/// sz::Params::threads for each measured compression.
inline std::vector<FieldSamples> collect_vpic_samples(std::size_t particles_per_sample,
                                                      int n_samples, std::uint64_t seed,
                                                      double eb_scale = 1.0,
                                                      unsigned threads = 1) {
  std::vector<FieldSamples> out;
  const std::uint64_t total =
      particles_per_sample * static_cast<std::uint64_t>(n_samples);
  for (int f = 0; f < data::kVpicAllFields; ++f) {
    const auto field = static_cast<data::VpicField>(f);
    const auto info = data::vpic_field_info(field);
    FieldSamples fs;
    fs.name = info.name;
    fs.abs_error_bound = info.abs_error_bound * eb_scale;
    sz::Params params;
    params.error_bound = fs.abs_error_bound;
    params.threads = threads;
    for (int s = 0; s < n_samples; ++s) {
      std::vector<float> slice(particles_per_sample);
      data::fill_vpic_field(slice, static_cast<std::uint64_t>(s) * particles_per_sample,
                            total, field, seed);
      fs.pool.push_back(profile_partition<float>(
          slice, sz::Dims::make_1d(particles_per_sample), params));
    }
    out.push_back(std::move(fs));
  }
  return out;
}

/// Finds the error-bound scale that hits `target_bit_rate` (averaged over
/// fields) by bisection on the measured samples' geometric structure.
/// Uses the ratio model only (cheap), then the caller re-measures.
template <typename MakeSamples>
double find_eb_scale_for_bitrate(double target_bit_rate, MakeSamples&& probe) {
  double lo = 1e-3, hi = 1e3;
  for (int it = 0; it < 24; ++it) {
    const double mid = std::sqrt(lo * hi);
    const double br = probe(mid);  // mean bit-rate at scale `mid`
    if (br > target_bit_rate) {
      lo = mid;  // bound too tight -> loosen
    } else {
      hi = mid;
    }
  }
  return std::sqrt(lo * hi);
}

/// Bootstraps sample pools to a [rank][field] profile matrix.
inline std::vector<std::vector<core::PartitionProfile>> to_profiles(
    const std::vector<FieldSamples>& samples, int nranks, std::uint64_t seed,
    double jitter = 0.08) {
  std::vector<std::vector<core::PartitionProfile>> pools;
  pools.reserve(samples.size());
  for (const auto& fs : samples) pools.push_back(fs.pool);
  util::Rng rng(seed);
  return core::bootstrap_profiles(pools, nranks, rng, jitter);
}

/// to_profiles + scale_profiles in one step: measurement partitions are
/// small (fast to compress); `scale` grows them to the paper's
/// per-process sizes (e.g. 512 turns a 32^3 sample into a 256^3 rank).
inline std::vector<std::vector<core::PartitionProfile>> to_scaled_profiles(
    const std::vector<FieldSamples>& samples, int nranks, std::uint64_t seed,
    double scale, double jitter = 0.08) {
  auto profiles = to_profiles(samples, nranks, seed, jitter);
  core::scale_profiles(profiles, scale);
  return profiles;
}

/// Mean achieved bit-rate over a sample set.
inline double mean_bit_rate(const std::vector<FieldSamples>& samples) {
  double bits = 0.0, elems = 0.0;
  for (const auto& fs : samples) {
    for (const auto& p : fs.pool) {
      bits += p.actual_bytes * 8.0;
      elems += p.elem_count;
    }
  }
  return elems > 0.0 ? bits / elems : 0.0;
}

inline double mean_ratio(const std::vector<FieldSamples>& samples) {
  double raw = 0.0, comp = 0.0;
  for (const auto& fs : samples) {
    for (const auto& p : fs.pool) {
      raw += p.raw_bytes;
      comp += p.actual_bytes;
    }
  }
  return comp > 0.0 ? raw / comp : 0.0;
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("reproduces: %s\n\n", paper_ref.c_str());
}

}  // namespace pcw::bench
