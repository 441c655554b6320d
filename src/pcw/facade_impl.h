// Shared pimpl definitions for the pcw:: façade handles. Internal: lives
// in src/, never installed — public headers only forward-declare these.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/series.h"
#include "h5/file.h"
#include "mpi/comm.h"
#include "pcw/convert.h"
#include "pcw/reader.h"
#include "pcw/runtime.h"
#include "pcw/series.h"
#include "pcw/telemetry.h"
#include "pcw/writer.h"

namespace pcw {

struct Rank::Impl {
  mpi::Comm& comm;
};

struct Writer::Impl {
  std::shared_ptr<h5::File> file;
  WriterOptions options;
  /// Metrics at handle creation; telemetry() reports the delta.
  Telemetry telemetry_base;
};

struct Reader::Impl {
  std::shared_ptr<h5::File> file;
  ReaderOptions options;
  Telemetry telemetry_base;
};

struct SeriesWriter::Impl {
  std::shared_ptr<Writer::Impl> writer;
  SeriesOptions options;
  Telemetry telemetry_base;
  /// The element type is pinned by the first write_step; exactly one of
  /// these engines exists from then on (the engine is templated on T).
  std::optional<core::SeriesWriter<float>> f32;
  std::optional<core::SeriesWriter<double>> f64;
};

namespace detail {
/// Defined in telemetry.cc: metrics_snapshot() minus `base`, counter by
/// counter and saturating at 0; level readings pass through current.
Telemetry telemetry_since(const Telemetry& base);
}  // namespace detail

}  // namespace pcw
