#include "core/scrub.h"

#include <stdexcept>
#include <unordered_map>

#include "h5/dataset_io.h"
#include "sz/compressor.h"

namespace pcw::core {
namespace {

std::string block_list(const std::vector<std::uint32_t>& blocks) {
  std::string s;
  for (std::size_t i = 0; i < blocks.size() && i < 8; ++i) {
    if (i > 0) s += ",";
    s += std::to_string(blocks[i]);
  }
  if (blocks.size() > 8) s += ",...";
  return s;
}

void note_damage(DatasetScrub& out, std::size_t partition, const std::string& what) {
  ++out.damaged_partitions;
  if (out.detail.empty()) {
    out.detail = "partition " + std::to_string(partition) + ": " + what;
  }
}

void scrub_contiguous(const h5::File& file, const h5::DatasetDesc& d, DatasetScrub& out) {
  out.partitions = 1;
  const std::uint64_t expect = sz::element_count(d.global_dims) * element_size(d.dtype);
  if (d.nbytes != expect) {
    out.state = DatasetHealth::kDamaged;
    note_damage(out, 0, "stored size disagrees with extents");
    return;
  }
  if (d.nbytes == 0) return;
  try {
    // Probe the last byte: catches a payload extent past EOF cheaply.
    file.pread(d.file_offset + d.nbytes - 1, 1);
  } catch (const std::exception& e) {
    out.state = DatasetHealth::kUnreadable;
    note_damage(out, 0, e.what());
  }
}

void scrub_partitioned(const h5::File& file, const h5::DatasetDesc& d, bool deep,
                       DatasetScrub& out) {
  out.partitions = d.partitions.size();
  std::uint64_t read_failures = 0;
  for (std::size_t p = 0; p < d.partitions.size(); ++p) {
    std::vector<std::uint8_t> payload;
    try {
      payload = h5::read_partition_payload(file, d.partitions[p]);
    } catch (const std::exception& e) {
      ++read_failures;
      note_damage(out, p, e.what());
      continue;
    }
    if (d.filter == h5::FilterId::kSz) {
      const sz::BlobVerifyReport rep = sz::verify_blob(payload, deep);
      if (!rep.ok) {
        std::string what = rep.detail;
        if (!rep.damaged_blocks.empty()) {
          what += " (blocks " + block_list(rep.damaged_blocks) + ")";
        }
        note_damage(out, p, what);
      }
    } else if (d.filter == h5::FilterId::kNone) {
      if (payload.size() != d.partitions[p].elem_count * element_size(d.dtype)) {
        note_damage(out, p, "stored size disagrees with extents");
      }
    }
    // Other codecs (zfp, out-of-tree): readability is all scrub can
    // check without a decode; their damage surfaces on read.
  }
  if (out.damaged_partitions == 0) return;
  out.state = read_failures == out.partitions ? DatasetHealth::kUnreadable
                                              : DatasetHealth::kDamaged;
}

}  // namespace

ScrubReport scrub_file(const h5::File& file, bool deep) {
  ScrubReport report;
  const std::vector<h5::DatasetDesc>& descs = file.datasets();
  report.datasets.reserve(descs.size());
  std::unordered_map<std::string, std::size_t> index;
  for (const h5::DatasetDesc& d : descs) {
    DatasetScrub s;
    s.name = d.name;
    if (d.layout == h5::Layout::kContiguous) {
      scrub_contiguous(file, d, s);
    } else {
      scrub_partitioned(file, d, deep, s);
    }
    index.emplace(s.name, report.datasets.size());
    report.datasets.push_back(std::move(s));
  }

  // Series pass: a step is only as healthy as its restart chain, and a
  // damaged step is salvageable exactly when its chain's keyframe is
  // intact (the degraded read's fallback target).
  for (std::size_t i = 0; i < descs.size(); ++i) {
    const h5::DatasetDesc& d = descs[i];
    DatasetScrub& s = report.datasets[i];
    if (!d.series_member) continue;

    const h5::DatasetDesc* cur = &d;
    const DatasetScrub* damaged_ancestor = nullptr;
    bool chain_intact = true;
    bool keyframe_clean = false;
    while (true) {
      if (cur->is_keyframe()) {
        const auto it = index.find(cur->name);
        keyframe_clean = it != index.end() &&
                         report.datasets[it->second].state == DatasetHealth::kClean;
        break;
      }
      const h5::DatasetDesc* ref = file.find_series(cur->series_base, cur->series_ref_step);
      if (ref == nullptr || ref->series_step >= cur->series_step) {
        chain_intact = false;
        if (s.detail.empty()) s.detail = "restart chain is missing a reference step";
        break;
      }
      if (ref != &d) {
        const auto it = index.find(ref->name);
        if (it != index.end() &&
            report.datasets[it->second].state != DatasetHealth::kClean &&
            damaged_ancestor == nullptr) {
          damaged_ancestor = &report.datasets[it->second];
        }
      }
      cur = ref;
    }

    if (!chain_intact) {
      s.state = DatasetHealth::kDamaged;
      s.salvageable = false;
      continue;
    }
    if (s.state == DatasetHealth::kClean && damaged_ancestor != nullptr) {
      s.state = DatasetHealth::kDamaged;
      s.detail = "restart chain passes through damaged step '" +
                 damaged_ancestor->name + "'";
    }
    if (s.state != DatasetHealth::kClean) {
      // A damaged keyframe cannot fall back to itself.
      s.salvageable = keyframe_clean && !d.is_keyframe();
    }
  }

  for (const DatasetScrub& s : report.datasets) {
    switch (s.state) {
      case DatasetHealth::kClean: ++report.clean; break;
      case DatasetHealth::kDamaged: ++report.damaged; break;
      case DatasetHealth::kUnreadable: ++report.unreadable; break;
    }
  }
  return report;
}

}  // namespace pcw::core
