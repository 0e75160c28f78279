#include "core/throughput.h"

namespace safecross::core {

ThroughputReport throughput_experiment(SafeCross& safecross,
                                       const std::vector<const VideoSegment*>& blind_segments) {
  ThroughputReport report;
  for (const VideoSegment* seg : blind_segments) {
    ++report.blind_segments;
    const int truth = seg->binary_label();
    if (truth == 0) {
      ++report.class0;
    } else {
      ++report.class1;
    }
    const SafeCross::Decision d = safecross.classify_as(seg->weather, seg->frames);
    if (d.predicted_class == 1) ++report.judged_safe;
    if (d.predicted_class == truth) ++report.correct;
    if (d.predicted_class == 1 && truth == 0) ++report.missed_threats;
  }
  return report;
}

std::vector<const VideoSegment*> select_blind_test_set(
    const std::vector<const VideoSegment*>& pool, std::size_t class0_cap, std::size_t class1_cap) {
  std::vector<const VideoSegment*> out;
  std::size_t c0 = 0, c1 = 0;
  for (const VideoSegment* seg : pool) {
    if (!seg->blind_area) continue;
    if (seg->binary_label() == 0 && c0 < class0_cap) {
      out.push_back(seg);
      ++c0;
    } else if (seg->binary_label() == 1 && c1 < class1_cap) {
      out.push_back(seg);
      ++c1;
    }
    if (c0 >= class0_cap && c1 >= class1_cap) break;
  }
  return out;
}

}  // namespace safecross::core
