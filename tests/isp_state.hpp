// Test helpers over the ISP's one snapshot rendition ("ZSNP" v2 sections).
//
// isp_state() is the canonical fingerprint the state-equality tests compare:
// the scalar section plus every Population column, encoded as one snapshot
// buffer.  Two ISPs with equal fingerprints restore, replay and audit
// identically.
#pragma once

#include <vector>

#include "core/isp.hpp"
#include "store/snapshot.hpp"

namespace zmail::core {

// Borrowed views of owned sections, as Isp::restore_columnar takes them.
inline std::vector<Isp::RawSection> raw_sections(
    const std::vector<store::SnapshotSection>& sections) {
  std::vector<Isp::RawSection> raw;
  raw.reserve(sections.size());
  for (const store::SnapshotSection& s : sections)
    raw.push_back(Isp::RawSection{s.id, s.payload.data(), s.payload.size()});
  return raw;
}

inline crypto::Bytes isp_state(const Isp& isp) {
  store::SnapshotData snap;
  snap.meta.version = store::kSnapshotVersionColumnar;
  snap.meta.features = store::kFeatureColumnarUserState;
  isp.serialize_sections(snap.sections);
  return store::encode_snapshot(snap);
}

}  // namespace zmail::core
