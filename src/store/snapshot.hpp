// Versioned binary snapshot format.
//
// A snapshot is a full serialization of one party's settlement state at a
// quiesce boundary, paired with the WAL position it covers: recovery loads
// the snapshot, then replays WAL records with lsn >= meta.next_lsn.  (The
// checkpointer truncates the WAL behind each snapshot, so in practice the
// whole surviving log replays.)
//
// On-disk grammar (all integers big-endian, matching the wire format):
//
//   snapshot := header section*
//   header   := "ZSNP" version:u32 features:u32 next_lsn:u64
//               sim_time_us:u64 section_count:u32 crc:u32
//               (36 bytes; crc is CRC32C over the first 32)
//   section  := id:u32 len:u64 payload:u8[len] crc:u32
//               (crc is CRC32C over payload)
//
// Versioning contract: `version` bumps on any incompatible layout change
// and readers reject unknown versions with StoreStatus::kUnknownVersion.
// `features` is a bitmask of *required* capabilities — a reader that does
// not recognize a set bit must refuse the file (kUnknownFeature) rather
// than silently ignore data it cannot interpret.  Feature bits are gated
// per version: v1 defines none, v2 defines kFeatureColumnarUserState.
// Both byte layouts are pinned by golden-file tests
// (tests/store_snapshot_test.cpp); changing one means adding v3, not
// editing it.
//
// v2 ("ZSNP" columnar) shares the container grammar with v1; only the
// section population differs.  An ISP checkpoint is one kIspScalarsSection
// (counts, pending protocol state, metrics, RNG) followed by eleven
// kUserColumnBase+i sections, each the raw little-endian bytes of one
// Population column.  SnapshotFileView maps such a file read-only and
// validates every CRC once at open, so restore is a handful of bulk
// copies straight out of the page cache instead of field-by-field
// deserialization.
//
// Writes are atomic: encode to `<path>.tmp`, fsync, rename over `path`, so
// a crash mid-checkpoint leaves the previous snapshot intact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/bytes.hpp"
#include "store/status.hpp"
#include "store/wal.hpp"

namespace zmail::store {

constexpr std::uint32_t kSnapshotVersion = 1;
// v2: columnar user-state sections (whole Population columns as raw
// little-endian payloads).  The bank still writes v1.
constexpr std::uint32_t kSnapshotVersionColumnar = 2;
constexpr std::uint32_t kMaxSnapshotVersion = kSnapshotVersionColumnar;

// Feature bits.  Introduced in v2; a v1 file with any bit set is invalid.
constexpr std::uint32_t kFeatureColumnarUserState = 1u << 0;
// Feature bits this build understands, by version.
constexpr std::uint32_t kSupportedFeatures = kFeatureColumnarUserState;
constexpr std::uint32_t supported_features_for(std::uint32_t version) {
  return version >= kSnapshotVersionColumnar ? kSupportedFeatures : 0;
}

// Section ids.  The id space leaves room for side tables (metrics,
// indexes) without a version bump — readers skip
// recognized-but-unneeded sections.
constexpr std::uint32_t kStateSection = 1;  // v1: the whole row blob
// v2 ISP sections: scalar tail + one section per Population column at
// kUserColumnBase + static_cast<u32>(Population::Column).
constexpr std::uint32_t kIspScalarsSection = 2;
constexpr std::uint32_t kUserColumnBase = 0x10;

struct SnapshotSection {
  std::uint32_t id = 0;
  crypto::Bytes payload;

  bool operator==(const SnapshotSection&) const = default;
};

struct SnapshotMeta {
  std::uint32_t version = kSnapshotVersion;
  std::uint32_t features = 0;
  Lsn next_lsn = 1;               // first WAL record NOT covered by this state
  std::uint64_t sim_time_us = 0;  // simulation clock at checkpoint
};

struct SnapshotData {
  SnapshotMeta meta;
  std::vector<SnapshotSection> sections;
};

// Pure (de)serialization — the fuzz and golden tests work on buffers.
crypto::Bytes encode_snapshot(const SnapshotData& snap);
StoreStatus decode_snapshot(const crypto::Bytes& file, SnapshotData& out);

// Atomic file write (temp + rename) / whole-file read.
StoreStatus write_snapshot_file(const std::string& path,
                                const SnapshotData& snap, bool fsync_data,
                                std::string* error = nullptr);
StoreStatus read_snapshot_file(const std::string& path, SnapshotData& out);

// Read-only mmap view of a snapshot file.  open() maps the file and
// validates the header and every section CRC once; sections() then point
// straight into the mapping, so consumers (Isp::restore_snapshot) can bulk
// copy column payloads without an intermediate deserialized SnapshotData.
// The view owns the mapping; section pointers are valid until close() or
// destruction.
class SnapshotFileView {
 public:
  struct SectionView {
    std::uint32_t id = 0;
    const std::uint8_t* data = nullptr;
    std::uint64_t size = 0;
  };

  SnapshotFileView() = default;
  ~SnapshotFileView() { close(); }
  SnapshotFileView(const SnapshotFileView&) = delete;
  SnapshotFileView& operator=(const SnapshotFileView&) = delete;

  StoreStatus open(const std::string& path);
  void close();

  const SnapshotMeta& meta() const noexcept { return meta_; }
  std::size_t file_size() const noexcept { return map_size_; }
  const std::vector<SectionView>& sections() const noexcept {
    return sections_;
  }
  // First section with this id, or nullptr.
  const SectionView* find(std::uint32_t id) const noexcept;

 private:
  SnapshotMeta meta_;
  std::vector<SectionView> sections_;
  const std::uint8_t* map_ = nullptr;
  std::size_t map_size_ = 0;
};

}  // namespace zmail::store
