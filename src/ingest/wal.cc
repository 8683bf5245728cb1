#include "src/ingest/wal.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "src/common/bytes.h"
#include "src/common/crc32.h"

namespace tsdm {

namespace {

constexpr uint32_t kSegmentMagic = 0x4C575354;  // "TSWL"
constexpr uint32_t kSegmentVersion = 1;
constexpr size_t kSegmentHeaderSize = 24;
constexpr uint32_t kRecordMagic = 0x44524352;  // "RCRD"
constexpr size_t kRecordHeaderSize = 16;
constexpr size_t kRecordTrailerSize = 4;  // CRC

std::string SegmentPath(const std::string& dir, uint64_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%08llu.seg",
                static_cast<unsigned long long>(index));
  return dir + "/" + name;
}

size_t RecordExtent(uint32_t payload_size) {
  return kRecordHeaderSize + payload_size + kRecordTrailerSize;
}

/// Bytes of a record frame with `size` payload bytes that the kill site
/// `point` leaves in the segment.
size_t PersistedPrefix(CrashPoint point, uint32_t size) {
  switch (point) {
    case CrashPoint::kBeforeRecord:
      return 0;
    case CrashPoint::kMidHeader:
      return 6;
    case CrashPoint::kAfterHeader:
      return kRecordHeaderSize;
    case CrashPoint::kMidPayload:
      return kRecordHeaderSize + size / 2;
    case CrashPoint::kBeforeCrc:
      return kRecordHeaderSize + size;
    case CrashPoint::kMidCrc:
      return RecordExtent(size) - 2;
    case CrashPoint::kBeforeSync:
    case CrashPoint::kAfterRotate:
    case CrashPoint::kFailedSync:
    case CrashPoint::kNone:
      break;  // the full frame lands
  }
  return RecordExtent(size);
}

Status CrashHit(CrashPoint point) {
  return Status::Internal(std::string("wal: crash point hit: ") +
                          CrashPointName(point));
}

/// Reads the whole segment file at `path`. An entry that is not a regular
/// file, a failed stat and a short read are errors, never a torn tail.
Status ReadSegment(const std::string& path, std::vector<uint8_t>* bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::Internal("wal: cannot open segment " + path);
  }
  Status status = Status::OK();
  struct stat st {};
  if (::fstat(::fileno(f), &st) != 0) {
    status = Status::Internal("wal: cannot stat segment " + path + ": " +
                              std::strerror(errno));
  } else if (!S_ISREG(st.st_mode)) {
    status = Status::FailedPrecondition(
        "wal: segment is not a regular file: " + path);
  } else {
    bytes->resize(static_cast<size_t>(st.st_size));
    if (!bytes->empty() &&
        std::fread(bytes->data(), 1, bytes->size(), f) != bytes->size()) {
      status = Status::Internal("wal: short read of segment " + path);
    }
  }
  std::fclose(f);
  return status;
}

/// Segment files found in `dir`, sorted by index. A name counts only when
/// SegmentPath rebuilds it exactly, so a copy such as wal-00000001.seg.bak
/// is not a segment.
std::vector<std::pair<uint64_t, std::string>> ListSegments(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> segments;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::filesystem::path name = entry.path().filename();
    unsigned long long index = 0;
    if (std::sscanf(name.c_str(), "wal-%llu", &index) == 1 &&
        std::filesystem::path(SegmentPath(dir, index)).filename() == name) {
      segments.emplace_back(index, entry.path().string());
    }
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

}  // namespace

const char* CrashPointName(CrashPoint point) {
  switch (point) {
    case CrashPoint::kNone:
      return "none";
    case CrashPoint::kBeforeRecord:
      return "before-record";
    case CrashPoint::kMidHeader:
      return "mid-header";
    case CrashPoint::kAfterHeader:
      return "after-header";
    case CrashPoint::kMidPayload:
      return "mid-payload";
    case CrashPoint::kBeforeCrc:
      return "before-crc";
    case CrashPoint::kMidCrc:
      return "mid-crc";
    case CrashPoint::kBeforeSync:
      return "before-sync";
    case CrashPoint::kAfterRotate:
      return "after-rotate";
    case CrashPoint::kFailedSync:
      return "failed-sync";
  }
  return "unknown";
}

WalWriter::WalWriter(std::string dir, WalOptions options)
    : dir_(std::move(dir)), options_(options) {}

WalWriter::~WalWriter() {
  if (open_ && !crashed_) (void)Close();
  if (map_ != nullptr) (void)UnmapSegment();
}

Status WalWriter::Open(uint64_t segment_index, uint64_t next_lsn) {
  if (open_) return Status::FailedPrecondition("wal: already open");
  if (crashed_) return Status::FailedPrecondition("wal: writer crashed");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::Internal("wal: cannot create directory " + dir_ + ": " +
                            ec.message());
  }
  if (options_.segment_bytes <
      kSegmentHeaderSize + RecordExtent(0) + 1) {
    return Status::InvalidArgument("wal: segment_bytes too small");
  }
  next_lsn_ = next_lsn;
  TSDM_RETURN_IF_ERROR(OpenSegment(segment_index));
  open_ = true;
  return Status::OK();
}

Status WalWriter::OpenSegment(uint64_t segment_index) {
  const std::string path = SegmentPath(dir_, segment_index);
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
  if (fd < 0) {
    return Status::Internal("wal: cannot create segment " + path + ": " +
                            std::strerror(errno));
  }
  if (::ftruncate(fd, static_cast<off_t>(options_.segment_bytes)) != 0) {
    ::close(fd);
    return Status::Internal("wal: ftruncate failed for " + path);
  }
  void* map = ::mmap(nullptr, options_.segment_bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED, fd, 0);
  if (map == MAP_FAILED) {
    ::close(fd);
    return Status::Internal("wal: mmap failed for " + path);
  }
  fd_ = fd;
  map_ = static_cast<uint8_t*>(map);
  segment_index_ = segment_index;
  offset_ = 0;

  // Segment header: magic, version, index, base LSN.
  StoreU32(map_, kSegmentMagic);
  StoreU32(map_ + 4, kSegmentVersion);
  StoreU64(map_ + 8, segment_index);
  StoreU64(map_ + 16, next_lsn_);
  offset_ = kSegmentHeaderSize;
  ++stats_.segments_created;
  return Status::OK();
}

Status WalWriter::UnmapSegment() {
  Status status = Status::OK();
  if (map_ != nullptr &&
      ::munmap(map_, options_.segment_bytes) != 0) {
    status = Status::Internal("wal: munmap failed");
  }
  map_ = nullptr;
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  return status;
}

Status WalWriter::Append(const uint8_t* payload, uint32_t size,
                         uint64_t* lsn) {
  if (crashed_) return Status::FailedPrecondition("wal: writer crashed");
  if (!open_) return Status::FailedPrecondition("wal: not open");
  const size_t extent = RecordExtent(size);
  if (kSegmentHeaderSize + extent > options_.segment_bytes) {
    return Status::InvalidArgument("wal: record larger than a segment");
  }

  const bool crash_here =
      armed_point_ != CrashPoint::kNone && appends_seen_ == armed_ordinal_;
  ++appends_seen_;

  bool rotate = offset_ + extent > options_.segment_bytes;
  if (crash_here && armed_point_ == CrashPoint::kAfterRotate) rotate = true;
  if (rotate) {
    TSDM_RETURN_IF_ERROR(Sync());
    TSDM_RETURN_IF_ERROR(UnmapSegment());
    TSDM_RETURN_IF_ERROR(OpenSegment(segment_index_ + 1));
    ++stats_.rotations;
  }
  if (crash_here && armed_point_ == CrashPoint::kAfterRotate) {
    crashed_ = true;
    return CrashHit(armed_point_);
  }

  // Frame the record in place in the mapped segment. A kill site persists
  // an exact byte prefix of this one frame: the writer zeroes the suffix
  // the site does not persist, which restores what a segment's tail holds
  // before any record lands there.
  uint8_t* frame = map_ + offset_;
  StoreU32(frame, kRecordMagic);
  StoreU32(frame + 4, size);
  StoreU64(frame + 8, next_lsn_);
  if (size != 0) std::memcpy(frame + kRecordHeaderSize, payload, size);
  StoreU32(frame + kRecordHeaderSize + size,
           Crc32(frame + 4, kRecordHeaderSize - 4 + size));

  if (crash_here && armed_point_ == CrashPoint::kFailedSync) {
    fail_next_sync_ = true;
  } else if (crash_here) {
    // kBeforeSync persists the whole frame: on a process crash the dirty
    // pages of a MAP_SHARED mapping survive in the page cache, so recovery
    // must (and does) see this record even though Sync never ran.
    const size_t persist = PersistedPrefix(armed_point_, size);
    std::memset(frame + persist, 0, extent - persist);
    crashed_ = true;
    return CrashHit(armed_point_);
  }

  offset_ += extent;
  if (lsn != nullptr) *lsn = next_lsn_;
  ++next_lsn_;
  ++stats_.records;
  stats_.payload_bytes += size;
  stats_.appended_bytes += extent;
  return Status::OK();
}

Status WalWriter::Sync() {
  return DoSync(options_.synchronous ? MS_SYNC : MS_ASYNC);
}

Status WalWriter::DoSync(int flags) {
  if (!open_) return Status::FailedPrecondition("wal: not open");
  if (fail_next_sync_) {
    crashed_ = true;
    return CrashHit(CrashPoint::kFailedSync);
  }
  if (map_ != nullptr && ::msync(map_, offset_, flags) != 0) {
    return Status::Internal("wal: msync failed");
  }
  ++stats_.syncs;
  return Status::OK();
}

Status WalWriter::Close() {
  if (!open_) return Status::FailedPrecondition("wal: not open");
  Status status = Status::OK();
  if (!crashed_) status = DoSync(MS_SYNC);  // the close barrier always blocks
  Status unmap = UnmapSegment();
  open_ = false;
  return status.ok() ? unmap : status;
}

void WalWriter::ArmCrash(CrashPoint point, uint64_t record_ordinal) {
  armed_point_ = point;
  armed_ordinal_ = record_ordinal;
}

Status WalReader::Scan(const std::string& dir, const RecordFn& fn,
                       WalScanReport* report) {
  *report = WalScanReport();
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return Status::OK();

  const auto segments = ListSegments(dir);
  for (const auto& [index, path] : segments) {
    report->next_segment_index = std::max(report->next_segment_index,
                                          index + 1);
  }

  for (const auto& [index, path] : segments) {
    std::vector<uint8_t> bytes;
    TSDM_RETURN_IF_ERROR(ReadSegment(path, &bytes));
    ++report->segments;
    report->bytes_scanned += bytes.size();

    // Segment header. An all-zero header means the process died after
    // creating the file but before the header landed: an empty segment.
    if (bytes.size() < kSegmentHeaderSize) continue;
    uint32_t seg_magic = GetU32(bytes.data());
    if (seg_magic == 0) continue;
    if (seg_magic != kSegmentMagic ||
        GetU32(bytes.data() + 4) != kSegmentVersion) {
      ++report->torn_records;
      continue;  // unreadable segment header: skip the whole segment
    }

    size_t off = kSegmentHeaderSize;
    bool torn = false;
    while (!torn && off + 4 <= bytes.size()) {
      uint32_t magic = GetU32(bytes.data() + off);
      if (magic == 0) break;  // zero tail: clean end of this segment
      if (magic != kRecordMagic) {
        torn = true;
        break;
      }
      if (off + kRecordHeaderSize > bytes.size()) {
        torn = true;
        break;
      }
      uint32_t size = GetU32(bytes.data() + off + 4);
      uint64_t lsn = GetU64(bytes.data() + off + 8);
      size_t extent = RecordExtent(size);
      if (off + extent > bytes.size()) {
        torn = true;
        break;
      }
      uint32_t crc = Crc32(bytes.data() + off + 4,
                           kRecordHeaderSize - 4 + size);
      if (crc != GetU32(bytes.data() + off + kRecordHeaderSize + size)) {
        torn = true;
        break;
      }
      // LSN continuity: the only valid next record extends the sequence by
      // exactly one. Debris past a previous tear (stale bytes with old
      // LSNs) fails this check and ends the segment.
      if (lsn != report->last_lsn + 1) {
        torn = true;
        break;
      }
      if (fn != nullptr) {
        WalRecord record;
        record.lsn = lsn;
        record.payload = bytes.data() + off + kRecordHeaderSize;
        record.size = size;
        TSDM_RETURN_IF_ERROR(fn(record));
      }
      ++report->records;
      report->last_lsn = lsn;
      off += extent;
    }
    if (torn) ++report->torn_records;
    // A tear only ends *this* segment: a later segment opened by a
    // restarted writer continues the LSN sequence and is scanned normally
    // (the continuity check above rejects anything else).
  }
  return Status::OK();
}

}  // namespace tsdm
