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

/// Segment files found in `dir`, sorted by index.
std::vector<std::pair<uint64_t, std::string>> ListSegments(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> segments;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long index = 0;
    if (std::sscanf(name.c_str(), "wal-%08llu.seg", &index) == 1) {
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
  std::vector<uint8_t> header;
  header.reserve(kSegmentHeaderSize);
  PutU32(&header, kSegmentMagic);
  PutU32(&header, kSegmentVersion);
  PutU64(&header, segment_index);
  PutU64(&header, next_lsn_);
  std::memcpy(map_, header.data(), header.size());
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
    return Status::Internal(std::string("wal: crash point hit: ") +
                            CrashPointName(armed_point_));
  }

  // Frame the record in a scratch buffer so partial-write crash points can
  // persist an exact byte prefix of it.
  std::vector<uint8_t> frame;
  frame.reserve(extent);
  PutU32(&frame, kRecordMagic);
  PutU32(&frame, size);
  PutU64(&frame, next_lsn_);
  frame.insert(frame.end(), payload, payload + size);
  uint32_t crc = Crc32(frame.data() + 4, kRecordHeaderSize - 4 + size);
  PutU32(&frame, crc);

  size_t persist = frame.size();
  if (crash_here) {
    switch (armed_point_) {
      case CrashPoint::kBeforeRecord:
        persist = 0;
        break;
      case CrashPoint::kMidHeader:
        persist = 6;
        break;
      case CrashPoint::kAfterHeader:
        persist = kRecordHeaderSize;
        break;
      case CrashPoint::kMidPayload:
        persist = kRecordHeaderSize + size / 2;
        break;
      case CrashPoint::kBeforeCrc:
        persist = kRecordHeaderSize + size;
        break;
      case CrashPoint::kMidCrc:
        persist = frame.size() - 2;
        break;
      case CrashPoint::kBeforeSync:
      case CrashPoint::kAfterRotate:
      case CrashPoint::kNone:
        break;  // full frame lands
    }
  }
  std::memcpy(map_ + offset_, frame.data(), persist);

  if (crash_here) {
    // kBeforeSync persists the whole frame: on a process crash the dirty
    // pages of a MAP_SHARED mapping survive in the page cache, so recovery
    // must (and does) see this record even though Sync never ran.
    crashed_ = true;
    return Status::Internal(std::string("wal: crash point hit: ") +
                            CrashPointName(armed_point_));
  }

  offset_ += extent;
  if (lsn != nullptr) *lsn = next_lsn_;
  ++next_lsn_;
  ++stats_.records;
  stats_.payload_bytes += size;
  stats_.appended_bytes += extent;
  if (options_.sync_every_records != 0 &&
      stats_.records % options_.sync_every_records == 0) {
    TSDM_RETURN_IF_ERROR(Sync());
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  return DoSync(options_.synchronous ? MS_SYNC : MS_ASYNC);
}

Status WalWriter::DoSync(int flags) {
  if (!open_) return Status::FailedPrecondition("wal: not open");
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
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      return Status::Internal("wal: cannot open segment " + path);
    }
    std::fseek(f, 0, SEEK_END);
    long fsize = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<uint8_t> bytes(fsize > 0 ? static_cast<size_t>(fsize) : 0);
    size_t got = bytes.empty() ? 0 : std::fread(bytes.data(), 1,
                                                bytes.size(), f);
    std::fclose(f);
    bytes.resize(got);
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
