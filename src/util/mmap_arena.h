// File-backed arenas: flat typed arrays persisted as memory-mapped
// files (the ExpressionMatrix2 MemoryMappedVector idiom).
//
// One arena file holds one array of a trivially-copyable element type
// behind a 64-byte versioned header (magic, layout version, endianness
// tag, element size, count, FNV-1a checksums of payload and header).
// Readers map the file read-only and hand out zero-copy views — pages
// fault in on demand, so arrays larger than RAM work; nothing is
// deserialized. The open path hard-rejects anything suspicious
// (truncated file, foreign magic, future layout, cross-endian writer,
// element-size or type-tag mismatch, checksum failure) with
// DMF_REQUIRE, which the engine boundary classifies as
// ErrorCode::kPreconditionFailed — corrupt files are an error, never UB.
//
// Publishing is crash-safe: payload goes to `<path>.tmp`, is fsync'd,
// and renamed over `<path>` (POSIX rename atomicity), then the
// directory entry is fsync'd. A crash mid-publish leaves either the old
// file or a stray `.tmp` that readers never look at.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "util/require.h"
#include "util/span.h"

namespace dmf {

// A read-only memory mapping of a whole file; move-only, unmaps on
// destruction. Shared by every array view opened from the file.
class MappedFile {
 public:
  [[nodiscard]] static std::shared_ptr<const MappedFile> map(
      const std::string& path);
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] const unsigned char* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  MappedFile() = default;
  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  std::string path_;
};

namespace arena_detail {

// The 64-byte on-disk header. POD, written and read in host byte order;
// the endianness tag catches cross-endian files.
struct ArenaHeader {
  std::uint64_t magic = 0;
  std::uint32_t layout_version = 0;
  std::uint32_t endianness = 0;
  std::uint64_t type_tag = 0;
  std::uint64_t elem_size = 0;
  std::uint64_t count = 0;
  std::uint64_t payload_hash = 0;
  std::uint64_t header_hash = 0;  // FNV-1a of the 48 bytes above
  std::uint64_t reserved = 0;
};
static_assert(sizeof(ArenaHeader) == 64, "arena header must be 64 bytes");

struct ArenaView {
  std::shared_ptr<const MappedFile> file;
  const void* payload = nullptr;
  std::uint64_t count = 0;
};

[[nodiscard]] ArenaView open_arena(const std::string& path,
                                   std::uint64_t type_tag,
                                   std::size_t elem_size);
void write_arena(const std::string& path, std::uint64_t type_tag,
                 std::size_t elem_size, const void* payload,
                 std::uint64_t count);

}  // namespace arena_detail

// A typed arena array. Writer side: append elements, then publish()
// atomically to a path. Reader side: open() maps an existing file
// zero-copy and returns a SharedArray whose keepalive is the mapping.
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "ArenaVector elements must be trivially copyable");

 public:
  ArenaVector() = default;

  void append(const T* values, std::size_t count) {
    pending_.insert(pending_.end(), values, values + count);
  }
  void append(Span<const T> values) { append(values.data(), values.size()); }

  [[nodiscard]] std::size_t size() const { return pending_.size(); }

  // Crash-safe publish: tmp file + fsync + rename + directory fsync.
  void publish(const std::string& path, std::uint64_t type_tag) const {
    arena_detail::write_arena(path, type_tag, sizeof(T), pending_.data(),
                              pending_.size());
  }

  // One-shot publish of an existing array.
  static void write(const std::string& path, std::uint64_t type_tag,
                    Span<const T> values) {
    arena_detail::write_arena(path, type_tag, sizeof(T), values.data(),
                              values.size());
  }

  // Map an arena file read-only; validates the header and the payload
  // hash (one sequential pass) before returning a zero-copy view.
  [[nodiscard]] static SharedArray<T> open(const std::string& path,
                                           std::uint64_t type_tag) {
    arena_detail::ArenaView view =
        arena_detail::open_arena(path, type_tag, sizeof(T));
    return SharedArray<T>::view(static_cast<const T*>(view.payload),
                                static_cast<std::size_t>(view.count),
                                std::move(view.file));
  }

 private:
  std::vector<T> pending_;
};

// Small file helpers shared by the persistence layer (GraphStore
// manifests, the CURRENT pointer file).
[[nodiscard]] bool file_exists(const std::string& path);
// Atomic small-file write: tmp + fsync + rename + directory fsync.
void write_file_atomic(const std::string& path, const std::string& contents);
[[nodiscard]] std::string read_small_file(const std::string& path);

}  // namespace dmf
