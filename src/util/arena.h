// Arena files: flat typed arrays persisted one per file.
//
// One arena file holds one array of a trivially-copyable element type
// behind a 64-byte versioned header (magic, layout version, endianness
// tag, element size, count, FNV-1a checksums of payload and header).
// read_arena reads the whole file into a vector and checks it before
// returning: it hard-rejects anything suspicious (truncated file,
// foreign magic, future layout, cross-endian writer, element-size or
// type-tag mismatch, a count the file cannot hold, checksum failure)
// with DMF_REQUIRE, which the engine boundary classifies as
// ErrorCode::kPreconditionFailed — corrupt files are an error, never UB.
//
// Publishing is crash-safe: payload goes to `<path>.tmp`, is fsync'd,
// and renamed over `<path>` (POSIX rename atomicity), then the
// directory entry is fsync'd. A crash mid-publish leaves either the old
// file or a stray `.tmp` that readers never look at.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "util/require.h"

namespace dmf {

namespace arena_detail {

// Checks the header, asks `storage(count)` for room for the payload
// (called once, after the count is known to fit the file), reads the
// payload into it and checks its hash.
void read_arena_bytes(const std::string& path, std::uint64_t type_tag,
                      std::size_t elem_size,
                      const std::function<void*(std::size_t)>& storage);
void write_arena_bytes(const std::string& path, std::uint64_t type_tag,
                       std::size_t elem_size, const void* payload,
                       std::size_t count);

}  // namespace arena_detail

// Reads and checks the arena file at `path`; throws RequirementError
// on any disagreement with `type_tag`, sizeof(T) or the checksums.
template <typename T>
[[nodiscard]] std::vector<T> read_arena(const std::string& path,
                                        std::uint64_t type_tag) {
  static_assert(std::is_trivially_copyable_v<T>,
                "arena elements must be trivially copyable");
  std::vector<T> out;
  arena_detail::read_arena_bytes(path, type_tag, sizeof(T),
                                 [&out](std::size_t count) -> void* {
                                   out.resize(count);
                                   return out.data();
                                 });
  return out;
}

// Crash-safe publish of `count` elements at `data`: tmp file + fsync +
// rename + directory fsync.
template <typename T>
void write_arena(const std::string& path, std::uint64_t type_tag,
                 const T* data, std::size_t count) {
  static_assert(std::is_trivially_copyable_v<T>,
                "arena elements must be trivially copyable");
  arena_detail::write_arena_bytes(path, type_tag, sizeof(T), data, count);
}

// Small file helpers shared by the persistence layer (GraphStore
// manifests, the CURRENT pointer file).
[[nodiscard]] bool file_exists(const std::string& path);
// Atomic small-file write: tmp + fsync + rename + directory fsync.
void write_file_atomic(const std::string& path, const std::string& contents);
[[nodiscard]] std::string read_small_file(const std::string& path);

}  // namespace dmf
