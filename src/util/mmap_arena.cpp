#include "util/mmap_arena.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace dmf {

namespace {

constexpr std::uint64_t kArenaMagic = 0x414e4552'41464d44ULL;  // "DMFARENA"
constexpr std::uint32_t kLayoutVersion = 1;
constexpr std::uint32_t kEndianTag = 0x01020304;

[[nodiscard]] std::uint64_t fnv1a(const unsigned char* data,
                                  std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

[[nodiscard]] std::string errno_message(const char* what,
                                        const std::string& path) {
  return std::string(what) + " " + path + ": " + std::strerror(errno);
}

void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);  // best effort — data durability came from the file fsync
    ::close(fd);
  }
}

// Full write loop (write(2) may be partial).
void write_all(int fd, const void* data, std::size_t size,
               const std::string& path) {
  const char* p = static_cast<const char*>(data);
  std::size_t remaining = size;
  while (remaining > 0) {
    const ssize_t wrote = ::write(fd, p, remaining);
    DMF_REQUIRE(wrote > 0, errno_message("mmap arena: write failed for", path));
    p += wrote;
    remaining -= static_cast<std::size_t>(wrote);
  }
}

}  // namespace

std::shared_ptr<const MappedFile> MappedFile::map(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  DMF_REQUIRE(fd >= 0, errno_message("mmap arena: cannot open", path));
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    DMF_REQUIRE(false, errno_message("mmap arena: cannot stat", path));
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  const unsigned char* data = nullptr;
  if (size > 0) {
    void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (base == MAP_FAILED) {
      ::close(fd);
      DMF_REQUIRE(false, errno_message("mmap arena: mmap failed for", path));
    }
    data = static_cast<const unsigned char*>(base);
  }
  ::close(fd);  // the mapping survives the descriptor
  auto file = std::shared_ptr<MappedFile>(new MappedFile());
  file->data_ = data;
  file->size_ = size;
  file->path_ = path;
  return file;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(data_), size_);
  }
}

namespace arena_detail {

ArenaView open_arena(const std::string& path, std::uint64_t type_tag,
                     std::size_t elem_size) {
  std::shared_ptr<const MappedFile> file = MappedFile::map(path);
  DMF_REQUIRE(file->size() >= sizeof(ArenaHeader),
              "mmap arena: " + path + " truncated (no header)");
  ArenaHeader header{};
  std::memcpy(&header, file->data(), sizeof(header));
  DMF_REQUIRE(header.magic == kArenaMagic,
              "mmap arena: " + path + " has foreign magic");
  DMF_REQUIRE(header.layout_version == kLayoutVersion,
              "mmap arena: " + path + " has unsupported layout version");
  DMF_REQUIRE(header.endianness == kEndianTag,
              "mmap arena: " + path + " was written with other endianness");
  DMF_REQUIRE(fnv1a(file->data(), offsetof(ArenaHeader, header_hash)) ==
                  header.header_hash,
              "mmap arena: " + path + " header checksum mismatch");
  DMF_REQUIRE(header.type_tag == type_tag,
              "mmap arena: " + path + " holds a different array kind");
  DMF_REQUIRE(header.elem_size == elem_size,
              "mmap arena: " + path + " element size mismatch");
  const std::uint64_t payload_bytes = header.count * header.elem_size;
  DMF_REQUIRE(file->size() == sizeof(ArenaHeader) + payload_bytes,
              "mmap arena: " + path + " size disagrees with header count");
  const unsigned char* payload = file->data() + sizeof(ArenaHeader);
  DMF_REQUIRE(fnv1a(payload, static_cast<std::size_t>(payload_bytes)) ==
                  header.payload_hash,
              "mmap arena: " + path + " payload checksum mismatch");
  ArenaView view;
  view.payload = payload;
  view.count = header.count;
  view.file = std::move(file);
  return view;
}

void write_arena(const std::string& path, std::uint64_t type_tag,
                 std::size_t elem_size, const void* payload,
                 std::uint64_t count) {
  ArenaHeader header;
  header.magic = kArenaMagic;
  header.layout_version = kLayoutVersion;
  header.endianness = kEndianTag;
  header.type_tag = type_tag;
  header.elem_size = elem_size;
  header.count = count;
  header.payload_hash = fnv1a(static_cast<const unsigned char*>(payload),
                              static_cast<std::size_t>(count * elem_size));
  header.header_hash =
      fnv1a(reinterpret_cast<const unsigned char*>(&header),
            offsetof(ArenaHeader, header_hash));

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  DMF_REQUIRE(fd >= 0, errno_message("mmap arena: cannot create", tmp));
  try {
    write_all(fd, &header, sizeof(header), tmp);
    if (count > 0) {
      write_all(fd, payload, static_cast<std::size_t>(count * elem_size), tmp);
    }
    DMF_REQUIRE(::fsync(fd) == 0, errno_message("mmap arena: fsync", tmp));
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  DMF_REQUIRE(::rename(tmp.c_str(), path.c_str()) == 0,
              errno_message("mmap arena: rename failed for", path));
  fsync_parent_dir(path);
}

}  // namespace arena_detail

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

void write_file_atomic(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  DMF_REQUIRE(fd >= 0, errno_message("mmap arena: cannot create", tmp));
  try {
    write_all(fd, contents.data(), contents.size(), tmp);
    DMF_REQUIRE(::fsync(fd) == 0, errno_message("mmap arena: fsync", tmp));
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  DMF_REQUIRE(::rename(tmp.c_str(), path.c_str()) == 0,
              errno_message("mmap arena: rename failed for", path));
  fsync_parent_dir(path);
}

std::string read_small_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  DMF_REQUIRE(fd >= 0, errno_message("mmap arena: cannot open", path));
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t got = ::read(fd, buf, sizeof(buf));
    if (got <= 0) break;
    out.append(buf, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return out;
}

}  // namespace dmf
