#include "util/arena.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstring>

namespace dmf {

namespace {

constexpr std::uint64_t kArenaMagic = 0x414e4552'41464d44ULL;  // "DMFARENA"
constexpr std::uint32_t kLayoutVersion = 1;
constexpr std::uint32_t kEndianTag = 0x01020304;

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

[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

[[nodiscard]] std::string errno_message(const char* what,
                                        const std::string& path) {
  return std::string(what) + " " + path + ": " + std::strerror(errno);
}

// Closes a read descriptor on every exit path.
class ReadFd {
 public:
  explicit ReadFd(const std::string& path)
      : fd_(::open(path.c_str(), O_RDONLY)) {
    DMF_REQUIRE(fd_ >= 0, errno_message("arena: cannot open", path));
  }
  ~ReadFd() { ::close(fd_); }
  ReadFd(const ReadFd&) = delete;
  ReadFd& operator=(const ReadFd&) = delete;
  [[nodiscard]] int get() const { return fd_; }

 private:
  int fd_;
};

// Reads until `size` bytes arrived or the file ended; returns the
// number read (read(2) may be partial).
std::size_t read_up_to(int fd, void* data, std::size_t size,
                       const std::string& path) {
  char* p = static_cast<char*>(data);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t got = ::read(fd, p + done, size - done);
    if (got == 0) break;
    if (got < 0 && errno == EINTR) continue;
    DMF_REQUIRE(got > 0, errno_message("arena: read failed for", path));
    done += static_cast<std::size_t>(got);
  }
  return done;
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
    DMF_REQUIRE(wrote > 0, errno_message("arena: write failed for", path));
    p += wrote;
    remaining -= static_cast<std::size_t>(wrote);
  }
}

// Writes `head` then `body` to `<path>.tmp`, fsyncs it, renames it over
// `path` and fsyncs the directory.
void publish_atomic(const std::string& path, const void* head,
                    std::size_t head_size, const void* body,
                    std::size_t body_size) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  DMF_REQUIRE(fd >= 0, errno_message("arena: cannot create", tmp));
  try {
    write_all(fd, head, head_size, tmp);
    write_all(fd, body, body_size, tmp);
    DMF_REQUIRE(::fsync(fd) == 0, errno_message("arena: fsync", tmp));
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  DMF_REQUIRE(::rename(tmp.c_str(), path.c_str()) == 0,
              errno_message("arena: rename failed for", path));
  fsync_parent_dir(path);
}

}  // namespace

namespace arena_detail {

void read_arena_bytes(const std::string& path, std::uint64_t type_tag,
                      std::size_t elem_size,
                      const std::function<void*(std::size_t)>& storage) {
  const ReadFd fd(path);
  struct stat st{};
  DMF_REQUIRE(::fstat(fd.get(), &st) == 0,
              errno_message("arena: cannot stat", path));
  const auto file_size = static_cast<std::uint64_t>(st.st_size);
  ArenaHeader header{};
  DMF_REQUIRE(file_size >= sizeof(ArenaHeader) &&
                  read_up_to(fd.get(), &header, sizeof(header), path) ==
                      sizeof(header),
              "arena: " + path + " truncated (no header)");
  DMF_REQUIRE(header.magic == kArenaMagic,
              "arena: " + path + " has foreign magic");
  DMF_REQUIRE(header.layout_version == kLayoutVersion,
              "arena: " + path + " has unsupported layout version");
  DMF_REQUIRE(header.endianness == kEndianTag,
              "arena: " + path + " was written with other endianness");
  DMF_REQUIRE(fnv1a(&header, offsetof(ArenaHeader, header_hash)) ==
                  header.header_hash,
              "arena: " + path + " header checksum mismatch");
  DMF_REQUIRE(header.type_tag == type_tag,
              "arena: " + path + " holds a different array kind");
  DMF_REQUIRE(header.elem_size == elem_size,
              "arena: " + path + " element size mismatch");
  // Bound the count by what the file can hold before multiplying or
  // allocating: a checksum-valid count near 2^64 / elem_size would
  // otherwise wrap the byte count or ask for an impossible vector.
  DMF_REQUIRE(header.count <= (file_size - sizeof(ArenaHeader)) / elem_size,
              "arena: " + path + " header count exceeds the file");
  const auto count = static_cast<std::size_t>(header.count);
  const std::size_t payload_bytes = count * elem_size;
  DMF_REQUIRE(file_size == sizeof(ArenaHeader) + payload_bytes,
              "arena: " + path + " size disagrees with header count");
  void* payload = storage(count);
  DMF_REQUIRE(read_up_to(fd.get(), payload, payload_bytes, path) ==
                  payload_bytes,
              "arena: " + path + " truncated payload");
  DMF_REQUIRE(fnv1a(payload, payload_bytes) == header.payload_hash,
              "arena: " + path + " payload checksum mismatch");
}

void write_arena_bytes(const std::string& path, std::uint64_t type_tag,
                       std::size_t elem_size, const void* payload,
                       std::size_t count) {
  const std::size_t payload_bytes = count * elem_size;
  ArenaHeader header;
  header.magic = kArenaMagic;
  header.layout_version = kLayoutVersion;
  header.endianness = kEndianTag;
  header.type_tag = type_tag;
  header.elem_size = elem_size;
  header.count = count;
  header.payload_hash = fnv1a(payload, payload_bytes);
  header.header_hash = fnv1a(&header, offsetof(ArenaHeader, header_hash));
  publish_atomic(path, &header, sizeof(header), payload, payload_bytes);
}

}  // namespace arena_detail

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

void write_file_atomic(const std::string& path, const std::string& contents) {
  publish_atomic(path, contents.data(), contents.size(), nullptr, 0);
}

std::string read_small_file(const std::string& path) {
  const ReadFd fd(path);
  std::string out;
  char buf[4096];
  for (;;) {
    const std::size_t got = read_up_to(fd.get(), buf, sizeof(buf), path);
    out.append(buf, got);
    if (got < sizeof(buf)) break;
  }
  return out;
}

}  // namespace dmf
