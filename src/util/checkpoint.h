// Versioned, CRC-protected, atomically-replaced binary checkpoint files.
//
// The resilient sweep layer (sim::CheckpointedRunner) periodically persists
// completed item results so a killed city-scale run restarts from where it
// died instead of from zero. This header owns the *container*: a
// little-endian binary file
//
//   magic "NPCK" | format version u32 | payload | crc32(payload)
//
// whose payload is an app-defined identity header (the sweep's seed, item
// count, and pre-forked RNG stream table) plus a set of (item index, blob)
// records. Every write goes to `<path>.tmp` and is renamed over the target,
// so a kill mid-write leaves either the previous complete checkpoint or
// none — never a torn file. Every read verifies magic, version, structural
// bounds, and the trailing CRC, and throws CheckpointError rather than
// resuming from corrupt state.
//
// ByteWriter/ByteReader are the (deliberately tiny) serialization scheme:
// fixed-width little-endian integers and IEEE-754 doubles, so a value
// round-trips bit-exactly — the foundation of the "resume is byte-identical
// to an uninterrupted run" guarantee.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace nplus::util {

// CRC-32 (IEEE 802.3, reflected 0xEDB88320), seedable for incremental use.
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc = 0);

struct CheckpointError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Append-only little-endian encoder.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);  // IEEE-754 bit pattern, exact round-trip
  void bytes(const void* data, std::size_t n);
  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

// Bounds-checked decoder over a byte span; any over-read throws
// CheckpointError (a truncated record must never deserialize quietly).
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t n)
      : data_(data), size_(n) {}
  explicit ByteReader(const std::vector<std::uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  void bytes(void* out, std::size_t n);
  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// Sealed files: the tmp+rename writer and CRC-checked reader shared by
// every on-disk container here (checkpoints, NPTR traces). The file is
// `payload | crc32(payload)` (little-endian tail).
//
// Writes the sealed file to `<path>.tmp` and renames it over `path`, so a
// kill mid-write leaves the previous complete file or none, never a torn
// one. Throws CheckpointError on any I/O failure.
void write_sealed_file(const std::string& path,
                       const std::vector<std::uint8_t>& payload);
// Reads `path` whole and verifies its CRC tail; returns the payload without
// the tail, or nullopt if the file cannot be opened (errno says why).
// Throws CheckpointError, prefixed "<kind> <path>: ", on a read error, a
// file shorter than `min_size` bytes (tail included; >= 4), or a CRC
// mismatch.
std::optional<std::vector<std::uint8_t>> read_sealed_file(
    const std::string& path, const char* kind, std::size_t min_size);

// The decoded container contents.
struct CheckpointData {
  std::uint32_t version = 0;  // app-level format version from the header
  std::vector<std::uint8_t> header;  // app identity blob, verified on resume
  // Completed item records, each (item index, opaque result blob).
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> items;
};

// Serializes and atomically replaces `path` (write <path>.tmp, fsync-free
// rename). Throws CheckpointError on any I/O failure.
void write_checkpoint_file(const std::string& path, const CheckpointData& d);

// Loads and verifies `path`. Returns nullopt if the file does not exist;
// throws CheckpointError on bad magic, unsupported container version,
// truncation, or CRC mismatch.
std::optional<CheckpointData> read_checkpoint_file(const std::string& path);

}  // namespace nplus::util
