#include "util/trace.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace nplus::util {

namespace {

constexpr std::uint32_t kTraceMagic = 0x5254504Eu;  // "NPTR" little-endian
constexpr std::uint32_t kTraceVersion = 1;

[[noreturn]] void corrupt(const std::string& path, const std::string& why) {
  throw CheckpointError("trace " + path + ": " + why);
}

}  // namespace

TraceRing::TraceRing(std::uint32_t worker, std::size_t capacity)
    : worker_(worker), buf_(capacity == 0 ? 1 : capacity) {}

void TraceRing::emit(TraceEvent type, double t, std::uint64_t a, double b) {
  const std::uint64_t seq = head_.load(std::memory_order_relaxed);
  TraceRecord& slot = buf_[static_cast<std::size_t>(seq % buf_.size())];
  slot.worker = worker_;
  slot.type = static_cast<std::uint32_t>(type);
  slot.seq = seq;
  slot.t = t;
  slot.a = a;
  slot.b = b;
  // Relaxed is sufficient: this ring is single-producer and readers only
  // run after the worker pool joins (the join supplies the fence).
  head_.store(seq + 1, std::memory_order_relaxed);
}

std::uint64_t TraceRing::dropped() const {
  const std::uint64_t n = emitted();
  const std::uint64_t cap = buf_.size();
  return n > cap ? n - cap : 0;
}

std::vector<TraceRecord> TraceRing::drain() const {
  const std::uint64_t n = emitted();
  const std::uint64_t cap = buf_.size();
  const std::uint64_t first = n > cap ? n - cap : 0;
  std::vector<TraceRecord> out;
  out.reserve(static_cast<std::size_t>(n - first));
  for (std::uint64_t seq = first; seq < n; ++seq) {
    out.push_back(buf_[static_cast<std::size_t>(seq % cap)]);
  }
  return out;
}

void TraceRing::restore(const std::vector<TraceRecord>& retained,
                        std::uint64_t emitted) {
  const std::uint64_t cap = buf_.size();
  const std::uint64_t first = emitted > cap ? emitted - cap : 0;
  if (this->emitted() != 0 || retained.size() != emitted - first) {
    throw CheckpointError("trace ring " + std::to_string(worker_) +
                          ": saved records do not fit this ring");
  }
  for (std::size_t k = 0; k < retained.size(); ++k) {
    const TraceRecord& rec = retained[k];
    if (rec.worker != worker_ || rec.seq != first + k) {
      throw CheckpointError("trace ring " + std::to_string(worker_) +
                            ": saved record out of sequence");
    }
    buf_[static_cast<std::size_t>(rec.seq % cap)] = rec;
  }
  head_.store(emitted, std::memory_order_relaxed);
}

TraceCollector::TraceCollector(std::size_t workers, std::size_t ring_capacity) {
  rings_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    rings_.push_back(std::make_unique<TraceRing>(
        static_cast<std::uint32_t>(i), ring_capacity));
  }
}

std::vector<TraceRecord> TraceCollector::merge() const {
  std::vector<TraceRecord> out;
  std::size_t total = 0;
  for (const auto& r : rings_) {
    total += static_cast<std::size_t>(
        std::min<std::uint64_t>(r->emitted(), r->capacity()));
  }
  out.reserve(total);
  // Rings are stored in worker order and drain() yields ascending seq, so
  // plain concatenation IS the (worker, seq) sort.
  for (const auto& r : rings_) {
    auto part = r->drain();
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

std::uint64_t TraceCollector::total_emitted() const {
  std::uint64_t n = 0;
  for (const auto& r : rings_) n += r->emitted();
  return n;
}

std::uint64_t TraceCollector::total_dropped() const {
  std::uint64_t n = 0;
  for (const auto& r : rings_) n += r->dropped();
  return n;
}

void write_trace_records(const std::vector<TraceRecord>& records,
                         ByteWriter& w) {
  w.u64(records.size());
  for (const TraceRecord& rec : records) {
    w.u32(rec.worker);
    w.u32(rec.type);
    w.u64(rec.seq);
    w.f64(rec.t);
    w.u64(rec.a);
    w.f64(rec.b);
  }
}

std::vector<TraceRecord> read_trace_records(ByteReader& r) {
  const std::uint64_t n = r.u64();
  if (n > r.remaining() / kTraceRecordBytes) {
    throw CheckpointError("declared record count " + std::to_string(n) +
                          " exceeds remaining payload");
  }
  std::vector<TraceRecord> out(static_cast<std::size_t>(n));
  for (TraceRecord& rec : out) {
    rec.worker = r.u32();
    rec.type = r.u32();
    rec.seq = r.u64();
    rec.t = r.f64();
    rec.a = r.u64();
    rec.b = r.f64();
  }
  return out;
}

void write_trace_file(const std::string& path,
                      const std::vector<TraceRecord>& records) {
  ByteWriter w;
  w.u32(kTraceMagic);
  w.u32(kTraceVersion);
  write_trace_records(records, w);
  write_sealed_file(path, w.data());
}

std::vector<TraceRecord> read_trace_file(const std::string& path) {
  const auto payload = read_sealed_file(path, "trace", 20);
  if (!payload) {
    throw CheckpointError("cannot open trace " + path + ": " +
                          std::strerror(errno));
  }

  try {
    ByteReader r(*payload);
    if (r.u32() != kTraceMagic) {
      throw CheckpointError("bad magic (not a trace file)");
    }
    const std::uint32_t version = r.u32();
    if (version != kTraceVersion) {
      throw CheckpointError("unsupported trace version " +
                            std::to_string(version));
    }
    std::vector<TraceRecord> out = read_trace_records(r);
    if (!r.done()) throw CheckpointError("trailing bytes after last record");
    return out;
  } catch (const CheckpointError& e) {
    corrupt(path, e.what());
  }
}

}  // namespace nplus::util
