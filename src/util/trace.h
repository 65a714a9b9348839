// Compact binary event tracing: per-worker rings, post-hoc merge, NPTR files.
//
// When a city-scale sweep misbehaves — a round that stalls, a fault window
// that never recovers, a thread-count-dependent divergence — the JSON
// summaries are too coarse to localize it and logging every event through
// a shared stream would serialize the workers it is trying to observe. This
// layer records fixed-size binary events on a lock-free per-worker write
// path and reconstructs one global, deterministic timeline after the run.
//
// The concurrency story is partitioning, not synchronization: each WORKER
// (a logical sweep item, NOT a thread — see below) owns one single-producer
// TraceRing, so the hot path is an array store plus a relaxed atomic bump,
// with no locks, no CAS loops, and no sharing. Readers (merge, file write)
// run strictly after the thread pool joins, which establishes the
// happens-before edge; the rings are never read concurrently with writes.
//
// Determinism across thread counts is the binding constraint, and it is why
// worker ids are LOGICAL ITEM INDICES rather than thread ids: item 7 emits
// the same records with the same (worker=7, seq) keys whether the sweep ran
// on 1, 2, or 4 threads, so the post-hoc merge — sorted by (worker, seq) —
// and the NPTR file written from it are byte-identical. Events whose order
// genuinely depends on scheduling (e.g. which item finishes first and
// triggers a checkpoint write) are deliberately NOT traced.
//
// Rings drop-oldest when full and count what they dropped: the most recent
// events before a failure are the ones worth keeping, and a bounded ring is
// what lets tracing stay always-on at city scale. `emitted()`/`dropped()`
// make truncation visible instead of silent.
//
// The on-disk format is a util::checkpoint sealed file (little-endian
// ByteWriter payload, trailing crc32, atomic tmp+rename):
//
//   magic "NPTR" | format version u32 | record count u64
//     | records (40 bytes each) | crc32(everything before)
//
// and read_trace_file() applies the same hostile-file discipline as
// read_checkpoint_file: verify magic, version, declared sizes against
// actual bytes, and CRC — throw CheckpointError, never resume from junk.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/checkpoint.h"

namespace nplus::util {

// Event vocabulary. Values are part of the NPTR format: append only.
enum class TraceEvent : std::uint32_t {
  kItemStart = 1,     // sweep item begins; a = item index
  kItemEnd = 2,       // sweep item done; a = rounds, b = total_mbps
  kSessionStart = 3,  // run_session entered; a = n_links
  kSessionEnd = 4,    // run_session finished; a = rounds, b = duration_s
  kRoundEnd = 5,      // one contention round settled; a = winners,
                      // b = round duration_s
  kSimEvent = 6,      // the session clock stepped (a round start or an
                      // ACK-timeout expiry); a = steps so far, b = sim time
};

// One fixed-size trace record; 40 bytes on disk, little-endian.
struct TraceRecord {
  std::uint32_t worker = 0;  // logical item index (thread-count independent)
  std::uint32_t type = 0;    // TraceEvent
  std::uint64_t seq = 0;     // per-worker emission counter, from 0
  double t = 0.0;            // deterministic sim/session time, never wall clock
  std::uint64_t a = 0;       // event-specific payload (see TraceEvent)
  double b = 0.0;            // event-specific payload

  bool operator==(const TraceRecord&) const = default;
};

inline constexpr std::size_t kTraceRecordBytes = 40;

// Single-producer, drop-oldest ring buffer. Exactly one thread may call
// emit() at a time (the worker that owns this ring); all read accessors
// require the producer to have finished (pool join = the happens-before).
class TraceRing {
 public:
  TraceRing(std::uint32_t worker, std::size_t capacity);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  // Lock-free write path: one array store + one relaxed atomic increment.
  // When the ring is full the oldest record is overwritten (drop-oldest).
  void emit(TraceEvent type, double t, std::uint64_t a = 0, double b = 0.0);

  std::uint32_t worker() const { return worker_; }
  std::size_t capacity() const { return buf_.size(); }

  // Post-join accessors (not safe concurrently with emit()).
  std::uint64_t emitted() const { return head_.load(std::memory_order_relaxed); }
  std::uint64_t dropped() const;
  // Retained records, oldest first (ascending seq).
  std::vector<TraceRecord> drain() const;

  // Refills an unused ring with what a finished one held: its drain()
  // records and its emitted() count (a checkpoint resume). Throws
  // CheckpointError unless they are exactly what a ring of this worker and
  // capacity would retain after `emitted` records.
  void restore(const std::vector<TraceRecord>& retained,
               std::uint64_t emitted);

 private:
  std::uint32_t worker_;
  std::vector<TraceRecord> buf_;
  std::atomic<std::uint64_t> head_{0};  // total records ever emitted
};

// Owns one ring per logical worker. Construct before dispatch, hand
// `&collector.ring(i)` to item i, merge after join.
class TraceCollector {
 public:
  TraceCollector(std::size_t workers, std::size_t ring_capacity);

  std::size_t workers() const { return rings_.size(); }
  TraceRing& ring(std::size_t worker) { return *rings_[worker]; }
  const TraceRing& ring(std::size_t worker) const { return *rings_[worker]; }

  // Global timeline in (worker, seq) order — a pure function of the
  // per-item computations, independent of thread count and completion
  // order.
  std::vector<TraceRecord> merge() const;

  std::uint64_t total_emitted() const;
  std::uint64_t total_dropped() const;

 private:
  std::vector<std::unique_ptr<TraceRing>> rings_;  // stable addresses
};

// The record-list encoding NPTR files and checkpoint records share: a u64
// count, then kTraceRecordBytes per record. The reader throws
// CheckpointError when the count exceeds the bytes left, so a hostile
// count cannot drive a huge allocation.
void write_trace_records(const std::vector<TraceRecord>& records,
                         ByteWriter& w);
std::vector<TraceRecord> read_trace_records(ByteReader& r);

// Serializes records into the NPTR container (versioned header + CRC,
// atomic tmp+rename). Throws CheckpointError on I/O failure.
void write_trace_file(const std::string& path,
                      const std::vector<TraceRecord>& records);

// Loads and fully verifies an NPTR file. Throws CheckpointError on missing
// file, bad magic, unsupported version, truncation, size-bound violations,
// or CRC mismatch.
std::vector<TraceRecord> read_trace_file(const std::string& path);

}  // namespace nplus::util
