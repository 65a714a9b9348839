#include "sim/checkpoint_runner.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/audit.h"
#include "util/rng.h"
#include "util/trace.h"

namespace nplus::sim {
namespace {

// App-level checkpoint format version (the container has its own). Bump on
// any change to the header blob or the SessionResult record layout.
// v2: SessionResult grew the round_duration_q quantile sketch (appended at
// the end of the record).
// v3: each item record ends with the item's trace ring (emitted count, then
// the retained records), so a traced resume reproduces the merged trace.
constexpr std::uint32_t kAppVersion = 3;

void write_rng_state(const util::Rng::State& s, util::ByteWriter& w) {
  w.u64(s.gen.state);
  w.u64(s.gen.inc);
  w.u8(s.has_cached ? 1 : 0);
  w.f64(s.cached);
}

void write_stats(const util::RunningStats& s, util::ByteWriter& w) {
  const util::RunningStats::State st = s.state();
  w.u64(st.n);
  w.f64(st.mean);
  w.f64(st.m2);
  w.f64(st.min);
  w.f64(st.max);
}

util::RunningStats read_stats(util::ByteReader& r) {
  util::RunningStats::State st;
  st.n = r.u64();
  st.mean = r.f64();
  st.m2 = r.f64();
  st.min = r.f64();
  st.max = r.f64();
  return util::RunningStats::from_state(st);
}

void write_f64_vec(const std::vector<double>& v, util::ByteWriter& w) {
  w.u64(v.size());
  for (double x : v) w.f64(x);
}

std::vector<double> read_f64_vec(util::ByteReader& r) {
  std::vector<double> v(r.u64());
  for (double& x : v) x = r.f64();
  return v;
}

void write_u64_vec(const std::vector<std::size_t>& v, util::ByteWriter& w) {
  w.u64(v.size());
  for (std::size_t x : v) w.u64(x);
}

std::vector<std::size_t> read_u64_vec(util::ByteReader& r) {
  std::vector<std::size_t> v(r.u64());
  for (std::size_t& x : v) x = r.u64();
  return v;
}

// A finished item's trace ring; an untraced item writes an empty one.
void write_ring(const util::TraceRing* ring, util::ByteWriter& w) {
  w.u64(ring != nullptr ? ring->emitted() : 0);
  util::write_trace_records(
      ring != nullptr ? ring->drain() : std::vector<util::TraceRecord>{}, w);
}

// Reads a ring written by write_ring into `ring` (nullptr: skip it). A
// traced run refuses a record with no events: every traced item emits at
// least kItemStart, so such a record was checkpointed without tracing.
void read_ring(util::ByteReader& r, util::TraceRing* ring,
               const std::string& where) {
  const std::uint64_t emitted = r.u64();
  const std::vector<util::TraceRecord> recs = util::read_trace_records(r);
  if (ring == nullptr) return;
  if (emitted == 0) {
    throw util::CheckpointError(where +
                                " was written without tracing; rerun the "
                                "sweep from scratch to trace it");
  }
  ring->restore(recs, emitted);
}

// The sweep identity blob stored in (and verified against) a checkpoint:
// the master seed, the item count, and the full pre-forked per-item stream
// table. Two runs with equal headers are guaranteed to hand every item the
// same draws, so restoring their results is sound.
std::vector<std::uint8_t> build_header(
    std::uint64_t seed, const std::vector<util::Rng::State>& table) {
  util::ByteWriter w;
  w.u64(seed);
  w.u64(table.size());
  for (const auto& s : table) write_rng_state(s, w);
  return w.take();
}

}  // namespace

void serialize_session_result(const SessionResult& r, util::ByteWriter& w) {
  w.u64(r.rounds);
  w.f64(r.duration_s);
  write_f64_vec(r.per_link_mbps, w);
  w.f64(r.total_mbps);
  w.f64(r.jain);
  w.f64(r.mean_winners_per_round);
  w.f64(r.mean_streams_per_round);
  write_stats(r.round_duration, w);
  w.u64(r.series.size());
  for (const SessionSnapshot& s : r.series) {
    w.f64(s.t_s);
    w.u64(s.rounds);
    w.f64(s.total_mbps);
    w.f64(s.jain);
    w.f64(s.join_rate);
  }
  w.u64(r.idle_rounds);
  w.f64(r.mean_active_links);
  w.f64(r.goodput_mbps);
  write_f64_vec(r.per_link_goodput_mbps, w);
  w.u64(r.degenerate_esnr);
  const FaultStats& f = r.faults;
  w.u64(f.frames_completed);
  w.u64(f.frames_dropped);
  w.u64(f.retransmissions);
  w.u64(f.ack_losses);
  w.u64(f.header_deferrals);
  w.u64(f.blind_joins);
  w.u64(f.csi_failures);
  w.u64(f.degenerate_esnr);
  w.u64(f.outages);
  write_u64_vec(f.retry_histogram, w);
  write_stats(f.outage_s, w);
  write_stats(f.recovery_s, w);
  // v2: appended at the end so every pre-existing field keeps its offset.
  r.round_duration_q.serialize(w);
}

SessionResult deserialize_session_result(util::ByteReader& r) {
  SessionResult out;
  out.rounds = r.u64();
  out.duration_s = r.f64();
  out.per_link_mbps = read_f64_vec(r);
  out.total_mbps = r.f64();
  out.jain = r.f64();
  out.mean_winners_per_round = r.f64();
  out.mean_streams_per_round = r.f64();
  out.round_duration = read_stats(r);
  out.series.resize(r.u64());
  for (SessionSnapshot& s : out.series) {
    s.t_s = r.f64();
    s.rounds = r.u64();
    s.total_mbps = r.f64();
    s.jain = r.f64();
    s.join_rate = r.f64();
  }
  out.idle_rounds = r.u64();
  out.mean_active_links = r.f64();
  out.goodput_mbps = r.f64();
  out.per_link_goodput_mbps = read_f64_vec(r);
  out.degenerate_esnr = r.u64();
  FaultStats& f = out.faults;
  f.frames_completed = r.u64();
  f.frames_dropped = r.u64();
  f.retransmissions = r.u64();
  f.ack_losses = r.u64();
  f.header_deferrals = r.u64();
  f.blind_joins = r.u64();
  f.csi_failures = r.u64();
  f.degenerate_esnr = r.u64();
  f.outages = r.u64();
  f.retry_histogram = read_u64_vec(r);
  f.outage_s = read_stats(r);
  f.recovery_s = read_stats(r);
  out.round_duration_q = util::QuantileSketch::deserialize(r);
  return out;
}

bool SweepOutcome::complete() const {
  if (!report.all_ok()) return false;
  return std::all_of(completed.begin(), completed.end(),
                     [](std::uint8_t c) { return c != 0; });
}

CheckpointedRunner::CheckpointedRunner(std::vector<SweepItem> items,
                                       std::uint64_t seed,
                                       RunnerConfig config)
    : items_(std::move(items)), seed_(seed), cfg_(std::move(config)) {
  if (cfg_.checkpoint_every == 0) {
    throw std::invalid_argument(
        "CheckpointedRunner: checkpoint_every must be >= 1");
  }
}

SweepOutcome CheckpointedRunner::run() {
  const std::size_t n = items_.size();
  SweepOutcome out;
  out.results.resize(n);
  out.completed.assign(n, 0);

  // The determinism anchor: the same fork-before-dispatch table
  // ThreadPool::run_seeded builds, saved in immutable form so every run of
  // an item (fresh or resumed) restores a pristine copy of its stream.
  // Stream s is always the master's (s + 1)-th fork, so an item that names
  // stream s draws exactly what item s would by default.
  std::vector<util::Rng::State> table(n);
  {
    std::vector<util::Rng::State> streams;
    util::Rng master(seed_);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t s = items_[i].stream.value_or(i);
      for (std::size_t k = streams.size(); k <= s; ++k) {
        streams.push_back(master.fork(k + 1).save());
      }
      table[i] = streams[s];
    }
  }
  const std::vector<std::uint8_t> header = build_header(seed_, table);
  // Ring i belongs to item i alone (single-producer by partition).
  const auto ring_of = [&](std::size_t i) -> util::TraceRing* {
    return cfg_.trace != nullptr && i < cfg_.trace->workers()
               ? &cfg_.trace->ring(i)
               : nullptr;
  };

  const bool checkpointing = !cfg_.checkpoint_path.empty();
  if (cfg_.resume) {
    if (!checkpointing) {
      throw util::CheckpointError(
          "resume requested but no checkpoint path is set");
    }
    if (auto ck = util::read_checkpoint_file(cfg_.checkpoint_path)) {
      if (ck->version != kAppVersion) {
        throw util::CheckpointError(
            "checkpoint " + cfg_.checkpoint_path + ": format version " +
            std::to_string(ck->version) + ", expected " +
            std::to_string(kAppVersion));
      }
      if (ck->header != header) {
        throw util::CheckpointError(
            "checkpoint " + cfg_.checkpoint_path +
            " belongs to a different sweep (seed / item count / stream "
            "table mismatch); refusing to resume");
      }
      for (const auto& [index, blob] : ck->items) {
        if (index >= n) {
          throw util::CheckpointError(
              "checkpoint " + cfg_.checkpoint_path + ": item index " +
              std::to_string(index) + " out of range (n_items " +
              std::to_string(n) + ")");
        }
        util::ByteReader r(blob);
        out.results[index] = deserialize_session_result(r);
        read_ring(r, ring_of(index),
                  "checkpoint " + cfg_.checkpoint_path + ": item " +
                      std::to_string(index));
        if (!r.done()) {
          throw util::CheckpointError(
              "checkpoint " + cfg_.checkpoint_path + ": item " +
              std::to_string(index) + " record has trailing bytes");
        }
        if (!out.completed[index]) ++out.resumed;
        out.completed[index] = 1;
      }
    }
    // Missing file: nothing to resume, run the sweep from scratch (the
    // "always pass --resume" idiom must work on the very first run too).
  }
  const std::vector<std::uint8_t> skip = out.completed;

  // Publication lock: result slots are write-by-index and would be
  // race-free bare, but checkpoint serialization reads *all* completed
  // slots, so publishing and snapshotting must exclude each other.
  std::mutex mu;
  std::size_t fresh = 0;         // items completed by THIS process
  std::size_t last_written = 0;  // `fresh` at the last checkpoint write
  std::atomic<bool> halted{false};

  // Serializes completed results into the checkpoint file. Caller holds mu.
  const auto write_ckpt = [&]() {
    util::CheckpointData d;
    d.version = kAppVersion;
    d.header = header;
    for (std::size_t i = 0; i < n; ++i) {
      if (!out.completed[i]) continue;
      util::ByteWriter w;
      serialize_session_result(out.results[i], w);
      write_ring(ring_of(i), w);
      d.items.emplace_back(i, w.take());
    }
    util::write_checkpoint_file(cfg_.checkpoint_path, d);
    last_written = fresh;
  };

  util::Supervisor supervisor(cfg_.supervisor);
  out.report = supervisor.run(
      n,
      [&](std::size_t i, util::CancelToken& token) {
        if (halted.load(std::memory_order_relaxed)) return;
        // Restore a fresh copy of the pre-forked stream, fork
        // topology/world/session off it, generate or place, build, run.
        const SweepItem& item = items_[i];
        util::Rng rng = util::Rng::restore(table[i]);
        util::Rng gen_rng = rng.fork(1);
        util::Rng world_rng = rng.fork(2);
        util::Rng session_rng = rng.fork(3);
        const bool placed = item.on_testbed.has_value();
        const GeneratedTopology topo =
            placed ? GeneratedTopology{} : generate_topology(item.gen, gen_rng);
        const Scenario& scenario = placed ? *item.on_testbed : topo.scenario;
        World world =
            placed ? place_on_testbed(scenario, gen_rng, world_rng, item.world)
                   : make_world(topo, world_rng, item.world);
        SessionConfig session_cfg = item.session;
        session_cfg.cancel = &token;
        // Emission is draw-free, so traced and untraced runs are
        // bit-identical.
        util::TraceRing* ring = ring_of(i);
        if (ring != nullptr) {
          session_cfg.trace = ring;
          ring->emit(util::TraceEvent::kItemStart, 0.0, i);
        }
        SessionResult result =
            run_session(world, scenario, session_rng, session_cfg);
        if (ring != nullptr) {
          ring->emit(util::TraceEvent::kItemEnd, result.duration_s,
                     result.rounds, result.total_mbps);
        }
        if (cfg_.chaos_mutate) cfg_.chaos_mutate(i, result);
        if (cfg_.audit) {
          audit_session_or_throw(result,
                                 make_audit_context(scenario, item.session));
        }

        std::lock_guard<std::mutex> lock(mu);
        out.results[i] = std::move(result);
        out.completed[i] = 1;
        ++fresh;
        if (checkpointing &&
            (fresh - last_written >= cfg_.checkpoint_every ||
             (cfg_.kill_after > 0 && fresh >= cfg_.kill_after))) {
          write_ckpt();
          if (cfg_.kill_after > 0 && fresh >= cfg_.kill_after) {
            // Simulated kill -9: no unwinding, no final checkpoint — the
            // file on disk is whatever the last atomic rename left.
            std::_Exit(kKillExitCode);
          }
        }
        if (cfg_.halt_after > 0 && fresh >= cfg_.halt_after) {
          halted.store(true, std::memory_order_relaxed);
        }
      },
      &skip);
  // Name each quarantined item's stream so it can be replayed alone.
  for (util::ItemFailure& f : out.report.failures) {
    f.stream = "fork(" +
               std::to_string(items_[f.index].stream.value_or(f.index) + 1) +
               ") of seed " + std::to_string(seed_);
  }

  if (checkpointing && fresh > last_written) {
    std::lock_guard<std::mutex> lock(mu);
    write_ckpt();
  }
  return out;
}

}  // namespace nplus::sim
