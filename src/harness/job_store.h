// Persistent sweep-campaign job store: one JSONL record per finished job,
// appended as each job completes. A campaign killed mid-run (machine loss,
// ^C, OOM) can be resumed with --resume — completed cells are folded back in
// from the store instead of being re-simulated — and a sweep can be split
// across machines with --shard I/N, each shard writing its own store, the
// stores later folded back together with --merge.
//
// Line format (one complete JSON object per line, no wrapping document):
//   {"key":"scientific|FFT|sd-512|1","ok":true,
//    "schema":"dresar-bench-results/v7","scale":"tiny","trace_refs":200000,
//    "record":{...}}
//   {"key":"trace|TPC-C|base|2","ok":false,"error":"..."}
//
// "record" is the run record as the result document writes it
// (sim/run_recorder.h), with "seed" and "wall_seconds" always present and
// its blocks in the document's shapes; a block name outside the four known
// ones fails the line. "schema", "scale" and "trace_refs" stamp the record
// shape and the problem scale the job ran at, which its key does not encode:
// a campaign refuses a successful line whose stamp is absent or differs from
// its own, naming both, since a line from another schema lacks metrics the
// reports read. Doubles are serialized with %.17g so the parsed-back value
// is bit-exact: a resumed campaign re-emits the canonical %.12g result
// document byte-identically to an uninterrupted run. Appends write one whole
// line with a single flush; the loader drops a final line that is not JSON
// (the signature of a mid-write kill).
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "harness/job.h"
#include "sim/run_recorder.h"

namespace dresar::harness {

/// Canonical identity of one job in a sweep matrix:
/// "<kind>|<display app>|<config tag>|<seed>". Unique across the matrix —
/// the config tag encodes every non-default axis value.
[[nodiscard]] std::string jobKeyOf(const JobSpec& job);

/// What a campaign stamps on every successful store line: the result schema
/// its records follow and the problem scale (the spec's scale and trace
/// length) they ran at.
struct StoreStamp {
  std::string schema;  ///< kSweepSchema when written; empty = absent
  std::string scale;   ///< tiny | default | paper
  std::uint64_t traceRefs = 0;

  bool operator==(const StoreStamp&) const = default;
  /// "schema=dresar-bench-results/v7 scale=tiny trace_refs=200000", for
  /// error messages.
  [[nodiscard]] std::string describe() const {
    return "schema=" + (schema.empty() ? "(none)" : schema) + " scale=" + scale +
           " trace_refs=" + std::to_string(traceRefs);
  }
};

/// One persisted job outcome.
struct StoredJob {
  std::string key;    ///< jobKeyOf() of the job
  bool ok = true;
  std::string error;  ///< failure message when !ok
  StoreStamp stamp;   ///< schema and scale the job ran at (successful lines)
  RunRecord record;   ///< complete result record when ok
};

/// Append-only JSONL store with a tolerant loader. Thread-safe appends (the
/// sweep's worker threads call append() directly as jobs finish).
class JobStore {
 public:
  JobStore() = default;
  ~JobStore();
  JobStore(const JobStore&) = delete;
  JobStore& operator=(const JobStore&) = delete;

  /// Open `path`, truncating it. Returns false on I/O failure.
  [[nodiscard]] bool open(const std::string& path);
  [[nodiscard]] bool isOpen() const { return out_ != nullptr; }

  /// Persist one finished job: serialize, write the whole line, flush.
  void append(const StoredJob& job);

  /// One store line (no trailing newline). Exposed for tests.
  [[nodiscard]] static std::string serializeLine(const StoredJob& job);
  /// Parse one line; throws std::runtime_error on malformed input.
  [[nodiscard]] static StoredJob parseLine(const std::string& line);

  /// Load every job from a store file, in file order (a key appearing twice
  /// keeps both entries; callers apply last-wins). A final line that is not
  /// JSON is a torn write — what a killed campaign leaves behind — and is
  /// dropped. Any other bad line (not JSON with lines after it, or JSON that
  /// parseLine() rejects) fails the load, naming the line. Throws
  /// std::runtime_error if the file cannot be read.
  [[nodiscard]] static std::vector<StoredJob> loadFile(const std::string& path);

 private:
  std::mutex mu_;
  std::FILE* out_ = nullptr;
};

}  // namespace dresar::harness
