// Shared pieces of the perfbench harness: arguments, the raw-result JSON
// writer, operation accounting, the timing edge-source decorator, process
// memory probes and the per-layer micro loops.
//
// The harness measures the program only through its public interfaces
// (sessions, edge sources, checkpoints, the client and the rept_server
// binary, the obs readers). It writes raw samples as one JSON document;
// run.py turns them into the reported metrics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/estimates.hpp"
#include "graph/edge_source.hpp"
#include "graph/types.hpp"
#include "util/status.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs for the harness self-check.
  bool tiny = false;
  std::string server_binary;
  /// Scratch directory for generated inputs, checkpoints and the trace.
  std::string workdir;
  /// Where the raw-result JSON goes.
  std::string out;
};

/// Monotonic seconds.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Builds one JSON object. Numbers keep every digit (%.17g).
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, uint64_t value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Nums(const std::string& key, const std::vector<double>& values);
  JsonObject& Strs(const std::string& key,
                   const std::vector<std::string>& values);
  /// `json` must already be a JSON value.
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonString(const std::string& text);
/// "[a, b, ...]" from already-encoded JSON values.
std::string JsonArray(const std::vector<std::string>& values);

/// Counts operations for error_rate: every client call, save, load and
/// correctness check is one operation.
class Operations {
 public:
  /// Records one operation; returns `ok`.
  bool Expect(bool ok, const std::string& what);
  bool Expect(const rept::Status& status, const std::string& what) {
    return Expect(status.ok(), what + ": " + status.ToString());
  }
  /// Merges another tally (per-thread counts).
  void Add(const Operations& other);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Decorates an EdgeSource: times every NextChunk call (the decode layer)
/// and infers each chunk's ingest latency as the gap between handing the
/// chunk out and the consumer asking for the next one (IngestAll's serial
/// pump ingests a chunk in that gap).
class TimedSource final : public rept::EdgeSource {
 public:
  explicit TimedSource(rept::EdgeSource& inner) : inner_(inner) {}

  std::string Name() const override { return inner_.Name(); }
  size_t NextChunk(std::span<rept::Edge> out) override;
  rept::VertexId VertexCountHint() const override {
    return inner_.VertexCountHint();
  }
  const rept::Status& status() const override { return inner_.status(); }

  double decode_seconds() const { return decode_seconds_; }
  uint64_t edges() const { return edges_; }
  /// Consumer time per non-empty chunk, in milliseconds.
  const std::vector<double>& chunk_latency_ms() const { return latency_ms_; }

 private:
  rept::EdgeSource& inner_;
  double decode_seconds_ = 0.0;
  uint64_t edges_ = 0;
  double last_exit_ = -1.0;
  std::vector<double> latency_ms_;
};

/// \brief Drives a run's rounds: one warm-up round, then rounds until
/// args.seconds are spent (at least one). In a traced run the rounds
/// alternate untraced and traced, so drift in the machine's speed hits both
/// alike, and each traced round goes to its own trace file; at least one of
/// each kind runs. `round(warmup, traced)` runs one round. Returns the trace
/// files written.
std::vector<std::string> RunRounds(
    const Args& args, Operations& ops,
    const std::function<void(bool warmup, bool traced)>& round);

/// Runs `extras` with tracing on and appends its trace file to `traces`.
void TraceExtras(const Args& args, Operations& ops,
                 std::vector<std::string>* traces,
                 const std::function<void()>& extras);

/// Top-k vertices by local tally, descending, ties to the smaller id (the
/// SNAPSHOT verb's order).
std::vector<std::pair<rept::VertexId, double>> TopK(
    const std::vector<double>& local, size_t k);

/// Resets this process's VmHWM to its current RSS.
void ResetPeakRss();
/// VmHWM of `pid` (0 = self) in MiB; negative when unreadable.
double PeakRssMiB(int pid = 0);
/// Returns freed heap to the kernel so generator buffers do not inflate the
/// peak of the measured rounds.
void TrimHeap();

/// \brief The in-memory checkpoint codec on one session: the part of a save
/// or load that is not file I/O.
struct CodecTiming {
  double encode_s = 0.0;
  double decode_s = 0.0;
};

/// Times WriteCheckpointStream of `session` into memory and
/// ReadCheckpointStream of those bytes into a fresh session of `system`
/// (same seed), each under a bench.persist.* span.
CodecTiming TimeCodec(const rept::EstimatorSystem& system, uint64_t seed,
                      const rept::StreamingEstimator& session,
                      rept::ThreadPool* pool, Operations& ops);

/// \brief Result of the per-layer micro loops. Each pass rebuilds one of
/// `instances` SampledGraphs from the stream at rate 1/m in stream order,
/// so its working set matches a session instance's. The passes differ only
/// in the per-(edge, instance) work, so a layer's cost is the difference
/// between whole passes (a clock read per call would cost as much as a
/// probe). Times are summed over the instances.
struct MicroResult {
  uint32_t instances = 0;
  uint64_t edges = 0;
  /// Edges the insert pass stored.
  uint64_t inserts = 0;
  /// The loop and the sampling hash only.
  double base_pass_s = 0.0;
  /// Base plus SampledGraph::Insert of the sampled edges.
  double insert_pass_s = 0.0;
  /// Insert pass plus the endpoint lookups (with prefetch).
  double probe_pass_s = 0.0;
  /// Insert pass plus CountCommonNeighbors (lookups + intersection).
  double intersect_pass_s = 0.0;
};

MicroResult RunMicroLoops(std::span<const rept::Edge> edges, uint32_t m,
                          uint32_t instances, uint64_t seed);

/// Instances the micro loops rebuild: enough for a stable per-(edge,
/// instance) cost, few enough to keep the traced run short.
inline uint32_t MicroInstances(uint32_t c, bool tiny) {
  return std::min<uint32_t>(c, tiny ? 2 : 8);
}

std::string MicroJson(const MicroResult& micro);

int RunInProcess(const Args& args);
int RunServer(const Args& args);

/// Writes `json` to args.out; returns the process exit code.
int WriteResult(const Args& args, const std::string& json);

}  // namespace perfbench
