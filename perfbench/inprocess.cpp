// The in-process workload file_powerlaw: SNAP text file -> REPT with local
// tallies -> snapshot and top-k -> checkpoint round trip.
//
// A run repeats whole rounds until --seconds are spent. Every round opens a
// fresh pool and session, ingests the full input through IngestAll, answers,
// saves, drops the session and restores it into a fresh one. Rounds are
// identical work, so run.py reports medians over them. In a traced run the
// rounds alternate untraced (the overhead and reconciliation baseline) and
// traced; a traced round also times the in-memory checkpoint codec, and the
// micro loops run once at the end.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>

#include "core/rept_estimator.hpp"
#include "core/streaming_estimator.hpp"
#include "exact/exact_counts.hpp"
#include "gen/holme_kim.hpp"
#include "graph/permutation.hpp"
#include "graph/stream_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perfbench.hpp"
#include "persist/checkpoint.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

constexpr size_t kTopK = 10;
/// Pool width. On a shared 4-core VM a pool of 4 drifted twice as much
/// between runs as a pool of 2 (quartile spread of run medians 0.18 vs 0.10
/// in interleaved runs): every busy core is one more a neighbour's load can
/// stall, and a batch waits for its slowest worker.
constexpr size_t kWorkers = 2;

struct Workload {
  rept::ReptConfig config;
  /// |estimate - exact| / exact allowed by the accuracy check.
  double tolerance = 0.0;
};

struct Round {
  /// The first round of a run only warms caches and the allocator; its
  /// checks count, its timings do not.
  bool warmup = false;
  bool traced = false;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double decode_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
  /// Traced rounds only: the in-memory checkpoint codec.
  double codec_encode_s = 0.0;
  double codec_decode_s = 0.0;
  double rss_mb = -1.0;
  uint64_t edges = 0;
  uint64_t decode_edges = 0;
  uint64_t stored_edges = 0;
  uint64_t memory_bytes = 0;
  uint64_t ckpt_bytes = 0;
  std::vector<double> ack_ms;
  /// Traced rounds only: RenderJson() at the start of the round and before
  /// the codec timings.
  std::string counters_before = "null";
  std::string counters_after = "null";
};

std::string RoundJson(const Round& r) {
  return JsonObject()
      .Bool("warmup", r.warmup)
      .Bool("traced", r.traced)
      .Num("setup_s", r.setup_s)
      .Num("wall_s", r.wall_s)
      .Num("decode_s", r.decode_s)
      .Num("save_s", r.save_s)
      .Num("load_s", r.load_s)
      .Num("codec_encode_s", r.codec_encode_s)
      .Num("codec_decode_s", r.codec_decode_s)
      .Num("rss_mb", r.rss_mb)
      .Int("edges", r.edges)
      .Int("decode_edges", r.decode_edges)
      .Int("stored_edges", r.stored_edges)
      .Int("memory_bytes", r.memory_bytes)
      .Int("ckpt_bytes", r.ckpt_bytes)
      .Nums("ack_ms", r.ack_ms)
      .Raw("counters_before", r.counters_before)
      .Raw("counters_after", r.counters_after)
      .str();
}

bool SameSnapshot(const rept::TriangleEstimates& a,
                  const rept::TriangleEstimates& b) {
  // Bit-identical: compare the doubles' bytes, not their values.
  if (std::memcmp(&a.global, &b.global, sizeof(double)) != 0) return false;
  if (a.local.size() != b.local.size()) return false;
  return a.local.empty() ||
         std::memcmp(a.local.data(), b.local.data(),
                     a.local.size() * sizeof(double)) == 0;
}

class InProcessRunner {
 public:
  InProcessRunner(const Args& args, Workload workload,
                  rept::EdgeStream stream, uint64_t exact)
      : args_(args),
        workload_(workload),
        estimator_(workload.config),
        stream_(std::move(stream)),
        exact_(exact),
        ckpt_path_(args.workdir + "/session.ckpt"),
        input_path_(args.workdir + "/graph.txt") {}

  /// Writes the text input and frees what the rounds do not read.
  rept::Status Prepare() {
    expected_edges_ = stream_.size();
    REPT_RETURN_NOT_OK(rept::SaveEdgeListText(stream_, input_path_));
    // The micro loops of a traced run replay the same stream; an untraced
    // run reads only the file.
    if (!args_.trace) stream_ = rept::EdgeStream();
    TrimHeap();
    return rept::Status::OK();
  }

  /// Pool plus session creation, timed alone: the set-up samples.
  void SampleSetup(int times) {
    for (int i = 0; i < times; ++i) {
      const double start = Now();
      rept::ThreadPool pool(kWorkers);
      auto session = estimator_.CreateSession(args_.seed, &pool);
      setup_samples_.push_back(Now() - start);
      ops_.Expect(session.status(), "create session");
    }
  }

  Round RunRound(bool traced) {
    Round round;
    round.traced = traced;
    if (traced) {
      round.counters_before = rept::obs::MetricsRegistry::Global().RenderJson();
    }
    // The peak covers this round only: earlier rounds' freed heap goes back
    // to the kernel first.
    TrimHeap();
    ResetPeakRss();
    const double setup_start = Now();
    rept::ThreadPool pool(kWorkers);
    auto created = estimator_.CreateSession(args_.seed, &pool);
    round.setup_s = Now() - setup_start;
    if (!ops_.Expect(created.status(), "create session")) return round;
    std::unique_ptr<rept::StreamingEstimator> session =
        std::move(created).value();
    workers_ = pool.num_threads();

    // Timed: first edge read -> final answer.
    const double start = Now();
    auto opened = rept::TextFileEdgeSource::Open(input_path_, true);
    if (!ops_.Expect(opened.status(), "open input")) return round;
    TimedSource source(**opened);
    const rept::Result<uint64_t> ingested = [&] {
      rept::obs::TraceSpan span("bench.core.ingest_all");
      return rept::IngestAll(source, *session, rept::IngestOptions{});
    }();
    rept::TriangleEstimates answer;
    {
      rept::obs::TraceSpan span("bench.core.snapshot");
      answer = session->Snapshot();
      top_ = TopK(answer.local, kTopK);
    }
    const double end = Now();
    round.wall_s = end - start;
    round.decode_s = source.decode_seconds();
    round.decode_edges = source.edges();
    round.ack_ms = source.chunk_latency_ms();
    if (!ops_.Expect(ingested.status(), "ingest")) return round;
    round.edges = *ingested;
    round.stored_edges = session->StoredEdges();
    round.memory_bytes = session->MemoryBytes();

    ops_.Expect(round.edges == expected_edges_,
                "ingested " + std::to_string(round.edges) + " of " +
                    std::to_string(expected_edges_) + " edges");
    const double error =
        std::fabs(answer.global - static_cast<double>(exact_)) /
        static_cast<double>(exact_);
    ops_.Expect(error <= workload_.tolerance,
                "global estimate " + std::to_string(answer.global) +
                    " vs exact " + std::to_string(exact_) +
                    " exceeds tolerance");
    if (rounds_.empty()) {
      first_global_ = answer.global;
    } else {
      ops_.Expect(answer.global == first_global_,
                  "global estimate differs between rounds");
    }
    global_ = answer.global;

    // Checkpoint round trip: save, drop, restore into a fresh session.
    {
      const double save_start = Now();
      rept::obs::TraceSpan span("bench.persist.save");
      const rept::Status saved = rept::SaveCheckpoint(*session, ckpt_path_);
      round.save_s = Now() - save_start;
      if (!ops_.Expect(saved, "save checkpoint")) return round;
    }
    std::error_code size_error;
    round.ckpt_bytes = std::filesystem::file_size(ckpt_path_, size_error);
    session.reset();
    auto fresh = estimator_.CreateSession(args_.seed, &pool);
    if (!ops_.Expect(fresh.status(), "create restore session")) return round;
    session = std::move(fresh).value();
    {
      const double load_start = Now();
      rept::obs::TraceSpan span("bench.persist.load");
      const rept::Status loaded = rept::LoadCheckpoint(*session, ckpt_path_);
      round.load_s = Now() - load_start;
      if (!ops_.Expect(loaded, "load checkpoint")) return round;
    }
    ops_.Expect(SameSnapshot(session->Snapshot(), answer),
                "restored snapshot differs from the saved one");
    round.rss_mb = PeakRssMiB();
    std::filesystem::remove(ckpt_path_, size_error);

    if (traced) {
      round.counters_after = rept::obs::MetricsRegistry::Global().RenderJson();
      const CodecTiming codec =
          TimeCodec(estimator_, args_.seed, *session, &pool, ops_);
      round.codec_encode_s = codec.encode_s;
      round.codec_decode_s = codec.decode_s;
    }
    return round;
  }

  int Run() {
    if (const rept::Status st = Prepare(); !st.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
      return 1;
    }
    // Set-up is sampled a few times after every measured round, so its
    // median covers the whole run rather than one moment of it.
    std::vector<std::string> traces =
        RunRounds(args_, ops_, [this](bool warmup, bool traced) {
          rounds_.push_back(RunRound(traced));
          rounds_.back().warmup = warmup;
          if (!warmup) SampleSetup(4);
        });
    MicroResult micro;
    if (args_.trace) {
      TraceExtras(args_, ops_, &traces, [&] {
        micro = RunMicroLoops(stream_.edges(), workload_.config.m,
                              MicroInstances(workload_.config.c, args_.tiny),
                              args_.seed);
      });
    }

    std::vector<std::string> round_json;
    for (const Round& r : rounds_) round_json.push_back(RoundJson(r));
    std::vector<std::string> top;
    for (const auto& [vertex, tally] : top_) {
      top.push_back(std::to_string(vertex) + ":" + std::to_string(tally));
    }
    JsonObject out;
    out.Str("workload", args_.workload)
        .Int("workers", workers_)
        .Int("m", workload_.config.m)
        .Int("c", workload_.config.c)
        .Int("input_edges", expected_edges_)
        .Int("exact_triangles", exact_)
        .Num("estimate", global_)
        .Num("tolerance", workload_.tolerance)
        .Strs("top", top)
        .Nums("setup_samples_s", setup_samples_)
        .Raw("rounds", JsonArray(round_json))
        .Int("attempted", ops_.attempted())
        .Int("failed", ops_.failed())
        .Strs("failures", ops_.failures())
        .Raw("counters_final",
             rept::obs::MetricsRegistry::Global().RenderJson());
    if (args_.trace) {
      // Each traced round is one pass of the input through the program.
      out.Int("core_passes", traces.size() - 1)
          .Raw("micro", MicroJson(micro))
          .Strs("trace_files", traces);
    }
    return WriteResult(args_, out.str());
  }

 private:
  const Args& args_;
  Workload workload_;
  rept::ReptEstimator estimator_;
  rept::EdgeStream stream_;
  uint64_t exact_;
  std::string ckpt_path_;
  std::string input_path_;
  uint64_t expected_edges_ = 0;
  Operations ops_;
  std::vector<double> setup_samples_;
  std::vector<Round> rounds_;
  std::vector<std::pair<rept::VertexId, double>> top_;
  size_t workers_ = 0;
  double first_global_ = 0.0;
  double global_ = 0.0;
};

}  // namespace

int RunInProcess(const Args& args) {
  // Pin glibc's mmap threshold at its default: otherwise the first free of
  // a large block raises it, later rounds carve large blocks out of heap
  // that earlier rounds left behind, and each round's peak RSS would
  // include that leftover. Pinned, every large block is its own mapping and
  // goes back to the kernel when freed, as in a fresh process.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  // The paper's c > m, c % m != 0 case (Algorithm 2, pair registers) on a
  // sparse power-law graph with local tallies on.
  Workload workload;
  workload.config.m = 20;
  workload.config.c = 64;
  workload.config.track_local = true;
  workload.tolerance = args.tiny ? 0.5 : 0.05;
  rept::gen::HolmeKimParams params;
  params.num_vertices = args.tiny ? 3000 : 150000;
  params.edges_per_vertex = 4;
  params.triad_probability = 0.5;
  rept::EdgeStream stream = rept::gen::HolmeKim(params, args.seed);
  rept::ShuffleStream(stream, args.seed ^ 0x5eedULL);
  // Ground truth belongs to the generator: computed once, untimed.
  const uint64_t exact =
      rept::ComputeExactCounts(stream, /*with_eta=*/false).tau;
  if (exact == 0) {
    std::fprintf(stderr, "perfbench: generated graph has no triangles\n");
    return 1;
  }
  InProcessRunner runner(args, workload, std::move(stream), exact);
  return runner.Run();
}

}  // namespace perfbench
