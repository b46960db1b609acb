// The server_mixed workload: rept_server as a child process, one closed-loop
// writer and one open-loop reader.
//
// Every round spawns a fresh server (pool of 2, memory budgets raised so
// admission accepts the load), opens two connections and creates the
// writer's session; that is the round's set-up. The writer then streams a
// skewed R-MAT graph as sequenced 16384-edge INGEST frames with the
// reconnect policy armed, waiting for every ack. The reader sends SNAPSHOT
// (top 10) on a fixed schedule, timed from the scheduled send, plus a
// METRICS + STATS scrape each second. After the last ack the served answer
// is checked bit-for-bit against a library session fed the same stream and
// seed, the session goes through a CHECKPOINT / RESTORE round trip over the
// wire, and the server is shut down with the SHUTDOWN verb.
//
// One writer with intersection-heavy frames keeps the server busy computing
// rather than waiting on thread hand-offs: on a shared 4-core VM, two
// writers of light 4096-edge frames (Holme-Kim, m=10, c=10) spent most of a
// round waking threads and drifted by a third between runs.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "core/rept_estimator.hpp"
#include "core/streaming_estimator.hpp"
#include "gen/rmat.hpp"
#include "net/client.hpp"
#include "obs/trace.hpp"
#include "perfbench.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

constexpr size_t kWriters = 1;
constexpr size_t kFrameEdges = 16384;
constexpr uint32_t kTopK = 10;
constexpr size_t kServerThreads = 2;
constexpr double kReadsPerSecond = 20.0;
/// A reader this far behind its schedule no longer offers the stated load:
/// the round is void and counts as a failed check.
constexpr double kMaxReaderLatenessMs = 1000.0;

/// A rept_server child process. The child dies with this process
/// (PR_SET_PDEATHSIG), and the destructor kills and reaps it if it is still
/// running.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns the server on an ephemeral port and waits for its listening
  /// line.
  rept::Status Start(const std::string& binary) {
    const std::vector<std::string> args = {
        binary, "--host", "127.0.0.1", "--port", "0", "--threads",
        std::to_string(kServerThreads), "--max-sessions", "16",
        "--session-budget-mb", "8192", "--global-budget-mb", "16384"};
    std::vector<char*> argv;
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      return rept::Status::IOError("pipe: " + std::string(strerror(errno)));
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return rept::Status::IOError("fork: " + std::string(strerror(errno)));
    }
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], STDOUT_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    pid_ = pid;
    stdout_fd_ = fds[0];

    const double deadline = Now() + 20.0;
    std::string output;
    const std::string marker = "listening on 127.0.0.1:";
    for (;;) {
      const size_t at = output.find(marker);
      if (at != std::string::npos &&
          output.find(' ', at + marker.size()) != std::string::npos) {
        port_ = static_cast<uint16_t>(
            std::strtoul(output.c_str() + at + marker.size(), nullptr, 10));
        return rept::Status::OK();
      }
      const std::string chunk = ReadSome(deadline);
      if (chunk.empty()) {
        Kill();
        return rept::Status::IOError("rept_server did not start: " + output);
      }
      output += chunk;
    }
  }

  uint16_t port() const { return port_; }
  int pid() const { return pid_; }

  /// Waits for the server to exit after the SHUTDOWN verb.
  rept::Status WaitForExit(double timeout_s) {
    const double deadline = Now() + timeout_s;
    while (!ReadSome(deadline).empty()) {
    }
    int status = 0;
    for (;;) {
      const pid_t done = ::waitpid(pid_, &status, WNOHANG);
      if (done == pid_) break;
      if (Now() > deadline) {
        Kill();
        return rept::Status::IOError("rept_server did not exit");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    CloseOutput();
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      return rept::Status::IOError("rept_server exited abnormally");
    }
    return rept::Status::OK();
  }

  void Kill() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    CloseOutput();
  }

 private:
  /// Reads what the child printed; empty at EOF or at the deadline.
  std::string ReadSome(double deadline) {
    if (stdout_fd_ < 0) return "";
    pollfd poller{stdout_fd_, POLLIN, 0};
    const double left = deadline - Now();
    if (left <= 0.0) return "";
    if (::poll(&poller, 1, static_cast<int>(left * 1e3) + 1) <= 0) return "";
    char buffer[4096];
    const ssize_t n = ::read(stdout_fd_, buffer, sizeof(buffer));
    return n > 0 ? std::string(buffer, static_cast<size_t>(n)) : "";
  }

  void CloseOutput() {
    if (stdout_fd_ >= 0) {
      ::close(stdout_fd_);
      stdout_fd_ = -1;
    }
  }

  int pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

struct Writer {
  rept::net::SessionSpec spec;
  rept::EdgeStream stream;
  // Reference: a library session fed the same stream and seed.
  double reference_global = 0.0;
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
  double restore_s = 0.0;
  double rss_mb = -1.0;
  double writer_busy_s = 0.0;
  uint64_t acked_edges = 0;
  uint64_t frames = 0;
  uint64_t decode_edges = 0;
  uint64_t reconnects = 0;
  uint64_t stored_edges = 0;
  uint64_t memory_bytes = 0;
  uint64_t ckpt_bytes = 0;
  std::vector<double> ack_ms;
  std::vector<double> snapshot_ms;
  std::vector<double> lateness_ms;
  std::vector<double> scrape_ms;
  /// The server's METRICS text after set-up and at the end of the round.
  std::string counters_before;
  std::string counters_after;
};

std::string RoundJson(const Round& r) {
  return JsonObject()
      .Bool("warmup", r.warmup)
      .Bool("traced", r.traced)
      .Num("setup_s", r.setup_s)
      .Num("wall_s", r.wall_s)
      .Num("decode_s", r.decode_s)
      .Num("save_s", r.save_s)
      .Num("load_s", r.restore_s)
      .Num("rss_mb", r.rss_mb)
      .Num("writer_busy_s", r.writer_busy_s)
      .Int("edges", r.acked_edges)
      .Int("frames", r.frames)
      .Int("decode_edges", r.decode_edges)
      .Int("reconnects", r.reconnects)
      .Int("stored_edges", r.stored_edges)
      .Int("memory_bytes", r.memory_bytes)
      .Int("ckpt_bytes", r.ckpt_bytes)
      .Nums("ack_ms", r.ack_ms)
      .Nums("snapshot_ms", r.snapshot_ms)
      .Nums("lateness_ms", r.lateness_ms)
      .Nums("scrape_ms", r.scrape_ms)
      .Str("counters_before", r.counters_before)
      .Str("counters_after", r.counters_after)
      .str();
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

class ServerRunner {
 public:
  explicit ServerRunner(const Args& args) : args_(args) {}

  /// Generator side, untimed: the writers' streams and their reference
  /// answers.
  rept::Status Prepare() {
    for (size_t w = 0; w < kWriters; ++w) {
      Writer writer;
      writer.spec.name = "tenant" + std::to_string(w);
      writer.spec.seed = args_.seed * 2 + w;
      // Four full groups of 16 (c % m == 0: no pair tracking), global only,
      // on a skewed R-MAT graph: long neighbour lists, count-only kernel.
      writer.spec.config.m = 16;
      writer.spec.config.c = 64;
      writer.spec.config.track_local = false;
      rept::gen::RmatParams params;
      params.scale = args_.tiny ? 10 : 14;
      params.num_edges = args_.tiny ? 20000 : 500000;
      params.a = 0.57;
      params.b = 0.19;
      params.c = 0.19;
      params.d = 0.05;
      writer.stream = rept::gen::Rmat(params, args_.seed * 2 + w + 101);
      writers_.push_back(std::move(writer));
    }
    for (Writer& writer : writers_) {
      rept::ThreadPool pool(kServerThreads);
      auto session = ReferenceSession(writer, &pool);
      if (!session.ok()) return session.status();
      writer.reference_global = (*session)->Snapshot().global;
    }
    TrimHeap();
    return rept::Status::OK();
  }

  int Run() {
    if (const rept::Status st = Prepare(); !st.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
      return 1;
    }
    // Set-up is sampled twice after every measured round, so its median
    // covers the whole run rather than one moment of it.
    std::vector<std::string> traces =
        RunRounds(args_, ops_, [this](bool warmup, bool traced) {
          rounds_.push_back(RunRound(traced));
          rounds_.back().warmup = warmup;
          if (!warmup) {
            for (int i = 0; i < 2; ++i) SampleSetup();
          }
        });

    MicroResult micro;
    std::vector<double> codec_encode_s;
    std::vector<double> codec_decode_s;
    if (args_.trace) {
      // The server's own spans stay in its process; the core layer of this
      // workload is traced on the reference sessions instead (same config,
      // seed, stream, frame-sized batches and pool width as the server).
      TraceExtras(args_, ops_, &traces, [&] {
        for (const Writer& writer : writers_) {
          rept::ThreadPool pool(kServerThreads);
          auto session = ReferenceSession(writer, &pool);
          if (!ops_.Expect(session.status(), "traced reference ingest")) {
            return;
          }
          {
            rept::obs::TraceSpan span("bench.core.snapshot");
            (*session)->Snapshot();
          }
          const CodecTiming codec =
              TimeCodec(rept::ReptEstimator(writer.spec.config),
                        writer.spec.seed, **session, &pool, ops_);
          codec_encode_s.push_back(codec.encode_s);
          codec_decode_s.push_back(codec.decode_s);
        }
        const rept::ReptConfig& config = writers_[0].spec.config;
        micro = RunMicroLoops(writers_[0].stream.edges(), config.m,
                              MicroInstances(config.c, args_.tiny),
                              args_.seed);
      });
    }

    std::vector<std::string> round_json;
    for (const Round& r : rounds_) round_json.push_back(RoundJson(r));
    uint64_t input_edges = 0;
    for (const Writer& writer : writers_) input_edges += writer.stream.size();
    JsonObject out;
    out.Str("workload", args_.workload)
        .Int("workers", kServerThreads)
        .Int("m", writers_[0].spec.config.m)
        .Int("c", writers_[0].spec.config.c)
        .Int("input_edges", input_edges)
        .Nums("setup_samples_s", setup_samples_)
        .Raw("rounds", JsonArray(round_json))
        .Int("attempted", ops_.attempted())
        .Int("failed", ops_.failed())
        .Strs("failures", ops_.failures());
    if (args_.trace) {
      // The traced reference replay is one pass of the writers' streams.
      out.Int("core_passes", 1)
          .Raw("micro", MicroJson(micro))
          .Nums("codec_encode_s", codec_encode_s)
          .Nums("codec_decode_s", codec_decode_s)
          .Strs("trace_files", traces);
    }
    return WriteResult(args_, out.str());
  }

 private:
  rept::Result<std::unique_ptr<rept::StreamingEstimator>> ReferenceSession(
      const Writer& writer, rept::ThreadPool* pool) const {
    auto created = rept::ReptEstimator(writer.spec.config)
                       .CreateSession(writer.spec.seed, pool);
    if (!created.ok()) return created.status();
    rept::InMemoryEdgeSource source(writer.stream);
    const rept::Result<uint64_t> ingested = [&] {
      rept::obs::TraceSpan span("bench.core.ingest_all");
      return rept::IngestAll(source, **created, kFrameEdges);
    }();
    if (!ingested.ok()) return ingested.status();
    return created;
  }

  /// Spawn, listening, the writers' and the reader's connections and the
  /// CREATE acks.
  rept::Status Connect(ServerProcess* server,
                       std::vector<std::unique_ptr<rept::net::ReptClient>>*
                           writer_clients,
                       rept::net::ReptClient* reader) {
    REPT_RETURN_NOT_OK(server->Start(args_.server_binary));
    rept::net::ReconnectPolicy policy;
    policy.enabled = true;
    for (const Writer& writer : writers_) {
      auto client = std::make_unique<rept::net::ReptClient>();
      REPT_RETURN_NOT_OK(client->Connect("127.0.0.1", server->port()));
      client->set_reconnect_policy(policy);
      REPT_RETURN_NOT_OK(client->CreateSession(writer.spec));
      writer_clients->push_back(std::move(client));
    }
    return reader->Connect("127.0.0.1", server->port());
  }

  void SampleSetup() {
    const double start = Now();
    ServerProcess server;
    std::vector<std::unique_ptr<rept::net::ReptClient>> writer_clients;
    rept::net::ReptClient reader;
    if (!ops_.Expect(Connect(&server, &writer_clients, &reader),
                     "server set-up")) {
      return;
    }
    setup_samples_.push_back(Now() - start);
    if (ops_.Expect(reader.Shutdown(), "shutdown")) {
      ops_.Expect(server.WaitForExit(20.0), "server exit");
    }
  }

  Round RunRound(bool traced) {
    Round round;
    round.traced = traced;
    const double setup_start = Now();
    ServerProcess server;
    std::vector<std::unique_ptr<rept::net::ReptClient>> writer_clients;
    rept::net::ReptClient reader;
    if (!ops_.Expect(Connect(&server, &writer_clients, &reader),
                     "server set-up")) {
      return round;
    }
    round.setup_s = Now() - setup_start;
    {
      auto metrics = reader.Metrics();
      if (ops_.Expect(metrics.status(), "metrics")) {
        round.counters_before = *metrics;
      }
    }

    // Copies of the inputs are made before the clock starts.
    std::vector<std::unique_ptr<rept::InMemoryEdgeSource>> sources;
    for (const Writer& writer : writers_) {
      sources.push_back(
          std::make_unique<rept::InMemoryEdgeSource>(writer.stream));
    }
    struct WriterResult {
      Operations ops;
      double first_send = 0.0;
      double last_ack = 0.0;
      double busy_s = 0.0;
      double decode_s = 0.0;
      uint64_t decode_edges = 0;
      uint64_t acked = 0;
      uint64_t frames = 0;
      std::vector<double> ack_ms;
    };
    std::vector<WriterResult> results(kWriters);
    std::atomic<size_t> writers_left{kWriters};
    Operations reader_ops;
    const double start = Now();

    std::vector<std::thread> threads;
    for (size_t w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        WriterResult& result = results[w];
        rept::net::ReptClient& client = *writer_clients[w];
        TimedSource source(*sources[w]);
        std::vector<rept::Edge> frame(kFrameEdges);
        uint64_t note_vertices = writers_[w].stream.num_vertices();
        result.first_send = Now();
        const double writer_start = result.first_send;
        for (;;) {
          const size_t n = source.NextChunk(std::span<rept::Edge>(frame));
          if (n == 0) break;
          const double sent = Now();
          const auto reply = [&] {
            rept::obs::TraceSpan span("bench.net.ingest");
            return client.Ingest(writers_[w].spec.name,
                                 std::span<const rept::Edge>(frame.data(), n),
                                 note_vertices);
          }();
          const double acked = Now();
          note_vertices = 0;
          if (!result.ops.Expect(reply.status(), "ingest")) break;
          result.ack_ms.push_back((acked - sent) * 1e3);
          result.acked += n;
          ++result.frames;
          result.last_ack = acked;
        }
        result.busy_s = Now() - writer_start;
        result.decode_s = source.decode_seconds();
        result.decode_edges = source.edges();
        writers_left.fetch_sub(1);
      });
    }
    threads.emplace_back([&] {
      // Open loop: read k is due at start + k / rate whatever the server
      // does; a stall shows up in the lateness and in later reads' latency.
      double next_scrape = start;
      for (uint64_t k = 0; writers_left.load() > 0; ++k) {
        const double due = start + static_cast<double>(k) / kReadsPerSecond;
        while (Now() < due && writers_left.load() > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(
              std::min(due - Now(), 0.005)));
        }
        if (writers_left.load() == 0) break;
        const double sent = Now();
        const auto snapshot = [&] {
          rept::obs::TraceSpan span("bench.net.snapshot");
          return reader.Snapshot(writers_[k % kWriters].spec.name, kTopK);
        }();
        const double done = Now();
        if (!reader_ops.Expect(snapshot.status(), "snapshot")) break;
        round.lateness_ms.push_back(std::max(0.0, sent - due) * 1e3);
        round.snapshot_ms.push_back((done - due) * 1e3);
        if (done >= next_scrape) {
          next_scrape += 1.0;
          const double scrape_start = Now();
          {
            rept::obs::TraceSpan span("bench.net.metrics");
            if (!reader_ops.Expect(reader.Metrics().status(), "metrics")) {
              break;
            }
          }
          {
            rept::obs::TraceSpan span("bench.net.stats");
            if (!reader_ops.Expect(reader.Stats().status(), "stats")) break;
          }
          round.scrape_ms.push_back((Now() - scrape_start) * 1e3);
        }
      }
    });
    for (std::thread& thread : threads) thread.join();

    double first_send = results[0].first_send;
    double last_ack = results[0].last_ack;
    for (size_t w = 0; w < kWriters; ++w) {
      const WriterResult& result = results[w];
      ops_.Add(result.ops);
      first_send = std::min(first_send, result.first_send);
      last_ack = std::max(last_ack, result.last_ack);
      round.acked_edges += result.acked;
      round.frames += result.frames;
      round.decode_s += result.decode_s;
      round.decode_edges += result.decode_edges;
      round.writer_busy_s += result.busy_s;
      round.reconnects += writer_clients[w]->reconnects();
      round.ack_ms.insert(round.ack_ms.end(), result.ack_ms.begin(),
                          result.ack_ms.end());
    }
    ops_.Add(reader_ops);
    round.wall_s = last_ack - first_send;
    const double lateness_ms =
        round.lateness_ms.empty() ? 0.0
                                  : *std::max_element(round.lateness_ms.begin(),
                                                      round.lateness_ms.end());
    ops_.Expect(lateness_ms <= kMaxReaderLatenessMs,
                "reader ran " + std::to_string(lateness_ms) +
                    " ms behind its schedule; the round is void");

    // The final answers, checked against the library reference.
    for (size_t w = 0; w < kWriters; ++w) {
      const Writer& writer = writers_[w];
      const std::string& name = writer.spec.name;
      const auto answer = [&] {
        rept::obs::TraceSpan span("bench.net.snapshot");
        return reader.Snapshot(name, kTopK);
      }();
      if (!ops_.Expect(answer.status(), "final snapshot")) continue;
      ops_.Expect(SameBits(answer->global, writer.reference_global),
                  name + ": served global " + std::to_string(answer->global) +
                      " != library " +
                      std::to_string(writer.reference_global));
      ops_.Expect(answer->edges_ingested == results[w].acked &&
                      results[w].acked == writer.stream.size(),
                  name + ": edges_ingested " +
                      std::to_string(answer->edges_ingested) + " vs acked " +
                      std::to_string(results[w].acked));
      round.stored_edges += answer->stored_edges;

      // Durability over the wire: CHECKPOINT, then RESTORE the same bytes.
      const double save_start = Now();
      const auto bytes = [&] {
        rept::obs::TraceSpan span("bench.net.checkpoint");
        return reader.Checkpoint(name);
      }();
      round.save_s += Now() - save_start;
      if (!ops_.Expect(bytes.status(), "checkpoint")) continue;
      round.ckpt_bytes += bytes->size();
      const double restore_start = Now();
      const rept::Status restored = [&] {
        rept::obs::TraceSpan span("bench.net.restore");
        return reader.Restore(name, std::span<const uint8_t>(*bytes));
      }();
      round.restore_s += Now() - restore_start;
      if (!ops_.Expect(restored, "restore")) continue;
      const auto after = reader.Snapshot(name, kTopK);
      if (ops_.Expect(after.status(), "snapshot after restore")) {
        ops_.Expect(SameBits(after->global, answer->global) &&
                        after->edges_ingested == answer->edges_ingested,
                    name + ": restored session answers differently");
      }
    }

    auto metrics = reader.Metrics();
    if (ops_.Expect(metrics.status(), "metrics")) {
      round.counters_after = *metrics;
    }
    auto stats = reader.Stats();
    if (ops_.Expect(stats.status(), "stats")) {
      round.memory_bytes = stats->total_memory_bytes;
    }
    round.rss_mb = PeakRssMiB(server.pid());
    if (ops_.Expect(reader.Shutdown(), "shutdown")) {
      ops_.Expect(server.WaitForExit(20.0), "server exit");
    }
    return round;
  }

  const Args& args_;
  std::vector<Writer> writers_;
  Operations ops_;
  std::vector<double> setup_samples_;
  std::vector<Round> rounds_;
};

}  // namespace

int RunServer(const Args& args) {
  // A dead peer must surface as an error return, not kill the benchmark.
  ::signal(SIGPIPE, SIG_IGN);
  ServerRunner runner(args);
  return runner.Run();
}

}  // namespace perfbench
