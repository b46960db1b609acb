#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include "core/streaming_estimator.hpp"
#include "graph/sampled_graph.hpp"
#include "obs/trace.hpp"
#include "perfbench.hpp"
#include "persist/checkpoint.hpp"

namespace perfbench {

namespace {

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Keeps the micro loops' results observable to the optimizer.
volatile uint64_t g_sink = 0;

/// splitmix64 finalizer: the micro loops' sampling hash.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", ch);
          out += buffer;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

std::string JsonArray(const std::vector<std::string>& values) {
  std::string out(1, '[');
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += values[i];
  }
  out += ']';
  return out;
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonString(key) + ": ";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  Key(key);
  body_ += FormatNumber(value);
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, uint64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += JsonString(value);
  return *this;
}

JsonObject& JsonObject::Nums(const std::string& key,
                             const std::vector<double>& values) {
  Key(key);
  body_ += "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ", ";
    body_ += FormatNumber(values[i]);
  }
  body_ += "]";
  return *this;
}

JsonObject& JsonObject::Strs(const std::string& key,
                             const std::vector<std::string>& values) {
  Key(key);
  body_ += "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ", ";
    body_ += JsonString(values[i]);
  }
  body_ += "]";
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

bool Operations::Expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    // Keep the report readable when a whole loop fails the same way.
    if (failures_.size() < 20) failures_.push_back(what);
  }
  return ok;
}

void Operations::Add(const Operations& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& failure : other.failures_) {
    if (failures_.size() < 20) failures_.push_back(failure);
  }
}

size_t TimedSource::NextChunk(std::span<rept::Edge> out) {
  const double entry = Now();
  if (last_exit_ >= 0.0) latency_ms_.push_back((entry - last_exit_) * 1e3);
  size_t produced = 0;
  {
    rept::obs::TraceSpan span("bench.graph.decode");
    produced = inner_.NextChunk(out);
  }
  const double exit = Now();
  decode_seconds_ += exit - entry;
  edges_ += produced;
  last_exit_ = produced > 0 ? exit : -1.0;
  return produced;
}

std::vector<std::string> RunRounds(
    const Args& args, Operations& ops,
    const std::function<void(bool warmup, bool traced)>& round) {
  round(/*warmup=*/true, /*traced=*/false);
  const double deadline = Now() + args.seconds;
  std::vector<std::string> traces;
  bool traced = false;
  for (;;) {
    if (traced) {
      rept::obs::StartTracing();
      round(false, true);
      traces.push_back(args.workdir + "/trace_" +
                       std::to_string(traces.size()) + ".json");
      ops.Expect(rept::obs::StopTracingToFile(traces.back()), "write trace");
    } else {
      round(false, false);
    }
    traced = args.trace && !traced;
    const bool need_traced = args.trace && traces.empty();
    if (ops.failed() > 0 || (Now() >= deadline && !need_traced)) break;
  }
  return traces;
}

void TraceExtras(const Args& args, Operations& ops,
                 std::vector<std::string>* traces,
                 const std::function<void()>& extras) {
  rept::obs::StartTracing();
  extras();
  traces->push_back(args.workdir + "/trace_extras.json");
  ops.Expect(rept::obs::StopTracingToFile(traces->back()), "write trace");
}

std::vector<std::pair<rept::VertexId, double>> TopK(
    const std::vector<double>& local, size_t k) {
  std::vector<rept::VertexId> order(local.size());
  std::iota(order.begin(), order.end(), rept::VertexId{0});
  k = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(k),
                    order.end(), [&](rept::VertexId a, rept::VertexId b) {
                      if (local[a] != local[b]) return local[a] > local[b];
                      return a < b;
                    });
  std::vector<std::pair<rept::VertexId, double>> top;
  top.reserve(k);
  for (size_t i = 0; i < k; ++i) top.emplace_back(order[i], local[order[i]]);
  return top;
}

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMiB(int pid) {
  const std::string path = pid == 0
                               ? std::string("/proc/self/status")
                               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream status(path);
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = -1.0;
      fields >> kib;
      return kib < 0.0 ? -1.0 : kib / 1024.0;
    }
  }
  return -1.0;
}

void TrimHeap() { malloc_trim(0); }

CodecTiming TimeCodec(const rept::EstimatorSystem& system, uint64_t seed,
                      const rept::StreamingEstimator& session,
                      rept::ThreadPool* pool, Operations& ops) {
  CodecTiming timing;
  std::ostringstream encoded;
  double start = Now();
  {
    rept::obs::TraceSpan span("bench.persist.encode");
    if (!ops.Expect(rept::WriteCheckpointStream(session, encoded),
                    "encode checkpoint")) {
      return timing;
    }
  }
  timing.encode_s = Now() - start;
  auto fresh = system.CreateSession(seed, pool);
  if (!ops.Expect(fresh.status(), "create decode session")) return timing;
  std::istringstream input(encoded.str());
  start = Now();
  {
    rept::obs::TraceSpan span("bench.persist.decode");
    ops.Expect(rept::ReadCheckpointStream(**fresh, input, true),
               "decode checkpoint");
  }
  timing.decode_s = Now() - start;
  return timing;
}

namespace {

/// Per-(edge, graph) work of one micro-loop pass, run before the sampled
/// insert.
enum class Pass { kBase, kInsert, kProbe, kIntersect };

/// Rebuilds one instance's graph over the whole stream at rate 1/m. Returns
/// the pass's wall time; `sink` keeps the work observable.
double TimedPass(Pass pass, std::span<const rept::Edge> edges, uint32_t m,
                 uint64_t salt, uint64_t* inserts, uint64_t* sink) {
  constexpr size_t kPrefetchAhead = 8;
  const bool lookups = pass == Pass::kProbe || pass == Pass::kIntersect;
  rept::SampledGraph graph;
  uint64_t local_sink = 0;
  const double start = Now();
  for (size_t t = 0; t < edges.size(); ++t) {
    if (lookups && t + kPrefetchAhead < edges.size()) {
      graph.PrefetchVertices(edges[t + kPrefetchAhead].u,
                             edges[t + kPrefetchAhead].v);
    }
    const rept::Edge& e = edges[t];
    if (pass == Pass::kProbe) {
      // The endpoint lookups exactly as CountCommonNeighbors makes them:
      // the second only when the first endpoint is present.
      const uint32_t du = graph.degree(e.u);
      local_sink += du == 0 ? 0 : du + graph.degree(e.v);
    } else if (pass == Pass::kIntersect) {
      local_sink += graph.CountCommonNeighbors(e.u, e.v);
    }
    const uint64_t key = (uint64_t{e.u} << 32) | e.v;
    if (Mix(key ^ salt) % m == 0) {
      if (pass == Pass::kBase) {
        ++local_sink;
      } else if (graph.Insert(e.u, e.v)) {
        ++*inserts;
      }
    }
  }
  const double elapsed = Now() - start;
  *sink += local_sink + graph.num_edges();
  return elapsed;
}

}  // namespace

MicroResult RunMicroLoops(std::span<const rept::Edge> edges, uint32_t m,
                          uint32_t instances, uint64_t seed) {
  rept::obs::TraceSpan span("bench.micro.loops");
  MicroResult result;
  result.instances = instances;
  result.edges = edges.size();
  uint64_t sink = 0;
  uint64_t inserts = 0;
  // The four passes run back to back per instance, so drift in the
  // machine's speed hits them alike.
  for (uint32_t i = 0; i < instances; ++i) {
    const uint64_t salt = Mix(seed ^ (uint64_t{i} << 40));
    result.base_pass_s +=
        TimedPass(Pass::kBase, edges, m, salt, &inserts, &sink);
    result.insert_pass_s +=
        TimedPass(Pass::kInsert, edges, m, salt, &result.inserts, &sink);
    result.probe_pass_s +=
        TimedPass(Pass::kProbe, edges, m, salt, &inserts, &sink);
    result.intersect_pass_s +=
        TimedPass(Pass::kIntersect, edges, m, salt, &inserts, &sink);
  }
  g_sink = sink;
  return result;
}

std::string MicroJson(const MicroResult& micro) {
  return JsonObject()
      .Int("instances", micro.instances)
      .Int("edges", micro.edges)
      .Int("inserts", micro.inserts)
      .Num("base_pass_s", micro.base_pass_s)
      .Num("insert_pass_s", micro.insert_pass_s)
      .Num("probe_pass_s", micro.probe_pass_s)
      .Num("intersect_pass_s", micro.intersect_pass_s)
      .str();
}

int WriteResult(const Args& args, const std::string& json) {
  std::FILE* out = std::fopen(args.out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.out.c_str());
    return 1;
  }
  const bool ok = std::fputs(json.c_str(), out) >= 0;
  if (std::fclose(out) != 0 || !ok) {
    std::fprintf(stderr, "perfbench: short write to %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace perfbench
