// e2etool — the compiled half of the end-to-end benchmark (run.py is the
// other half).
//
//   e2etool gen <category|gtopdb|efo> <size> <seed> <dir>
//       Writes a workload's inputs (inputs.cc).
//   e2etool bridge <port>
//       Holds one wire-protocol connection to rdfalignd and forwards
//       requests read from stdin, one per line: tab-separated tokens, or
//       "@push\t<fragment>\t<tokens...>" for a request carrying an update
//       fragment. Each reply is "R <exit> <ok> <latency_us> <body_bytes>
//       <error_bytes>\n" followed by the body and the error text. The
//       latency is timed around the client call.
//   e2etool spin
//       Calibration: the same busy loop on 1, 2 and 4 threads at once.
//   e2etool replay <plan> <reference|trace> <seconds> <out.json>
//       Replays a workload's operations in process through adapter.cc.
//       "reference" runs one untraced cycle and writes the rendered
//       bodies; "trace" alternates untraced and traced cycles for
//       <seconds> and writes every operation's wall time, the spans, the
//       counters and the bodies of the first traced cycle.
//
// A plan is one line per step, tab-separated: "pool <cache_bytes>"
// (0 = fresh loads per call, as one rdfalign process does), "setup
// <tokens>", "op <tokens>" (one operation of the repeated cycle; "push
// <fragment>" for a stream push), "final <tokens>".

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adapter.h"
#include "inputs.h"
#include "service/client.h"
#include "service/snapshot_cache.h"
#include "trace.h"

namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> out;
  std::stringstream in(line);
  std::string token;
  while (std::getline(in, token, '\t')) out.push_back(token);
  return out;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += static_cast<char>(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out + "\"";
}

// ---------------------------------------------------------------- bridge

int RunBridge(int port) {
  auto client = rdfalign::service::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    std::fprintf(stderr, "e2etool bridge: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  std::map<std::string, std::string> fragments;
  std::printf("ready\n");
  std::fflush(stdout);
  std::string line;
  while (std::getline(std::cin, line)) {
    std::vector<std::string> tokens = SplitTabs(line);
    const std::string* payload = nullptr;
    if (!tokens.empty() && tokens[0] == "@push" && tokens.size() >= 2) {
      auto it = fragments.find(tokens[1]);
      if (it == fragments.end()) {
        std::string bytes;
        if (!ReadFile(tokens[1], &bytes)) {
          std::fprintf(stderr, "e2etool bridge: cannot read %s\n",
                       tokens[1].c_str());
          return 1;
        }
        it = fragments.emplace(tokens[1], std::move(bytes)).first;
      }
      payload = &it->second;
      tokens.erase(tokens.begin(), tokens.begin() + 2);
    }
    const Clock::time_point start = Clock::now();
    auto response = payload != nullptr
                        ? client->CallWithPayload(tokens, *payload)
                        : client->Call(tokens);
    const double latency_us = MicrosSince(start);
    int exit_code = 1;
    bool ok = false;
    std::string body, error;
    if (response.ok()) {
      exit_code = response->exit_code;
      ok = response->ok;
      body = std::move(response->body);
      error = std::move(response->error);
    } else {
      error = response.status().ToString();
    }
    std::printf("R %d %d %.3f %zu %zu\n", exit_code, ok ? 1 : 0, latency_us,
                body.size(), error.size());
    std::fwrite(body.data(), 1, body.size(), stdout);
    std::fwrite(error.data(), 1, error.size(), stdout);
    std::fflush(stdout);
    if (!response.ok()) return 1;  // the connection is gone
  }
  return 0;
}

// ------------------------------------------------------------------ spin

int RunSpin() {
  constexpr uint64_t kIterations = 40'000'000;
  auto work = [](uint64_t seed) {
    uint64_t x = seed | 1;
    for (uint64_t i = 0; i < kIterations; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  };
  std::printf("{");
  for (int n : {1, 2, 4}) {
    std::vector<uint64_t> sinks(n, 0);
    std::vector<std::thread> threads;
    const Clock::time_point start = Clock::now();
    for (int t = 0; t < n; ++t) {
      threads.emplace_back([&sinks, &work, t] { sinks[t] = work(t + 1); });
    }
    for (std::thread& t : threads) t.join();
    const double ms = MicrosSince(start) / 1e3;
    uint64_t fold = 0;
    for (uint64_t s : sinks) fold ^= s;
    std::printf("%s\"t%d_ms\": %.3f, \"fold%d\": %llu", n == 1 ? "" : ", ",
                n, ms, n, (unsigned long long)(fold & 0xff));
  }
  std::printf("}\n");
  return 0;
}

// ---------------------------------------------------------------- replay

struct Plan {
  unsigned long long cache_bytes = 0;
  std::vector<std::vector<std::string>> setup, ops, final;
};

bool LoadPlan(const std::string& path, Plan* plan) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> t = SplitTabs(line);
    if (t.size() < 2) continue;
    const std::string kind = t[0];
    t.erase(t.begin());
    if (kind == "pool") {
      plan->cache_bytes = std::stoull(t[0]);
    } else if (kind == "setup") {
      plan->setup.push_back(t);
    } else if (kind == "op") {
      plan->ops.push_back(t);
    } else if (kind == "final") {
      plan->final.push_back(t);
    } else {
      return false;
    }
  }
  return !plan->ops.empty();
}

/// Runs plan steps against one snapshot cache (or fresh loads) and, for
/// stream plans, one session.
class Replayer {
 public:
  explicit Replayer(const Plan& plan)
      : cache_(e2ebench::NewCache(plan.cache_bytes)),
        stream_(cache_.get()) {}

  e2ebench::ReplayResult Run(const std::vector<std::string>& t) {
    if (t.size() >= 2 && t[0] == "push") {
      auto it = fragments_.find(t[1]);
      if (it == fragments_.end()) {
        return {false, "", "fragment not loaded: " + t[1]};
      }
      return stream_.Push(it->second);
    }
    if (t.size() >= 2 && t[0] == "stream" && t[1] == "open") {
      return stream_.Open(t);
    }
    if (t.size() >= 2 && t[0] == "stream" && t[1] == "check") {
      return stream_.Check(t);
    }
    return e2ebench::ReplayVerb(t, cache_.get());
  }

  /// Loads every fragment up front, as the bridge holds them in memory.
  bool Preload(const Plan& plan) {
    for (const auto& t : plan.ops) {
      if (t.size() >= 2 && t[0] == "push" && !fragments_.count(t[1])) {
        std::string bytes;
        if (!ReadFile(t[1], &bytes)) return false;
        fragments_.emplace(t[1], std::move(bytes));
      }
    }
    return true;
  }

 private:
  std::unique_ptr<rdfalign::service::SnapshotCache> cache_;
  e2ebench::StreamReplay stream_;
  std::map<std::string, std::string> fragments_;
};

std::string Joined(const std::vector<std::string>& t) {
  std::string out;
  for (const std::string& s : t) out += (out.empty() ? "" : " ") + s;
  return out;
}

int RunReplay(const std::string& plan_path, const std::string& mode,
              double seconds, const std::string& out_path) {
  Plan plan;
  if (!LoadPlan(plan_path, &plan)) {
    std::fprintf(stderr, "e2etool replay: bad plan %s\n", plan_path.c_str());
    return 2;
  }
  Replayer replayer(plan);
  auto fail = [](const std::vector<std::string>& t,
                 const e2ebench::ReplayResult& r) {
    std::fprintf(stderr, "e2etool replay: %s failed: %s\n",
                 Joined(t).c_str(), r.error.c_str());
    return 1;
  };
  if (!replayer.Preload(plan)) {
    std::fprintf(stderr, "e2etool replay: cannot read a fragment\n");
    return 1;
  }
  for (const auto& t : plan.setup) {
    e2ebench::ReplayResult r = replayer.Run(t);
    if (!r.ok) return fail(t, r);
  }

  struct OpRecord {
    uint32_t id;
    size_t index;
    bool traced;
    double wall_us;
  };
  std::vector<OpRecord> records;
  std::vector<std::string> bodies;  // first recorded cycle
  e2ebench::Tracer& tracer = e2ebench::Tracer::Get();
  const bool trace = mode == "trace";
  const Clock::time_point start = Clock::now();
  uint32_t next_id = 0;
  for (size_t cycle = 0;; ++cycle) {
    // Untraced and traced cycles alternate, so both see the same drift.
    const bool traced = trace && cycle % 2 == 1;
    tracer.set_enabled(traced);
    for (size_t i = 0; i < plan.ops.size(); ++i) {
      const uint32_t id = next_id++;
      tracer.BeginOp(id);
      const Clock::time_point op_start = Clock::now();
      e2ebench::ReplayResult r = replayer.Run(plan.ops[i]);
      const double wall_us = MicrosSince(op_start);
      if (!r.ok) return fail(plan.ops[i], r);
      records.push_back({id, i, traced, wall_us});
      if (bodies.size() < plan.ops.size() && (traced || !trace)) {
        bodies.push_back(std::move(r.body));
      }
    }
    if (!trace) break;
    if (cycle % 2 == 1 && MicrosSince(start) >= seconds * 1e6) break;
  }
  tracer.set_enabled(false);
  for (const auto& t : plan.final) {
    e2ebench::ReplayResult r = replayer.Run(t);
    if (!r.ok) return fail(t, r);
    bodies.push_back(std::move(r.body));
  }

  std::ofstream out(out_path);
  out << "{\"bodies\": [";
  for (size_t i = 0; i < bodies.size(); ++i) {
    out << (i ? ",\n" : "\n") << JsonString(bodies[i]);
  }
  out << "],\n\"ops\": [";
  for (size_t i = 0; i < records.size(); ++i) {
    const OpRecord& r = records[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"id\": %u, \"index\": %zu, \"traced\": %s, "
                  "\"wall_us\": %.3f}",
                  i ? ",\n" : "\n", r.id, r.index,
                  r.traced ? "true" : "false", r.wall_us);
    out << buf;
  }
  out << "],\n\"spans\": [";
  const auto& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const e2ebench::SpanRecord& s = spans[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"op\": %u, \"parent\": %d, \"name\": \"%s\", "
                  "\"start_us\": %.3f, \"dur_us\": %.3f}",
                  i ? ",\n" : "\n", s.op, s.parent, s.name.c_str(),
                  s.start_us, s.dur_us);
    out << buf;
  }
  out << "],\n\"counters\": [";
  const auto& counters = tracer.counters();
  for (size_t i = 0; i < counters.size(); ++i) {
    const e2ebench::CounterRecord& c = counters[i];
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"op\": %u, \"name\": \"%s\", \"value\": %.17g}",
                  i ? ",\n" : "\n", c.op, c.name.c_str(), c.value);
    out << buf;
  }
  out << "]}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "e2etool replay: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2etool gen <category|gtopdb|efo> <size> <seed> <dir>\n"
               "       e2etool bridge <port>\n"
               "       e2etool spin\n"
               "       e2etool replay <plan> <reference|trace> <seconds> "
               "<out.json>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "gen" && argc == 6) {
    std::filesystem::create_directories(argv[5]);
    rdfalign::Status st = e2ebench::GenerateInputs(
        argv[2], std::atof(argv[3]), std::strtoull(argv[4], nullptr, 10),
        argv[5]);
    if (!st.ok()) {
      std::fprintf(stderr, "e2etool gen: %s\n", st.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (cmd == "bridge" && argc == 3) return RunBridge(std::atoi(argv[2]));
  if (cmd == "spin" && argc == 2) return RunSpin();
  if (cmd == "replay" && argc == 6) {
    const std::string mode = argv[3];
    if (mode != "reference" && mode != "trace") return Usage();
    return RunReplay(argv[2], mode, std::atof(argv[4]), argv[5]);
  }
  return Usage();
}
