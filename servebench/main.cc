// End-to-end serving benchmark: an Engine with durable storage and an
// in-process LineServer on loopback, driven by closed-loop client threads
// of one workload. See README.md for the workloads, the metrics and how to
// run it.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              [--work-dir DIR]
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the workload
// three times for S/3 seconds each: untraced (the baseline of the tracing
// overhead), then twice traced with the same seed, and prints the
// per-layer metrics. Every reply is checked against the workload's oracle.
// The last line of standard output is one JSON object; the exit code is 0
// only when every operation succeeded with a correct answer and every
// guard held.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "harness.h"
#include "server/protocol.h"
#include "server/server.h"

namespace servebench {
namespace {

constexpr int kReaders = 2;
/// The writer's pause between two commits. It keeps a reader's `refresh`
/// a few commits behind, within the delta window sessions maintain along.
constexpr std::chrono::milliseconds kWriterThink{40};
/// Set-ups per --trace 0 run; setup_s is their median.
constexpr int kSetups = 9;
/// A reply slower than this is a failed operation.
constexpr int kReplyTimeoutS = 30;
/// The traced replay's layer times must account for the in-process
/// Session::Query time within this share (median over requests).
constexpr double kAccountTolerance = 0.25;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "servebench: " << why
            << "\nusage: servebench --workload read_mostly|update_serve|"
               "cold_analytics --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag);
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

// --- the client side of the line protocol -----------------------------------

class LineClient {
 public:
  explicit LineClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to the server");
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval timeout{kReplyTimeoutS, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~LineClient() { ::close(fd_); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Sends one request line and reads its reply line. False when the
  /// connection broke or the reply timed out.
  bool Call(const std::string& line, std::string* reply) {
    const std::string out = line + "\n";
    for (size_t sent = 0; sent < out.size();) {
      ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    size_t eol;
    while ((eol = buf_.find('\n')) == std::string::npos) {
      char chunk[65536];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
    reply->assign(buf_, 0, eol);
    buf_.erase(0, eol + 1);
    return true;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// "ok v<version>" (refresh) or "ok +I -D v<version>..." (exec).
bool ParseVersion(const std::string& reply, uint64_t* version) {
  const size_t v = reply.find(" v");
  if (!StartsWith(reply, "ok ") || v == std::string::npos) return false;
  *version = std::strtoull(reply.c_str() + v + 2, nullptr, 10);
  return true;
}

/// Maps each published database version to the number of the writer's
/// commits it contains, so a reader's answer is checked against the state
/// its `refresh` reply names.
class VersionBook {
 public:
  void Record(uint64_t version, uint64_t commits) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      commits_[version] = commits;
    }
    cv_.notify_all();
  }
  /// Waits briefly for a version whose commit the writer has not logged
  /// yet (the reader may see it published before the writer's reply).
  bool Lookup(uint64_t version, uint64_t* commits) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, std::chrono::seconds(kReplyTimeoutS),
                      [&] { return commits_.count(version) > 0; })) {
      return false;
    }
    *commits = commits_[version];
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint64_t, uint64_t> commits_;
};

// --- one set-up of the system under test ------------------------------------

struct SetupTimes {
  double construct_ms = 0;
  double attach_ms = 0;
  double load_ms = 0;
  double warmup_ms = 0;
  double total_s = 0;
};

/// Engine (stdlib) -> AttachStorage on a fresh store -> bulk load and
/// Define -> LineServer start -> client connections and warm-up. Tears it
/// all down, store directory included, on destruction.
class Env {
 public:
  Env(const Workload& workload, const std::string& store_dir)
      : store_dir_(store_dir) {
    const int64_t t0 = NowNs();
    engine = std::make_unique<rel::Engine>();
    const int64_t t1 = NowNs();
    fs = std::make_shared<CountingFileSystem>();
    rel::storage::RecoveryReport report =
        engine->AttachStorage(store_dir_, rel::storage::DurabilityOptions{}, fs);
    if (!report.status.ok()) {
      throw std::runtime_error("AttachStorage failed: " +
                               report.status.message());
    }
    const int64_t t2 = NowNs();
    workload.Load(engine.get());
    const int64_t t3 = NowNs();
    rel::server::ServerOptions options;
    options.num_workers = kReaders + 1;
    server = std::make_unique<rel::server::LineServer>(engine.get(), options);
    rel::Status started = server->Start();
    if (!started.ok()) {
      throw std::runtime_error("LineServer::Start failed: " + started.message());
    }
    for (int i = 0; i <= kReaders; ++i) {
      clients.push_back(std::make_unique<LineClient>(server->port()));
    }
    for (int i = 0; i < kReaders; ++i) {
      for (const Request& req : workload.Warmup()) {
        std::string reply, why;
        if (req.refresh && !clients[i]->Call("refresh", &reply)) {
          throw std::runtime_error("warm-up refresh failed");
        }
        if (!clients[i]->Call("query " + rel::server::EscapeLine(req.source),
                              &reply) ||
            !StartsWith(reply, "ok ") ||
            !workload.CheckRead(req, rel::server::UnescapeLine(reply.substr(3)),
                                0, &why)) {
          throw std::runtime_error("warm-up read failed: " + reply.substr(0, 200) +
                                   " " + why);
        }
      }
    }
    const int64_t t4 = NowNs();
    times.construct_ms = (t1 - t0) / 1e6;
    times.attach_ms = (t2 - t1) / 1e6;
    times.load_ms = (t3 - t2) / 1e6;
    times.warmup_ms = (t4 - t3) / 1e6;
    times.total_s = (t4 - t0) / 1e9;
  }

  ~Env() {
    clients.clear();
    if (server) server->Stop();
    server.reset();
    engine.reset();
    std::error_code ignored;
    std::filesystem::remove_all(store_dir_, ignored);
  }
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  std::shared_ptr<CountingFileSystem> fs;
  std::unique_ptr<rel::Engine> engine;
  std::unique_ptr<rel::server::LineServer> server;
  /// Reader connections first, the writer's last.
  std::vector<std::unique_ptr<LineClient>> clients;
  SetupTimes times;

 private:
  std::string store_dir_;
};

// --- closed-loop clients ----------------------------------------------------

struct ClientResult {
  std::vector<double> read_ms;
  std::vector<double> commit_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<RequestTrace> traces;

  void Fail(const std::string& what) {
    ++failed;
    if (failures.size() < 5) failures.push_back(what.substr(0, 300));
  }
};

struct PhaseContext {
  const Workload* workload;
  Env* env;
  VersionBook* book;
  int64_t deadline_ns;
  bool traced;
  uint64_t seed;
};

void RunReader(const PhaseContext& ctx, int index, ClientResult* out) {
  const Workload& workload = *ctx.workload;
  LineClient& client = *ctx.env->clients[index];
  rel::Rng rng(ctx.seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(index) + 1);
  // The traced run replays each request in-process three times, on a
  // handler and two sessions of its own, each warmed like the server's
  // session was: SessionHandler::Handle, Session::Query, and the calls
  // Session::Query is built from. Each replay has its own session so that
  // each sees the state the server's session saw (the first read after a
  // refresh also pays for re-sorting the maintained extent).
  std::unique_ptr<rel::server::SessionHandler> local;
  std::unique_ptr<rel::Session> query_session, parts_session;
  if (ctx.traced) {
    rel::Engine* engine = ctx.env->engine.get();
    local = std::make_unique<rel::server::SessionHandler>(engine);
    query_session = engine->OpenSession();
    parts_session = engine->OpenSession();
    for (const Request& req : workload.Warmup()) {
      local->Handle("query " + rel::server::EscapeLine(req.source));
      query_session->Query(req.source);
      parts_session->Query(req.source);
    }
  }
  for (uint64_t seq = 0; NowNs() < ctx.deadline_ns; ++seq) {
    const Request req = workload.NextRead(&rng);
    const std::string line = "query " + rel::server::EscapeLine(req.source);
    RequestTrace trace;
    trace.id = (static_cast<uint64_t>(index) << 32) | seq;
    ++out->attempted;
    std::string reply;
    uint64_t version = 0;
    int refresh_span = -1;
    const int64_t t0 = NowNs();
    if (req.refresh) {
      if (ctx.traced) refresh_span = trace.Begin("rtt.refresh", -1);
      if (!client.Call("refresh", &reply) || !ParseVersion(reply, &version)) {
        out->Fail("refresh: " + reply);
        break;
      }
      if (ctx.traced) trace.End(refresh_span);
    }
    const int query_span = ctx.traced ? trace.Begin("rtt.query", -1) : -1;
    if (!client.Call(line, &reply)) {
      out->Fail("query: connection lost or timed out");
      break;
    }
    const int64_t t1 = NowNs();
    if (ctx.traced) trace.End(query_span);

    std::string why;
    uint64_t commits = 0;
    if (!StartsWith(reply, "ok ")) {
      out->Fail(req.source + " -> " + reply);
    } else if (req.refresh && !ctx.book->Lookup(version, &commits)) {
      out->Fail("no commit count for version " + std::to_string(version));
    } else if (!workload.CheckRead(
                   req, rel::server::UnescapeLine(reply.substr(3)), commits,
                   &why)) {
      out->Fail("wrong answer to " + req.source + ": " + why);
    } else {
      out->read_ms.push_back((t1 - t0) / 1e6);
    }
    if (!ctx.traced) continue;

    auto& c = trace.counts;
    const rel::ExtentCache& cache = parts_session->extent_cache();
    try {
      if (req.refresh) {
        local->session().Refresh();
        query_session->Refresh();
        const uint64_t maintained = cache.maintained();
        const int span = trace.Begin("session.refresh", refresh_span);
        parts_session->Refresh();
        trace.End(span);
        c["core.session.maintained"] =
            static_cast<double>(cache.maintained() - maintained);
        c["core.session.cache_entries"] = static_cast<double>(cache.size());
      }
      const int handle = trace.Begin("handle", query_span);
      const std::string local_reply = local->Handle(line);
      trace.End(handle);
      if (!StartsWith(local_reply, "ok")) {
        out->Fail("replayed " + req.source + " -> " + local_reply);
      }
      const int query = trace.Begin("session.query", handle);
      query_session->Query(req.source);
      trace.End(query);
      const uint64_t hits = cache.hits();
      const uint64_t misses = cache.misses();
      ReplayQuery(parts_session.get(), req, query, &trace);
      c["server.reply_bytes"] = static_cast<double>(reply.size());
      c["core.extent_cache.hits"] = static_cast<double>(cache.hits() - hits);
      c["core.extent_cache.lookups"] =
          static_cast<double>(cache.hits() + cache.misses() - hits - misses);
    } catch (const std::exception& e) {
      out->Fail(std::string("replay of ") + req.source + ": " + e.what());
    }
    out->traces.push_back(std::move(trace));
  }
}

bool CheckCommitReply(const Request& req, size_t inserted, size_t deleted,
                      std::string* why) {
  if (inserted == req.inserts && deleted == req.deletes) return true;
  *why = "commit applied +" + std::to_string(inserted) + " -" +
         std::to_string(deleted) + ", expected +" + std::to_string(req.inserts) +
         " -" + std::to_string(req.deletes);
  return false;
}

void RunWriter(const PhaseContext& ctx, ClientResult* out) {
  const Workload& workload = *ctx.workload;
  rel::Engine& engine = *ctx.env->engine;
  LineClient& client = *ctx.env->clients[kReaders];
  // The traced run commits in-process, through the Session call the server's
  // `exec` wraps, so storage and maintenance are attributed to the commit.
  std::unique_ptr<rel::Session> session;
  if (ctx.traced) session = engine.OpenSession();
  const CountingFileSystem::Counters& io = ctx.env->fs->counters();
  for (uint64_t k = 0; NowNs() < ctx.deadline_ns; ++k) {
    const Request req = workload.Commit(k);
    ++out->attempted;
    std::string why;
    if (!ctx.traced) {
      std::string reply;
      const int64_t t0 = NowNs();
      if (!client.Call("exec " + rel::server::EscapeLine(req.source), &reply)) {
        out->Fail("exec: connection lost or timed out");
        break;
      }
      const int64_t t1 = NowNs();
      size_t inserted = 0, deleted = 0;
      uint64_t version = 0;
      if (std::sscanf(reply.c_str(), "ok +%zu -%zu", &inserted, &deleted) != 2 ||
          !ParseVersion(reply, &version)) {
        out->Fail(req.source + " -> " + reply);
        break;
      }
      ctx.book->Record(version, k + 1);
      if (CheckCommitReply(req, inserted, deleted, &why)) {
        out->commit_ms.push_back((t1 - t0) / 1e6);
      } else {
        out->Fail(why);
      }
    } else {
      RequestTrace trace;
      trace.commit = true;
      trace.id = k;
      const rel::Engine::IcStats ic = engine.ic_stats();
      const rel::ExtentCache& cache = engine.writer_extent_cache();
      const rel::datalog::EvalStats maintain = cache.maintain_stats();
      const uint64_t dropped = cache.dropped();
      const uint64_t appends = io.appends, bytes = io.bytes, syncs = io.syncs;
      const int span = trace.Begin("session.exec", -1);
      rel::TxnResult txn;
      try {
        StorageTraceScope scope(&trace, span);
        txn = session->Exec(req.source);
      } catch (const std::exception& e) {
        out->Fail(req.source + " -> " + e.what());
        break;
      }
      trace.End(span);
      ctx.book->Record(txn.snapshot_version, k + 1);
      if (CheckCommitReply(req, txn.inserted, txn.deleted, &why)) {
        out->commit_ms.push_back(trace.Ms(span));
      } else {
        out->Fail(why);
      }
      auto& c = trace.counts;
      c["core.engine.ic_checked"] =
          static_cast<double>(engine.ic_stats().checked - ic.checked);
      c["core.engine.ic_skipped"] =
          static_cast<double>(engine.ic_stats().skipped - ic.skipped);
      const rel::datalog::EvalStats& after = cache.maintain_stats();
      c["core.engine.maintain.delta_inserts"] =
          static_cast<double>(after.delta_inserts - maintain.delta_inserts);
      c["core.engine.maintain.delta_deletes"] =
          static_cast<double>(after.delta_deletes - maintain.delta_deletes);
      c["core.engine.maintain.rederived"] =
          static_cast<double>(after.rederived - maintain.rederived);
      c["core.engine.maintain.dropped"] =
          static_cast<double>(cache.dropped() - dropped);
      c["storage.appends"] = static_cast<double>(io.appends - appends);
      c["storage.bytes"] = static_cast<double>(io.bytes - bytes);
      c["storage.syncs"] = static_cast<double>(io.syncs - syncs);
      out->traces.push_back(std::move(trace));
    }
    std::this_thread::sleep_for(kWriterThink);
  }
}

struct PhaseResult {
  SetupTimes setup;
  std::vector<ClientResult> clients;
  double elapsed_s = 0;
  rel::Engine::IcStats ic;
};

/// One set-up, then `seconds` of closed-loop load, then tear-down.
PhaseResult RunPhase(const Workload& workload, const Args& args,
                     const std::string& store_dir, double seconds, bool traced) {
  PhaseResult result;
  Env env(workload, store_dir);
  result.setup = env.times;
  VersionBook book;
  book.Record(env.engine->SnapshotNow()->version(), 0);
  result.clients.resize(kReaders + 1);
  const int64_t start = NowNs();
  PhaseContext ctx{&workload, &env, &book,
                   start + static_cast<int64_t>(seconds * 1e9), traced,
                   args.seed};
  std::vector<std::thread> threads;
  for (int i = 0; i < kReaders; ++i) {
    threads.emplace_back(RunReader, std::cref(ctx), i, &result.clients[i]);
  }
  threads.emplace_back(RunWriter, std::cref(ctx), &result.clients[kReaders]);
  for (std::thread& t : threads) t.join();
  result.elapsed_s = (NowNs() - start) / 1e9;
  result.ic = env.engine->ic_stats();
  return result;
}

// --- metrics ----------------------------------------------------------------

/// Linear-interpolated quantile of unsorted samples (0 when empty).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-request layer times: each span's self time (its duration minus its
/// children's), summed per span name.
std::map<std::string, double> SelfTimes(const RequestTrace& t) {
  std::vector<double> self(t.spans.size());
  for (size_t i = 0; i < t.spans.size(); ++i) self[i] = t.Ms(static_cast<int>(i));
  for (size_t i = 0; i < t.spans.size(); ++i) {
    if (t.spans[i].parent >= 0) self[t.spans[i].parent] -= t.Ms(static_cast<int>(i));
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < t.spans.size(); ++i) out[t.spans[i].name] += self[i];
  return out;
}

/// Counts that do not depend on how clients interleave, per request kind.
/// `reads` is false for update_serve, whose reads see whichever version
/// the writer has reached.
std::vector<std::string> DeterministicCounts(bool commit, bool reads) {
  if (commit) {
    return {"storage.bytes", "storage.syncs", "core.engine.ic_checked",
            "core.engine.ic_skipped"};
  }
  if (!reads) return {};
  return {"datalog.tuples_derived",  "datalog.iterations",
          "datalog.index_probes",    "datalog.index_builds",
          "datalog.aggregate_updates", "core.spliced_rows",
          "core.result_rows",        "core.components_lowered",
          "core.components_rejected"};
}

/// Compares the deterministic counts of the requests both traced passes
/// ran; returns the number of mismatches and describes the first.
int CompareTracedPasses(const std::vector<RequestTrace>& a,
                        const std::vector<RequestTrace>& b, bool reads,
                        size_t* compared, std::string* first) {
  std::map<std::pair<bool, uint64_t>, const RequestTrace*> index;
  for (const RequestTrace& t : a) index[{t.commit, t.id}] = &t;
  int mismatches = 0;
  *compared = 0;
  for (const RequestTrace& t : b) {
    auto it = index.find({t.commit, t.id});
    if (it == index.end()) continue;
    ++*compared;
    for (const std::string& name : DeterministicCounts(t.commit, reads)) {
      const double x = it->second->counts.count(name) ? it->second->counts.at(name) : 0;
      const double y = t.counts.count(name) ? t.counts.at(name) : 0;
      if (x != y) {
        if (mismatches++ == 0) {
          *first = name + " of request " + std::to_string(t.id) + ": " +
                   std::to_string(x) + " vs " + std::to_string(y);
        }
      }
    }
  }
  return mismatches;
}

void WriteTrace(const std::string& path, const std::vector<RequestTrace>& traces) {
  std::ofstream out(path);
  for (const RequestTrace& t : traces) {
    for (size_t i = 0; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      out << "{\"request\": " << t.id << ", \"commit\": "
          << (t.commit ? "true" : "false") << ", \"span\": " << i
          << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
          << "}\n";
    }
  }
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Totals {
  std::vector<double> read_ms;
  std::vector<double> commit_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

Totals Collect(const PhaseResult& phase) {
  Totals t;
  for (const ClientResult& c : phase.clients) {
    t.read_ms.insert(t.read_ms.end(), c.read_ms.begin(), c.read_ms.end());
    t.commit_ms.insert(t.commit_ms.end(), c.commit_ms.begin(), c.commit_ms.end());
    t.attempted += c.attempted;
    t.failed += c.failed;
    for (const std::string& f : c.failures) std::printf("FAILED: %s\n", f.c_str());
  }
  return t;
}

/// Path guard shared by both modes: update_serve's commits must both check
/// and skip an integrity constraint.
bool IcGuard(const Args& args, const rel::Engine::IcStats& ic) {
  if (args.workload != "update_serve" || (ic.checked > 0 && ic.skipped > 0)) {
    return true;
  }
  std::printf("GUARD: update_serve checked %llu and skipped %llu constraints\n",
              static_cast<unsigned long long>(ic.checked),
              static_cast<unsigned long long>(ic.skipped));
  return false;
}

int RunEndToEnd(const Workload& workload, const Args& args,
                const std::string& store_prefix) {
  std::vector<double> setups;
  for (int i = 0; i + 1 < kSetups; ++i) {
    Env env(workload, store_prefix + std::to_string(i));
    setups.push_back(env.times.total_s);
  }
  PhaseResult phase = RunPhase(workload, args, store_prefix + "run",
                               args.seconds, /*traced=*/false);
  setups.push_back(phase.setup.total_s);
  Totals t = Collect(phase);
  const bool guard = IcGuard(args, phase.ic);
  std::printf("reads %zu, commits %zu, in %.3f s; %zu reads beyond p90\n",
              t.read_ms.size(), t.commit_ms.size(), phase.elapsed_s,
              t.read_ms.size() / 10);
  std::printf("failed_frac %.6f (%llu of %llu operations)\n",
              t.attempted ? static_cast<double>(t.failed) / t.attempted : 0.0,
              static_cast<unsigned long long>(t.failed),
              static_cast<unsigned long long>(t.attempted));
  // Printed, not gated: fsync tails from other tenants' disk traffic moved
  // it by more than any bound allows between runs of the same code.
  std::printf("commit_p90_ms %.6f\n", Quantile(t.commit_ms, 0.9));
  std::vector<Metric> metrics = {
      {"setup_s", Quantile(setups, 0.5), "s"},
      {"read_p50_ms", Quantile(t.read_ms, 0.5), "ms"},
      {"read_p90_ms", Quantile(t.read_ms, 0.9), "ms"},
      {"reads_per_s", t.read_ms.size() / phase.elapsed_s, "1/s"},
      {"commit_p50_ms", Quantile(t.commit_ms, 0.5), "ms"},
      {"commits_per_s", t.commit_ms.size() / phase.elapsed_s, "1/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  const bool correct = t.failed == 0 && guard;
  PrintResult(correct, t.attempted, t.failed, metrics);
  return correct ? 0 : 1;
}

int RunTraced(const Workload& workload, const Args& args,
              const std::string& store_prefix) {
  const double third = args.seconds / 3;
  std::vector<PhaseResult> phases;
  phases.push_back(RunPhase(workload, args, store_prefix + "plain", third, false));
  phases.push_back(RunPhase(workload, args, store_prefix + "traced-a", third, true));
  phases.push_back(RunPhase(workload, args, store_prefix + "traced-b", third, true));

  uint64_t attempted = 0, failed = 0;
  bool guards = true;
  std::vector<Totals> totals;
  for (const PhaseResult& p : phases) {
    totals.push_back(Collect(p));
    attempted += totals.back().attempted;
    failed += totals.back().failed;
    guards &= IcGuard(args, p.ic);
  }
  std::vector<RequestTrace> pass_a, pass_b;
  for (const ClientResult& c : phases[1].clients) {
    pass_a.insert(pass_a.end(), c.traces.begin(), c.traces.end());
  }
  for (const ClientResult& c : phases[2].clients) {
    pass_b.insert(pass_b.end(), c.traces.begin(), c.traces.end());
  }

  // Determinism self-check across the two traced passes.
  size_t compared = 0;
  std::string first;
  const int mismatches = CompareTracedPasses(
      pass_a, pass_b, args.workload != "update_serve", &compared, &first);
  std::printf("determinism: %zu requests compared across two traced passes, "
              "%d mismatching counts%s%s\n",
              compared, mismatches, mismatches ? "; first: " : "", first.c_str());
  guards &= mismatches == 0 && compared > 0;

  std::vector<RequestTrace> all = pass_a;
  all.insert(all.end(), pass_b.begin(), pass_b.end());
  WriteTrace(args.work_dir + "/trace-" + args.workload + "-seed" +
                 std::to_string(args.seed) + ".jsonl",
             all);

  // Per-request layer times and counts.
  std::map<std::string, std::vector<double>> times;  // medians
  std::map<std::string, double> sums;                // per-kind means
  double reads = 0, commits = 0, refreshes = 0;
  std::vector<double> accounted, traced_rtt;
  for (const RequestTrace& t : all) {
    for (const auto& [name, ms] : SelfTimes(t)) times[name].push_back(ms);
    for (const auto& [name, value] : t.counts) sums[name] += value;
    (t.commit ? commits : reads) += 1;
    double rtt = 0, query_ms = 0, children = 0;
    for (size_t i = 0; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      if (s.parent < 0 && !t.commit) rtt += t.Ms(static_cast<int>(i));
      if (std::string(s.name) == "session.query") query_ms = t.Ms(static_cast<int>(i));
      if (std::string(s.name) == "session.refresh") refreshes += 1;
      if (s.parent >= 0 &&
          std::string(t.spans[s.parent].name) == "session.query") {
        children += t.Ms(static_cast<int>(i));
      }
    }
    if (!t.commit) traced_rtt.push_back(rtt);
    if (query_ms > 0) accounted.push_back(children / query_ms);
  }
  auto median = [&](const char* span) { return Quantile(times[span], 0.5); };
  auto per = [&](const char* count, double n) { return n > 0 ? sums[count] / n : 0.0; };
  auto ratio = [&](const char* num, const char* den) {
    return sums[den] > 0 ? sums[num] / sums[den] : 0.0;
  };

  const double account = Quantile(accounted, 0.5);
  const bool account_ok = std::fabs(account - 1) <= kAccountTolerance;
  std::printf("accounting: layer self times cover %.3f of the in-process "
              "Session::Query time (median; tolerance %.2f)\n",
              account, kAccountTolerance);
  guards &= account_ok;

  // Path guards: each workload must still exercise what it was chosen for.
  if (sums["core.components_rejected"] > 0) {
    std::printf("GUARD: %s rejected %g components\n", args.workload.c_str(),
                sums["core.components_rejected"]);
    guards = false;
  }
  const double hit_ratio =
      ratio("core.extent_cache.hits", "core.extent_cache.lookups");
  if (args.workload == "read_mostly" && hit_ratio < 1) {
    std::printf("GUARD: read_mostly extent-cache hit ratio %.4f after warm-up\n",
                hit_ratio);
    guards = false;
  }

  std::vector<double> construct, load, attach, warmup;
  for (const PhaseResult& p : phases) {
    construct.push_back(p.setup.construct_ms);
    load.push_back(p.setup.load_ms);
    attach.push_back(p.setup.attach_ms);
    warmup.push_back(p.setup.warmup_ms);
  }
  const double final_rows = sums["datalog.final_rows"];
  const double derived = sums["datalog.tuples_derived"];
  std::vector<Metric> metrics = {
      {"server.transport_ms", median("rtt.query"), "ms"},
      {"server.protocol_ms", median("handle"), "ms"},
      {"server.reply_bytes", per("server.reply_bytes", reads), "bytes"},
      {"core.parse_ms", median("parse"), "ms"},
      {"core.analyze_ms", median("analyze"), "ms"},
      {"core.component_ms", median("component"), "ms"},
      {"core.spliced_rows", per("core.spliced_rows", reads), "rows"},
      {"core.extent_cache.hit_ratio", hit_ratio, "ratio"},
      {"core.solve_ms", median("solve"), "ms"},
      {"core.result_rows", per("core.result_rows", reads), "rows"},
      {"core.rows_per_result", ratio("core.spliced_rows", "core.result_rows"),
       "ratio"},
      {"core.lower_ms", median("lower"), "ms"},
      {"core.components_lowered", per("core.components_lowered", reads), "count"},
      {"core.components_rejected", per("core.components_rejected", reads),
       "count"},
      {"datalog.evaluate_ms", median("datalog.evaluate"), "ms"},
      {"datalog.tuples_derived", per("datalog.tuples_derived", reads), "count"},
      {"datalog.iterations", per("datalog.iterations", reads), "count"},
      {"datalog.index_probes", per("datalog.index_probes", reads), "count"},
      {"datalog.index_builds", per("datalog.index_builds", reads), "count"},
      {"datalog.aggregate_updates", per("datalog.aggregate_updates", reads),
       "count"},
      {"datalog.useful_ratio", derived > 0 ? final_rows / derived : 0.0, "ratio"},
      {"core.engine.exec_ms", median("session.exec"), "ms"},
      {"core.engine.ic_checked", per("core.engine.ic_checked", commits), "count"},
      {"core.engine.ic_skipped", per("core.engine.ic_skipped", commits), "count"},
      {"core.engine.maintain.delta_inserts",
       per("core.engine.maintain.delta_inserts", commits), "count"},
      {"core.engine.maintain.delta_deletes",
       per("core.engine.maintain.delta_deletes", commits), "count"},
      {"core.engine.maintain.rederived",
       per("core.engine.maintain.rederived", commits), "count"},
      {"core.engine.maintain.dropped", per("core.engine.maintain.dropped", commits),
       "count"},
      {"core.session.refresh_ms", median("session.refresh"), "ms"},
      {"core.session.maintained", per("core.session.maintained", refreshes),
       "count"},
      {"core.session.cache_entries", per("core.session.cache_entries", refreshes),
       "count"},
      {"storage.append_ms", median("storage.append"), "ms"},
      {"storage.sync_ms", median("storage.sync"), "ms"},
      {"storage.appends_per_commit", per("storage.appends", commits), "count"},
      {"storage.bytes_per_commit", per("storage.bytes", commits), "bytes"},
      {"storage.syncs_per_commit", per("storage.syncs", commits), "count"},
      {"core.engine.construct_ms", Quantile(construct, 0.5), "ms"},
      {"core.engine.load_ms", Quantile(load, 0.5), "ms"},
      {"storage.attach_ms", Quantile(attach, 0.5), "ms"},
      {"core.warmup_ms", Quantile(warmup, 0.5), "ms"},
      {"trace.overhead_read_p50_ms",
       Quantile(traced_rtt, 0.5) - Quantile(totals[0].read_ms, 0.5), "ms"},
      {"trace.accounted_ratio", account, "ratio"},
  };
  const bool correct = failed == 0 && guards;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  const Args args = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (!workload) Usage("unknown workload " + args.workload);
  try {
    std::filesystem::create_directories(args.work_dir);
    const std::string store_prefix = args.work_dir + "/store-" +
                                     std::to_string(::getpid()) + "-";
    const rel::storage::DurabilityOptions durability;
    std::printf("workload %s, seed %llu, %.1f s, trace %d\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0);
    std::printf("fsync policy: fsync_on_commit=%s group_commit=%d "
                "(DurabilityOptions defaults)\n",
                durability.fsync_on_commit ? "true" : "false",
                durability.group_commit);
    return args.trace ? RunTraced(*workload, args, store_prefix)
                      : RunEndToEnd(*workload, args, store_prefix);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
