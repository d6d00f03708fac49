// Shared declarations of the serving benchmark (see README.md): the
// workloads and the requests they generate, the answer oracle's interface,
// and the tracing pieces (spans, the counting storage seam, the in-process
// replay of a request through the public calls LineServer is built from).

#ifndef SERVEBENCH_HARNESS_H_
#define SERVEBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "core/engine.h"
#include "core/session.h"
#include "storage/file.h"

namespace servebench {

// --- workloads ---------------------------------------------------------------

/// One closed-loop operation. A read sends `refresh` first when `refresh`
/// is set, then `query <source>`; a commit sends `exec <source>`.
struct Request {
  bool commit = false;
  bool refresh = false;
  std::string source;
  /// Relations the request reads whose evaluation is a lowered component;
  /// the traced replay evaluates (and times) them before `output`.
  std::vector<std::string> components;
  /// Oracle inputs; their meaning is the workload's.
  int shape = 0;
  int64_t a = 0;
  int64_t b = 0;
  /// Commits: the `+I -D` counts the reply must report.
  size_t inserts = 0;
  size_t deletes = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Bulk-loads the base relations and installs the persistent rules.
  virtual void Load(rel::Engine* engine) const = 0;
  /// Requests every reader sends once during set-up, untimed.
  virtual std::vector<Request> Warmup() const = 0;
  /// The next read of a reader whose generator is `rng`.
  virtual Request NextRead(rel::Rng* rng) const = 0;
  /// The writer's k-th commit (0-based): a pure function of seed and k.
  virtual Request Commit(uint64_t k) const = 0;
  /// Checks the payload of a read's `ok` reply against the reference
  /// answer on the database after `commits` of the writer's commits.
  virtual bool CheckRead(const Request& req, const std::string& payload,
                         uint64_t commits, std::string* why) const = 0;
};

/// "read_mostly", "update_serve" or "cold_analytics"; nullptr otherwise.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

// --- tracing -----------------------------------------------------------------

int64_t NowNs();

/// One timed call. `parent` indexes the same request's span list (-1 for a
/// root). A child may have run after its parent ended: the replays re-run a
/// request's inner calls one after another, and the tree records which call
/// contains which.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;
};

/// The spans and counters of one request, buffered in memory by the client
/// thread that ran it.
struct RequestTrace {
  bool commit = false;
  /// Readers: client index * 2^32 + sequence number; commits: commit index.
  uint64_t id = 0;
  std::vector<Span> spans;
  std::map<std::string, double> counts;

  int Begin(const char* name, int parent);
  void End(int span);
  double Ms(int span) const;
};

/// Where the counting file system records storage spans: the request the
/// calling thread is tracing and the span the storage call nests under.
/// Null when the thread traces nothing.
struct StorageTraceScope {
  StorageTraceScope(RequestTrace* trace, int parent);
  ~StorageTraceScope();
  StorageTraceScope(const StorageTraceScope&) = delete;
  StorageTraceScope& operator=(const StorageTraceScope&) = delete;
};

/// The storage seam wrapper: forwards to PosixFileSystem and counts WAL
/// appends, appended bytes and syncs, with their time.
class CountingFileSystem : public rel::storage::FileSystem {
 public:
  struct Counters {
    std::atomic<uint64_t> appends{0};
    std::atomic<uint64_t> bytes{0};
    std::atomic<uint64_t> syncs{0};
  };

  rel::Status OpenAppend(const std::string& path, bool truncate,
                         std::unique_ptr<rel::storage::File>* out) override;
  rel::Status ReadFile(const std::string& path, std::string* out) override;
  rel::Status Rename(const std::string& from, const std::string& to) override;
  rel::Status Remove(const std::string& path) override;
  rel::Status List(const std::string& dir,
                   std::vector<std::string>* names) override;
  rel::Status CreateDir(const std::string& dir) override;
  bool Exists(const std::string& path) override;

  const Counters& counters() const { return *counters_; }

 private:
  rel::storage::PosixFileSystem posix_;
  std::shared_ptr<Counters> counters_ = std::make_shared<Counters>();
};

/// Replays a read through the public calls Session::Query is built from —
/// ParseToSharedDefs, the Interp constructor, EvalInstance of each of
/// `req.components`, EvalInstance("output") — against `session`'s pinned
/// snapshot and extent cache, recording each call as a child of `parent`.
/// A component the extent cache did not serve is replayed once more as
/// LowerComponent plus datalog::Evaluate, recorded under its component
/// span. Fills the request's core.* and datalog.* counts.
void ReplayQuery(rel::Session* session, const Request& req, int parent,
                 RequestTrace* trace);

}  // namespace servebench

#endif  // SERVEBENCH_HARNESS_H_
