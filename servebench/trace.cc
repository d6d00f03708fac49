// Tracing from outside the program: spans around calls into each layer's
// public functions, the counting storage seam, and the in-process replay
// of a read. Nothing under src/ is instrumented.

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/interp.h"
#include "core/lowering.h"
#include "core/parser.h"
#include "datalog/eval.h"
#include "harness.h"

namespace servebench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int RequestTrace::Begin(const char* name, int parent) {
  spans.push_back(Span{name, NowNs(), 0, parent});
  return static_cast<int>(spans.size()) - 1;
}

void RequestTrace::End(int span) { spans[span].end_ns = NowNs(); }

double RequestTrace::Ms(int span) const {
  return (spans[span].end_ns - spans[span].start_ns) / 1e6;
}

namespace {

thread_local RequestTrace* t_storage_trace = nullptr;
thread_local int t_storage_parent = -1;

/// Times one storage call as a span of the calling thread's traced request.
class StorageSpan {
 public:
  explicit StorageSpan(const char* name)
      : span_(t_storage_trace ? t_storage_trace->Begin(name, t_storage_parent)
                              : -1) {}
  ~StorageSpan() {
    if (span_ >= 0) t_storage_trace->End(span_);
  }
  StorageSpan(const StorageSpan&) = delete;
  StorageSpan& operator=(const StorageSpan&) = delete;

 private:
  int span_;
};

class CountingFile : public rel::storage::File {
 public:
  CountingFile(std::unique_ptr<rel::storage::File> file,
               std::shared_ptr<CountingFileSystem::Counters> counters)
      : file_(std::move(file)), counters_(std::move(counters)) {}

  rel::Status Append(std::string_view data) override {
    StorageSpan span("storage.append");
    counters_->appends.fetch_add(1);
    counters_->bytes.fetch_add(data.size());
    return file_->Append(data);
  }
  rel::Status Sync() override {
    StorageSpan span("storage.sync");
    counters_->syncs.fetch_add(1);
    return file_->Sync();
  }
  rel::Status Close() override { return file_->Close(); }

 private:
  std::unique_ptr<rel::storage::File> file_;
  std::shared_ptr<CountingFileSystem::Counters> counters_;
};

/// The lowered path's InterpOptions -> EvalOptions mapping, as
/// Session and Interp apply it, so the replayed evaluation is the same one.
rel::datalog::EvalOptions LoweredEvalOptions(const rel::InterpOptions& o) {
  rel::datalog::EvalOptions eval;
  eval.num_threads = o.num_threads;
  eval.max_iterations = std::max(o.max_iterations, 1);
  eval.plan_order_seed = o.plan_order_seed;
  return eval;
}

}  // namespace

StorageTraceScope::StorageTraceScope(RequestTrace* trace, int parent) {
  t_storage_trace = trace;
  t_storage_parent = parent;
}

StorageTraceScope::~StorageTraceScope() {
  t_storage_trace = nullptr;
  t_storage_parent = -1;
}

rel::Status CountingFileSystem::OpenAppend(
    const std::string& path, bool truncate,
    std::unique_ptr<rel::storage::File>* out) {
  std::unique_ptr<rel::storage::File> file;
  rel::Status status = posix_.OpenAppend(path, truncate, &file);
  if (status.ok()) {
    *out = std::make_unique<CountingFile>(std::move(file), counters_);
  }
  return status;
}

rel::Status CountingFileSystem::ReadFile(const std::string& path,
                                         std::string* out) {
  return posix_.ReadFile(path, out);
}

rel::Status CountingFileSystem::Rename(const std::string& from,
                                       const std::string& to) {
  return posix_.Rename(from, to);
}

rel::Status CountingFileSystem::Remove(const std::string& path) {
  return posix_.Remove(path);
}

rel::Status CountingFileSystem::List(const std::string& dir,
                                     std::vector<std::string>* names) {
  return posix_.List(dir, names);
}

rel::Status CountingFileSystem::CreateDir(const std::string& dir) {
  return posix_.CreateDir(dir);
}

bool CountingFileSystem::Exists(const std::string& path) {
  return posix_.Exists(path);
}

void ReplayQuery(rel::Session* session, const Request& req, int parent,
                 RequestTrace* trace) {
  const rel::Snapshot& snap = session->snapshot();
  rel::InterpOptions opts = session->options();
  opts.shared_defs = snap.rules->size();
  // Session::Query hands its Interp the session's own caches; the accessors
  // are read-only introspection, so the replay casts the constness away to
  // see exactly the state (warm or maintained) the session would use.
  opts.demand_cache = const_cast<rel::DemandCache*>(&session->demand_cache());
  opts.extent_cache = const_cast<rel::ExtentCache*>(&session->extent_cache());
  opts.shared_analysis = snap.rules_analysis.get();

  std::vector<std::shared_ptr<rel::Def>> defs = *snap.rules;
  int span = trace->Begin("parse", parent);
  for (auto& def : rel::ParseToSharedDefs(req.source)) {
    defs.push_back(std::move(def));
  }
  trace->End(span);

  span = trace->Begin("analyze", parent);
  rel::Interp interp(snap.db.get(), std::move(defs), opts);
  trace->End(span);

  rel::datalog::EvalStats eval_stats;
  uint64_t final_rows = 0;
  for (const std::string& name : req.components) {
    const int hits = interp.lowering_stats().extent_cache_hits;
    const int lowered = interp.lowering_stats().components_lowered;
    const int component = trace->Begin("component", parent);
    interp.EvalInstance(name, 0, {});
    trace->End(component);
    if (interp.lowering_stats().extent_cache_hits != hits ||
        interp.lowering_stats().components_lowered == lowered) {
      continue;  // served from the extent cache, or not lowered at all
    }
    // The Datalog share of the component, evaluated once more from the
    // same inputs: the extents the Interp materialized for its externals
    // (memoized by now) and the members' base facts.
    span = trace->Begin("lower", component);
    std::string why;
    std::optional<rel::LoweredComponent> lc =
        rel::LowerComponent(name, interp.analysis(), interp.defs(), &why);
    if (!lc) {
      trace->End(span);
      throw std::runtime_error("replay cannot lower " + name + ": " + why);
    }
    for (const std::string& ext : lc->externals) {
      lc->program.AddFacts(ext, interp.EvalInstance(ext, 0, {}));
    }
    for (const std::string& member : lc->members) {
      if (snap.db->Has(member)) {
        lc->program.AddFacts(member, snap.db->Get(member));
      }
    }
    trace->End(span);
    span = trace->Begin("datalog.evaluate", component);
    std::map<std::string, rel::Relation> extents =
        rel::datalog::Evaluate(lc->program, LoweredEvalOptions(opts),
                               &eval_stats);
    trace->End(span);
    for (const std::string& member : lc->members) {
      auto it = extents.find(member);
      if (it != extents.end()) final_rows += it->second.size();
    }
  }

  span = trace->Begin("solve", parent);
  const size_t result_rows = interp.EvalInstance("output", 0, {}).size();
  trace->End(span);

  const rel::LoweringStats& ls = interp.lowering_stats();
  auto& c = trace->counts;
  c["core.spliced_rows"] = static_cast<double>(ls.lowered_tuples);
  c["core.result_rows"] = static_cast<double>(result_rows);
  c["core.components_lowered"] = ls.components_lowered;
  c["core.components_rejected"] = ls.components_rejected;
  c["datalog.tuples_derived"] = static_cast<double>(eval_stats.tuples_derived);
  c["datalog.iterations"] = eval_stats.iterations;
  c["datalog.index_probes"] = static_cast<double>(eval_stats.index_probes);
  c["datalog.index_builds"] = static_cast<double>(eval_stats.index_builds);
  c["datalog.aggregate_updates"] =
      static_cast<double>(eval_stats.aggregate_updates);
  c["datalog.final_rows"] = static_cast<double>(final_rows);
}

}  // namespace servebench
