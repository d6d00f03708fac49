// The three workloads and their answer oracle. Every reference answer is
// computed here from the generated inputs, without the engine: BFS closure
// for reachability, direct counts and joins, Dijkstra for shortest paths,
// and direct power iteration for PageRank.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <utility>

#include "benchutil/generators.h"
#include "harness.h"

namespace servebench {
namespace {

using Row = std::vector<double>;

/// Parses a relation's rendering ("{(1, 2); (3, 4)}") into numeric rows.
bool ParseRows(const std::string& text, std::vector<Row>* rows,
               std::string* why) {
  rows->clear();
  if (text.size() < 2 || text.front() != '{' || text.back() != '}') {
    *why = "not a relation: " + text.substr(0, 80);
    return false;
  }
  size_t i = 1;
  while (i + 1 < text.size()) {
    if (text[i] == ';' || text[i] == ' ') {
      ++i;
      continue;
    }
    if (text[i] != '(') {
      *why = "bad tuple at offset " + std::to_string(i);
      return false;
    }
    size_t close = text.find(')', i);
    if (close == std::string::npos) {
      *why = "unterminated tuple";
      return false;
    }
    Row row;
    const char* p = text.c_str() + i + 1;
    const char* end = text.c_str() + close;
    while (p < end) {
      char* next = nullptr;
      row.push_back(std::strtod(p, &next));
      if (next == p) {
        *why = "non-numeric value in " + text.substr(i, close - i + 1);
        return false;
      }
      p = next;
      while (p < end && (*p == ',' || *p == ' ')) ++p;
    }
    rows->push_back(std::move(row));
    i = close + 1;
  }
  return true;
}

/// Compares unary integer rows with the expected sorted node list.
bool ExpectNodes(const std::string& payload, const std::vector<int64_t>& want,
                 std::string* why) {
  std::vector<Row> rows;
  if (!ParseRows(payload, &rows, why)) return false;
  std::vector<int64_t> got;
  for (const Row& r : rows) {
    if (r.size() != 1) {
      *why = "expected unary rows";
      return false;
    }
    got.push_back(static_cast<int64_t>(r[0]));
  }
  std::sort(got.begin(), got.end());
  if (got != want) {
    *why = "got " + std::to_string(got.size()) + " rows, expected " +
           std::to_string(want.size());
    return false;
  }
  return true;
}

using Adjacency = std::vector<std::vector<int64_t>>;

Adjacency BuildAdjacency(int nodes, const std::set<std::pair<int64_t, int64_t>>& edges) {
  Adjacency adj(nodes);
  for (const auto& e : edges) adj[e.first].push_back(e.second);
  return adj;
}

/// Nodes reachable from `from` by one or more edges, avoiding `skip`
/// (-1 avoids nothing), sorted.
std::vector<int64_t> Reach(const Adjacency& adj, int64_t from, int64_t skip) {
  std::vector<char> seen(adj.size(), 0);
  std::vector<int64_t> queue;
  for (int64_t y : adj[from]) {
    if (y != skip && !seen[y]) {
      seen[y] = 1;
      queue.push_back(y);
    }
  }
  for (size_t i = 0; i < queue.size(); ++i) {
    for (int64_t z : adj[queue[i]]) {
      if (z != skip && !seen[z]) {
        seen[z] = 1;
        queue.push_back(z);
      }
    }
  }
  std::sort(queue.begin(), queue.end());
  return queue;
}

constexpr int kNodes = 256;
constexpr int kEdges = 512;

// Every workload's inputs are the seed's isomorphic copy of fixed graphs:
// the structure comes from these generator seeds, and the workload seed
// permutes the node ids (and draws the request stream). Closure sizes and
// per-request costs are then the same for every seed, so runs with
// different seeds are samples of one workload rather than workloads of
// different sizes; a random graph of this size changes its closure by a
// third from one generator seed to the next. kGraphSeed gives the graph
// whose tc has 45,182 rows.
constexpr uint64_t kGraphSeed = 7;
constexpr uint64_t kWeightedSeed = 8;
constexpr uint64_t kMatrixSeed = 11;

/// A seeded permutation of 0..n-1.
std::vector<int64_t> Permutation(int n, uint64_t seed) {
  std::vector<int64_t> perm(n);
  for (int i = 0; i < n; ++i) perm[i] = i;
  rel::Rng rng(seed);
  for (int i = n - 1; i > 0; --i) std::swap(perm[i], perm[rng.NextBelow(i + 1)]);
  return perm;
}

/// Renames the node ids in the first two columns of `tuples`: id i becomes
/// perm[i - base] + base (base 1 for the 1-based matrix).
std::vector<rel::Tuple> Relabel(const std::vector<rel::Tuple>& tuples,
                                const std::vector<int64_t>& perm, int64_t base) {
  std::vector<rel::Tuple> out;
  for (const rel::Tuple& t : tuples) {
    std::vector<rel::Value> values;
    for (size_t i = 0; i < t.arity(); ++i) {
      values.push_back(i < 2 ? rel::Value::Int(perm[t[i].AsInt() - base] + base)
                             : t[i]);
    }
    out.push_back(rel::Tuple(std::move(values)));
  }
  return out;
}

std::vector<rel::Tuple> SeededGraph(uint64_t seed) {
  return Relabel(rel::benchutil::RandomGraph(kNodes, kEdges, kGraphSeed),
                 Permutation(kNodes, seed), 0);
}

/// Draws graph nodes with Zipf(1) popularity. The ranking is fixed on the
/// unpermuted graph and renamed like the graph, so every seed's popular
/// keys are the same nodes of the structure.
class ZipfNodes {
 public:
  explicit ZipfNodes(const std::vector<int64_t>& rename)
      : perm_(Permutation(static_cast<int>(rename.size()), kGraphSeed ^ 0x5eedULL)),
        cdf_(rename.size()) {
    for (int64_t& v : perm_) v = rename[v];
    double total = 0;
    for (size_t i = 0; i < cdf_.size(); ++i) cdf_[i] = (total += 1.0 / (i + 1));
    for (double& c : cdf_) c /= total;
  }
  int64_t Draw(rel::Rng* rng) const {
    size_t rank = std::lower_bound(cdf_.begin(), cdf_.end(), rng->NextDouble()) -
                  cdf_.begin();
    return perm_[std::min(rank, perm_.size() - 1)];
  }

 private:
  std::vector<int64_t> perm_;
  std::vector<double> cdf_;
};

const char kGraphRules[] =
    "def tc(x, y) : edge(x, y)\n"
    "def tc(x, z) : exists((y) | edge(x, y) and tc(y, z))\n"
    "def outdeg(x, n) : n = count[(y) : edge(x, y)]";

std::set<std::pair<int64_t, int64_t>> EdgeSet(const std::vector<rel::Tuple>& edges) {
  std::set<std::pair<int64_t, int64_t>> out;
  for (const rel::Tuple& e : edges) out.insert({e[0].AsInt(), e[1].AsInt()});
  return out;
}

/// The probe writer of the read-only workloads: it toggles one fact of a
/// relation no rule or query reads, so the commit path is measured under
/// the workload's read load without feeding its reads.
Request AuditCommit(uint64_t k) {
  Request r;
  r.commit = true;
  const bool insert = k % 2 == 0;
  r.source = std::string("def ") + (insert ? "insert" : "delete") +
             "(:audit, x) : x = 1";
  r.inserts = insert ? 1 : 0;
  r.deletes = insert ? 0 : 1;
  return r;
}

/// A query-local recursive read: how many nodes `from` reaches while
/// avoiding `skip`. Nothing can cache it, so every one is lowered and
/// evaluated by the Datalog engine.
Request ReachabilityRead(int shape, int64_t from, int64_t skip) {
  Request r;
  r.shape = shape;
  r.a = from;
  r.b = skip;
  const std::string s = std::to_string(skip);
  r.source = "def reach(y) : edge(" + std::to_string(from) + ", y) and y != " +
             s + "\n"
             "def reach(z) : exists((y) | reach(y) and edge(y, z)) and z != " +
             s + "\n"
             "def output(n) : n = count[(y) : reach(y)]";
  r.components = {"reach"};
  return r;
}

/// The reachability count's expected rows: {(n)}, or none when n is 0.
std::vector<int64_t> ReachCount(const Adjacency& adj, int64_t from, int64_t skip) {
  const size_t n = Reach(adj, from, skip).size();
  return n > 0 ? std::vector<int64_t>{static_cast<int64_t>(n)}
               : std::vector<int64_t>{};
}

// --- read_mostly ---------------------------------------------------------

class ReadMostly : public Workload {
 public:
  explicit ReadMostly(uint64_t seed)
      : edges_(SeededGraph(seed)),
        adj_(BuildAdjacency(kNodes, EdgeSet(edges_))),
        keys_(Permutation(kNodes, seed)) {}

  void Load(rel::Engine* engine) const override {
    engine->Insert("edge", edges_);
    engine->Define(kGraphRules);
  }

  std::vector<Request> Warmup() const override {
    return {TcRead(0), DegreeRead(3), TwoHopRead(0), ReachabilityRead(3, 0, 1)};
  }

  Request NextRead(rel::Rng* rng) const override {
    const double u = rng->NextDouble();
    if (u < 0.6) return TcRead(keys_.Draw(rng));
    if (u < 0.8) return DegreeRead(2 + static_cast<int64_t>(rng->NextBelow(3)));
    if (u < 0.9) return TwoHopRead(keys_.Draw(rng));
    return ReachabilityRead(3, keys_.Draw(rng),
                            static_cast<int64_t>(rng->NextBelow(kNodes)));
  }

  Request Commit(uint64_t k) const override { return AuditCommit(k); }

  bool CheckRead(const Request& req, const std::string& payload, uint64_t,
                 std::string* why) const override {
    std::vector<int64_t> want;
    if (req.shape == 0) {
      want = Reach(adj_, req.a, -1);
    } else if (req.shape == 1) {
      for (int64_t x = 0; x < kNodes; ++x) {
        if (static_cast<int64_t>(adj_[x].size()) >= req.a) want.push_back(x);
      }
    } else if (req.shape == 2) {
      std::set<int64_t> z;
      for (int64_t y : adj_[req.a]) z.insert(adj_[y].begin(), adj_[y].end());
      want.assign(z.begin(), z.end());
    } else {
      want = ReachCount(adj_, req.a, req.b);
    }
    return ExpectNodes(payload, want, why);
  }

 private:
  static Request TcRead(int64_t k) {
    Request r;
    r.shape = 0;
    r.a = k;
    r.source = "def output(y) : tc(" + std::to_string(k) + ", y)";
    r.components = {"tc"};
    return r;
  }
  static Request DegreeRead(int64_t t) {
    Request r;
    r.shape = 1;
    r.a = t;
    r.source = "def output(x) : exists((n) | outdeg(x, n) and n >= " +
               std::to_string(t) + ")";
    r.components = {"outdeg"};
    return r;
  }
  static Request TwoHopRead(int64_t k) {
    Request r;
    r.shape = 2;
    r.a = k;
    r.source = "def output(z) : exists((y) | edge(" + std::to_string(k) +
               ", y) and edge(y, z))";
    return r;
  }

  std::vector<rel::Tuple> edges_;
  Adjacency adj_;
  ZipfNodes keys_;
};

// --- update_serve --------------------------------------------------------

/// Nodes kNodes..kNodes+kOutside-1 start with no edges; most toggles attach
/// them to the graph.
constexpr int kOutside = 4;
/// Distinct toggled edges. Commit k toggles edge k mod kToggles, so the
/// database returns to its start state every 2 * kToggles commits.
constexpr int kToggles = 16;

class UpdateServe : public Workload {
 public:
  explicit UpdateServe(uint64_t seed)
      : edges_(SeededGraph(seed)),
        keys_(Permutation(kNodes, seed)) {
    // The toggled edges are chosen on the unpermuted graph with a fixed
    // generator and renamed like the graph, so every seed toggles an
    // isomorphic set of edges and pays the same maintenance cost.
    //
    // 1 in 8 toggles is an edge of the graph itself, deleted first, so DRed
    // over-deletes and re-derives. It leaves a node with the fewest in-edges
    // (normally none), which bounds the over-deletion to that node's row of
    // the closure: deleting an edge inside the giant strongly connected
    // component over-deletes nearly all of tc, and each session's DRed then
    // takes seconds per commit (see README.md), which would leave too few
    // reads in a run to measure.
    const std::set<std::pair<int64_t, int64_t>> structure =
        EdgeSet(rel::benchutil::RandomGraph(kNodes, kEdges, kGraphSeed));
    std::map<int64_t, int> in_degree;
    for (const auto& e : structure) ++in_degree[e.second];
    int fewest = kEdges;
    for (const auto& e : structure) fewest = std::min(fewest, in_degree[e.first]);
    std::vector<std::pair<int64_t, int64_t>> graph_toggles;
    for (const auto& e : structure) {
      if (in_degree[e.first] == fewest) graph_toggles.push_back(e);
    }
    const std::vector<int64_t> perm = Permutation(kNodes, seed);
    auto rename = [&](int64_t v) { return v < kNodes ? perm[v] : v; };
    rel::Rng rng(kGraphSeed ^ 0x7099135ULL);
    std::set<std::pair<int64_t, int64_t>> chosen;
    size_t graph_chosen = 0;
    while (toggles_.size() < kToggles) {
      std::pair<int64_t, int64_t> e;
      if (toggles_.size() % 8 == 7 && graph_chosen < graph_toggles.size()) {
        e = graph_toggles[rng.NextBelow(graph_toggles.size())];
        if (!chosen.count(e)) ++graph_chosen;
      } else {
        e = {kNodes + static_cast<int64_t>(rng.NextBelow(kOutside)),
             static_cast<int64_t>(rng.NextBelow(kNodes))};
      }
      if (chosen.insert(e).second) {
        toggles_.push_back({rename(e.first), rename(e.second)});
      }
    }
    const std::set<std::pair<int64_t, int64_t>> base = EdgeSet(edges_);
    // Edge sets of the 2 * kToggles states of the cycle.
    for (int p = 0; p < 2 * kToggles; ++p) {
      std::set<std::pair<int64_t, int64_t>> s = base;
      for (int i = 0; i < kToggles; ++i) {
        const bool toggled = p <= kToggles ? i < p : i >= p - kToggles;
        if (!toggled) continue;
        if (!s.erase(toggles_[i])) s.insert(toggles_[i]);
      }
      states_.push_back(BuildAdjacency(kNodes + kOutside, s));
      present_.push_back(std::move(s));
    }
  }

  void Load(rel::Engine* engine) const override {
    engine->Insert("edge", edges_);
    std::vector<rel::Tuple> weights;
    for (int i = 0; i < 8; ++i) {
      weights.push_back(rel::Tuple({rel::Value::Int(i), rel::Value::Int(i + 1)}));
    }
    engine->Insert("weight", weights);
    engine->Define(kGraphRules);
    // One constraint reads `edge`, which every commit changes; the other
    // reads `weight`, which no commit writes, so delta specialization
    // skips it.
    engine->Define(
        "ic no_self_loop() requires forall((x, y) | edge(x, y) implies x != y)");
    engine->Define(
        "ic positive_weight() requires forall((x, w) | weight(x, w) implies w > 0)");
  }

  std::vector<Request> Warmup() const override {
    return {TcRead(0), TcRead(kNodes)};
  }

  Request NextRead(rel::Rng* rng) const override {
    if (rng->NextBool(0.25)) {
      return TcRead(kNodes + static_cast<int64_t>(rng->NextBelow(kOutside)));
    }
    return TcRead(keys_.Draw(rng));
  }

  Request Commit(uint64_t k) const override {
    const size_t p = k % (2 * kToggles);
    const auto& e = toggles_[p % kToggles];
    const bool insert = !present_[p].count(e);
    Request r;
    r.commit = true;
    r.source = std::string("def ") + (insert ? "insert" : "delete") +
               "(:edge, x, y) : x = " + std::to_string(e.first) +
               " and y = " + std::to_string(e.second);
    r.inserts = insert ? 1 : 0;
    r.deletes = insert ? 0 : 1;
    return r;
  }

  bool CheckRead(const Request& req, const std::string& payload,
                 uint64_t commits, std::string* why) const override {
    return ExpectNodes(payload,
                       Reach(states_[commits % (2 * kToggles)], req.a, -1), why);
  }

 private:
  static Request TcRead(int64_t k) {
    Request r;
    r.refresh = true;
    r.a = k;
    r.source = "def output(y) : tc(" + std::to_string(k) + ", y)";
    r.components = {"tc"};
    return r;
  }

  std::vector<rel::Tuple> edges_;
  ZipfNodes keys_;
  std::vector<std::pair<int64_t, int64_t>> toggles_;
  std::vector<std::set<std::pair<int64_t, int64_t>>> present_;
  std::vector<Adjacency> states_;
};

// --- cold_analytics ------------------------------------------------------

constexpr int kApspNodes = 64;
constexpr int kRankNodes = 256;
constexpr int kRankSteps = 10;
constexpr int kRankShown = 8;
/// Reply ranks are printed with 6 decimals (Value::ToString), so a correct
/// answer is within 5e-7 of the reference; allow twice that.
constexpr double kRankTolerance = 1e-6;

const char kApspRules[] =
    "def apsp(x, y, d) : d = min[(j) :\n"
    "    E(x, y, j) or\n"
    "    exists((z, j1, j2) | E(x, z, j1) and apsp(z, y, j2) and\n"
    "        j = j1 + j2)]\n";

std::string PageRankRules() {
  return "def pr(v, t, r) : r = sum[(u, x) :\n"
         "    (t = 0 and u = 0 and range(1, " + std::to_string(kRankNodes) +
         ", 1, v) and x = 1.0) or\n"
         "    (range(1, " + std::to_string(kRankSteps) +
         ", 1, t) and exists((s, rr, w) |\n"
         "        s = t - 1 and G(v, u, w) and pr(u, s, rr) and\n"
         "        x = w * rr))]\n";
}

class ColdAnalytics : public Workload {
 public:
  explicit ColdAnalytics(uint64_t seed)
      : edges_(SeededGraph(seed)),
        adj_(BuildAdjacency(kNodes, EdgeSet(edges_))),
        matrix_(Relabel(rel::benchutil::StochasticMatrix(kRankNodes, 3, kMatrixSeed),
                        Permutation(kRankNodes, seed ^ 0x3a7ULL), 1)) {
    rel::Rng rng(kWeightedSeed);
    std::vector<rel::Tuple> weighted;
    for (const rel::Tuple& e :
         rel::benchutil::RandomGraph(kApspNodes, 3 * kApspNodes, kWeightedSeed)) {
      const int64_t w = 1 + static_cast<int64_t>(rng.NextBelow(5));
      weighted.push_back(rel::Tuple({e[0], e[1], rel::Value::Int(w)}));
    }
    weighted_ = Relabel(weighted, Permutation(kApspNodes, seed ^ 0x64ULL), 0);
    ComputeRanks();
  }

  void Load(rel::Engine* engine) const override {
    engine->Insert("edge", edges_);
    engine->Insert("E", weighted_);
    engine->Insert("G", matrix_);
  }

  std::vector<Request> Warmup() const override {
    return {Apsp(0), Rank(1), ReachabilityRead(2, 0, 1)};
  }

  /// A quarter APSP, half PageRank, a quarter reachability: p50 then falls
  /// in the middle of the PageRank requests and p90 inside the APSP ones,
  /// not on the step between two kinds of request.
  Request NextRead(rel::Rng* rng) const override {
    switch (rng->NextBelow(4)) {
      case 0:
        return Apsp(static_cast<int64_t>(rng->NextBelow(kApspNodes)));
      case 1:
      case 2:
        return Rank(1 + static_cast<int64_t>(
                            rng->NextBelow(kRankNodes - kRankShown + 1)));
      default: {
        const int64_t from = static_cast<int64_t>(rng->NextBelow(kNodes));
        return ReachabilityRead(2, from,
                                static_cast<int64_t>(rng->NextBelow(kNodes)));
      }
    }
  }

  Request Commit(uint64_t k) const override { return AuditCommit(k); }

  bool CheckRead(const Request& req, const std::string& payload, uint64_t,
                 std::string* why) const override {
    std::vector<Row> rows;
    if (!ParseRows(payload, &rows, why)) return false;
    std::sort(rows.begin(), rows.end());
    std::vector<Row> want;
    if (req.shape == 0) {
      for (const auto& [y, d] : ShortestPaths(req.a)) {
        want.push_back({static_cast<double>(y), static_cast<double>(d)});
      }
    } else if (req.shape == 1) {
      for (int64_t v = req.a; v < req.a + kRankShown; ++v) {
        if (rank_[v]) want.push_back({static_cast<double>(v), *rank_[v]});
      }
    } else {
      for (int64_t n : ReachCount(adj_, req.a, req.b)) {
        want.push_back({static_cast<double>(n)});
      }
    }
    if (rows.size() != want.size()) {
      *why = "got " + std::to_string(rows.size()) + " rows, expected " +
             std::to_string(want.size());
      return false;
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].size() != want[i].size()) {
        *why = "row arity mismatch";
        return false;
      }
      for (size_t j = 0; j < rows[i].size(); ++j) {
        const double tol = req.shape == 1 && j == 1 ? kRankTolerance : 0.0;
        if (std::fabs(rows[i][j] - want[i][j]) > tol) {
          *why = "row " + std::to_string(i) + " differs from the reference";
          return false;
        }
      }
    }
    return true;
  }

 private:
  static Request Apsp(int64_t from) {
    Request r;
    r.shape = 0;
    r.a = from;
    r.source = std::string(kApspRules) + "def output(y, d) : apsp(" +
               std::to_string(from) + ", y, d)";
    r.components = {"apsp"};
    return r;
  }
  static Request Rank(int64_t first) {
    Request r;
    r.shape = 1;
    r.a = first;
    r.source = PageRankRules() + "def output(v, r) : pr(v, " +
               std::to_string(kRankSteps) + ", r) and v >= " +
               std::to_string(first) + " and v < " +
               std::to_string(first + kRankShown);
    r.components = {"pr"};
    return r;
  }
  /// Shortest path lengths of one or more edges from `from` (Dijkstra).
  std::map<int64_t, int64_t> ShortestPaths(int64_t from) const {
    std::vector<std::vector<std::pair<int64_t, int64_t>>> out(kApspNodes);
    for (const rel::Tuple& e : weighted_) {
      out[e[0].AsInt()].push_back({e[1].AsInt(), e[2].AsInt()});
    }
    std::map<int64_t, int64_t> dist;
    using Item = std::pair<int64_t, int64_t>;  // (distance, node)
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
    for (const auto& [y, w] : out[from]) pq.push({w, y});
    while (!pq.empty()) {
      auto [d, y] = pq.top();
      pq.pop();
      if (dist.count(y)) continue;
      dist[y] = d;
      for (const auto& [z, w] : out[y]) {
        if (!dist.count(z)) pq.push({d + w, z});
      }
    }
    return dist;
  }

  /// pr(v, t) = sum over G(v, u, w) of w * pr(u, t - 1), starting from 1.0
  /// at every node; a node with no contributing in-neighbour has no rank at
  /// that step, exactly as an empty sum has no row.
  void ComputeRanks() {
    std::vector<std::optional<double>> cur(kRankNodes + 1);
    for (int v = 1; v <= kRankNodes; ++v) cur[v] = 1.0;
    for (int t = 1; t <= kRankSteps; ++t) {
      std::vector<std::optional<double>> next(kRankNodes + 1);
      for (const rel::Tuple& g : matrix_) {
        const int64_t v = g[0].AsInt();
        const int64_t u = g[1].AsInt();
        if (!cur[u]) continue;
        next[v] = next[v].value_or(0.0) + g[2].AsFloat() * *cur[u];
      }
      cur = std::move(next);
    }
    rank_ = std::move(cur);
  }

  std::vector<rel::Tuple> edges_;
  Adjacency adj_;
  std::vector<rel::Tuple> matrix_;
  std::vector<rel::Tuple> weighted_;
  std::vector<std::optional<double>> rank_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "read_mostly") return std::make_unique<ReadMostly>(seed);
  if (name == "update_serve") return std::make_unique<UpdateServe>(seed);
  if (name == "cold_analytics") return std::make_unique<ColdAnalytics>(seed);
  return nullptr;
}

}  // namespace servebench
