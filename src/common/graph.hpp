// Generic directed-graph utilities shared by the workflow engine, the data
// plane's prefetcher and the HLS CDFG.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

namespace everest {

/// Compact adjacency-list digraph over dense node ids [0, n).
class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(std::size_t num_nodes) : succ_(num_nodes), pred_(num_nodes) {}

  [[nodiscard]] std::size_t num_nodes() const { return succ_.size(); }
  [[nodiscard]] std::size_t num_edges() const { return num_edges_; }

  /// Adds a node; returns its id.
  std::size_t add_node() {
    succ_.emplace_back();
    pred_.emplace_back();
    return succ_.size() - 1;
  }

  void add_edge(std::size_t from, std::size_t to) {
    succ_[from].push_back(to);
    pred_[to].push_back(from);
    ++num_edges_;
  }

  [[nodiscard]] const std::vector<std::size_t>& successors(std::size_t n) const {
    return succ_[n];
  }
  [[nodiscard]] const std::vector<std::size_t>& predecessors(std::size_t n) const {
    return pred_[n];
  }
  [[nodiscard]] std::size_t in_degree(std::size_t n) const { return pred_[n].size(); }
  [[nodiscard]] std::size_t out_degree(std::size_t n) const { return succ_[n].size(); }

  /// Kahn topological sort; nullopt if the graph has a cycle.
  [[nodiscard]] std::optional<std::vector<std::size_t>> topological_order() const {
    std::vector<std::size_t> indeg(num_nodes());
    for (std::size_t n = 0; n < num_nodes(); ++n) indeg[n] = in_degree(n);
    std::queue<std::size_t> ready;
    for (std::size_t n = 0; n < num_nodes(); ++n)
      if (indeg[n] == 0) ready.push(n);
    std::vector<std::size_t> order;
    order.reserve(num_nodes());
    while (!ready.empty()) {
      const std::size_t n = ready.front();
      ready.pop();
      order.push_back(n);
      for (std::size_t s : succ_[n]) {
        if (--indeg[s] == 0) ready.push(s);
      }
    }
    if (order.size() != num_nodes()) return std::nullopt;
    return order;
  }

  [[nodiscard]] bool has_cycle() const { return !topological_order().has_value(); }

  /// Execution frontier: nodes not yet done whose predecessors are all
  /// done — exactly the set a DAG executor may dispatch next. `done`
  /// must have num_nodes() entries. Ascending node order.
  [[nodiscard]] std::vector<std::size_t> frontier(
      const std::vector<char>& done) const {
    std::vector<std::size_t> out;
    for (std::size_t n = 0; n < num_nodes(); ++n) {
      if (done[n] != 0) continue;
      bool ready = true;
      for (std::size_t p : pred_[n]) {
        if (done[p] == 0) {
          ready = false;
          break;
        }
      }
      if (ready) out.push_back(n);
    }
    return out;
  }

  /// Nodes within `depth` frontier waves of becoming ready: wave 1 is
  /// frontier(done); wave k+1 is the frontier once waves 1..k are
  /// (hypothetically) complete. The prefetcher stages inputs for these
  /// ahead of dispatch. depth <= 0 yields {}. Ascending node order.
  [[nodiscard]] std::vector<std::size_t> frontier_within(
      const std::vector<char>& done, int depth) const {
    std::vector<std::size_t> out;
    if (depth <= 0) return out;
    std::vector<char> visited = done;
    for (int wave = 0; wave < depth; ++wave) {
      const std::vector<std::size_t> next = frontier(visited);
      if (next.empty()) break;
      for (std::size_t n : next) {
        visited[n] = 1;
        out.push_back(n);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Longest path length in edges from any source (DAG only; 0 on cycle).
  [[nodiscard]] std::size_t critical_path_length() const {
    auto order = topological_order();
    if (!order) return 0;
    std::vector<std::size_t> dist(num_nodes(), 0);
    std::size_t best = 0;
    for (std::size_t n : *order) {
      for (std::size_t s : succ_[n]) {
        dist[s] = std::max(dist[s], dist[n] + 1);
        best = std::max(best, dist[s]);
      }
    }
    return best;
  }

 private:
  std::vector<std::vector<std::size_t>> succ_;
  std::vector<std::vector<std::size_t>> pred_;
  std::size_t num_edges_ = 0;
};

}  // namespace everest
