#include "bn/graph.h"

#include <algorithm>
#include <cassert>
#include <deque>

namespace drivefi::bn {

NodeId Dag::add_node(std::string name) {
  assert(!index_.contains(name) && "duplicate node name");
  const NodeId id = names_.size();
  index_.emplace(name, id);
  names_.push_back(std::move(name));
  parents_.emplace_back();
  return id;
}

bool Dag::add_edge(NodeId parent, NodeId child) {
  if (parent == child) return false;
  if (has_edge(parent, child)) return false;
  // Adding parent->child creates a cycle iff child already reaches parent.
  if (reaches(child, parent)) return false;
  parents_[child].push_back(parent);
  return true;
}

void Dag::sever_parents(NodeId node) { parents_[node].clear(); }

std::optional<NodeId> Dag::find(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::vector<NodeId> Dag::children(NodeId id) const {
  std::vector<NodeId> out;
  for (NodeId n = 0; n < node_count(); ++n)
    if (has_edge(id, n)) out.push_back(n);
  return out;
}

bool Dag::has_edge(NodeId parent, NodeId child) const {
  const auto& p = parents_[child];
  return std::find(p.begin(), p.end(), parent) != p.end();
}

std::vector<NodeId> Dag::topological_order() const {
  const std::size_t n = node_count();
  std::vector<std::size_t> remaining_parents(n);
  std::vector<std::vector<NodeId>> children_of(n);
  for (NodeId c = 0; c < n; ++c) {
    remaining_parents[c] = parents_[c].size();
    for (NodeId p : parents_[c]) children_of[p].push_back(c);
  }
  std::deque<NodeId> ready;
  for (NodeId i = 0; i < n; ++i)
    if (remaining_parents[i] == 0) ready.push_back(i);
  std::vector<NodeId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const NodeId next = ready.front();
    ready.pop_front();
    order.push_back(next);
    for (NodeId c : children_of[next])
      if (--remaining_parents[c] == 0) ready.push_back(c);
  }
  assert(order.size() == n && "graph must be acyclic");
  return order;
}

bool Dag::reaches(NodeId from, NodeId to) const {
  if (from == to) return true;
  std::vector<bool> visited(node_count(), false);
  std::deque<NodeId> frontier{from};
  visited[from] = true;
  // Build child adjacency lazily; node counts are small.
  while (!frontier.empty()) {
    const NodeId cur = frontier.front();
    frontier.pop_front();
    for (NodeId c = 0; c < node_count(); ++c) {
      if (visited[c] || !has_edge(cur, c)) continue;
      if (c == to) return true;
      visited[c] = true;
      frontier.push_back(c);
    }
  }
  return false;
}

std::vector<bool> Dag::ancestral_mask(const std::vector<NodeId>& nodes) const {
  std::vector<bool> mask(node_count(), false);
  std::deque<NodeId> frontier;
  for (NodeId n : nodes) {
    if (!mask[n]) {
      mask[n] = true;
      frontier.push_back(n);
    }
  }
  while (!frontier.empty()) {
    const NodeId cur = frontier.front();
    frontier.pop_front();
    for (NodeId p : parents_[cur]) {
      if (!mask[p]) {
        mask[p] = true;
        frontier.push_back(p);
      }
    }
  }
  return mask;
}

}  // namespace drivefi::bn
