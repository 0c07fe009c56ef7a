// Directed acyclic graph with named nodes; the structural backbone of the
// linear-Gaussian Bayesian networks.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace drivefi::bn {

using NodeId = std::size_t;

class Dag {
 public:
  // Adds a node; name must be unique. Returns its id.
  NodeId add_node(std::string name);

  // Adds edge parent -> child. Rejects (returns false) if it would create
  // a cycle or duplicate an existing edge.
  bool add_edge(NodeId parent, NodeId child);

  // Severs all incoming edges of `node`; this is the graph surgery behind
  // Pearl's do-operator (paper §II-C: "removes statistical conditional
  // dependencies that are a target of the intervention").
  void sever_parents(NodeId node);

  std::size_t node_count() const { return names_.size(); }
  const std::string& name(NodeId id) const { return names_[id]; }
  std::optional<NodeId> find(const std::string& name) const;

  const std::vector<NodeId>& parents(NodeId id) const { return parents_[id]; }
  std::vector<NodeId> children(NodeId id) const;
  bool has_edge(NodeId parent, NodeId child) const;

  // Topological order (parents before children). DAG invariant is
  // maintained by add_edge, so this always succeeds.
  std::vector<NodeId> topological_order() const;

  // Reachability along directed edges (the cycle check behind add_edge).
  bool reaches(NodeId from, NodeId to) const;

  // Ancestors of a set of nodes, including the nodes themselves.
  std::vector<bool> ancestral_mask(const std::vector<NodeId>& nodes) const;

 private:
  std::vector<std::string> names_;
  std::vector<std::vector<NodeId>> parents_;
  std::unordered_map<std::string, NodeId> index_;
};

}  // namespace drivefi::bn
