#include "cluster/cluster_graph.h"

#include <algorithm>
#include <map>
#include <queue>

#include "graph/algorithms.h"

namespace dmf {

void ClusterGraph::validate() const {
  DMF_REQUIRE(base != nullptr, "ClusterGraph: no base graph");
  const NodeId n = base->num_nodes();
  const auto nn = static_cast<std::size_t>(n);
  DMF_REQUIRE(cluster_of.size() == nn && tree_parent.size() == nn,
              "ClusterGraph: array sizes");
  DMF_REQUIRE(static_cast<int>(leader.size()) == count,
              "ClusterGraph: leader count");
  // (I) partition into [0, count).
  for (NodeId v = 0; v < n; ++v) {
    const int c = cluster_of[static_cast<std::size_t>(v)];
    DMF_REQUIRE(c >= 0 && c < count, "ClusterGraph: node without cluster");
  }
  // (II) exactly one leader per cluster, inside the cluster.
  for (int c = 0; c < count; ++c) {
    const NodeId l = leader[static_cast<std::size_t>(c)];
    DMF_REQUIRE(base->is_valid_node(l) &&
                    cluster_of[static_cast<std::size_t>(l)] == c,
                "ClusterGraph: leader outside its cluster");
    DMF_REQUIRE(tree_parent[static_cast<std::size_t>(l)] == kInvalidNode,
                "ClusterGraph: leader must be the tree root");
  }
  // (III) tree_parent forms, per cluster, a tree rooted at the leader
  // whose edges stay inside the cluster and are real graph edges.
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const NodeId p = tree_parent[vi];
    if (p == kInvalidNode) {
      DMF_REQUIRE(leader[static_cast<std::size_t>(cluster_of[vi])] == v,
                  "ClusterGraph: parentless non-leader");
      continue;
    }
    DMF_REQUIRE(cluster_of[static_cast<std::size_t>(p)] == cluster_of[vi],
                "ClusterGraph: tree edge leaves cluster");
    const CsrRow row = base->neighbors(v);
    bool adjacent = false;
    for (std::size_t i = 0; i < row.size() && !adjacent; ++i) {
      adjacent = row.to(i) == p;
    }
    DMF_REQUIRE(adjacent, "ClusterGraph: tree parent not a graph neighbor");
  }
  // Acyclicity: every node reaches its leader.
  for (NodeId v = 0; v < n; ++v) {
    NodeId x = v;
    int steps = 0;
    while (tree_parent[static_cast<std::size_t>(x)] != kInvalidNode) {
      x = tree_parent[static_cast<std::size_t>(x)];
      DMF_REQUIRE(++steps <= n, "ClusterGraph: cyclic tree");
    }
    DMF_REQUIRE(
        x == leader[static_cast<std::size_t>(
                 cluster_of[static_cast<std::size_t>(v)])],
        "ClusterGraph: tree does not reach the leader");
  }
  // (IV) psi maps cluster edges to real edges between those clusters.
  for (const MultiEdge& e : edges.edges()) {
    DMF_REQUIRE(e.u >= 0 && e.u < count && e.v >= 0 && e.v < count &&
                    e.u != e.v,
                "ClusterGraph: bad cluster edge");
    DMF_REQUIRE(base->is_valid_edge(e.base_edge),
                "ClusterGraph: psi maps to a non-edge");
    const EdgeEndpoints ep = base->endpoints(e.base_edge);
    const int cu = cluster_of[static_cast<std::size_t>(ep.u)];
    const int cv = cluster_of[static_cast<std::size_t>(ep.v)];
    DMF_REQUIRE((cu == e.u && cv == e.v) || (cu == e.v && cv == e.u),
                "ClusterGraph: psi edge does not connect the clusters");
  }
}

int ClusterGraph::max_tree_depth() const {
  const NodeId n = base->num_nodes();
  int depth = 0;
  for (NodeId v = 0; v < n; ++v) {
    NodeId x = v;
    int d = 0;
    while (tree_parent[static_cast<std::size_t>(x)] != kInvalidNode) {
      x = tree_parent[static_cast<std::size_t>(x)];
      ++d;
    }
    depth = std::max(depth, d);
  }
  return depth;
}

int ClusterGraph::cluster_size(int c) const {
  int size = 0;
  for (const int x : cluster_of) {
    if (x == c) ++size;
  }
  return size;
}

ClusterGraph make_cluster_graph(const Graph& g,
                                const std::vector<int>& cluster_of) {
  const NodeId n = g.num_nodes();
  const auto nn = static_cast<std::size_t>(n);
  DMF_REQUIRE(cluster_of.size() == nn, "make_cluster_graph: size mismatch");
  ClusterGraph cg;
  cg.base = std::make_shared<const CsrGraph>(g);
  const CsrGraph& csr = *cg.base;
  cg.cluster_of = cluster_of;
  cg.count = 0;
  for (const int c : cluster_of) {
    DMF_REQUIRE(c >= 0, "make_cluster_graph: negative cluster id");
    cg.count = std::max(cg.count, c + 1);
  }
  // Leaders: minimum node id per cluster.
  cg.leader.assign(static_cast<std::size_t>(cg.count), kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    NodeId& l = cg.leader[static_cast<std::size_t>(
        cluster_of[static_cast<std::size_t>(v)])];
    if (l == kInvalidNode || v < l) l = v;
  }
  for (const NodeId l : cg.leader) {
    DMF_REQUIRE(l != kInvalidNode, "make_cluster_graph: empty cluster");
  }
  // BFS trees inside clusters.
  cg.tree_parent.assign(nn, kInvalidNode);
  std::vector<char> seen(nn, 0);
  for (int c = 0; c < cg.count; ++c) {
    const NodeId root = cg.leader[static_cast<std::size_t>(c)];
    std::queue<NodeId> frontier;
    seen[static_cast<std::size_t>(root)] = 1;
    frontier.push(root);
    while (!frontier.empty()) {
      const NodeId v = frontier.front();
      frontier.pop();
      const CsrRow row = csr.neighbors(v);
      for (std::size_t i = 0; i < row.size(); ++i) {
        const auto ti = static_cast<std::size_t>(row.to(i));
        if (seen[ti] || cluster_of[ti] != c) continue;
        seen[ti] = 1;
        cg.tree_parent[ti] = v;
        frontier.push(row.to(i));
      }
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    DMF_REQUIRE(seen[static_cast<std::size_t>(v)],
                "make_cluster_graph: cluster is not connected");
  }
  // Cluster edges from crossing base edges.
  cg.edges = Multigraph(static_cast<NodeId>(cg.count));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeEndpoints ep = g.endpoints(e);
    const int cu = cluster_of[static_cast<std::size_t>(ep.u)];
    const int cv = cluster_of[static_cast<std::size_t>(ep.v)];
    if (cu != cv) {
      cg.edges.add_edge({static_cast<NodeId>(cu), static_cast<NodeId>(cv), e,
                         g.capacity(e), 1.0 / g.capacity(e), e});
    }
  }
  return cg;
}

namespace {

constexpr double kScale = static_cast<double>(1 << 20);

class ClusterExchangeProgram {
 public:
  struct Config {
    bool is_leader = false;
    std::size_t parent_port = congest::kNoPort;
    std::vector<std::size_t> children_ports;
    std::vector<std::size_t> psi_ports;
    double token = 0.0;
    int dmax = 0;  // max cluster-tree depth, known to all (Lemma 5.1)
  };

  explicit ClusterExchangeProgram(Config config)
      : config_(std::move(config)) {}

  void start(congest::NodeContext& ctx) {
    if (config_.is_leader) {
      has_token_ = true;
      token_ = config_.token;
      broadcast_token(ctx);
    }
  }

  void round(congest::NodeContext& ctx) {
    for (std::size_t p = 0; p < ctx.degree(); ++p) {
      const auto& msg = ctx.received(p);
      if (!msg.has_value()) continue;
      const std::int64_t type = msg->at(0);
      const double value = static_cast<double>(msg->at(1)) / kScale;
      if (type == kToken && p == config_.parent_port) {
        has_token_ = true;
        token_ = value;
        broadcast_token(ctx);
      } else if (type == kPsi) {
        sum_ += value;
      } else if (type == kReport) {
        sum_ += value;
        ++child_reports_;
      }
    }
    if (has_token_ && !psi_sent_) {
      for (const std::size_t p : config_.psi_ports) {
        ctx.send(p, congest::Message{
                        kPsi, static_cast<std::int64_t>(token_ * kScale)});
      }
      psi_sent_ = true;
    }
    // All psi messages are in flight by round dmax+1 and delivered by
    // dmax+2; reports flow leader-ward afterwards.
    if (!reported_ && ctx.round() >= config_.dmax + 3 &&
        child_reports_ == static_cast<int>(config_.children_ports.size())) {
      if (config_.is_leader) {
        result_ = sum_;
      } else {
        ctx.send(config_.parent_port,
                 congest::Message{
                     kReport, static_cast<std::int64_t>(sum_ * kScale)});
      }
      reported_ = true;
      ctx.halt();
    }
  }

  [[nodiscard]] double result() const { return result_; }

 private:
  static constexpr std::int64_t kToken = 1;
  static constexpr std::int64_t kPsi = 2;
  static constexpr std::int64_t kReport = 3;

  void broadcast_token(congest::NodeContext& ctx) {
    for (const std::size_t p : config_.children_ports) {
      ctx.send(p, congest::Message{
                      kToken, static_cast<std::int64_t>(token_ * kScale)});
    }
  }

  Config config_;
  bool has_token_ = false;
  bool psi_sent_ = false;
  bool reported_ = false;
  double token_ = 0.0;
  double sum_ = 0.0;
  int child_reports_ = 0;
  double result_ = 0.0;
};

std::size_t port_of_edge(const CsrGraph& g, NodeId v, EdgeId e) {
  const CsrRow ports = g.neighbors(v);
  for (std::size_t p = 0; p < ports.size(); ++p) {
    if (ports.edge(p) == e) return p;
  }
  DMF_REQUIRE(false, "port_of_edge: edge not incident");
  return congest::kNoPort;
}

std::size_t port_of_neighbor(const CsrGraph& g, NodeId v, NodeId to) {
  const CsrRow ports = g.neighbors(v);
  for (std::size_t p = 0; p < ports.size(); ++p) {
    if (ports.to(p) == to) return p;
  }
  DMF_REQUIRE(false, "port_of_neighbor: not a neighbor");
  return congest::kNoPort;
}

}  // namespace

ClusterExchangeResult simulate_cluster_exchange(
    const ClusterGraph& cg, const std::vector<double>& leader_token) {
  DMF_REQUIRE(leader_token.size() == static_cast<std::size_t>(cg.count),
              "simulate_cluster_exchange: token count mismatch");
  const CsrGraph& g = *cg.base;
  const NodeId n = g.num_nodes();
  const int dmax = cg.max_tree_depth();

  std::vector<ClusterExchangeProgram::Config> configs(
      static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    auto& cfg = configs[static_cast<std::size_t>(v)];
    const int c = cg.cluster_of[static_cast<std::size_t>(v)];
    cfg.is_leader = cg.leader[static_cast<std::size_t>(c)] == v;
    cfg.dmax = dmax;
    if (cfg.is_leader) cfg.token = leader_token[static_cast<std::size_t>(c)];
    const NodeId p = cg.tree_parent[static_cast<std::size_t>(v)];
    if (p != kInvalidNode) cfg.parent_port = port_of_neighbor(g, v, p);
  }
  for (NodeId v = 0; v < n; ++v) {
    const NodeId p = cg.tree_parent[static_cast<std::size_t>(v)];
    if (p != kInvalidNode) {
      configs[static_cast<std::size_t>(p)].children_ports.push_back(
          port_of_neighbor(g, p, v));
    }
  }
  for (const MultiEdge& e : cg.edges.edges()) {
    const EdgeEndpoints ep = g.endpoints(e.base_edge);
    configs[static_cast<std::size_t>(ep.u)].psi_ports.push_back(
        port_of_edge(g, ep.u, e.base_edge));
    configs[static_cast<std::size_t>(ep.v)].psi_ports.push_back(
        port_of_edge(g, ep.v, e.base_edge));
  }

  congest::Network net(g);
  std::vector<ClusterExchangeProgram> programs;
  programs.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    programs.emplace_back(std::move(configs[static_cast<std::size_t>(v)]));
  }
  congest::RunOptions options;
  // The protocol deliberately waits until round dmax+3 before reporting;
  // quiet rounds in between are part of the schedule.
  options.quiet_rounds_to_stop = 0;
  options.max_rounds = 2 * dmax + 32;
  ClusterExchangeResult out;
  out.stats = net.run(programs, options);
  out.received_sum.resize(static_cast<std::size_t>(cg.count));
  for (int c = 0; c < cg.count; ++c) {
    out.received_sum[static_cast<std::size_t>(c)] =
        programs[static_cast<std::size_t>(
                     cg.leader[static_cast<std::size_t>(c)])]
            .result();
  }
  return out;
}

}  // namespace dmf
