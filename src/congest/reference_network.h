// Sequential reference CONGEST simulator — the pre-v2 architecture kept
// as a differential oracle and benchmark baseline.
//
// ReferenceNetwork implements exactly the run() semantics of the flat
// Network in network.h (quiet-round stepping, drop accounting,
// stop_interval, sleep/wake, permanent-quiescence exit) but with the
// v1 storage and control structure: one vector<optional<Message>> inbox
// and outbox per node, reverse ports found by per-node search, every
// node scanned every round (asleep ones skipped, never elided), all
// inboxes cleared in full before each delivery. Per round that is
// O(n + m) regardless of activity — the cost profile CongestSim v2's
// arenas and worklist remove.
//
// The contract the differential tests rely on: for any program, a run on
// ReferenceNetwork and on Network yields bitwise-identical RunStats
// (including transcript_hash) and identical program end states.
#pragma once

#include <optional>
#include <type_traits>
#include <vector>

#include "congest/network.h"
#include "graph/graph.h"
#include "util/require.h"

namespace dmf::congest {

class ReferenceNetwork;

// Ragged-storage twin of NodeContext with the identical program-facing
// surface, so node programs (templated on the context) run unchanged.
class RefNodeContext {
 public:
  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] int round() const { return round_; }
  [[nodiscard]] std::size_t degree() const { return ports_.size(); }
  [[nodiscard]] NodeId neighbor(std::size_t port) const {
    DMF_REQUIRE(port < ports_.size(), "neighbor: bad port");
    return ports_[port].to;
  }
  [[nodiscard]] double edge_capacity(std::size_t port) const {
    DMF_REQUIRE(port < ports_.size(), "edge_capacity: bad port");
    return capacities_[port];
  }
  [[nodiscard]] NodeId num_nodes() const { return num_nodes_; }

  [[nodiscard]] MsgView received(std::size_t port) const {
    DMF_REQUIRE(port < inbox_.size(), "received: bad port");
    const std::optional<Message>& msg = inbox_[port];
    if (!msg.has_value()) return MsgView();
    return MsgView(msg->words.data(), static_cast<int>(msg->words.size()));
  }

  void send(std::size_t port, const Message& msg) {
    DMF_REQUIRE(port < ports_.size(), "send: bad port");
    DMF_REQUIRE(msg.words.size() <= kMaxWordsPerMessage,
                "send: message exceeds CONGEST bandwidth budget");
    DMF_REQUIRE(!outbox_[port].has_value(),
                "send: one message per edge per round");
    outbox_[port] = msg;
  }

  void halt() { halted_ = true; }
  [[nodiscard]] bool halted() const { return halted_; }
  void sleep() { asleep_ = true; }
  [[nodiscard]] bool asleep() const { return asleep_; }

 private:
  friend class ReferenceNetwork;

  NodeId id_ = kInvalidNode;
  NodeId num_nodes_ = 0;
  int round_ = 0;
  bool halted_ = false;
  bool asleep_ = false;
  std::vector<AdjEntry> ports_;
  std::vector<double> capacities_;
  std::vector<std::optional<Message>> inbox_;
  std::vector<std::optional<Message>> outbox_;
};

class ReferenceNetwork {
 public:
  explicit ReferenceNetwork(const Graph& g) : graph_(&g) {
    const auto n = static_cast<std::size_t>(g.num_nodes());
    contexts_.resize(n);
    // Port lists straight from the edge list, independently of CsrGraph:
    // appending both half-edges in edge-id order numbers each node's
    // ports by increasing edge id, the order Network's CSR rows use.
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const EdgeEndpoints ep = g.endpoints(e);
      const auto add_port = [&](NodeId from, NodeId to) {
        RefNodeContext& ctx = contexts_[static_cast<std::size_t>(from)];
        ctx.ports_.push_back({to, e});
        ctx.capacities_.push_back(g.capacity(e));
      };
      add_port(ep.u, ep.v);
      add_port(ep.v, ep.u);
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      RefNodeContext& ctx = contexts_[static_cast<std::size_t>(v)];
      ctx.id_ = v;
      ctx.num_nodes_ = g.num_nodes();
      ctx.inbox_.assign(ctx.ports_.size(), std::nullopt);
      ctx.outbox_.assign(ctx.ports_.size(), std::nullopt);
    }
    // Reverse port lookup by linear search, parallel edges matched via
    // edge ids (the v1 construction).
    reverse_port_.resize(n);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      auto& rev = reverse_port_[static_cast<std::size_t>(v)];
      const auto& ports = contexts_[static_cast<std::size_t>(v)].ports_;
      rev.resize(ports.size());
      for (std::size_t p = 0; p < ports.size(); ++p) {
        const NodeId u = ports[p].to;
        const auto& uports = contexts_[static_cast<std::size_t>(u)].ports_;
        std::size_t found = uports.size();
        for (std::size_t q = 0; q < uports.size(); ++q) {
          if (uports[q].edge == ports[p].edge) {
            found = q;
            break;
          }
        }
        DMF_REQUIRE(found < uports.size(),
                    "ReferenceNetwork: broken adjacency");
        rev[p] = found;
      }
    }
  }

  template <typename P, typename StopFn = std::nullptr_t>
  RunStats run(std::vector<P>& programs, const RunOptions& options = {},
               StopFn stop = nullptr) {
    DMF_REQUIRE(programs.size() == contexts_.size(),
                "ReferenceNetwork::run: one program per node required");
    DMF_REQUIRE(options.stop_interval > 0,
                "ReferenceNetwork::run: stop_interval must be positive");
    reset();
    RunStats stats;
    TranscriptHash hash;
    for (std::size_t v = 0; v < programs.size(); ++v) {
      contexts_[v].round_ = 0;
      programs[v].start(contexts_[v]);
    }
    std::int64_t sent = collect(0, stats, hash);
    int quiet = 0;
    for (;;) {
      const std::int64_t arrived = deliver(stats, options);
      NodeId halted = 0;
      bool any_awake = false;
      for (const RefNodeContext& ctx : contexts_) {
        if (ctx.halted_) {
          ++halted;
        } else if (!ctx.asleep_) {
          any_awake = true;
        }
      }
      if (halted == static_cast<NodeId>(contexts_.size())) {
        stats.all_halted = true;
        break;
      }
      if (!any_awake) break;  // permanent quiescence
      if (stats.rounds >= options.max_rounds) break;
      ++stats.rounds;
      for (std::size_t v = 0; v < programs.size(); ++v) {
        RefNodeContext& ctx = contexts_[v];
        if (ctx.halted_ || ctx.asleep_) continue;
        ctx.round_ = stats.rounds;
        programs[v].round(ctx);
      }
      sent = collect(stats.rounds, stats, hash);
      if (arrived == 0 && sent == 0) {
        if (options.quiet_rounds_to_stop > 0 &&
            ++quiet >= options.quiet_rounds_to_stop) {
          break;
        }
      } else {
        quiet = 0;
      }
      if constexpr (!std::is_same_v<StopFn, std::nullptr_t>) {
        if (stats.rounds % options.stop_interval == 0 && stop()) break;
      }
    }
    stats.transcript_hash = hash.state;
    return stats;
  }

  [[nodiscard]] const Graph& graph() const { return *graph_; }

 private:
  void reset() {
    for (RefNodeContext& ctx : contexts_) {
      ctx.round_ = 0;
      ctx.halted_ = false;
      ctx.asleep_ = false;
      std::fill(ctx.inbox_.begin(), ctx.inbox_.end(), std::nullopt);
      std::fill(ctx.outbox_.begin(), ctx.outbox_.end(), std::nullopt);
    }
  }

  // Account this round's outbound messages in canonical (node, port)
  // order — identical to Network::collect_after_step (nodes that were
  // not stepped have empty outboxes, so scanning everyone visits the
  // same messages the worklist sweep does).
  std::int64_t collect(int round, RunStats& stats, TranscriptHash& hash) {
    std::int64_t sent = 0;
    for (std::size_t v = 0; v < contexts_.size(); ++v) {
      const RefNodeContext& ctx = contexts_[v];
      for (std::size_t p = 0; p < ctx.outbox_.size(); ++p) {
        if (!ctx.outbox_[p].has_value()) continue;
        const Message& msg = *ctx.outbox_[p];
        ++sent;
        ++stats.messages;
        stats.words += static_cast<std::int64_t>(msg.words.size());
        hash.mix(static_cast<std::uint64_t>(round));
        hash.mix(static_cast<std::uint64_t>(v));
        hash.mix(p);
        hash.mix(msg.words.size());
        for (const std::int64_t w : msg.words) {
          hash.mix(static_cast<std::uint64_t>(w));
        }
      }
    }
    return sent;
  }

  std::int64_t deliver(RunStats& stats, const RunOptions& options) {
    for (RefNodeContext& ctx : contexts_) {
      std::fill(ctx.inbox_.begin(), ctx.inbox_.end(), std::nullopt);
    }
    std::int64_t arrived = 0;
    for (std::size_t v = 0; v < contexts_.size(); ++v) {
      RefNodeContext& ctx = contexts_[v];
      for (std::size_t p = 0; p < ctx.outbox_.size(); ++p) {
        if (!ctx.outbox_[p].has_value()) continue;
        RefNodeContext& receiver =
            contexts_[static_cast<std::size_t>(ctx.ports_[p].to)];
        if (receiver.halted_) {
          ++stats.messages_dropped;
          DMF_REQUIRE(!options.require_delivery,
                      "Network: message delivered to a halted node");
          ctx.outbox_[p] = std::nullopt;
          continue;
        }
        receiver.inbox_[reverse_port_[v][p]] = std::move(ctx.outbox_[p]);
        ctx.outbox_[p] = std::nullopt;
        ++arrived;
        receiver.asleep_ = false;
      }
    }
    return arrived;
  }

  const Graph* graph_;
  std::vector<RefNodeContext> contexts_;
  std::vector<std::vector<std::size_t>> reverse_port_;
};

}  // namespace dmf::congest
