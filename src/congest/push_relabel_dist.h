// Synchronous distributed push–relabel in the CONGEST model.
//
// The paper (§1.2) names Goldberg–Tarjan push–relabel as the natural
// "very local" distributed algorithm — and notes it needs Ω(n²) rounds to
// converge, which is the state of the art this paper beats. We implement
// it faithfully as a message-passing program so experiment E1 can measure
// its round count against the (D+√n)·n^o(1) pipeline.
//
// Pulse structure (3 simulator rounds per pulse):
//   phase A: nodes whose height changed last pulse announce it to all
//            neighbors (everyone else's height is cached — heights only
//            move on relabel, so a change-only announcement keeps every
//            cache equal to the start-of-pulse heights, exactly the
//            state the announce-every-pulse v1 protocol maintained);
//   phase B: active nodes (positive excess) push along admissible edges
//            (height exactly one higher than the receiver's cached
//            height, positive residual capacity), sending flow updates;
//   phase C: receivers apply incoming flow, and nodes that are still
//            active with no admissible edge relabel to
//            1 + min(height of residual neighbors).
// Mutual pushes over one edge in the same pulse are impossible (both
// directions admissible would require h(u)=h(v)+1 and h(v)=h(u)+1), so
// each edge's flow has a single writer per pulse.
//
// Quiescent nodes sleep: a node with no excess and no pending
// announcement asks the simulator to skip it, and any incoming height
// or flow message wakes it for exactly the round in which that message
// is readable. Most pulses of a long run have a handful of active
// nodes, which is what CongestSim v2's worklist exploits.
//
// Termination is detected by a global oracle (Network's stop predicate)
// consulted on pulse boundaries only (RunOptions::stop_interval = 3), so
// a stop can never strand phase-B flow updates undelivered — flow
// conservation holds at every stop point. A real deployment would
// piggyback an O(D)-round convergecast, which is dominated by the
// push–relabel work itself.
#pragma once

#include <vector>

#include "congest/network.h"
#include "graph/csr_graph.h"
#include "graph/graph.h"

namespace dmf::congest {

class PushRelabelProgram {
 public:
  struct Config {
    NodeId source = 0;
    NodeId sink = 1;
  };

  explicit PushRelabelProgram(Config config) : config_(config) {}

  template <typename Ctx>
  void start(Ctx& ctx) {
    flow_.assign(ctx.degree(), 0.0);
    neighbor_height_.assign(ctx.degree(), 0);
    if (ctx.id() == config_.source) {
      height_ = static_cast<int>(ctx.num_nodes());
      announce_pending_ = true;  // height moved off the implicit 0
      // Saturate all incident edges immediately (phase B of pulse 0 will
      // deliver the flow).
      saturate_on_first_push_ = true;
    } else {
      ctx.sleep();  // nothing to do until a height or a push arrives
    }
  }

  template <typename Ctx>
  void round(Ctx& ctx) {
    const int phase = (ctx.round() - 1) % 3;
    if (phase == 0) {
      // Phase A: announce the height iff it changed last pulse.
      if (announce_pending_) {
        for (std::size_t p = 0; p < ctx.degree(); ++p) {
          ctx.send(p, Message{height_});
        }
        announce_pending_ = false;
      }
      if (!saturate_on_first_push_ && !is_active(ctx)) ctx.sleep();
    } else if (phase == 1) {
      // Record neighbor heights, then push.
      for (std::size_t p = 0; p < ctx.degree(); ++p) {
        const auto& msg = ctx.received(p);
        if (msg.has_value()) {
          neighbor_height_[p] = static_cast<int>(msg->at(0));
        }
      }
      if (ctx.id() == config_.source && saturate_on_first_push_) {
        saturate_on_first_push_ = false;
        for (std::size_t p = 0; p < ctx.degree(); ++p) {
          const double amount = ctx.edge_capacity(p);
          if (amount <= 0.0) continue;
          flow_[p] += amount;
          excess_ -= amount;
          send_push(ctx, p, amount);
        }
        ctx.sleep();  // returned flow (phase C of a later pulse) wakes us
        return;
      }
      if (!is_active(ctx)) {
        ctx.sleep();
        return;
      }
      double excess = excess_;
      for (std::size_t p = 0; p < ctx.degree() && excess > kEps; ++p) {
        if (neighbor_height_[p] + 1 != height_) continue;
        const double residual = ctx.edge_capacity(p) - flow_[p];
        if (residual <= kEps) continue;
        const double amount = excess < residual ? excess : residual;
        flow_[p] += amount;
        excess -= amount;
        send_push(ctx, p, amount);
      }
      excess_ = excess;
      // Fully drained: sleep until flow is pushed back. Still-blocked
      // excess keeps the node awake for the phase-C relabel.
      if (!is_active(ctx)) ctx.sleep();
    } else {
      // Phase C: apply received pushes, then maybe relabel.
      for (std::size_t p = 0; p < ctx.degree(); ++p) {
        const auto& msg = ctx.received(p);
        if (msg.has_value()) {
          const double amount =
              static_cast<double>(msg->at(0)) / kFlowScale;
          flow_[p] -= amount;
          excess_ += amount;
        }
      }
      if (is_active(ctx)) {
        // Relabel if no admissible edge remains.
        bool admissible = false;
        int best = 1 << 29;
        for (std::size_t p = 0; p < ctx.degree(); ++p) {
          const double residual = ctx.edge_capacity(p) - flow_[p];
          if (residual <= kEps) continue;
          if (neighbor_height_[p] + 1 == height_) admissible = true;
          best =
              best < neighbor_height_[p] + 1 ? best : neighbor_height_[p] + 1;
        }
        if (!admissible && best < (1 << 29)) {
          height_ = best;
          announce_pending_ = true;
        }
      } else if (!announce_pending_) {
        ctx.sleep();
      }
    }
  }

  template <typename Ctx>
  [[nodiscard]] bool is_active(const Ctx& ctx) const {
    return ctx.id() != config_.source && ctx.id() != config_.sink &&
           excess_ > kEps;
  }
  [[nodiscard]] double excess() const { return excess_; }
  [[nodiscard]] int height() const { return height_; }
  // Signed flow out of this node on port p.
  [[nodiscard]] const std::vector<double>& port_flow() const { return flow_; }

 private:
  static constexpr double kEps = 1e-9;
  static constexpr double kFlowScale = static_cast<double>(1LL << 20);

  template <typename Ctx>
  void send_push(Ctx& ctx, std::size_t port, double amount) {
    ctx.send(port,
             Message{static_cast<std::int64_t>(amount * kFlowScale)});
  }

  Config config_;
  int height_ = 0;
  double excess_ = 0.0;
  bool announce_pending_ = false;
  bool saturate_on_first_push_ = false;
  std::vector<double> flow_;
  std::vector<int> neighbor_height_;
};

struct DistributedPushRelabelResult {
  double flow_value = 0.0;
  RunStats stats;
};

struct DistributedPushRelabelOptions {
  int max_rounds = 0;  // 0: the 64 n² + 4096 default
  int threads = 0;     // simulator stepping threads (0 = all hardware)
};

// The canonical RunOptions for a push–relabel run on n nodes: pulse-
// boundary stop checks, quiescence disabled (the sleep/wake protocol
// plus the settle oracle terminate the run), and the Ω(n²) round budget.
[[nodiscard]] RunOptions push_relabel_run_options(
    NodeId n, const DistributedPushRelabelOptions& options = {});

// Run the program to completion (global termination oracle) and report
// the flow value arriving at the sink plus round statistics.
DistributedPushRelabelResult run_distributed_push_relabel(
    const CsrGraph& g, NodeId source, NodeId sink,
    const DistributedPushRelabelOptions& options = {});

}  // namespace dmf::congest
