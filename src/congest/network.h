// Synchronous CONGEST-model network simulator (CongestSim v2).
//
// The model (paper §1.1): computation proceeds in synchronous rounds; per
// round, over each edge, O(log n) bits may be sent in each direction. We
// model a message as at most kMaxWordsPerMessage 64-bit words (a constant
// number of O(log n)-bit fields, since capacities and ids are poly(n)).
// The simulator enforces the bandwidth budget: sending more than one
// message per edge-direction per round, or an oversized message, throws.
//
// v2 layout: the network rides the snapshot's CsrGraph half-edge order.
// Every directed port is a global "slot" (row v's ports are slots
// [offsets[v], offsets[v+1])), and the per-round message state lives in
// four flat arenas — fixed-width word slots plus a length byte per port
// for inbox and outbox — instead of one vector<optional<Message>> pair
// per node. The reverse-port table (reverse_half_edges) is precomputed
// from the CSR, so delivering a round is a linear sweep over the slots
// that were actually written: copy outbox slot h into inbox slot
// peer[h], wake the receiver, done.
//
// Activity: nodes step every round by default (v1 semantics). A program
// may call ctx.sleep() to be skipped until a message arrives; the
// network keeps an active-node worklist (ascending node order) so
// quiescent nodes are never scanned — distributed push–relabel spends
// most pulses with a handful of active nodes. When every un-halted node
// is asleep and nothing is in flight, no future round can change any
// state and the run stops immediately.
//
// Parallelism + determinism: round stepping is OpenMP-parallel over the
// worklist under the same contract as sample_virtual_trees — a program
// only touches its own state, its inbox rows (read) and its outbox rows
// (write), all disjoint per node — and every cross-node artifact
// (worklist maintenance, message accounting, the transcript hash) is
// produced by a serial sweep in canonical (node, port) order. RunStats,
// transcripts, and program end states are bitwise identical at any
// thread count; RunOptions::threads = 1 pins a run sequential.
//
// Termination: a node may call ctx.halt() for local termination; the run
// stops when all nodes have halted, when a configurable number of
// consecutive quiet rounds (no messages in flight) passes — programs ARE
// stepped on quiet rounds, so every node observes the all-empty-inbox
// round before the stop — or at max_rounds, whichever is first. Messages
// addressed to a node that already halted are dropped and counted in
// RunStats::messages_dropped; RunOptions::require_delivery turns such a
// drop into an error for programs that rely on delivery. An optional
// global stop predicate is consulted every stop_interval rounds only, so
// multi-round protocol phases (push–relabel pulses) are never cut mid-
// phase.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <initializer_list>
#include <type_traits>
#include <utility>
#include <vector>

#ifdef DMF_HAVE_OPENMP
#include <omp.h>
#endif

#include "graph/csr_graph.h"
#include "graph/graph.h"
#include "util/require.h"

namespace dmf::congest {

inline constexpr int kMaxWordsPerMessage = 8;

// The send-side message value: a short vector of O(log n)-bit words.
struct Message {
  std::vector<std::int64_t> words;

  Message() = default;
  explicit Message(std::initializer_list<std::int64_t> w) : words(w) {}

  [[nodiscard]] std::int64_t at(std::size_t i) const {
    DMF_REQUIRE(i < words.size(), "Message::at out of range");
    return words[i];
  }
  [[nodiscard]] std::size_t size() const { return words.size(); }
};

// The receive-side view: a borrowed pointer into the inbox arena (or the
// ragged reference storage). Mimics the optional<Message> surface v1
// exposed — has_value()/at()/size(), with operator-> yielding itself —
// so programs read `ctx.received(p)` identically against either.
class MsgView {
 public:
  MsgView() = default;
  MsgView(const std::int64_t* words, int size) : words_(words), size_(size) {}

  [[nodiscard]] bool has_value() const { return size_ >= 0; }
  [[nodiscard]] std::size_t size() const {
    return size_ < 0 ? 0 : static_cast<std::size_t>(size_);
  }
  [[nodiscard]] std::int64_t at(std::size_t i) const {
    DMF_REQUIRE(has_value() && i < size(), "MsgView::at out of range");
    return words_[i];
  }
  [[nodiscard]] const MsgView* operator->() const { return this; }

 private:
  const std::int64_t* words_ = nullptr;
  int size_ = -1;
};

struct RunStats {
  int rounds = 0;
  std::int64_t messages = 0;  // sent (delivered + dropped)
  std::int64_t words = 0;
  // Messages addressed to a node that had already halted; the payload
  // never reaches a program. all_halted can still read true — drops are
  // the separate signal (see RunOptions::require_delivery).
  std::int64_t messages_dropped = 0;
  bool all_halted = false;
  // FNV-1a over every sent message in canonical (round, node, port,
  // words) order — the bitwise transcript fingerprint the determinism
  // tests compare across thread counts and simulator backends.
  std::uint64_t transcript_hash = 0;
};

struct RunOptions {
  int max_rounds = 1 << 20;
  // Stop after this many consecutive rounds with no messages in flight.
  // Quiet rounds are stepped and counted in RunStats::rounds before the
  // stop, so programs observe the all-empty-inbox rounds. 0 disables
  // the quiescence stop.
  int quiet_rounds_to_stop = 2;
  // Consult the global stop predicate only when rounds % stop_interval
  // == 0, so a stop can never cut a multi-round protocol phase (e.g. a
  // 3-round push–relabel pulse) in the middle.
  int stop_interval = 1;
  // Treat a message delivered to an already-halted node as an error
  // instead of a counted drop.
  bool require_delivery = false;
  // Worker threads for round stepping: 0 = all hardware threads, 1 =
  // sequential. Results are identical for every value.
  int threads = 0;
  // Step in parallel only when the worklist has at least this many
  // nodes; below it, thread fan-out costs more than the round.
  int parallel_grain = 256;
};

class Network;

// The local view a program has of its node: its ports (CSR row), the
// incident capacities, and this round's inbox row.
class NodeContext {
 public:
  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] int round() const { return round_; }
  [[nodiscard]] std::size_t degree() const { return degree_; }
  [[nodiscard]] NodeId neighbor(std::size_t port) const {
    DMF_REQUIRE(port < degree_, "neighbor: bad port");
    return neighbors_[port];
  }
  [[nodiscard]] double edge_capacity(std::size_t port) const {
    DMF_REQUIRE(port < degree_, "edge_capacity: bad port");
    return capacities_[port];
  }
  // Global knowledge that is standard in CONGEST: n is known to all nodes.
  [[nodiscard]] NodeId num_nodes() const { return num_nodes_; }

  // Message received on `port` this round, if any.
  [[nodiscard]] MsgView received(std::size_t port) const {
    DMF_REQUIRE(port < degree_, "received: bad port");
    return MsgView(in_words_ + port * kMaxWordsPerMessage, in_len_[port]);
  }

  void send(std::size_t port, const Message& msg) {
    DMF_REQUIRE(port < degree_, "send: bad port");
    DMF_REQUIRE(msg.words.size() <= kMaxWordsPerMessage,
                "send: message exceeds CONGEST bandwidth budget");
    DMF_REQUIRE(out_len_[port] < 0, "send: one message per edge per round");
    std::copy(msg.words.begin(), msg.words.end(),
              out_words_ + port * kMaxWordsPerMessage);
    out_len_[port] = static_cast<std::int8_t>(msg.words.size());
  }

  void halt() { halted_ = true; }
  [[nodiscard]] bool halted() const { return halted_; }

  // Skip this node's round() calls until a message arrives (which wakes
  // it for the round the message is readable). Quiescent nodes cost the
  // simulator nothing; call again after waking to sleep anew.
  void sleep() { asleep_ = true; }
  [[nodiscard]] bool asleep() const { return asleep_; }

 private:
  friend class Network;

  NodeId id_ = kInvalidNode;
  NodeId num_nodes_ = 0;
  int round_ = 0;
  bool halted_ = false;
  bool asleep_ = false;
  std::size_t base_ = 0;    // first slot of this node's CSR row
  std::size_t degree_ = 0;
  const NodeId* neighbors_ = nullptr;   // row view into the CSR
  const double* capacities_ = nullptr;  // per-port capacities
  const std::int8_t* in_len_ = nullptr;
  const std::int64_t* in_words_ = nullptr;
  std::int8_t* out_len_ = nullptr;
  std::int64_t* out_words_ = nullptr;
};

// Requirements on a node program type: it must expose start(ctx) and
// round(ctx). (C++17 detection idiom; this was a concept originally.)
template <typename P, typename = void>
struct is_node_program : std::false_type {};
template <typename P>
struct is_node_program<
    P, std::void_t<decltype(std::declval<P&>().start(
                       std::declval<NodeContext&>())),
                   decltype(std::declval<P&>().round(
                       std::declval<NodeContext&>()))>> : std::true_type {};

// FNV-1a, word at a time — the transcript fingerprint.
struct TranscriptHash {
  std::uint64_t state = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t word) {
    state ^= word;
    state *= 0x100000001b3ULL;
  }
};

class Network {
 public:
  // Non-owning: the CSR (and the graph behind it) must outlive the
  // network. The engine hands in the serving snapshot's packed view; a
  // caller holding a Graph packs one first (`const CsrGraph csr(g);`).
  explicit Network(const CsrGraph& csr) : csr_(&csr) { build(); }
  // A temporary CSR would dangle once the constructor returns.
  explicit Network(const CsrGraph&&) = delete;

  // Run one program instance per node. `programs` must have one entry per
  // node (indexed by NodeId); they hold all per-node state and can be
  // inspected by the caller afterwards. Reusable: each run() resets all
  // message and activity state first (programs are the caller's to
  // re-initialize).
  //
  // `stop` is an optional global predicate consulted every
  // options.stop_interval rounds; it models an external termination-
  // detection oracle (a real deployment would run an O(D)-round
  // convergecast — callers account for that).
  template <typename P, typename StopFn = std::nullptr_t>
  RunStats run(std::vector<P>& programs, const RunOptions& options = {},
               StopFn stop = nullptr) {
    static_assert(is_node_program<P>::value,
                  "Network::run: P must provide start(ctx) and round(ctx)");
    DMF_REQUIRE(programs.size() == contexts_.size(),
                "Network::run: one program per node required");
    DMF_REQUIRE(options.stop_interval > 0,
                "Network::run: stop_interval must be positive");
    reset();
    RunStats stats;
    TranscriptHash hash;
    // Round 0: start() everywhere, then collect sends and activity.
    for (std::size_t v = 0; v < contexts_.size(); ++v) {
      NodeContext& ctx = contexts_[v];
      ctx.round_ = 0;
      programs[v].start(ctx);
    }
    std::vector<NodeId> everyone(contexts_.size());
    for (std::size_t v = 0; v < everyone.size(); ++v) {
      everyone[v] = static_cast<NodeId>(v);
    }
    collect_after_step(everyone, 0, stats, hash);
    int quiet = 0;
    for (;;) {
      const std::int64_t arrived = deliver(stats, options);
      if (num_halted_ == static_cast<NodeId>(contexts_.size())) {
        stats.all_halted = true;
        break;
      }
      // Every un-halted node is asleep and nothing is in flight: no
      // future round can change any state — permanent quiescence.
      if (worklist_.empty()) break;
      if (stats.rounds >= options.max_rounds) break;
      ++stats.rounds;
      step_round(programs, stats.rounds, options);
      // collect_after_step only swaps the worklist after it finishes
      // iterating `stepped`, so aliasing it with worklist_ is safe.
      const std::int64_t sent =
          collect_after_step(worklist_, stats.rounds, stats, hash);
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

  [[nodiscard]] const Graph& graph() const { return csr_->graph(); }
  [[nodiscard]] const CsrGraph& csr() const { return *csr_; }

 private:
  void build() {
    const CsrGraph& csr = *csr_;
    const auto n = static_cast<std::size_t>(csr.num_nodes());
    const std::vector<std::size_t>& off = csr.offsets();
    const std::size_t slots = off[n];
    peer_ = reverse_half_edges(csr);
    slot_node_ = half_edge_sources(csr);
    slot_cap_.resize(slots);
    const std::vector<EdgeId>& edge_ids = csr.edge_id_array();
    for (std::size_t h = 0; h < slots; ++h) {
      slot_cap_[h] = csr.capacity(edge_ids[h]);
    }
    in_len_.assign(slots, -1);
    out_len_.assign(slots, -1);
    in_words_.assign(slots * kMaxWordsPerMessage, 0);
    out_words_.assign(slots * kMaxWordsPerMessage, 0);
    contexts_.resize(n);
    const NodeId* nbr = n > 0 ? csr.neighbor_array().data() : nullptr;
    for (std::size_t v = 0; v < n; ++v) {
      NodeContext& ctx = contexts_[v];
      ctx.id_ = static_cast<NodeId>(v);
      ctx.num_nodes_ = csr.num_nodes();
      ctx.base_ = off[v];
      ctx.degree_ = off[v + 1] - off[v];
      ctx.neighbors_ = nbr + ctx.base_;
      ctx.capacities_ = slot_cap_.data() + ctx.base_;
      ctx.in_len_ = in_len_.data() + ctx.base_;
      ctx.in_words_ = in_words_.data() + ctx.base_ * kMaxWordsPerMessage;
      ctx.out_len_ = out_len_.data() + ctx.base_;
      ctx.out_words_ = out_words_.data() + ctx.base_ * kMaxWordsPerMessage;
    }
  }

  void reset() {
    std::fill(in_len_.begin(), in_len_.end(), static_cast<std::int8_t>(-1));
    std::fill(out_len_.begin(), out_len_.end(), static_cast<std::int8_t>(-1));
    for (NodeContext& ctx : contexts_) {
      ctx.round_ = 0;
      ctx.halted_ = false;
      ctx.asleep_ = false;
    }
    num_halted_ = 0;
    worklist_.clear();
    sent_slots_.clear();
    delivered_slots_.clear();
    woken_.clear();
  }

  // Step the current worklist. Each program touches only its own state
  // and its private arena rows, so the loop is embarrassingly parallel
  // and deterministic at any thread count.
  template <typename P>
  void step_round(std::vector<P>& programs, int round,
                  const RunOptions& options) {
    const auto k = static_cast<std::ptrdiff_t>(worklist_.size());
#ifdef DMF_HAVE_OPENMP
    int threads = options.threads;
    if (threads <= 0) threads = omp_get_max_threads();
    if (threads > 1 &&
        k >= static_cast<std::ptrdiff_t>(options.parallel_grain)) {
      // send() may throw (bandwidth budget); an exception must not
      // escape the parallel region — capture the first and rethrow.
      std::exception_ptr error;
#pragma omp parallel for schedule(static) num_threads(threads)
      for (std::ptrdiff_t i = 0; i < k; ++i) {
        try {
          const auto v = static_cast<std::size_t>(worklist_[i]);
          NodeContext& ctx = contexts_[v];
          ctx.round_ = round;
          programs[v].round(ctx);
        } catch (...) {
#pragma omp critical
          if (!error) error = std::current_exception();
        }
      }
      if (error) std::rethrow_exception(error);
      return;
    }
#else
    (void)options;
#endif
    for (std::ptrdiff_t i = 0; i < k; ++i) {
      const auto v = static_cast<std::size_t>(worklist_[i]);
      NodeContext& ctx = contexts_[v];
      ctx.round_ = round;
      programs[v].round(ctx);
    }
  }

  // Serial sweep over the nodes just stepped, in ascending node order:
  // gathers their outbound slots (the canonical transcript order),
  // accounts messages/words into stats and the hash, and rebuilds the
  // worklist from each node's halt/sleep decision.
  std::int64_t collect_after_step(const std::vector<NodeId>& stepped,
                                  int round, RunStats& stats,
                                  TranscriptHash& hash) {
    next_worklist_.clear();
    std::int64_t sent = 0;
    for (const NodeId v : stepped) {
      NodeContext& ctx = contexts_[static_cast<std::size_t>(v)];
      for (std::size_t p = 0; p < ctx.degree_; ++p) {
        const int len = ctx.out_len_[p];
        if (len < 0) continue;
        sent_slots_.push_back(ctx.base_ + p);
        ++sent;
        ++stats.messages;
        stats.words += len;
        hash.mix(static_cast<std::uint64_t>(round));
        hash.mix(static_cast<std::uint64_t>(v));
        hash.mix(p);
        hash.mix(static_cast<std::uint64_t>(len));
        const std::int64_t* w =
            ctx.out_words_ + p * static_cast<std::size_t>(kMaxWordsPerMessage);
        for (int i = 0; i < len; ++i) {
          hash.mix(static_cast<std::uint64_t>(w[i]));
        }
      }
      if (ctx.halted_) {
        ++num_halted_;  // leaves the worklist for good; wake skips halted
        continue;
      }
      if (ctx.asleep_) continue;
      next_worklist_.push_back(v);
    }
    worklist_.swap(next_worklist_);
    return sent;
  }

  // Move every written outbox slot into its peer inbox slot (one linear
  // sweep over the touched slots), wake sleeping receivers, and merge
  // them into the worklist in ascending node order.
  std::int64_t deliver(RunStats& stats, const RunOptions& options) {
    for (const std::size_t slot : delivered_slots_) in_len_[slot] = -1;
    delivered_slots_.clear();
    woken_.clear();
    std::int64_t arrived = 0;
    for (const std::size_t src : sent_slots_) {
      const std::size_t dst = peer_[src];
      NodeContext& receiver =
          contexts_[static_cast<std::size_t>(slot_node_[dst])];
      if (receiver.halted_) {
        ++stats.messages_dropped;
        DMF_REQUIRE(!options.require_delivery,
                    "Network: message delivered to a halted node");
        out_len_[src] = -1;
        continue;
      }
      const std::int8_t len = out_len_[src];
      constexpr auto kWords = static_cast<std::size_t>(kMaxWordsPerMessage);
      std::copy_n(out_words_.data() + src * kWords,
                  static_cast<std::size_t>(len),
                  in_words_.data() + dst * kWords);
      in_len_[dst] = len;
      out_len_[src] = -1;
      delivered_slots_.push_back(dst);
      ++arrived;
      if (receiver.asleep_) {
        receiver.asleep_ = false;
        woken_.push_back(receiver.id_);
      }
    }
    sent_slots_.clear();
    if (!woken_.empty()) {
      // Peer slots arrive in source order; re-establish ascending node
      // order, then merge with the (already sorted) worklist. A woken
      // node was asleep — its flag cleared on the first wake — so it
      // appears once here and cannot already be in the worklist.
      std::sort(woken_.begin(), woken_.end());
      next_worklist_.clear();
      next_worklist_.reserve(worklist_.size() + woken_.size());
      std::merge(worklist_.begin(), worklist_.end(), woken_.begin(),
                 woken_.end(), std::back_inserter(next_worklist_));
      worklist_.swap(next_worklist_);
    }
    return arrived;
  }

  const CsrGraph* csr_ = nullptr;

  // Flat per-slot tables (2m entries, CSR half-edge order).
  std::vector<std::size_t> peer_;     // reverse-port: slot of the same edge
  std::vector<NodeId> slot_node_;     // owner row of each slot
  std::vector<double> slot_cap_;      // capacity of each slot's edge
  // Message arenas: a length byte (-1 = empty) plus kMaxWordsPerMessage
  // fixed-width words per slot.
  std::vector<std::int8_t> in_len_;
  std::vector<std::int8_t> out_len_;
  std::vector<std::int64_t> in_words_;
  std::vector<std::int64_t> out_words_;

  std::vector<NodeContext> contexts_;
  NodeId num_halted_ = 0;
  std::vector<NodeId> worklist_;       // awake nodes, ascending
  std::vector<NodeId> next_worklist_;  // scratch for rebuild/merge
  std::vector<NodeId> woken_;
  std::vector<std::size_t> sent_slots_;       // outbox slots written
  std::vector<std::size_t> delivered_slots_;  // inbox slots to clear
};

}  // namespace dmf::congest
