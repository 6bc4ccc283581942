#include "sched/graph.hpp"

#include <algorithm>
#include <numeric>
#include <queue>

#include "mutil/config.hpp"
#include "mutil/error.hpp"

namespace sched {

int Graph::check_id(int id, const char* what) const {
  if (id < 0 || id >= size()) {
    throw mutil::UsageError("sched: " + std::string(what) + " id " +
                            std::to_string(id) + " out of range (graph has " +
                            std::to_string(size()) + " nodes)");
  }
  return id;
}

int Graph::add(JobNode node) {
  if (node.name.empty()) {
    node.name = "job" + std::to_string(size());
  }
  nodes_.push_back(std::move(node));
  inputs_.emplace_back();
  succ_.emplace_back();
  pred_.emplace_back();
  data_consumers_.push_back(0);
  return size() - 1;
}

void Graph::add_edge(int producer, int consumer) {
  check_id(producer, "producer");
  check_id(consumer, "consumer");
  if (producer == consumer) {
    throw mutil::UsageError("sched: self edge on node " +
                            std::to_string(producer));
  }
  auto& ins = inputs_[consumer];
  if (std::find(ins.begin(), ins.end(), producer) != ins.end()) {
    throw mutil::UsageError("sched: duplicate data edge " +
                            std::to_string(producer) + " -> " +
                            std::to_string(consumer));
  }
  ins.push_back(producer);
  succ_[producer].push_back(consumer);
  pred_[consumer].push_back(producer);
  ++data_consumers_[producer];
}

void Graph::add_order(int before, int after) {
  check_id(before, "order-before");
  check_id(after, "order-after");
  if (before == after) {
    throw mutil::UsageError("sched: self order edge on node " +
                            std::to_string(before));
  }
  succ_[before].push_back(after);
  pred_[after].push_back(before);
}

const JobNode& Graph::node(int id) const {
  return nodes_[static_cast<std::size_t>(check_id(id, "node"))];
}

const std::vector<int>& Graph::inputs(int id) const {
  return inputs_[static_cast<std::size_t>(check_id(id, "node"))];
}

const std::vector<int>& Graph::predecessors(int id) const {
  return pred_[static_cast<std::size_t>(check_id(id, "node"))];
}

int Graph::data_consumers(int id) const {
  return data_consumers_[static_cast<std::size_t>(check_id(id, "node"))];
}

std::vector<int> Graph::topo_order() const {
  std::vector<int> indegree(nodes_.size(), 0);
  for (const auto& out : succ_) {
    for (int s : out) ++indegree[static_cast<std::size_t>(s)];
  }
  // Smallest ready id first, so the order is a deterministic function of
  // the graph (and matches insertion order for already-sorted chains).
  std::priority_queue<int, std::vector<int>, std::greater<>> ready;
  for (int id = 0; id < size(); ++id) {
    if (indegree[static_cast<std::size_t>(id)] == 0) ready.push(id);
  }
  std::vector<int> order;
  order.reserve(nodes_.size());
  while (!ready.empty()) {
    const int id = ready.top();
    ready.pop();
    order.push_back(id);
    for (int s : succ_[static_cast<std::size_t>(id)]) {
      if (--indegree[static_cast<std::size_t>(s)] == 0) ready.push(s);
    }
  }
  if (order.size() != nodes_.size()) {
    throw mutil::UsageError("sched: graph has a cycle (" +
                            std::to_string(nodes_.size() - order.size()) +
                            " nodes unreachable in topological order)");
  }
  return order;
}

std::vector<int> Graph::components() const {
  // Union-find over data + order edges (weak connectivity).
  std::vector<int> parent(nodes_.size());
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(
              parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  for (int id = 0; id < size(); ++id) {
    for (int s : succ_[static_cast<std::size_t>(id)]) {
      const int a = find(id);
      const int b = find(s);
      if (a != b) parent[static_cast<std::size_t>(std::max(a, b))] =
          std::min(a, b);
    }
  }
  // Normalize to dense ids in order of first appearance.
  std::vector<int> comp(nodes_.size(), -1);
  std::vector<int> remap(nodes_.size(), -1);
  int next = 0;
  for (int id = 0; id < size(); ++id) {
    const int root = find(id);
    if (remap[static_cast<std::size_t>(root)] < 0) {
      remap[static_cast<std::size_t>(root)] = next++;
    }
    comp[static_cast<std::size_t>(id)] =
        remap[static_cast<std::size_t>(root)];
  }
  return comp;
}

GraphOptions GraphOptions::from(const mutil::Config& cfg) {
  GraphOptions opts;
  opts.memory_budget =
      cfg.get_size("mimir.sched.memory_budget", opts.memory_budget);
  opts.max_concurrency = static_cast<int>(
      cfg.get_int("mimir.sched.max_concurrency", opts.max_concurrency));
  opts.checkpoint = cfg.get_bool("mimir.sched.checkpoint", opts.checkpoint);
  opts.checkpoint_prefix =
      cfg.get_string("mimir.sched.checkpoint_prefix", opts.checkpoint_prefix);
  opts.keep_checkpoints =
      cfg.get_bool("mimir.sched.keep_checkpoints", opts.keep_checkpoints);
  if (opts.max_concurrency < 1) {
    throw mutil::ConfigError("mimir.sched.max_concurrency must be >= 1");
  }
  return opts;
}

Plan plan_graph(const Graph& graph, int nranks,
                const simtime::MachineProfile& machine,
                const GraphOptions& options) {
  if (nranks < 1) {
    throw mutil::UsageError("sched: nranks must be >= 1");
  }
  if (options.max_concurrency < 1) {
    throw mutil::UsageError("sched: max_concurrency must be >= 1");
  }
  const std::vector<int> order = graph.topo_order();  // validates (cycles)

  Plan plan;
  plan.budget =
      options.memory_budget != 0 ? options.memory_budget : machine.node_memory;
  const std::size_t n = static_cast<std::size_t>(graph.size());
  plan.live_bytes.assign(n, 0);
  plan.degraded.assign(n, false);
  if (graph.size() == 0) return plan;

  const std::uint64_t rpn =
      static_cast<std::uint64_t>(std::max(1, machine.ranks_per_node));

  // Pre-emptive degradation: a node whose declared peak exceeds the
  // budget on its own gets the out-of-core ladder enabled up front
  // (halving live bytes, floor one page) instead of being queued
  // forever. Projected resident footprint with spilling on is ~2x the
  // live budget per rank (live pages + in-flight shuffle), times the
  // ranks sharing the node.
  std::vector<std::uint64_t> estimate(n, 0);
  for (int id = 0; id < graph.size(); ++id) {
    const JobNode& node = graph.node(id);
    std::uint64_t est = node.peak_estimate;
    if (plan.budget != 0 && est > plan.budget) {
      std::uint64_t live = node.config.ooc_live_bytes != 0
                               ? node.config.ooc_live_bytes
                               : plan.budget / rpn;
      const std::uint64_t floor = node.config.page_size;
      const auto projected = [&](std::uint64_t l) { return 2 * l * rpn; };
      while (live / 2 >= floor && projected(live) > plan.budget) {
        live /= 2;
      }
      est = std::min(est, projected(live));
      plan.live_bytes[static_cast<std::size_t>(id)] = live;
      plan.degraded[static_cast<std::size_t>(id)] = true;
      ++plan.degraded_nodes;
    }
    estimate[static_cast<std::size_t>(id)] = est;
  }

  // Components are the concurrency unit; a component's admission
  // estimate is its widest node (its jobs run one after another).
  const std::vector<int> comp = graph.components();
  const int ncomp = 1 + *std::max_element(comp.begin(), comp.end());
  std::vector<std::uint64_t> comp_estimate(static_cast<std::size_t>(ncomp), 0);
  std::vector<std::vector<int>> comp_nodes(static_cast<std::size_t>(ncomp));
  for (int id : order) {
    const std::size_t c = static_cast<std::size_t>(comp[
        static_cast<std::size_t>(id)]);
    comp_nodes[c].push_back(id);  // topo order within the component
    comp_estimate[c] =
        std::max(comp_estimate[c], estimate[static_cast<std::size_t>(id)]);
  }

  const int mc = std::min(options.max_concurrency, nranks);
  if (mc == 1 || ncomp == 1) {
    // Sequential: one wave, one group, the whole world — the manual-loop
    // execution shape (no communicator splits, no barriers added).
    WavePlan wave;
    GroupPlan group;
    group.nodes = order;
    group.rank_begin = 0;
    group.rank_end = nranks;
    group.estimate =
        *std::max_element(comp_estimate.begin(), comp_estimate.end());
    wave.groups.push_back(std::move(group));
    plan.waves.push_back(std::move(wave));
    return plan;
  }

  // First-fit wave packing under the global budget: component i goes to
  // the first wave with a free group slot whose admitted estimates plus
  // this one still fit. Components that miss wave 0 are "queued".
  struct WaveAccum {
    std::vector<int> comps;
    std::uint64_t used = 0;
  };
  std::vector<WaveAccum> waves;
  for (int c = 0; c < ncomp; ++c) {
    const std::uint64_t est = comp_estimate[static_cast<std::size_t>(c)];
    bool placed = false;
    for (std::size_t w = 0; w < waves.size(); ++w) {
      if (static_cast<int>(waves[w].comps.size()) >= mc) continue;
      if (plan.budget != 0 && !waves[w].comps.empty() &&
          waves[w].used + est > plan.budget) {
        continue;
      }
      waves[w].comps.push_back(c);
      waves[w].used += est;
      placed = true;
      break;
    }
    if (!placed) {
      waves.push_back(WaveAccum{{c}, est});
    }
  }

  for (std::size_t w = 0; w < waves.size(); ++w) {
    WavePlan wave;
    const int k = static_cast<int>(waves[w].comps.size());
    for (int g = 0; g < k; ++g) {
      const std::size_t c =
          static_cast<std::size_t>(waves[w].comps[static_cast<std::size_t>(g)]);
      GroupPlan group;
      group.nodes = comp_nodes[c];
      // Even rank split; the last group absorbs the remainder.
      group.rank_begin = static_cast<int>(
          static_cast<std::int64_t>(nranks) * g / k);
      group.rank_end = static_cast<int>(
          static_cast<std::int64_t>(nranks) * (g + 1) / k);
      group.estimate = comp_estimate[c];
      wave.groups.push_back(std::move(group));
      if (w > 0) {
        plan.queued_nodes += static_cast<int>(comp_nodes[c].size());
      }
    }
    plan.waves.push_back(std::move(wave));
  }
  return plan;
}

}  // namespace sched
