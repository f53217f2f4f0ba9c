#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <set>
#include <span>

#include "common/check.hpp"
#include "common/trace.hpp"
#include "partition/contract.hpp"
#include "partition/partition.hpp"

// dagP: multilevel acyclic DAG partitioning adapted to the paper's modified
// objective — minimize the number of parts subject to a working-set limit —
// via (i) lossless chain-contraction coarsening, (ii) recursive bisection
// over candidate topological orders minimizing the *qubit cut* with an
// acyclicity-preserving FM refinement, and (iii) a final merge phase on the
// part graph (the phase the paper adds to the original dagP algorithm).

namespace hisim::partition {
namespace {

using WorkGraph = ContractedGraph;

/// A qubit set as a bitset of ceil(n/64) words.
using Mask = std::vector<std::uint64_t>;

/// Every coarse node's qubits as a bitset row, built once per partition
/// call, so a working set is the popcount of an OR of rows: no query
/// allocates a tree set, and circuits wider than 64 qubits just use more
/// words.
class QubitMasks {
 public:
  QubitMasks(const WorkGraph& g, unsigned num_qubits)
      : words_((num_qubits + 63) / 64), rows_(g.size() * words_, 0) {
    for (std::size_t v = 0; v < g.size(); ++v)
      for (Qubit q : g.qubits[v])
        rows_[v * words_ + q / 64] |= std::uint64_t{1} << (q % 64);
  }

  Mask none() const { return Mask(words_, 0); }
  std::span<const std::uint64_t> row(int v) const {
    return {rows_.data() + static_cast<std::size_t>(v) * words_, words_};
  }
  /// The union of the nodes' qubits.
  Mask of(const std::vector<int>& nodes) const {
    Mask m = none();
    for (int v : nodes) add(m, v);
    return m;
  }
  void add(Mask& m, int v) const {
    const std::span<const std::uint64_t> r = row(v);
    for (std::size_t i = 0; i < words_; ++i) m[i] |= r[i];
  }

 private:
  std::size_t words_;
  Mask rows_;
};

unsigned count(std::span<const std::uint64_t> m) {
  unsigned c = 0;
  for (std::uint64_t w : m) c += static_cast<unsigned>(std::popcount(w));
  return c;
}

/// |a ∪ b| without materializing the union.
unsigned count_union(std::span<const std::uint64_t> a,
                     std::span<const std::uint64_t> b) {
  unsigned c = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    c += static_cast<unsigned>(std::popcount(a[i] | b[i]));
  return c;
}

std::size_t gate_weight(const WorkGraph& g, const std::vector<int>& nodes) {
  std::size_t w = 0;
  for (int v : nodes) w += g.members[v].size();
  return w;
}

/// Topological order of the subgraph induced by `nodes`, via Kahn with a
/// caller-supplied ready-pick policy.
template <typename Pick>
std::vector<int> kahn_order(const WorkGraph& g, const std::vector<int>& nodes,
                            Pick pick) {
  std::vector<int> in_sub(g.size(), 0);
  for (int v : nodes) in_sub[v] = 1;
  std::vector<int> indeg(g.size(), 0);
  for (int v : nodes)
    for (int s : g.succs[v])
      if (in_sub[s]) ++indeg[s];
  std::vector<int> ready;
  for (int v : nodes)
    if (indeg[v] == 0) ready.push_back(v);
  std::vector<int> order;
  order.reserve(nodes.size());
  while (!ready.empty()) {
    const std::size_t i = pick(ready);
    const int v = ready[i];
    ready[i] = ready.back();
    ready.pop_back();
    order.push_back(v);
    for (int s : g.succs[v])
      if (in_sub[s] && --indeg[s] == 0) ready.push_back(s);
  }
  HISIM_CHECK_MSG(order.size() == nodes.size(), "induced subgraph has cycle");
  return order;
}


/// Reverse-postorder DFS topological order of the coarse graph with
/// randomized adjacency — chain-following orders that segment well.
std::vector<int> dfs_order(const WorkGraph& g, const std::vector<int>& nodes,
                           Rng& rng) {
  std::vector<int> in_sub(g.size(), 0);
  for (int v : nodes) in_sub[v] = 1;
  std::vector<int> indeg(g.size(), 0);
  for (int v : nodes)
    for (int sxx : g.succs[v])
      if (in_sub[sxx]) ++indeg[sxx];
  std::vector<int> roots;
  for (int v : nodes)
    if (indeg[v] == 0) roots.push_back(v);
  for (std::size_t i = roots.size(); i > 1; --i)
    std::swap(roots[i - 1], roots[rng.below(i)]);
  std::vector<std::uint8_t> state(g.size(), 0);
  std::vector<int> post;
  post.reserve(nodes.size());
  struct Frame {
    int v;
    std::vector<int> kids;
    std::size_t next = 0;
  };
  std::vector<Frame> stack;
  for (int root : roots) {
    if (state[root]) continue;
    state[root] = 1;
    stack.push_back({root, {}, 0});
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.next == 0) {
        for (int sxx : g.succs[f.v])
          if (in_sub[sxx]) f.kids.push_back(sxx);
        for (std::size_t i = f.kids.size(); i > 1; --i)
          std::swap(f.kids[i - 1], f.kids[rng.below(i)]);
      }
      bool descended = false;
      while (f.next < f.kids.size()) {
        const int w = f.kids[f.next++];
        if (state[w] == 0) {
          state[w] = 1;
          stack.push_back({w, {}, 0});
          descended = true;
          break;
        }
      }
      if (!descended && stack.back().next >= stack.back().kids.size()) {
        post.push_back(stack.back().v);
        stack.pop_back();
      }
    }
  }
  std::reverse(post.begin(), post.end());
  HISIM_CHECK(post.size() == nodes.size());
  return post;
}

/// Tracks the qubit cut (qubits used on both sides) of a bisection.
class CutTracker {
 public:
  CutTracker(const WorkGraph& g, const std::vector<int>& nodes,
             unsigned num_qubits)
      : g_(g), total_(num_qubits, 0), left_(num_qubits, 0) {
    for (int v : nodes)
      for (Qubit q : g.qubits[v]) ++total_[q];
  }

  /// Moves node v into the left side.
  void add_left(int v) {
    for (Qubit q : g_.qubits[v]) {
      update_cut_on_change(q, +1);
    }
  }
  /// Moves node v out of the left side.
  void remove_left(int v) {
    for (Qubit q : g_.qubits[v]) {
      update_cut_on_change(q, -1);
    }
  }

  /// Cut delta if v moved left->right (negative = improvement), without
  /// mutating state.
  int gain_remove_left(int v) const {
    int delta = 0;
    for (Qubit q : g_.qubits[v]) {
      const int l = left_[q], t = total_[q];
      const bool cut_before = l > 0 && l < t;
      const bool cut_after = (l - 1) > 0 && (l - 1) < t;
      delta += static_cast<int>(cut_after) - static_cast<int>(cut_before);
    }
    return delta;
  }
  int gain_add_left(int v) const {
    int delta = 0;
    for (Qubit q : g_.qubits[v]) {
      const int l = left_[q], t = total_[q];
      const bool cut_before = l > 0 && l < t;
      const bool cut_after = (l + 1) > 0 && (l + 1) < t;
      delta += static_cast<int>(cut_after) - static_cast<int>(cut_before);
    }
    return delta;
  }

  int cut() const { return cut_; }

 private:
  void update_cut_on_change(Qubit q, int d) {
    const int t = total_[q];
    const bool before = left_[q] > 0 && left_[q] < t;
    left_[q] += d;
    const bool after = left_[q] > 0 && left_[q] < t;
    cut_ += static_cast<int>(after) - static_cast<int>(before);
  }

  const WorkGraph& g_;
  std::vector<int> total_, left_;
  int cut_ = 0;
};

struct Bisection {
  std::vector<int> left, right;
  int cut = 0;
};

/// Splits `nodes` into (upstream, downstream) minimizing the qubit cut over
/// several candidate topological orders, then improves with FM-style
/// acyclicity-preserving moves.
Bisection bisect(const WorkGraph& g, const std::vector<int>& nodes,
                 unsigned num_qubits, const PartitionOptions& opt, Rng& rng) {
  const std::size_t n = nodes.size();
  HISIM_CHECK(n >= 2);
  const std::size_t total_w = gate_weight(g, nodes);
  // Paper's imbalance epsilon: each side's weight <= eps * (total/2).
  const double max_side =
      std::max(1.0, opt.imbalance * static_cast<double>(total_w) / 2.0);

  Bisection best;
  best.cut = INT32_MAX;

  for (unsigned cand = 0; cand < std::max(1u, opt.bisect_candidates); ++cand) {
    std::vector<int> order;
    if (cand == 0) {
      // Deterministic "natural-ish": pick ready node with smallest first
      // gate index.
      order = kahn_order(g, nodes, [&](const std::vector<int>& ready) {
        std::size_t bi = 0;
        for (std::size_t i = 1; i < ready.size(); ++i)
          if (g.members[ready[i]][0] < g.members[ready[bi]][0]) bi = i;
        return bi;
      });
    } else {
      order = kahn_order(g, nodes, [&](const std::vector<int>& ready) {
        return static_cast<std::size_t>(rng.below(ready.size()));
      });
    }
    // Sweep split positions; track cut incrementally.
    CutTracker tracker(g, nodes, num_qubits);
    std::size_t wl = 0;
    int local_best_cut = INT32_MAX;
    std::size_t local_best_split = 0;
    double local_best_bal = 1e300;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      tracker.add_left(order[i]);
      wl += g.members[order[i]].size();
      const std::size_t wr = total_w - wl;
      if (static_cast<double>(wl) > max_side ||
          static_cast<double>(wr) > max_side)
        continue;
      const double bal =
          std::abs(static_cast<double>(wl) - static_cast<double>(wr));
      if (tracker.cut() < local_best_cut ||
          (tracker.cut() == local_best_cut && bal < local_best_bal)) {
        local_best_cut = tracker.cut();
        local_best_split = i + 1;
        local_best_bal = bal;
      }
    }
    if (local_best_cut == INT32_MAX) {
      // No balanced split (very skewed weights) — fall back to the median.
      local_best_split = n / 2;
      local_best_cut = INT32_MAX - 1;
    }
    if (local_best_cut < best.cut) {
      best.left.assign(order.begin(),
                       order.begin() + static_cast<long>(local_best_split));
      best.right.assign(order.begin() + static_cast<long>(local_best_split),
                        order.end());
      best.cut = local_best_cut;
    }
  }

  // FM refinement: greedy positive-gain boundary moves that keep both the
  // topological invariant (all cross edges left->right) and the balance.
  std::vector<char> side(g.size(), 0);  // 1 = left, 2 = right
  for (int v : best.left) side[v] = 1;
  for (int v : best.right) side[v] = 2;
  CutTracker tracker(g, nodes, num_qubits);
  for (int v : best.left) tracker.add_left(v);
  std::size_t wl = gate_weight(g, best.left);

  auto movable_to_right = [&](int v) {
    if (side[v] != 1) return false;
    for (int s : g.succs[v])
      if (side[s] == 1) return false;
    return true;
  };
  auto movable_to_left = [&](int v) {
    if (side[v] != 2) return false;
    for (int p : g.preds[v])
      if (side[p] == 2) return false;
    return true;
  };

  // One process-wide counter: bisections run concurrently from sweep and
  // trajectory compiles, and the reference is stable for the process.
  static trace::Counter& refine_counter =
      trace::MetricsRegistry::global().counter("partition.refine_passes");
  for (unsigned pass = 0; pass < opt.refine_passes; ++pass) {
    refine_counter.add();
    bool improved = false;
    for (int v : nodes) {
      if (movable_to_right(v)) {
        const std::size_t new_wl = wl - g.members[v].size();
        if (new_wl == 0) continue;
        if (static_cast<double>(total_w - new_wl) > max_side) continue;
        if (tracker.gain_remove_left(v) < 0) {
          tracker.remove_left(v);
          side[v] = 2;
          wl = new_wl;
          improved = true;
        }
      } else if (movable_to_left(v)) {
        const std::size_t new_wl = wl + g.members[v].size();
        if (new_wl == total_w) continue;
        if (static_cast<double>(new_wl) > max_side) continue;
        if (tracker.gain_add_left(v) < 0) {
          tracker.add_left(v);
          side[v] = 1;
          wl = new_wl;
          improved = true;
        }
      }
    }
    if (!improved) break;
  }
  Bisection out;
  for (int v : nodes) {
    if (side[v] == 1) out.left.push_back(v);
    else out.right.push_back(v);
  }
  out.cut = tracker.cut();
  HISIM_CHECK(!out.left.empty() && !out.right.empty());
  return out;
}

void recurse(const WorkGraph& g, const QubitMasks& masks,
             std::vector<int> nodes, unsigned num_qubits,
             const PartitionOptions& opt, Rng& rng,
             std::vector<std::vector<int>>& parts_out) {
  if (count(masks.of(nodes)) <= opt.limit) {
    parts_out.push_back(std::move(nodes));
    return;
  }
  HISIM_CHECK_MSG(nodes.size() >= 2,
                  "single node exceeds working-set limit");
  Bisection b = bisect(g, nodes, num_qubits, opt, rng);
  recurse(g, masks, std::move(b.left), num_qubits, opt, rng, parts_out);
  recurse(g, masks, std::move(b.right), num_qubits, opt, rng, parts_out);
}


/// Greedy cutoff segmentation of a node order on the coarse graph
/// (optimal for that fixed order). Used as additional initial-partitioning
/// candidates alongside recursive bisection: on dense circuits whose
/// working sets approach the limit, order-based segmentation can beat a
/// balanced bisection tree, and multilevel partitioners keep the best of
/// their construction heuristics.
std::vector<std::vector<int>> segment_nodes(const QubitMasks& masks,
                                            const std::vector<int>& order,
                                            unsigned limit) {
  std::vector<std::vector<int>> parts;
  std::vector<int> cur;
  Mask cur_q = masks.none();
  for (int v : order) {
    if (count_union(cur_q, masks.row(v)) > limit && !cur.empty()) {
      parts.push_back(std::move(cur));
      cur.clear();
      cur_q = masks.none();
    }
    masks.add(cur_q, v);
    HISIM_CHECK(count(cur_q) <= limit);
    cur.push_back(v);
  }
  if (!cur.empty()) parts.push_back(std::move(cur));
  return parts;
}

/// Final merge phase (the paper's addition to dagP): greedily merge part
/// pairs whose union fits the limit and whose contraction keeps the part
/// graph acyclic — i.e. the two parts are either incomparable or connected
/// only by direct edges (no 2+ step path between them).
void merge_phase(const WorkGraph& g, const QubitMasks& masks, unsigned limit,
                 std::vector<std::vector<int>>& parts) {
  bool merged = true;
  while (merged && parts.size() > 1) {
    merged = false;
    const int k = static_cast<int>(parts.size());
    // part id per node
    std::vector<int> pid(g.size(), -1);
    for (int p = 0; p < k; ++p)
      for (int v : parts[p]) pid[v] = p;
    // part adjacency + reachability
    std::vector<std::set<int>> padj(k);
    for (std::size_t v = 0; v < g.size(); ++v) {
      if (pid[v] < 0) continue;
      for (int s : g.succs[v])
        if (pid[s] >= 0 && pid[s] != pid[v]) padj[pid[v]].insert(pid[s]);
    }
    dag::PartGraph pg;
    pg.num_parts = k;
    pg.succs.resize(k);
    pg.preds.resize(k);
    for (int p = 0; p < k; ++p)
      for (int s : padj[p]) {
        pg.succs[p].push_back(s);
        pg.preds[s].push_back(p);
      }
    const auto reach = pg.reachability();

    // Candidate pairs: smallest merged working set first.
    int best_a = -1, best_b = -1;
    std::size_t best_ws = limit + 1;
    std::vector<Mask> pq(k);
    for (int p = 0; p < k; ++p) pq[p] = masks.of(parts[p]);
    for (int a = 0; a < k; ++a) {
      for (int b = a + 1; b < k; ++b) {
        const unsigned u = count_union(pq[a], pq[b]);
        if (u > limit) continue;
        // Contraction is acyclic iff there is no path a~>b (or b~>a) through
        // an intermediate part.
        bool bad = false;
        for (int c = 0; c < k && !bad; ++c) {
          if (c == a || c == b) continue;
          if ((reach[a][c] && reach[c][b]) || (reach[b][c] && reach[c][a]))
            bad = true;
        }
        if (bad) continue;
        if (u < best_ws) {
          best_ws = u;
          best_a = a;
          best_b = b;
        }
      }
    }
    if (best_a >= 0) {
      parts[best_a].insert(parts[best_a].end(), parts[best_b].begin(),
                           parts[best_b].end());
      parts.erase(parts.begin() + best_b);
      merged = true;
    }
  }
}


/// Part-elimination refinement: try to empty whole parts by redistributing
/// their nodes into other parts. With parts numbered topologically, a node
/// may move to any part between its predecessors' and successors' parts
/// whose working set stays within the limit — every edge keeps flowing
/// from a lower-or-equal part number, so validity is preserved. This
/// generalizes pairwise merging (which is the special case of moving all
/// nodes to one common neighbour).
void eliminate_parts(const WorkGraph& g, unsigned limit, unsigned num_qubits,
                     std::vector<std::vector<int>>& parts) {
  if (parts.size() <= 1) return;

  // Renumber topologically first.
  auto renumber = [&]() {
    const int k = static_cast<int>(parts.size());
    std::vector<int> pid(g.size(), -1);
    for (int p = 0; p < k; ++p)
      for (int v : parts[p]) pid[v] = p;
    dag::PartGraph pg;
    pg.num_parts = k;
    pg.succs.resize(k);
    pg.preds.resize(k);
    std::vector<std::set<int>> dd(k);
    for (std::size_t v = 0; v < g.size(); ++v)
      for (int sxx : g.succs[v])
        if (pid[v] != pid[sxx]) dd[pid[v]].insert(pid[sxx]);
    for (int p = 0; p < k; ++p)
      for (int sxx : dd[p]) {
        pg.succs[p].push_back(sxx);
        pg.preds[sxx].push_back(p);
      }
    const auto order = pg.topological_order();
    std::vector<std::vector<int>> sorted(parts.size());
    for (int i = 0; i < k; ++i) sorted[i] = std::move(parts[order[i]]);
    parts = std::move(sorted);
  };
  renumber();
  // Nodes in intra-part topological order (ascending first gate), kept
  // sorted as nodes move so no pass re-sorts a victim.
  const auto by_first_gate = [&](int a, int b) {
    return g.members[a][0] < g.members[b][0];
  };
  for (std::vector<int>& ns : parts)
    std::sort(ns.begin(), ns.end(), by_first_gate);

  const int k0 = static_cast<int>(parts.size());
  std::vector<int> part_of(g.size(), -1);
  // qcount[p][q]: how many nodes of part p touch qubit q.
  std::vector<std::vector<int>> qcount(k0, std::vector<int>(num_qubits, 0));
  std::vector<unsigned> ws(k0, 0);
  for (int p = 0; p < k0; ++p) {
    for (int v : parts[p]) {
      part_of[v] = p;
      for (Qubit q : g.qubits[v])
        if (qcount[p][q]++ == 0) ++ws[p];
    }
  }
  auto add_node = [&](int p, int v) {
    part_of[v] = p;
    for (Qubit q : g.qubits[v])
      if (qcount[p][q]++ == 0) ++ws[p];
  };
  auto remove_node = [&](int p, int v) {
    for (Qubit q : g.qubits[v])
      if (--qcount[p][q] == 0) --ws[p];
    part_of[v] = -1;
  };
  auto ws_with = [&](int p, int v) {
    unsigned w = ws[p];
    for (Qubit q : g.qubits[v])
      if (qcount[p][q] == 0) ++w;
    return w;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    // Try to empty the smallest parts first.
    std::vector<int> by_size;
    for (int p = 0; p < k0; ++p)
      if (!parts[p].empty()) by_size.push_back(p);
    if (by_size.size() <= 1) break;
    std::sort(by_size.begin(), by_size.end(), [&](int a, int b) {
      return parts[a].size() < parts[b].size();
    });
    for (int victim : by_size) {
      std::vector<std::pair<int, int>> moves;  // (node, target)
      bool ok = true;
      for (int v : parts[victim]) {
        int lo = 0, hi = k0 - 1;
        for (int u : g.preds[v]) lo = std::max(lo, part_of[u]);
        for (int w : g.succs[v]) hi = std::min(hi, part_of[w]);
        int best = -1;
        unsigned best_ws = limit + 1;
        for (int q = lo; q <= hi && q < k0; ++q) {
          if (q == victim || parts[q].empty()) continue;
          const unsigned w = ws_with(q, v);
          if (w <= limit && w < best_ws) {
            best_ws = w;
            best = q;
          }
        }
        if (best < 0) {
          ok = false;
          break;
        }
        remove_node(victim, v);
        add_node(best, v);
        moves.emplace_back(v, best);
      }
      if (ok) {
        for (const auto& [v, tgt] : moves) {
          std::vector<int>& dst = parts[tgt];
          dst.insert(std::upper_bound(dst.begin(), dst.end(), v, by_first_gate),
                     v);
        }
        parts[victim].clear();
        changed = true;
      } else {
        for (auto it = moves.rbegin(); it != moves.rend(); ++it) {
          remove_node(it->second, it->first);
          add_node(victim, it->first);
        }
      }
    }
  }
  std::erase_if(parts, [](const std::vector<int>& p) { return p.empty(); });
}

}  // namespace

Partitioning partition_dagp(const dag::CircuitDag& dag,
                            const PartitionOptions& opt) {
  Partitioning out;
  out.limit = opt.limit;
  out.part_of.assign(dag.num_gates(), -1);
  if (dag.num_gates() == 0) return out;

  const WorkGraph g = build_contracted(dag, opt.coarsen);
  const QubitMasks masks(g, dag.num_qubits());

  std::vector<int> all(g.size());
  std::iota(all.begin(), all.end(), 0);
  Rng rng(opt.seed);
  std::vector<std::vector<int>> node_parts;
  recurse(g, masks, all, dag.num_qubits(), opt, rng, node_parts);
  if (opt.merge) {
    merge_phase(g, masks, opt.limit, node_parts);
    eliminate_parts(g, opt.limit, dag.num_qubits(), node_parts);
  }

  // Initial-partitioning portfolio: greedy segmentations of candidate
  // topological orders of the coarse graph; keep whichever construction
  // yields fewer parts (the bisection tree wins on structured circuits,
  // segmentation on dense ones whose working sets approach the limit).
  {
    const unsigned candidates = 2 * std::max(2u, opt.bisect_candidates) + 1;
    for (unsigned cand = 0; cand < candidates; ++cand) {
      std::vector<int> order;
      if (cand == 0) {
        order = kahn_order(g, all, [&](const std::vector<int>& ready) {
          std::size_t bi = 0;
          for (std::size_t i = 1; i < ready.size(); ++i)
            if (g.members[ready[i]][0] < g.members[ready[bi]][0]) bi = i;
          return bi;
        });
      } else if (cand % 2 == 1) {
        order = dfs_order(g, all, rng);
      } else {
        order = kahn_order(g, all, [&](const std::vector<int>& ready) {
          return static_cast<std::size_t>(rng.below(ready.size()));
        });
      }
      auto seg = segment_nodes(masks, order, opt.limit);
      if (opt.merge) {
        merge_phase(g, masks, opt.limit, seg);
        eliminate_parts(g, opt.limit, dag.num_qubits(), seg);
      }
      if (seg.size() < node_parts.size()) node_parts = std::move(seg);
    }
  }

  // Renumber parts topologically (merge can disturb the recursion order).
  {
    const int k = static_cast<int>(node_parts.size());
    std::vector<int> pid(g.size(), -1);
    for (int p = 0; p < k; ++p)
      for (int v : node_parts[p]) pid[v] = p;
    dag::PartGraph pg;
    pg.num_parts = k;
    pg.succs.resize(k);
    pg.preds.resize(k);
    std::vector<std::set<int>> dedup(k);
    for (std::size_t v = 0; v < g.size(); ++v)
      for (int s : g.succs[v])
        if (pid[v] != pid[s]) dedup[pid[v]].insert(pid[s]);
    for (int p = 0; p < k; ++p)
      for (int s : dedup[p]) {
        pg.succs[p].push_back(s);
        pg.preds[s].push_back(p);
      }
    const std::vector<int> order = pg.topological_order();
    std::vector<std::vector<int>> sorted(node_parts.size());
    for (int i = 0; i < k; ++i) sorted[i] = std::move(node_parts[order[i]]);
    node_parts = std::move(sorted);
  }

  for (const auto& ns : node_parts) {
    Part part;
    for (int v : ns)
      part.gates.insert(part.gates.end(), g.members[v].begin(),
                        g.members[v].end());
    std::sort(part.gates.begin(), part.gates.end());
    const Mask qs = masks.of(ns);
    for (std::size_t i = 0; i < qs.size(); ++i)
      for (std::uint64_t w = qs[i]; w != 0; w &= w - 1)
        part.qubits.push_back(static_cast<Qubit>(
            64 * i + static_cast<unsigned>(std::countr_zero(w))));
    out.parts.push_back(std::move(part));
  }
  for (std::size_t p = 0; p < out.parts.size(); ++p)
    for (std::size_t gi : out.parts[p].gates)
      out.part_of[gi] = static_cast<int>(p);
  return out;
}

}  // namespace hisim::partition
