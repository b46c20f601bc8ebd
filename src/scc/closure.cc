#include "scc/closure.h"

#include <algorithm>

namespace soi {

void MergeComponentMemberRuns(const Condensation& cond,
                              std::span<const uint32_t> comps,
                              RunMergeScratch* scratch,
                              std::vector<NodeId>* out) {
  const size_t k = comps.size();
  if (k == 0) return;
  if (k == 1) {
    const auto m = cond.ComponentMembers(comps[0]);
    out->insert(out->end(), m.begin(), m.end());
    return;
  }
  if (k == 2) {
    const auto a = cond.ComponentMembers(comps[0]);
    const auto b = cond.ComponentMembers(comps[1]);
    const size_t base = out->size();
    out->resize(base + a.size() + b.size());
    std::merge(a.begin(), a.end(), b.begin(), b.end(), out->begin() + base);
    return;
  }
  // k >= 3: concatenate the runs, then pairwise ping-pong merges; the final
  // two runs merge straight into *out. Runs are disjoint (components
  // partition the nodes), so this is a plain merge, no dedup.
  std::vector<NodeId>& a = scratch->a;
  std::vector<NodeId>& b = scratch->b;
  std::vector<size_t>& ab = scratch->bounds_a;
  std::vector<size_t>& bb = scratch->bounds_b;
  a.clear();
  ab.clear();
  ab.push_back(0);
  for (uint32_t c : comps) {
    const auto m = cond.ComponentMembers(c);
    a.insert(a.end(), m.begin(), m.end());
    ab.push_back(a.size());
  }
  while (ab.size() - 1 > 2) {
    b.resize(a.size());
    bb.clear();
    bb.push_back(0);
    size_t w = 0;
    for (size_t r = 0; r + 1 < ab.size(); r += 2) {
      if (r + 2 < ab.size()) {
        std::merge(a.begin() + ab[r], a.begin() + ab[r + 1],
                   a.begin() + ab[r + 1], a.begin() + ab[r + 2],
                   b.begin() + w);
        w += ab[r + 2] - ab[r];
      } else {  // odd run out: carry over
        std::copy(a.begin() + ab[r], a.begin() + ab[r + 1], b.begin() + w);
        w += ab[r + 1] - ab[r];
      }
      bb.push_back(w);
    }
    a.swap(b);
    ab.swap(bb);
  }
  const size_t base = out->size();
  out->resize(base + a.size());
  std::merge(a.begin(), a.begin() + ab[1], a.begin() + ab[1], a.end(),
             out->begin() + base);
}

ReachabilityClosure BuildReachabilityClosure(const Condensation& cond,
                                             uint64_t max_total_nodes) {
  const uint32_t nc = cond.num_components();
  ReachabilityClosure out;
  out.comp_offsets.reserve(nc + 1);
  out.comp_offsets.push_back(0);
  out.node_offsets.reserve(nc + 1);
  out.node_offsets.push_back(0);

  // Each component gets its own stamp id (c + 1), so one zero-initialized
  // array dedupes every union without resets; ids never wrap because
  // nc < 2^32.
  std::vector<uint32_t> stamp(nc, 0);
  std::vector<uint32_t> extras;
  std::vector<NodeId> extra_nodes;
  RunMergeScratch scratch;
  for (uint32_t c = 0; c < nc; ++c) {
    const auto succ = cond.DagSuccessors(c);
    if (succ.empty()) {
      const auto members = cond.ComponentMembers(c);
      if (out.nodes.size() + members.size() > max_total_nodes) {
        return ReachabilityClosure{};
      }
      out.comps.push_back(c);
      out.comp_offsets.push_back(out.comps.size());
      out.nodes.insert(out.nodes.end(), members.begin(), members.end());
      out.node_offsets.push_back(out.nodes.size());
      continue;
    }

    // Successors have smaller ids (reverse-topological order), so their
    // runs are final. Reuse the child b with the longest cascade run whole;
    // only the "extras" — components reached through the other children
    // but not through b — still need gathering, sorting and merging.
    uint32_t b = succ[0];
    for (uint32_t s : succ) {
      if (out.NodeCount(s) > out.NodeCount(b)) b = s;
    }
    extras.clear();
    uint64_t extra_count = cond.ComponentSize(c);
    if (succ.size() > 1) {
      const uint32_t id = c + 1;
      for (uint32_t x : out.Closure(b)) stamp[x] = id;
      for (uint32_t s : succ) {
        // The stamped set is a union of closures, hence closed under
        // reachability: a stamped child adds nothing.
        if (stamp[s] == id) continue;
        for (uint32_t x : out.Closure(s)) {
          if (stamp[x] != id) {
            stamp[x] = id;
            extras.push_back(x);
            extra_count += cond.ComponentSize(x);
          }
        }
      }
      std::sort(extras.begin(), extras.end());
    }
    extras.push_back(c);  // c exceeds every id it reaches
    if (out.nodes.size() + out.NodeCount(b) + extra_count > max_total_nodes) {
      return ReachabilityClosure{};
    }

    // comps(c) = merge(closure(b), extras). Resize first: the input range
    // lives in the same vector, ahead of the output.
    const uint64_t cb = out.comp_offsets[b];
    const uint64_t ce = out.comp_offsets[b + 1];
    const size_t comps_base = out.comps.size();
    out.comps.resize(comps_base + (ce - cb) + extras.size());
    std::merge(out.comps.begin() + cb, out.comps.begin() + ce, extras.begin(),
               extras.end(), out.comps.begin() + comps_base);
    out.comp_offsets.push_back(out.comps.size());

    // nodes(c) = merge(cascade(b), members of the extras). Materialized once;
    // every query on this component is a span into it from here on.
    std::span<const NodeId> extra_run = cond.ComponentMembers(c);
    if (extras.size() > 1) {
      extra_nodes.clear();
      MergeComponentMemberRuns(cond, extras, &scratch, &extra_nodes);
      extra_run = extra_nodes;
    }
    const uint64_t nb = out.node_offsets[b];
    const uint64_t ne = out.node_offsets[b + 1];
    const size_t nodes_base = out.nodes.size();
    out.nodes.resize(nodes_base + (ne - nb) + extra_run.size());
    std::merge(out.nodes.begin() + nb, out.nodes.begin() + ne,
               extra_run.begin(), extra_run.end(),
               out.nodes.begin() + nodes_base);
    out.node_offsets.push_back(out.nodes.size());
  }
  // A closure is long-lived serving state: drop the growth slack (up to
  // half of each run array). Dynamic updates re-derive closures again and
  // again, so this also keeps the heap from ratcheting up.
  out.comps.shrink_to_fit();
  out.nodes.shrink_to_fit();
  return out;
}

}  // namespace soi
