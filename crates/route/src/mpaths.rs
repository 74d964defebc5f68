//! M-shortest-path enumeration (paper §4.2.1).
//!
//! For two-pin nets the paper uses Lawler's algorithm for the M shortest
//! paths between two vertices; we implement the equivalent deviation
//! scheme (Yen's algorithm) over the channel graph, generalized to
//! multiple sources (the already-connected tree) and multiple targets
//! (electrically-equivalent pins) via virtual terminals.
//!
//! The searches run on the channel graph's own adjacency with the two
//! virtual terminals overlaid (source `n` linked to the sources, target
//! `n + 1` linked from the targets, all at zero length), in scratch
//! arrays that are reused across searches and cleared by stamping.
//! Every search settles nodes in `(dist, node)` order and records a
//! node's predecessor only on a strict improvement, so the path found is
//! a function of the graph, the bans and the terminals alone.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::ChannelGraph;

/// A simple path through the channel graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    /// Node sequence (first is a source, last is a target).
    pub nodes: Vec<usize>,
    /// Total length.
    pub length: i64,
}

/// Multi-source Dijkstra over the channel graph; returns per-node
/// distance (`i64::MAX` when unreachable).
pub fn dijkstra(graph: &ChannelGraph, sources: &[usize]) -> Vec<i64> {
    let mut dist = vec![i64::MAX; graph.len()];
    let mut heap = BinaryHeap::new();
    for &s in sources {
        dist[s] = 0;
        heap.push(Reverse((0i64, s)));
    }
    while let Some(Reverse((d, n))) = heap.pop() {
        if d > dist[n] {
            continue;
        }
        for &(m, e) in graph.neighbors(n) {
            let nd = d + graph.edges[e].length;
            if nd < dist[m] {
                dist[m] = nd;
                heap.push(Reverse((nd, m)));
            }
        }
    }
    dist
}

/// A path of the overlay graph (virtual source first, virtual target
/// last) with its length.
type OverlayPath = (Vec<usize>, i64);

/// Starts a new stamp generation: every mark of the previous one reads
/// as unset.
fn next_stamp(stamp: &mut u32, marks: &mut [u32]) {
    if *stamp == u32::MAX {
        marks.fill(0);
        *stamp = 0;
    }
    *stamp += 1;
}

/// Scratch state for the shortest-path searches of one routing pass.
pub(crate) struct PathSearch<'g> {
    graph: &'g ChannelGraph,
    /// Successors of the virtual source.
    sources: Vec<usize>,
    /// `dist[v]`/`prev[v]` hold for this search while `seen[v] == search`.
    dist: Vec<i64>,
    prev: Vec<usize>,
    seen: Vec<u32>,
    search: u32,
    /// Node `v` may not be entered while `banned[v] == ban`.
    banned: Vec<u32>,
    ban: u32,
    /// Node `v` links to the virtual target while `target[v] == targets`.
    target: Vec<u32>,
    targets: u32,
    heap: BinaryHeap<Reverse<(i64, usize)>>,
    /// Shortest-path searches run.
    pub(crate) searches: u64,
    /// Partial route trees built and scored.
    pub(crate) beam_states: u64,
}

impl<'g> PathSearch<'g> {
    pub(crate) fn new(graph: &'g ChannelGraph) -> PathSearch<'g> {
        let n = graph.len() + 2;
        PathSearch {
            graph,
            sources: Vec::new(),
            dist: vec![i64::MAX; n],
            prev: vec![usize::MAX; n],
            seen: vec![0; n],
            search: 0,
            banned: vec![0; n],
            ban: 0,
            target: vec![0; n],
            targets: 0,
            heap: BinaryHeap::new(),
            searches: 0,
            beam_states: 0,
        }
    }

    pub(crate) fn graph(&self) -> &'g ChannelGraph {
        self.graph
    }

    fn virtual_source(&self) -> usize {
        self.graph.len()
    }

    fn virtual_target(&self) -> usize {
        self.graph.len() + 1
    }

    fn set_sources(&mut self, sources: &[usize]) {
        self.sources.clear();
        self.sources.extend_from_slice(sources);
    }

    fn set_targets<'a>(&mut self, targets: impl IntoIterator<Item = &'a usize>) {
        next_stamp(&mut self.targets, &mut self.target);
        for &t in targets {
            self.target[t] = self.targets;
        }
    }

    fn set_banned(&mut self, nodes: &[usize]) {
        next_stamp(&mut self.ban, &mut self.banned);
        for &v in nodes {
            self.banned[v] = self.ban;
        }
    }

    fn dist(&self, v: usize) -> i64 {
        if self.seen[v] == self.search {
            self.dist[v]
        } else {
            i64::MAX
        }
    }

    fn relax(&mut self, u: usize, v: usize, nd: i64) {
        if self.banned[v] != self.ban && nd < self.dist(v) {
            self.seen[v] = self.search;
            self.dist[v] = nd;
            self.prev[v] = u;
            self.heap.push(Reverse((nd, v)));
        }
    }

    /// Shortest path from `s` to the virtual target; returns its length,
    /// with the path left in `prev`. Banned nodes are never entered, the
    /// successors in `skip` are not taken out of `s`, and relaxations
    /// longer than `bound` are dropped.
    fn shortest(&mut self, s: usize, skip: &[usize], bound: i64) -> Option<i64> {
        self.searches += 1;
        next_stamp(&mut self.search, &mut self.seen);
        self.heap.clear();
        self.seen[s] = self.search;
        self.dist[s] = 0;
        self.prev[s] = usize::MAX;
        self.heap.push(Reverse((0, s)));
        let graph = self.graph;
        let (vs, vt) = (self.virtual_source(), self.virtual_target());
        while let Some(Reverse((d, u))) = self.heap.pop() {
            if d > self.dist[u] {
                continue;
            }
            if u == vt {
                return Some(d);
            }
            let skip = if u == s { skip } else { &[] };
            if u == vs {
                for i in 0..self.sources.len() {
                    let v = self.sources[i];
                    if !skip.contains(&v) && d <= bound {
                        self.relax(u, v, d);
                    }
                }
                continue;
            }
            for &(v, e) in graph.neighbors(u) {
                let nd = d + graph.edges[e].length;
                if nd <= bound && !skip.contains(&v) {
                    self.relax(u, v, nd);
                }
            }
            if self.target[u] == self.targets && d <= bound && !skip.contains(&vt) {
                self.relax(u, vt, d);
            }
        }
        None
    }

    /// The overlay path from the last search's start to `v`, followed by
    /// the virtual target when `v` is a real node.
    fn path_to(&self, start: usize, v: usize) -> Vec<usize> {
        let mut nodes = vec![v];
        let mut cur = v;
        while cur != start {
            cur = self.prev[cur];
            nodes.push(cur);
        }
        nodes.reverse();
        if v != self.virtual_target() {
            nodes.push(self.virtual_target());
        }
        nodes
    }

    /// Length of the overlay edge `u → v`.
    fn edge_length(&self, u: usize, v: usize) -> i64 {
        if u == self.virtual_source() || v == self.virtual_target() {
            return 0;
        }
        self.graph
            .neighbors(u)
            .iter()
            .find(|&&(m, _)| m == v)
            .map(|&(_, e)| self.graph.edges[e].length)
            .expect("paths follow graph edges")
    }

    /// The Prim step of route-tree enumeration fused with Yen's first
    /// search. From the tree `sources`, settles nodes until every node at
    /// the nearest candidate distance `D` of any point in `rest` is
    /// settled, and picks the first point in `rest` order with a
    /// candidate at `D`. Returns that point's position in `rest` and the
    /// shortest path to its lowest-numbered candidate at `D` — exactly
    /// the path Yen's first search to that point would find, since both
    /// searches settle the same nodes in the same order. With no
    /// candidate reachable, returns position 0 and no path; otherwise
    /// leaves the chosen point's candidates as the targets.
    pub(crate) fn prim_step(
        &mut self,
        sources: &[usize],
        points: &[Vec<usize>],
        rest: &[usize],
    ) -> (usize, Option<OverlayPath>) {
        self.set_sources(sources);
        self.set_targets(rest.iter().flat_map(|&pi| &points[pi]));
        self.set_banned(&[]);
        // The virtual target is relaxed from the nearest candidate and,
        // being the highest-numbered node, settles after every node at
        // its distance.
        let vs = self.virtual_source();
        let Some(d) = self.shortest(vs, &[], i64::MAX) else {
            return (0, None);
        };
        let pos = rest
            .iter()
            .position(|&pi| points[pi].iter().any(|&c| self.dist(c) == d))
            .expect("the nearest candidate belongs to a point in rest");
        let candidates = &points[rest[pos]];
        let t = candidates
            .iter()
            .copied()
            .filter(|&c| self.dist(c) == d)
            .min()
            .expect("the chosen point has a candidate at the nearest distance");
        let path = self.path_to(vs, t);
        self.set_targets(candidates);
        (pos, Some((path, d)))
    }

    /// Up to `k` shortest paths from the sources to the targets, given
    /// Yen's first (shortest) path; `k_shortest_from_set`'s result.
    pub(crate) fn paths_from(
        &mut self,
        first: Option<OverlayPath>,
        sources: &[usize],
        targets: &[usize],
        k: usize,
    ) -> Vec<Path> {
        let mut out = Vec::new();
        if targets.is_empty() || k == 0 {
            return out;
        }
        let mut k = k;
        // A target already among the sources connects at no cost; Yen's
        // first path is then that trivial one, and it is dropped below.
        if let Some(&t) = targets.iter().find(|t| sources.contains(t)) {
            out.push(Path {
                nodes: vec![t],
                length: 0,
            });
            k -= 1;
        }
        let Some(first) = first else {
            return out;
        };
        let mut found = vec![first];
        self.yen(&mut found, k);
        out.extend(
            found
                .into_iter()
                .map(|(nodes, length)| Path {
                    nodes: nodes[1..nodes.len() - 1].to_vec(),
                    length,
                })
                .filter(|p| p.nodes.len() > 1),
        );
        out
    }

    /// Yen's deviation algorithm, continued from the first path in
    /// `found` until it holds `k` paths or no candidate is left.
    ///
    /// Every edge banned at a spur leaves the spur itself (all found
    /// paths sharing the root share its last node), so the bans are a
    /// short list of the spur's successors. Each spur search is bounded
    /// by `L`, the length of the `need`-th shortest queued candidate
    /// (`need = k - found.len()`; candidates are distinct and none is
    /// found yet): a path longer than `L` would queue behind `need`
    /// shorter ones and could never be popped before the call ends.
    fn yen(&mut self, found: &mut Vec<OverlayPath>, k: usize) {
        // Sorted by (length, nodes): the pop order of a min-heap.
        let mut candidates: Vec<(i64, Vec<usize>)> = Vec::new();
        let mut skip = Vec::new();
        let mut root_len = Vec::new();
        let vt = self.virtual_target();
        while found.len() < k {
            let need = k - found.len();
            let last = found.last().expect("nonempty").0.clone();
            root_len.clear();
            root_len.push(0);
            for w in last.windows(2) {
                let l = root_len.last().copied().unwrap_or(0) + self.edge_length(w[0], w[1]);
                root_len.push(l);
            }
            for spur_idx in 0..last.len() - 1 {
                let spur = last[spur_idx];
                let root = &last[..=spur_idx];
                skip.clear();
                skip.extend(
                    found
                        .iter()
                        .filter(|(p, _)| p.len() > spur_idx && p[..=spur_idx] == *root)
                        .map(|(p, _)| p[spur_idx + 1]),
                );
                self.set_banned(&root[..spur_idx]);
                let bound = candidates
                    .get(need - 1)
                    .map_or(i64::MAX, |(l, _)| l - root_len[spur_idx]);
                let Some(tail_len) = self.shortest(spur, &skip, bound) else {
                    continue;
                };
                let mut nodes = root[..spur_idx].to_vec();
                nodes.extend(self.path_to(spur, vt));
                let candidate = (root_len[spur_idx] + tail_len, nodes);
                if found.iter().any(|(p, _)| *p == candidate.1) {
                    continue;
                }
                if let Err(at) = candidates.binary_search(&candidate) {
                    candidates.insert(at, candidate);
                }
            }
            if candidates.is_empty() {
                break;
            }
            let (length, nodes) = candidates.remove(0);
            found.push((nodes, length));
        }
    }
}

/// The `k` shortest simple paths between two channel-graph nodes, sorted
/// by length (Lawler/Yen).
pub fn k_shortest_paths(graph: &ChannelGraph, s: usize, t: usize, k: usize) -> Vec<Path> {
    k_shortest_from_set(graph, &[s], &[t], k)
}

/// The `k` shortest simple paths from any of `sources` to any of
/// `targets` (used to connect the next pin group to the growing tree;
/// `targets` holds electrically-equivalent alternatives).
///
/// When a target is already a source, the first path is that target
/// alone at length 0, followed by at most `k - 2` longer ones.
pub fn k_shortest_from_set(
    graph: &ChannelGraph,
    sources: &[usize],
    targets: &[usize],
    k: usize,
) -> Vec<Path> {
    if graph.is_empty() || sources.is_empty() || targets.is_empty() || k == 0 {
        return Vec::new();
    }
    let mut search = PathSearch::new(graph);
    search.set_sources(sources);
    search.set_targets(targets);
    search.set_banned(&[]);
    let vs = search.virtual_source();
    let first = search
        .shortest(vs, &[], i64::MAX)
        .map(|d| (search.path_to(vs, search.virtual_target()), d));
    search.paths_from(first, sources, targets, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_channel_graph, PlacedGeometry};
    use twmc_geom::{Point, Rect, TileSet};

    /// A 3x3 grid of cells: a rich channel network with many alternative
    /// routes.
    fn grid_graph() -> ChannelGraph {
        let mut cells = Vec::new();
        for gy in 0..3 {
            for gx in 0..3 {
                cells.push((
                    TileSet::rect(10, 10),
                    Point::new(gx * 20 - 25, gy * 20 - 25),
                ));
            }
        }
        build_channel_graph(
            &PlacedGeometry {
                cells,
                core: Rect::from_wh(-30, -30, 60, 60),
            },
            2.0,
        )
    }

    #[test]
    fn dijkstra_distances_are_consistent() {
        let g = grid_graph();
        let d = dijkstra(&g, &[0]);
        assert_eq!(d[0], 0);
        // Triangle inequality along every edge.
        for e in &g.edges {
            if d[e.a] < i64::MAX && d[e.b] < i64::MAX {
                assert!(d[e.b] <= d[e.a] + e.length);
                assert!(d[e.a] <= d[e.b] + e.length);
            }
        }
    }

    #[test]
    fn k_paths_sorted_and_simple() {
        let g = grid_graph();
        let (s, t) = (0, g.len() - 1);
        let paths = k_shortest_paths(&g, s, t, 8);
        assert!(!paths.is_empty());
        for pair in paths.windows(2) {
            assert!(pair[0].length <= pair[1].length, "not sorted");
        }
        for p in &paths {
            // Simple: no repeated nodes.
            let mut seen = std::collections::HashSet::new();
            assert!(p.nodes.iter().all(|&n| seen.insert(n)), "cycle in path");
            assert_eq!(*p.nodes.first().expect("nonempty"), s);
            assert_eq!(*p.nodes.last().expect("nonempty"), t);
            // Consecutive nodes are adjacent and lengths add up.
            let mut len = 0;
            for w in p.nodes.windows(2) {
                let e = g.edge_between(w[0], w[1]).expect("adjacent");
                len += g.edges[e].length;
            }
            assert_eq!(len, p.length);
        }
        // All distinct.
        let set: std::collections::HashSet<&Vec<usize>> = paths.iter().map(|p| &p.nodes).collect();
        assert_eq!(set.len(), paths.len());
    }

    #[test]
    fn first_path_matches_dijkstra() {
        let g = grid_graph();
        let (s, t) = (1, g.len() - 2);
        let d = dijkstra(&g, &[s]);
        let paths = k_shortest_paths(&g, s, t, 3);
        assert_eq!(paths[0].length, d[t]);
    }

    #[test]
    fn multi_source_reaches_nearest() {
        let g = grid_graph();
        let sources = [0, 1, 2];
        let t = g.len() - 1;
        let paths = k_shortest_from_set(&g, &sources, &[t], 4);
        assert!(!paths.is_empty());
        // Starts at one of the sources.
        assert!(sources.contains(paths[0].nodes.first().expect("nonempty")));
        // Not longer than any single-source shortest.
        let best_single = sources
            .iter()
            .map(|&s| dijkstra(&g, &[s])[t])
            .min()
            .expect("nonempty");
        assert_eq!(paths[0].length, best_single);
    }

    #[test]
    fn equivalent_targets_pick_closer() {
        let g = grid_graph();
        let s = 0;
        let d = dijkstra(&g, &[s]);
        // Choose two targets with different distances.
        let mut far = 0;
        let mut near = 0;
        for i in 0..g.len() {
            if d[i] > d[far] {
                far = i;
            }
        }
        for i in 0..g.len() {
            if d[i] > 0 && d[i] < d[near] || d[near] == 0 {
                near = i;
            }
        }
        let paths = k_shortest_from_set(&g, &[s], &[near, far], 2);
        assert_eq!(paths[0].length, d[near].min(d[far]));
    }

    #[test]
    fn target_in_source_set_is_zero_length() {
        let g = grid_graph();
        let paths = k_shortest_from_set(&g, &[3, 4], &[4], 3);
        assert_eq!(paths[0].length, 0);
        assert_eq!(paths[0].nodes, vec![4]);
    }

    #[test]
    fn k_larger_than_path_count_saturates() {
        // A hand-built chain of three touching regions has exactly one
        // simple path end to end; asking for 50 must return just it.
        use crate::{ChannelGraph, ChannelKind, CriticalRegion, EdgeRef};
        use twmc_geom::{Side, Span};
        let strip = |x0: i64| CriticalRegion {
            rect: Rect::from_wh(x0, 0, 2, 10),
            kind: ChannelKind::Vertical,
            lo_edge: EdgeRef {
                cell: None,
                side: Side::Right,
                coord: x0,
                span: Span::new(0, 10),
            },
            hi_edge: EdgeRef {
                cell: None,
                side: Side::Left,
                coord: x0 + 2,
                span: Span::new(0, 10),
            },
        };
        let g = ChannelGraph::build(vec![strip(0), strip(2), strip(4)], 2.0);
        assert_eq!(g.len(), 3);
        let paths = k_shortest_paths(&g, 0, 2, 50);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].nodes, vec![0, 1, 2]);
    }
}
