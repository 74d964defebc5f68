//! Route-tree enumeration for multi-pin nets (paper §4.2.1, Figs. 10–12).
//!
//! The paper generalizes Lawler's M-shortest-paths to n-pin nets: pins
//! are connected in Prim order (nearest unconnected pin group next), and
//! each time a pin group is added, the M shortest paths from the current
//! tree's nodes to the group's (electrically-equivalent) candidates are
//! generated; the recursion over path choices keeps the overall M best
//! complete route-trees. We bound the recursion with a beam over partial
//! trees (documented in DESIGN.md); for small per-level counts this
//! explores the same alternatives the paper's recursion stores.

use std::collections::HashSet;

use crate::mpaths::PathSearch;
use crate::ChannelGraph;

/// One complete route (a Steiner tree over channel-graph nodes) for a net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTree {
    /// Nodes used by the route (sorted, deduplicated).
    pub nodes: Vec<usize>,
    /// Edges used, as `(a, b)` with `a < b`, sorted.
    pub edges: Vec<(usize, usize)>,
    /// Total length: sum of used edge lengths (shared segments counted
    /// once — the Steiner objective).
    pub length: i64,
}

/// A tree under construction; `nodes` and `edges` are kept sorted.
#[derive(Debug, Clone)]
struct PartialTree {
    nodes: Vec<usize>,
    edges: Vec<(usize, usize)>,
    length: i64,
}

impl PartialTree {
    fn absorb_path(&self, graph: &ChannelGraph, path: &[usize]) -> PartialTree {
        let mut out = self.clone();
        for w in path.windows(2) {
            let key = (w[0].min(w[1]), w[0].max(w[1]));
            if let Err(at) = out.edges.binary_search(&key) {
                out.edges.insert(at, key);
                let e = graph
                    .edge_between(w[0], w[1])
                    .expect("paths follow graph edges");
                out.length += graph.edges[e].length;
            }
        }
        for &n in path {
            if let Err(at) = out.nodes.binary_search(&n) {
                out.nodes.insert(at, n);
            }
        }
        out
    }

    fn into_route(self) -> RouteTree {
        RouteTree {
            nodes: self.nodes,
            edges: self.edges,
            length: self.length,
        }
    }
}

/// Enumerates up to `m` alternative route-trees for a net whose
/// connection points are given as candidate node lists (one list per
/// point; alternatives within a list are electrically equivalent).
///
/// `per_level` is the number of alternative tree-to-pin paths explored at
/// each Prim step (the paper stores the M shortest at each level; small
/// values keep the enumeration sharp).
///
/// Returns trees sorted by length, deduplicated by edge set. Empty when
/// some point cannot be reached from the first.
pub fn enumerate_route_trees(
    graph: &ChannelGraph,
    points: &[Vec<usize>],
    m: usize,
    per_level: usize,
) -> Vec<RouteTree> {
    route_trees(&mut PathSearch::new(graph), points, m, per_level)
}

/// [`enumerate_route_trees`] on the scratch state of `search`, which
/// also counts the searches run and the partial trees scored.
pub(crate) fn route_trees(
    search: &mut PathSearch<'_>,
    points: &[Vec<usize>],
    m: usize,
    per_level: usize,
) -> Vec<RouteTree> {
    let graph = search.graph();
    if graph.is_empty() || points.is_empty() || m == 0 {
        return Vec::new();
    }
    let beam_width = m.max(per_level * per_level).min(64);

    // Start states: each candidate of the first connection point. Every
    // state connects one more point per step, so all finish together.
    let mut beam: Vec<(PartialTree, Vec<usize>)> = points[0]
        .iter()
        .map(|&n| {
            let tree = PartialTree {
                nodes: vec![n],
                edges: Vec::new(),
                length: 0,
            };
            (tree, (1..points.len()).collect())
        })
        .collect();

    for _ in 1..points.len() {
        let mut next_beam: Vec<(PartialTree, Vec<usize>)> = Vec::new();
        for (tree, rest) in &beam {
            // Prim: nearest unconnected point next.
            let (pos, first) = search.prim_step(&tree.nodes, points, rest);
            let point = rest[pos];
            let mut new_rest = rest.clone();
            new_rest.remove(pos);
            for p in search.paths_from(first, &tree.nodes, &points[point], per_level) {
                search.beam_states += 1;
                next_beam.push((tree.absorb_path(graph, &p.nodes), new_rest.clone()));
            }
        }
        if next_beam.is_empty() {
            // Some point is unreachable.
            return Vec::new();
        }
        // Keep the best `beam_width` states, deduplicated by edge and
        // node set (first occurrence wins).
        next_beam.sort_by_key(|(t, _)| t.length);
        let keep: Vec<bool> = {
            let mut seen = HashSet::new();
            next_beam
                .iter()
                .map(|(t, _)| seen.insert((t.edges.as_slice(), t.nodes.as_slice())))
                .collect()
        };
        let mut keep = keep.into_iter();
        next_beam.retain(|_| keep.next().unwrap_or(false));
        next_beam.truncate(beam_width);
        beam = next_beam;
    }

    let mut routes: Vec<RouteTree> = beam.into_iter().map(|(t, _)| t.into_route()).collect();
    routes.sort_by(|a, b| a.length.cmp(&b.length).then(a.edges.cmp(&b.edges)));
    routes.dedup_by(|a, b| a.edges == b.edges);
    routes.truncate(m);
    routes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_channel_graph, dijkstra, PlacedGeometry};
    use std::collections::BTreeSet;
    use twmc_geom::{Point, Rect, TileSet};

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
    fn two_pin_routes_match_k_shortest() {
        let g = grid_graph();
        let (s, t) = (0, g.len() - 1);
        let trees = enumerate_route_trees(&g, &[vec![s], vec![t]], 6, 6);
        let paths = crate::k_shortest_paths(&g, s, t, 6);
        assert_eq!(trees[0].length, paths[0].length);
        // Trees are sorted and distinct.
        for pair in trees.windows(2) {
            assert!(pair[0].length <= pair[1].length);
            assert_ne!(pair[0].edges, pair[1].edges);
        }
    }

    #[test]
    fn multi_pin_tree_connects_all_points() {
        let g = grid_graph();
        let n = g.len();
        let points = vec![vec![0], vec![n / 2], vec![n - 1], vec![n / 3]];
        let trees = enumerate_route_trees(&g, &points, 8, 3);
        assert!(!trees.is_empty());
        for t in &trees {
            // Every point's chosen candidate is in the tree.
            for p in &points {
                assert!(p.iter().any(|c| t.nodes.binary_search(c).is_ok()));
            }
            // The tree's edge set is connected over its nodes.
            let mut reach = BTreeSet::new();
            reach.insert(t.nodes[0]);
            let mut changed = true;
            while changed {
                changed = false;
                for &(a, b) in &t.edges {
                    if reach.contains(&a) != reach.contains(&b) {
                        reach.insert(a);
                        reach.insert(b);
                        changed = true;
                    }
                }
            }
            for &node in &t.nodes {
                assert!(reach.contains(&node), "disconnected tree");
            }
            // Length equals the sum of its edges.
            let len: i64 = t
                .edges
                .iter()
                .map(|&(a, b)| {
                    let e = g.edge_between(a, b).expect("edges exist");
                    g.edges[e].length
                })
                .sum();
            assert_eq!(len, t.length);
        }
    }

    #[test]
    fn steiner_shares_trunk() {
        // Tree length must be at most the sum of independent 2-pin paths
        // (sharing can only help).
        let g = grid_graph();
        let n = g.len();
        let points = vec![vec![0], vec![n - 1], vec![n / 2]];
        let trees = enumerate_route_trees(&g, &points, 4, 4);
        let d0 = dijkstra(&g, &[0]);
        let bound = d0[n - 1] + d0[n / 2];
        assert!(trees[0].length <= bound);
    }

    #[test]
    fn equivalent_pins_reduce_length() {
        let g = grid_graph();
        let n = g.len();
        let d = dijkstra(&g, &[0]);
        let mut far = 0;
        for i in 0..n {
            if d[i] > d[far] && d[i] < i64::MAX {
                far = i;
            }
        }
        // Route 0 -> {far} vs 0 -> {far or 0-adjacent node}.
        let near = g.neighbors(0).first().map(|&(m, _)| m).expect("grid");
        let strict = enumerate_route_trees(&g, &[vec![0], vec![far]], 1, 2);
        let relaxed = enumerate_route_trees(&g, &[vec![0], vec![far, near]], 1, 2);
        assert!(relaxed[0].length <= strict[0].length);
        assert!(relaxed[0].length <= d[near]);
    }

    #[test]
    fn single_point_is_trivial() {
        let g = grid_graph();
        let trees = enumerate_route_trees(&g, &[vec![3]], 4, 4);
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].length, 0);
        assert_eq!(trees[0].nodes, vec![3]);
    }

    #[test]
    fn alternatives_are_distinct_and_bounded() {
        let g = grid_graph();
        let n = g.len();
        let trees = enumerate_route_trees(&g, &[vec![0], vec![n - 1]], 20, 6);
        assert!(trees.len() <= 20);
        let set: std::collections::HashSet<&Vec<(usize, usize)>> =
            trees.iter().map(|t| &t.edges).collect();
        assert_eq!(set.len(), trees.len());
    }
}
