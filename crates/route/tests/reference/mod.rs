//! The reference phase-1 enumerator: the straightforward implementation
//! the library's allocation-free one must reproduce exactly.
//!
//! Every Yen call builds its own augmented adjacency (virtual source `n`
//! linked to the sources, virtual target `n + 1` linked from the
//! targets); every spur search allocates fresh `dist`/`prev`/ban vectors
//! and a `HashSet` of banned edges and runs to its target; every Prim
//! step runs a full multi-source Dijkstra; partial trees are `BTreeSet`s.
//! Slow, but each step is the textbook one, so it serves as the oracle
//! for `enumerate_route_trees` and `k_shortest_from_set`.

#![allow(dead_code)]

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashSet};

use twmc_route::{dijkstra, ChannelGraph, Path, RouteTree};

/// Plain adjacency with virtual terminals appended.
struct AugGraph {
    adj: Vec<Vec<(usize, i64)>>,
}

impl AugGraph {
    fn new(graph: &ChannelGraph, sources: &[usize], targets: &[usize]) -> AugGraph {
        let n = graph.len();
        let mut adj = vec![Vec::new(); n + 2];
        for (i, row) in adj.iter_mut().enumerate().take(n) {
            for &(m, e) in graph.neighbors(i) {
                row.push((m, graph.edges[e].length));
            }
        }
        for &s in sources {
            adj[n].push((s, 0));
        }
        for &t in targets {
            adj[t].push((n + 1, 0));
        }
        AugGraph { adj }
    }

    fn shortest(
        &self,
        s: usize,
        t: usize,
        banned_nodes: &[bool],
        banned_edges: &HashSet<(usize, usize)>,
    ) -> Option<(Vec<usize>, i64)> {
        let n = self.adj.len();
        let mut dist = vec![i64::MAX; n];
        let mut prev = vec![usize::MAX; n];
        let mut heap = BinaryHeap::new();
        if banned_nodes[s] {
            return None;
        }
        dist[s] = 0;
        heap.push(Reverse((0i64, s)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            if u == t {
                break;
            }
            for &(v, len) in &self.adj[u] {
                if banned_nodes[v] || banned_edges.contains(&(u, v)) {
                    continue;
                }
                let nd = d + len;
                if nd < dist[v] {
                    dist[v] = nd;
                    prev[v] = u;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        if dist[t] == i64::MAX {
            return None;
        }
        let mut nodes = vec![t];
        let mut cur = t;
        while cur != s {
            cur = prev[cur];
            nodes.push(cur);
        }
        nodes.reverse();
        Some((nodes, dist[t]))
    }
}

fn yen(aug: &AugGraph, s: usize, t: usize, k: usize) -> Vec<(Vec<usize>, i64)> {
    let n = aug.adj.len();
    let mut found: Vec<(Vec<usize>, i64)> = Vec::new();
    let mut candidates: BinaryHeap<Reverse<(i64, Vec<usize>)>> = BinaryHeap::new();
    let no_nodes = vec![false; n];
    let no_edges = HashSet::new();

    let Some(first) = aug.shortest(s, t, &no_nodes, &no_edges) else {
        return found;
    };
    found.push(first);

    while found.len() < k {
        let (last_path, _) = found.last().expect("nonempty").clone();
        for spur_idx in 0..last_path.len() - 1 {
            let spur = last_path[spur_idx];
            let root = &last_path[..=spur_idx];
            let root_len: i64 = root
                .windows(2)
                .map(|w| {
                    aug.adj[w[0]]
                        .iter()
                        .find(|&&(v, _)| v == w[1])
                        .map(|&(_, l)| l)
                        .expect("root follows existing edges")
                })
                .sum();
            let mut banned_edges = HashSet::new();
            for (p, _) in &found {
                if p.len() > spur_idx && p[..=spur_idx] == *root {
                    banned_edges.insert((p[spur_idx], p[spur_idx + 1]));
                }
            }
            let mut banned_nodes = vec![false; n];
            for &r in &root[..spur_idx] {
                banned_nodes[r] = true;
            }
            if let Some((tail, tail_len)) = aug.shortest(spur, t, &banned_nodes, &banned_edges) {
                let mut nodes = root[..spur_idx].to_vec();
                nodes.extend(tail);
                candidates.push(Reverse((root_len + tail_len, nodes)));
            }
        }
        let mut next = None;
        while let Some(Reverse((len, nodes))) = candidates.pop() {
            if !found.iter().any(|(p, _)| *p == nodes) {
                next = Some((nodes, len));
                break;
            }
        }
        match next {
            Some(p) => found.push(p),
            None => break,
        }
    }
    found
}

fn k_shortest_nontrivial(
    graph: &ChannelGraph,
    sources: &[usize],
    targets: &[usize],
    k: usize,
) -> Vec<Path> {
    let n = graph.len();
    let aug = AugGraph::new(graph, sources, targets);
    yen(&aug, n, n + 1, k)
        .into_iter()
        .map(|(nodes, length)| Path {
            nodes: nodes[1..nodes.len() - 1].to_vec(),
            length,
        })
        .collect()
}

/// Reference `k_shortest_from_set`.
pub fn k_shortest_from_set(
    graph: &ChannelGraph,
    sources: &[usize],
    targets: &[usize],
    k: usize,
) -> Vec<Path> {
    if graph.is_empty() || sources.is_empty() || targets.is_empty() || k == 0 {
        return Vec::new();
    }
    if let Some(&t) = targets.iter().find(|t| sources.contains(t)) {
        let mut out = vec![Path {
            nodes: vec![t],
            length: 0,
        }];
        out.extend(
            k_shortest_nontrivial(graph, sources, targets, k - 1)
                .into_iter()
                .filter(|p| p.nodes.len() > 1),
        );
        return out;
    }
    k_shortest_nontrivial(graph, sources, targets, k)
}

#[derive(Debug, Clone)]
struct PartialTree {
    nodes: BTreeSet<usize>,
    edges: BTreeSet<(usize, usize)>,
    length: i64,
}

impl PartialTree {
    fn absorb_path(&self, graph: &ChannelGraph, path: &[usize]) -> PartialTree {
        let mut out = self.clone();
        for w in path.windows(2) {
            let key = (w[0].min(w[1]), w[0].max(w[1]));
            if out.edges.insert(key) {
                let e = graph
                    .edge_between(w[0], w[1])
                    .expect("paths follow graph edges");
                out.length += graph.edges[e].length;
            }
        }
        for &n in path {
            out.nodes.insert(n);
        }
        out
    }

    fn into_route(self) -> RouteTree {
        RouteTree {
            nodes: self.nodes.into_iter().collect(),
            edges: self.edges.into_iter().collect(),
            length: self.length,
        }
    }
}

/// Reference `enumerate_route_trees`.
pub fn enumerate_route_trees(
    graph: &ChannelGraph,
    points: &[Vec<usize>],
    m: usize,
    per_level: usize,
) -> Vec<RouteTree> {
    if graph.is_empty() || points.is_empty() || m == 0 {
        return Vec::new();
    }
    let beam_width = m.max(per_level * per_level).min(64);

    let mut beam: Vec<(PartialTree, Vec<usize>)> = points[0]
        .iter()
        .map(|&n| {
            let mut nodes = BTreeSet::new();
            nodes.insert(n);
            (
                PartialTree {
                    nodes,
                    edges: BTreeSet::new(),
                    length: 0,
                },
                (1..points.len()).collect::<Vec<usize>>(),
            )
        })
        .collect();

    while beam.iter().any(|(_, rest)| !rest.is_empty()) {
        let mut next_beam: Vec<(PartialTree, Vec<usize>)> = Vec::new();
        for (tree, rest) in &beam {
            if rest.is_empty() {
                next_beam.push((tree.clone(), rest.clone()));
                continue;
            }
            let sources: Vec<usize> = tree.nodes.iter().copied().collect();
            let dist = dijkstra(graph, &sources);
            let (pos, _) = rest
                .iter()
                .enumerate()
                .map(|(k, &pi)| {
                    let d = points[pi]
                        .iter()
                        .map(|&c| dist[c])
                        .min()
                        .unwrap_or(i64::MAX);
                    (k, d)
                })
                .min_by_key(|&(_, d)| d)
                .expect("rest nonempty");
            let point = rest[pos];
            let mut new_rest = rest.clone();
            new_rest.remove(pos);

            let paths = k_shortest_from_set(graph, &sources, &points[point], per_level);
            for p in paths {
                next_beam.push((tree.absorb_path(graph, &p.nodes), new_rest.clone()));
            }
        }
        if next_beam.is_empty() {
            return Vec::new();
        }
        next_beam.sort_by_key(|(t, _)| t.length);
        type TreeKey = (BTreeSet<(usize, usize)>, BTreeSet<usize>);
        let mut seen: Vec<TreeKey> = Vec::new();
        next_beam.retain(|(t, _)| {
            let key = (t.edges.clone(), t.nodes.clone());
            if seen.contains(&key) {
                false
            } else {
                seen.push(key);
                true
            }
        });
        next_beam.truncate(beam_width);
        beam = next_beam;
    }

    let mut routes: Vec<RouteTree> = beam.into_iter().map(|(t, _)| t.into_route()).collect();
    routes.sort_by(|a, b| a.length.cmp(&b.length).then(a.edges.cmp(&b.edges)));
    routes.dedup_by(|a, b| a.edges == b.edges);
    routes.truncate(m);
    routes
}
