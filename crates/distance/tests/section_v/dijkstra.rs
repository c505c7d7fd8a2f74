//! Dijkstra over small weighted adjacency lists.
//!
//! The data graph itself is unweighted (BFS suffices), but the §V bridge
//! graph — whose edge weights are intra-partition shortest path lengths —
//! is weighted, so the partitioned index runs Dijkstra over it. The paper
//! names Dijkstra as its repair primitive throughout (§IV Algorithm 2,
//! §V Algorithms 4–5); this is that primitive.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gpnm_distance::{sat_add, INF};

/// Weighted adjacency over a compact `0..n` vertex space.
#[derive(Debug, Clone, Default)]
pub struct WeightedAdj {
    adj: Vec<Vec<(u32, u32)>>,
}

impl WeightedAdj {
    /// An empty graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        WeightedAdj {
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Add a directed edge `u -> v` of weight `w`. Parallel edges are
    /// permitted; Dijkstra takes the minimum anyway.
    pub fn add_edge(&mut self, u: usize, v: usize, w: u32) {
        self.adj[u].push((v as u32, w));
    }

    /// Neighbors of `u` as `(target, weight)`.
    pub fn neighbors(&self, u: usize) -> &[(u32, u32)] {
        &self.adj[u]
    }
}

/// Dijkstra from multiple seeds with given initial distances, used to relax
/// a source's partition-exit distances across the bridge graph. Returns a
/// distance vector with [`INF`] for unreachable vertices; out-of-range and
/// [`INF`] seeds are ignored.
pub fn dijkstra_multi(graph: &WeightedAdj, seeds: &[(usize, u32)]) -> Vec<u32> {
    let mut dist = vec![INF; graph.len()];
    let mut heap = BinaryHeap::new();
    for &(s, d0) in seeds {
        if s < graph.len() && d0 < dist[s] {
            dist[s] = d0;
            heap.push(Reverse((d0, s as u32)));
        }
    }
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        for &(v, w) in graph.neighbors(u as usize) {
            let nd = sat_add(d, w);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

mod tests {
    use super::*;

    /// Single-source shortest paths: one seed at distance 0.
    fn dijkstra(graph: &WeightedAdj, source: usize) -> Vec<u32> {
        dijkstra_multi(graph, &[(source, 0)])
    }

    fn diamond() -> WeightedAdj {
        // 0 -> 1 (1), 0 -> 2 (4), 1 -> 2 (1), 2 -> 3 (1), 1 -> 3 (5)
        let mut g = WeightedAdj::new(4);
        g.add_edge(0, 1, 1);
        g.add_edge(0, 2, 4);
        g.add_edge(1, 2, 1);
        g.add_edge(2, 3, 1);
        g.add_edge(1, 3, 5);
        g
    }

    #[test]
    fn shortest_paths_in_diamond() {
        let d = dijkstra(&diamond(), 0);
        assert_eq!(d, vec![0, 1, 2, 3]);
    }

    #[test]
    fn unreachable_is_inf() {
        let mut g = WeightedAdj::new(3);
        g.add_edge(0, 1, 2);
        let d = dijkstra(&g, 0);
        assert_eq!(d[2], INF);
        let d = dijkstra(&g, 2);
        assert_eq!(d, vec![INF, INF, 0]);
    }

    #[test]
    fn out_of_range_source_yields_all_inf() {
        let g = WeightedAdj::new(2);
        assert_eq!(dijkstra(&g, 9), vec![INF, INF]);
    }

    #[test]
    fn parallel_edges_take_minimum() {
        let mut g = WeightedAdj::new(2);
        g.add_edge(0, 1, 9);
        g.add_edge(0, 1, 2);
        assert_eq!(dijkstra(&g, 0)[1], 2);
    }

    #[test]
    fn multi_seed_relaxation() {
        let g = diamond();
        // Seeds: vertex 1 at 10, vertex 2 at 0.
        let d = dijkstra_multi(&g, &[(1, 10), (2, 0)]);
        assert_eq!(d[3], 1, "via vertex 2");
        assert_eq!(d[1], 10);
        assert_eq!(d[0], INF, "no seed reaches 0");
    }

    #[test]
    fn inf_seed_is_ignored() {
        let g = diamond();
        let d = dijkstra_multi(&g, &[(0, INF)]);
        assert!(d.iter().all(|&x| x == INF));
    }
}
