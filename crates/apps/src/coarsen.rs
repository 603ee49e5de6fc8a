//! Quotient-graph coarsening with representative-edge tracking.
//!
//! Contracting each cluster of a decomposition to a supernode yields the
//! *cluster graph*. Multilevel pipelines (the AKPW tree construction, and
//! coarse solvers generally) additionally need, for every quotient edge, a
//! concrete *representative* edge of the fine graph realizing it — that is
//! what [`Coarsened`] carries.

use mpx_decomp::{Decomposition, WeightedDecomposition};
use mpx_graph::{
    view_edges, weighted_view_edges, CsrGraph, GraphView, Vertex, WeightedCsrGraph,
    WeightedGraphView,
};
use std::collections::HashMap;

/// Result of contracting a graph along a decomposition.
#[derive(Clone, Debug)]
pub struct Coarsened {
    /// Quotient graph: one vertex per cluster (dense ids), one edge per
    /// adjacent cluster pair.
    pub quotient: CsrGraph,
    /// Map fine vertex → coarse vertex (dense cluster index).
    pub map: Vec<Vertex>,
    /// For each quotient edge `(a, b)` with `a < b`, the lexicographically
    /// smallest fine edge `(u, v)` crossing between the two clusters.
    pub rep: HashMap<(Vertex, Vertex), (Vertex, Vertex)>,
}

/// Contracts `g` along `d`. Deterministic: representatives are the
/// lexicographically smallest crossing edges.
pub fn coarsen(g: &CsrGraph, d: &Decomposition) -> Coarsened {
    coarsen_view(g, d)
}

/// [`coarsen`] over any [`GraphView`] — the entry the pipelines use to
/// contract a memory-mapped snapshot or a zero-copy view directly.
/// Identical output: edges are visited in the same `(u, v)`, `u < v`
/// ascending order a `CsrGraph` enumerates them in.
pub fn coarsen_view<V: GraphView>(g: &V, d: &Decomposition) -> Coarsened {
    assert_eq!(g.num_vertices(), d.num_vertices());
    let map: Vec<Vertex> = d.cluster_indices().to_vec();
    let mut rep: HashMap<(Vertex, Vertex), (Vertex, Vertex)> = HashMap::new();
    for (u, v) in view_edges(g) {
        let (mut a, mut b) = (map[u as usize], map[v as usize]);
        if a == b {
            continue;
        }
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        rep.entry((a, b))
            .and_modify(|e| {
                if (u, v) < *e {
                    *e = (u, v);
                }
            })
            .or_insert((u, v));
    }
    let quotient_edges: Vec<(Vertex, Vertex)> = rep.keys().copied().collect();
    let quotient = CsrGraph::from_edges(d.num_clusters(), &quotient_edges);
    Coarsened { quotient, map, rep }
}

/// Result of contracting a **weighted** graph along a weighted
/// decomposition: the quotient keeps, per adjacent cluster pair, the
/// *minimum crossing weight* (ties by smallest fine edge) — the shortest
/// inter-cluster connection, which is what the weighted AKPW rounds and
/// the weighted distance oracle both want.
#[derive(Clone, Debug)]
pub struct WeightedCoarsened {
    /// Quotient graph: one vertex per cluster (dense ids — the rank of the
    /// center in the sorted center list), each edge weighted by the
    /// lightest fine edge crossing between the two clusters.
    pub quotient: WeightedCsrGraph,
    /// Map fine vertex → coarse vertex (dense cluster index).
    pub map: Vec<Vertex>,
    /// For each quotient edge `(a, b)` with `a < b`, the fine edge
    /// realizing its weight: minimum `(weight, (u, v))` crossing the pair.
    pub rep: HashMap<(Vertex, Vertex), (Vertex, Vertex)>,
}

/// Contracts a weighted view along `d`, keeping the lightest
/// representative per quotient edge. Deterministic: ties on weight break
/// by the lexicographically smallest fine edge.
pub fn coarsen_weighted<W: WeightedGraphView>(
    g: &W,
    d: &WeightedDecomposition,
) -> WeightedCoarsened {
    assert_eq!(g.num_vertices(), d.assignment.len());
    // Dense cluster ids: rank of the center in the sorted center list.
    let map: Vec<Vertex> = d
        .assignment
        .iter()
        .map(|c| d.centers.binary_search(c).expect("center present") as Vertex)
        .collect();
    let mut best: HashMap<(Vertex, Vertex), (f64, (Vertex, Vertex))> = HashMap::new();
    for (u, v, w) in weighted_view_edges(g) {
        let (mut a, mut b) = (map[u as usize], map[v as usize]);
        if a == b {
            continue;
        }
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let cand = (w, (u, v));
        best.entry((a, b))
            .and_modify(|e| {
                if cand.0 < e.0 || (cand.0 == e.0 && cand.1 < e.1) {
                    *e = cand;
                }
            })
            .or_insert(cand);
    }
    let mut rep = HashMap::with_capacity(best.len());
    let mut q_edges: Vec<(Vertex, Vertex, f64)> = Vec::with_capacity(best.len());
    for (&(a, b), &(w, fine)) in &best {
        q_edges.push((a, b, w));
        rep.insert((a, b), fine);
    }
    let quotient = WeightedCsrGraph::from_edges(d.num_clusters(), &q_edges);
    WeightedCoarsened { quotient, map, rep }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_decomp::{partition, DecompOptions};
    use mpx_graph::gen;

    #[test]
    fn quotient_structure_matches_contract() {
        let g = gen::grid2d(15, 15);
        let d = partition(&g, &DecompOptions::new(0.2).with_seed(4));
        let c = coarsen(&g, &d);
        let (q2, _) = g.contract(d.cluster_indices(), d.num_clusters());
        assert_eq!(c.quotient, q2);
        assert_eq!(c.map.len(), 225);
    }

    #[test]
    fn representatives_are_real_crossing_edges() {
        let g = gen::rmat(8, 3 << 8, 0.57, 0.19, 0.19, 5);
        let d = partition(&g, &DecompOptions::new(0.3).with_seed(1));
        let c = coarsen(&g, &d);
        for (&(a, b), &(u, v)) in &c.rep {
            assert!(g.has_edge(u, v));
            let (cu, cv) = (c.map[u as usize], c.map[v as usize]);
            assert_eq!((cu.min(cv), cu.max(cv)), (a, b));
        }
        assert_eq!(c.rep.len(), c.quotient.num_edges());
    }

    #[test]
    fn single_cluster_coarsens_to_point() {
        let g = gen::complete(10);
        let d = partition(&g, &DecompOptions::new(0.01).with_seed(2));
        if d.num_clusters() == 1 {
            let c = coarsen(&g, &d);
            assert_eq!(c.quotient.num_vertices(), 1);
            assert_eq!(c.quotient.num_edges(), 0);
            assert!(c.rep.is_empty());
        }
    }

    #[test]
    fn weighted_coarsening_keeps_lightest_crossing_edges() {
        let g = gen::gnm(150, 500, 21);
        let wg = {
            let edges: Vec<(Vertex, Vertex, f64)> = g
                .edges()
                .enumerate()
                .map(|(i, (u, v))| (u, v, 0.5 + (i % 7) as f64))
                .collect();
            WeightedCsrGraph::from_edges(g.num_vertices(), &edges)
        };
        let d = mpx_decomp::DecomposerBuilder::new(0.25)
            .seed(2)
            .build_weighted(&wg)
            .unwrap()
            .run();
        let c = coarsen_weighted(&wg, &d);
        assert_eq!(c.quotient.num_vertices(), d.num_clusters());
        assert_eq!(c.rep.len(), c.quotient.num_edges());
        for (&(a, b), &(u, v)) in &c.rep {
            // Representative is a real crossing edge of that pair, and the
            // quotient weight equals its weight — the minimum over the pair.
            let (cu, cv) = (c.map[u as usize], c.map[v as usize]);
            assert_eq!((cu.min(cv), cu.max(cv)), (a, b));
            let w = wg.edge_weight(u, v).unwrap();
            assert_eq!(c.quotient.edge_weight(a, b).unwrap().to_bits(), w.to_bits());
            for (x, y, wxy) in wg.edges() {
                let (cx, cy) = (c.map[x as usize], c.map[y as usize]);
                if (cx.min(cy), cx.max(cy)) == (a, b) {
                    assert!(wxy >= w, "({x},{y}) lighter than representative");
                }
            }
        }
    }

    #[test]
    fn coarsening_shrinks_grid() {
        let g = gen::grid2d(30, 30);
        let d = partition(&g, &DecompOptions::new(0.1).with_seed(3));
        let c = coarsen(&g, &d);
        assert!(c.quotient.num_vertices() < g.num_vertices());
        assert!(c.quotient.num_vertices() == d.num_clusters());
    }
}
