//! Full verification of decompositions against Definition 1.1.
//!
//! [`verify_decomposition`] checks, on a concrete output:
//!
//! 1. **Partition** — every vertex is assigned, every center to itself.
//! 2. **Strong diameter** — a multi-source BFS from all centers that is
//!    *restricted to intra-cluster edges* must reach every vertex at
//!    exactly its recorded `dist_to_center`. This simultaneously proves
//!    each piece is connected, that recorded distances are true
//!    cluster-internal distances, and — because restricted distance equals
//!    the recorded (unrestricted shifted-BFS) distance — it is a direct
//!    machine check of the paper's Lemma 4.1.
//! 3. **Parents** — each non-center's parent is an intra-cluster neighbour
//!    one hop closer to the center.
//! 4. **Cut edges** — counted for the `βm` side of Definition 1.1.
//!
//! Cost: `O(n + m)`, so it is cheap enough to run after every partition
//! (the paper's Theorem 1.2 proof does exactly this inside its retry loop).

use crate::decomposition::Decomposition;
use mpx_graph::{CsrGraph, Dist, Vertex, INFINITY};
use std::collections::VecDeque;

/// Result of verifying a [`Decomposition`] against its graph.
#[must_use = "inspect is_valid()/errors — an unchecked report verifies nothing"]
#[derive(Clone, Debug, PartialEq)]
pub struct VerifyReport {
    /// Number of clusters.
    pub num_clusters: usize,
    /// Maximum recorded distance from a vertex to its center.
    pub max_radius: Dist,
    /// Mean distance to center over all vertices.
    pub avg_radius: f64,
    /// Number of edges with endpoints in different clusters.
    pub cut_edges: usize,
    /// `cut_edges / m` (0 when `m = 0`).
    pub cut_fraction: f64,
    /// Human-readable violations; empty iff the decomposition is valid.
    pub errors: Vec<String>,
}

impl VerifyReport {
    /// True iff no violations were found.
    pub fn is_valid(&self) -> bool {
        self.errors.is_empty()
    }

    /// The repo's canonical engineering form of the Theorem 1.1 radius /
    /// round bound: `⌈4·ln(max(n, 2))/β⌉ + 2`. The constant is generous
    /// (the guarantee is probabilistic; [`crate::Decomposer::run_with_retry`]
    /// is the enforcement path) so concrete runs are expected to satisfy
    /// it essentially always. `mpx profile`, the block-decomposition
    /// checks, and the fast-mode invariant suite all share this one
    /// derivation.
    pub fn radius_bound(n: usize, beta: f64) -> u64 {
        (4.0 * (n.max(2) as f64).ln() / beta).ceil() as u64 + 2
    }

    /// The tight Lemma 4.2 form of the radius bound: `2·ln(n)/β`, which
    /// `max_radius ≤ δ_max` satisfies with probability `≥ 1 − 1/n`.
    /// Statistical tests asserting the w.h.p. claim use this; engineering
    /// gates should prefer [`VerifyReport::radius_bound`].
    pub fn whp_radius_bound(n: usize, beta: f64) -> f64 {
        2.0 * (n.max(2) as f64).ln() / beta
    }

    /// True iff the observed `max_radius` respects
    /// [`VerifyReport::radius_bound`] for a graph of `n` vertices
    /// decomposed at `beta`.
    pub fn radius_within_bound(&self, n: usize, beta: f64) -> bool {
        self.max_radius as u64 <= Self::radius_bound(n, beta)
    }

    /// True iff the observed cut fraction respects the `βm` side of
    /// Definition 1.1 up to `slack` (the bound holds in expectation;
    /// `slack` absorbs per-run variance — retry policies conventionally
    /// use 4.0).
    pub fn cut_within_fraction(&self, beta: f64, slack: f64) -> bool {
        self.cut_fraction <= slack * beta
    }
}

/// Verifies `d` against `g`; see the module docs for the checked properties.
pub fn verify_decomposition(g: &CsrGraph, d: &Decomposition) -> VerifyReport {
    let n = g.num_vertices();
    let mut errors = Vec::new();
    if d.num_vertices() != n {
        errors.push(format!(
            "decomposition covers {} vertices, graph has {n}",
            d.num_vertices()
        ));
        return report_with_errors(g, d, errors);
    }
    if let Err(e) = d.check_internal() {
        errors.push(e);
    }

    // Restricted multi-source BFS: start from all centers, traverse only
    // intra-cluster edges.
    let mut rdist: Vec<Dist> = vec![INFINITY; n];
    let mut queue: VecDeque<Vertex> = VecDeque::new();
    for &c in d.centers() {
        rdist[c as usize] = 0;
        queue.push_back(c);
    }
    while let Some(u) = queue.pop_front() {
        let du = rdist[u as usize];
        let cu = d.center_of(u);
        for &v in g.neighbors(u) {
            if d.center_of(v) == cu && rdist[v as usize] == INFINITY {
                rdist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    for v in 0..n as Vertex {
        if rdist[v as usize] == INFINITY {
            errors.push(format!(
                "vertex {v} unreachable from its center {} inside the cluster",
                d.center_of(v)
            ));
        } else if rdist[v as usize] != d.dist_to_center(v) {
            errors.push(format!(
                "vertex {v}: recorded dist {} but intra-cluster dist {} (Lemma 4.1 violated)",
                d.dist_to_center(v),
                rdist[v as usize]
            ));
        }
        if errors.len() > 20 {
            errors.push("... further errors suppressed".into());
            break;
        }
    }

    // Parent sanity.
    for v in 0..n as Vertex {
        if let Some(p) = d.parent(v) {
            if !g.has_edge(p, v)
                || d.center_of(p) != d.center_of(v)
                || d.dist_to_center(p) + 1 != d.dist_to_center(v)
            {
                errors.push(format!("vertex {v}: invalid parent {p}"));
                break;
            }
        }
    }

    report_with_errors(g, d, errors)
}

fn report_with_errors(g: &CsrGraph, d: &Decomposition, errors: Vec<String>) -> VerifyReport {
    let n = d.num_vertices().max(1);
    let cut_edges = if d.num_vertices() == g.num_vertices() {
        d.cut_edges(g)
    } else {
        0
    };
    let m = g.num_edges();
    VerifyReport {
        num_clusters: d.num_clusters(),
        max_radius: d.max_radius(),
        avg_radius: d.distances().iter().map(|&x| x as f64).sum::<f64>() / n as f64,
        cut_edges,
        cut_fraction: if m == 0 {
            0.0
        } else {
            cut_edges as f64 / m as f64
        },
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::DecompOptions;
    use crate::partition;
    use mpx_graph::{gen, NO_VERTEX};

    fn opts(beta: f64, seed: u64) -> DecompOptions {
        DecompOptions::new(beta).with_seed(seed)
    }

    #[test]
    fn valid_on_many_workloads() {
        let graphs = vec![
            gen::grid2d(25, 25),
            gen::rmat(9, 4 << 9, 0.57, 0.19, 0.19, 1),
            gen::barabasi_albert(600, 3, 2),
            gen::random_regular(400, 4, 3),
            gen::path(800),
            gen::complete(40),
            gen::watts_strogatz(500, 3, 0.1, 4),
        ];
        for (i, g) in graphs.into_iter().enumerate() {
            for beta in [0.05, 0.2, 0.45] {
                let d = partition(&g, &opts(beta, i as u64 * 10 + 1));
                let r = verify_decomposition(&g, &d);
                assert!(r.is_valid(), "graph #{i} β={beta}: {:?}", r.errors);
            }
        }
    }

    #[test]
    fn detects_disconnected_cluster() {
        // Path 0-1-2 with fake decomposition {0,2} centered at 0 and {1}.
        let g = gen::path(3);
        let d =
            Decomposition::from_raw(vec![0, 1, 0], vec![0, 0, 1], vec![NO_VERTEX, NO_VERTEX, 1]);
        let r = verify_decomposition(&g, &d);
        assert!(!r.is_valid());
    }

    #[test]
    fn detects_wrong_distance() {
        // Valid shape but distance exaggerated.
        let g = gen::path(3);
        let d = Decomposition::from_raw(
            vec![0, 0, 0],
            vec![0, 1, 3], // true intra-cluster distance of vertex 2 is 2
            vec![NO_VERTEX, 0, 1],
        );
        let r = verify_decomposition(&g, &d);
        assert!(!r.is_valid());
        assert!(r.errors.iter().any(|e| e.contains("Lemma 4.1")));
    }

    #[test]
    fn report_statistics_match_direct_computation() {
        let g = gen::grid2d(20, 20);
        let d = partition(&g, &opts(0.15, 7));
        let r = verify_decomposition(&g, &d);
        assert_eq!(r.cut_edges, d.cut_edges(&g));
        assert_eq!(r.max_radius, d.max_radius());
        assert_eq!(r.num_clusters, d.num_clusters());
        assert!(r.is_valid());
    }

    #[test]
    fn bound_helpers_match_their_formulas() {
        let (n, beta) = (2500usize, 0.1f64);
        assert_eq!(
            VerifyReport::radius_bound(n, beta),
            (4.0 * (n as f64).ln() / beta).ceil() as u64 + 2
        );
        assert!((VerifyReport::whp_radius_bound(n, beta) - 2.0 * (n as f64).ln() / beta) < 1e-12);
        // Degenerate n clamps instead of producing ln(0)/ln(1) = 0 bounds.
        assert!(VerifyReport::radius_bound(0, 0.5) >= 2);
        let g = gen::grid2d(30, 30);
        let d = partition(&g, &opts(0.2, 11));
        let r = verify_decomposition(&g, &d);
        assert!(r.is_valid());
        assert!(r.radius_within_bound(g.num_vertices(), 0.2));
        assert!(r.cut_within_fraction(0.2, 4.0));
    }

    #[test]
    fn size_mismatch_reported() {
        let g = gen::path(5);
        let d = Decomposition::from_raw(vec![0], vec![0], vec![NO_VERTEX]);
        let r = verify_decomposition(&g, &d);
        assert!(!r.is_valid());
    }
}
