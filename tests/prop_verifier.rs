//! Failure-injection property tests: the verifier must reject *every*
//! corruption of a valid decomposition, and the hybrid/weighted variants
//! must stay equivalent to their references under arbitrary inputs.

use mpx::decomp::{
    partition, verify_decomposition, verify_weighted, DecompOptions, DecomposerBuilder,
    Decomposition, ShiftStrategy, Traversal,
};
use mpx::graph::{CsrGraph, Vertex, WeightedCsrGraph, NO_VERTEX};
use proptest::prelude::*;

fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as Vertex, 0..n as Vertex), 1..max_m)
            .prop_map(move |edges| CsrGraph::from_edges(n, &edges))
    })
}

/// Rebuilds a Decomposition from mutated raw arrays, tolerating the cases
/// where `from_raw` itself already rejects the corruption.
fn rebuild(assignment: Vec<Vertex>, dist: Vec<u32>, parent: Vec<Vertex>) -> Option<Decomposition> {
    std::panic::catch_unwind(|| Decomposition::from_raw(assignment, dist, parent)).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Reassigning one non-center vertex to a random other center is
    /// always caught (either by construction checks or by the verifier).
    #[test]
    fn verifier_catches_reassignment(
        g in arb_graph(60, 150),
        seed in 0u64..10_000,
        victim_sel in 0usize..1000,
        target_sel in 0usize..1000,
    ) {
        let d = partition(&g, &DecompOptions::new(0.2).with_seed(seed));
        prop_assume!(d.num_clusters() >= 2);
        let n = g.num_vertices();
        // Pick a non-center victim and a different cluster's center.
        let victims: Vec<Vertex> = (0..n as Vertex)
            .filter(|&v| d.center_of(v) != v)
            .collect();
        prop_assume!(!victims.is_empty());
        let victim = victims[victim_sel % victims.len()];
        let others: Vec<Vertex> = d
            .centers()
            .iter()
            .copied()
            .filter(|&c| c != d.center_of(victim))
            .collect();
        prop_assume!(!others.is_empty());
        let target = others[target_sel % others.len()];

        let mut assignment = d.assignment().to_vec();
        assignment[victim as usize] = target;
        if let Some(bad) = rebuild(assignment, d.distances().to_vec(), d.parents().to_vec()) {
            let r = verify_decomposition(&g, &bad);
            prop_assert!(!r.is_valid(), "reassignment of {victim} to {target} undetected");
        }
    }

    /// Corrupting one distance is always caught.
    #[test]
    fn verifier_catches_distance_corruption(
        g in arb_graph(60, 150),
        seed in 0u64..10_000,
        victim_sel in 0usize..1000,
        bump in 1u32..5,
    ) {
        let d = partition(&g, &DecompOptions::new(0.25).with_seed(seed));
        let n = g.num_vertices();
        let victims: Vec<Vertex> = (0..n as Vertex).filter(|&v| d.center_of(v) != v).collect();
        prop_assume!(!victims.is_empty());
        let victim = victims[victim_sel % victims.len()];
        let mut dist = d.distances().to_vec();
        dist[victim as usize] += bump;
        if let Some(bad) = rebuild(d.assignment().to_vec(), dist, d.parents().to_vec()) {
            let r = verify_decomposition(&g, &bad);
            prop_assert!(!r.is_valid(), "distance corruption at {victim} undetected");
        }
    }

    /// Corrupting a parent pointer is always caught.
    #[test]
    fn verifier_catches_parent_corruption(
        g in arb_graph(60, 150),
        seed in 0u64..10_000,
        victim_sel in 0usize..1000,
    ) {
        let d = partition(&g, &DecompOptions::new(0.25).with_seed(seed));
        let n = g.num_vertices();
        let victims: Vec<Vertex> = (0..n as Vertex)
            .filter(|&v| d.parent(v).is_some())
            .collect();
        prop_assume!(!victims.is_empty());
        let victim = victims[victim_sel % victims.len()];
        let mut parent = d.parents().to_vec();
        // Point the parent at the vertex itself's center... no: at a vertex
        // guaranteed wrong — the victim itself (self-parent is invalid).
        parent[victim as usize] = victim;
        if let Some(bad) = rebuild(d.assignment().to_vec(), d.distances().to_vec(), parent) {
            let r = verify_decomposition(&g, &bad);
            prop_assert!(!r.is_valid(), "parent corruption at {victim} undetected");
        }
    }

    /// Hybrid (direction-optimizing) output equals top-down output on
    /// arbitrary graphs, betas, seeds and shift strategies.
    #[test]
    fn hybrid_always_matches_topdown(
        g in arb_graph(80, 300),
        beta in 0.05f64..0.9,
        seed in 0u64..100_000,
        order_stats in any::<bool>(),
    ) {
        let strat = if order_stats {
            ShiftStrategy::OrderStatisticPermutation
        } else {
            ShiftStrategy::SampledExponential
        };
        let opts = DecompOptions::new(beta).with_seed(seed).with_shift_strategy(strat);
        prop_assert_eq!(
            partition(&g, &opts.clone().with_traversal(Traversal::TopDownPar)),
            partition(&g, &opts.with_traversal(Traversal::Auto))
        );
    }

    /// Weighted Δ-stepping equals weighted Dijkstra on arbitrary weighted
    /// graphs and bucket widths.
    #[test]
    fn delta_stepping_always_matches_dijkstra(
        g in arb_graph(50, 120),
        seed in 0u64..10_000,
        delta_exp in -2i32..4,
    ) {
        let edges: Vec<(Vertex, Vertex, f64)> = g
            .edges()
            .enumerate()
            .map(|(i, (u, v))| {
                let w = 0.1 + ((i as u64 * 2654435761 + seed) % 1000) as f64 / 250.0;
                (u, v, w)
            })
            .collect();
        let wg = WeightedCsrGraph::from_edges(g.num_vertices(), &edges);
        let session = |t| DecomposerBuilder::new(0.2).seed(seed).traversal(t).build_weighted(&wg);
        let a = session(Traversal::TopDownSeq).unwrap().run();
        let b = session(Traversal::TopDownPar)
            .unwrap()
            .with_delta(Some(2f64.powi(delta_exp)))
            .run();
        prop_assert_eq!(&a.assignment, &b.assignment);
        prop_assert!(verify_weighted(&wg, &a).is_ok());
    }

    /// The order-statistic shift strategy also yields valid decompositions
    /// on arbitrary graphs.
    #[test]
    fn order_statistic_partitions_valid(
        g in arb_graph(80, 200),
        beta in 0.05f64..0.8,
        seed in 0u64..100_000,
    ) {
        let d = partition(
            &g,
            &DecompOptions::new(beta)
                .with_seed(seed)
                .with_shift_strategy(ShiftStrategy::OrderStatisticPermutation),
        );
        let r = verify_decomposition(&g, &d);
        prop_assert!(r.is_valid(), "{:?}", r.errors);
    }
}

/// Directed sanity check outside proptest: a decomposition with a vertex
/// pointing at a non-existent center must be rejected by `from_raw`.
#[test]
fn from_raw_rejects_phantom_center() {
    let ok = std::panic::catch_unwind(|| {
        Decomposition::from_raw(vec![1, 1], vec![1, 0], vec![1, NO_VERTEX])
    });
    // Vertex 0 assigned to center 1 — fine; but vertex 0 has dist 1 and a
    // valid-looking parent... center 1 is self-assigned, so this *is*
    // structurally plausible; the graph-aware verifier must catch it when
    // no edge (0,1) exists.
    if let Ok(d) = ok {
        let g = CsrGraph::from_edges(2, &[]); // no edges at all
        let r = verify_decomposition(&g, &d);
        assert!(!r.is_valid());
    }
}
