//! `wrmat-session`: an RMAT graph with hashed `U[0.25, 4]` edge lengths,
//! written as a weighted edge list, parsed, stored as a weighted v1
//! snapshot, memory-mapped, and decomposed by a warm `WeightedDecomposer`
//! on its default Δ-stepping path with a fresh seed per run.

use crate::common::{
    deadline, median, ms_since, peak_rss_mb, percentile, setups_in_children, timed, Report, Seeds,
    SetupTimes, WorkDir, BETA, RMAT_SEED,
};
use crate::layers::WeightedProbe;
use crate::Args;
use mpx_decomp::{
    validate_weights, verify_weighted, DecomposerBuilder, Traversal, VerifyReport,
    WeightedDecomposition,
};
use mpx_graph::io;
use mpx_graph::snapshot::{self, MappedWeightedCsr};
use mpx_graph::{gen, CsrGraph, Vertex, WeightedCsrGraph};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Timed runs per batch, verified together after the batch.
const BATCH: usize = 8;

/// Deterministic `U[0.25, 4]` lengths, one hash per undirected edge keyed
/// by `(seed, u, v)`: the length model of `mpx bench --weighted`.
fn hashed_lengths(g: &CsrGraph, seed: u64) -> WeightedCsrGraph {
    let edges: Vec<(Vertex, Vertex, f64)> = g
        .edges()
        .map(|(u, v)| {
            let h = mpx_par::rng::hash_index(seed, (u64::from(u) << 32) | u64::from(v));
            let r = (h >> 11) as f64 / (1u64 << 53) as f64;
            (u, v, 0.25 + 3.75 * r)
        })
        .collect();
    WeightedCsrGraph::from_edges(g.num_vertices(), &edges)
}

/// The input files in the work directory.
fn files(dir: &Path) -> (PathBuf, PathBuf) {
    (dir.join("wrmat.txt"), dir.join("wrmat.mpx"))
}

/// The set-up: weighted text → parse → weighted v1 snapshot → validated
/// mmap (structure and weights) → session → one warm-up run. Also returns
/// the parsed graph, so the caller can compare it with the generated one
/// after the timing.
fn start(
    dir: &Path,
    warm_seed: u64,
) -> Result<(MappedWeightedCsr, WeightedCsrGraph, SetupTimes), String> {
    let (text, snap) = files(dir);
    let t = Instant::now();
    let (parsed, parse_ms) = timed(|| io::read_weighted_edge_list(&text));
    let parsed = parsed.map_err(|e| format!("parse: {e}"))?;
    let (written, write_ms) = timed(|| snapshot::write_weighted_snapshot(&parsed, &snap));
    written.map_err(|e| format!("snapshot write: {e}"))?;
    let (mapped, open_ms) = timed(|| {
        let m = MappedWeightedCsr::open(&snap).map_err(|e| e.to_string())?;
        m.validate()?;
        validate_weights(&m).map_err(|e| e.to_string())?;
        Ok::<_, String>(m)
    });
    let mapped = mapped.map_err(|e| format!("snapshot open: {e}"))?;
    let mut session = DecomposerBuilder::new(BETA)
        .build_weighted(&mapped)
        .map_err(|e| e.to_string())?;
    let _ = session.run_with_seed(warm_seed);
    drop(session);
    let times = vec![
        ("setup_s", t.elapsed().as_secs_f64()),
        ("io.parse_ms", parse_ms),
        ("snapshot.write_ms", write_ms),
        ("snapshot.open_ms", open_ms),
    ];
    Ok((mapped, parsed, times))
}

pub fn setup_only(a: &Args, dir: &Path) -> Result<SetupTimes, String> {
    let warm_seed = Seeds::new(a.seed).next();
    Ok(start(dir, warm_seed)?.2)
}

/// Labels and distances, bit for bit.
fn same(a: &WeightedDecomposition, b: &WeightedDecomposition) -> bool {
    a.assignment == b.assignment
        && a.dist_to_center.len() == b.dist_to_center.len()
        && a.dist_to_center
            .iter()
            .zip(&b.dist_to_center)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn run(a: &Args, r: &mut Report) -> Result<(), String> {
    let mut fixed = Seeds::new(a.seed);
    let (warm_seed, pin_seed) = (fixed.next(), fixed.next());
    let probe_seeds: Vec<u64> = (0..a.size.probes()).map(|_| fixed.next()).collect();
    let mut run_seeds = Seeds::new(fixed.next());

    let scale = a.size.rmat_scale();
    let wg = hashed_lengths(
        &gen::rmat(scale, 8 << scale, 0.57, 0.19, 0.19, RMAT_SEED),
        RMAT_SEED,
    );
    let work = WorkDir::create().map_err(|e| format!("work dir: {e}"))?;
    io::write_weighted_edge_list(&wg, files(work.path()).0)
        .map_err(|e| format!("write input: {e}"))?;

    // Set-up: timed in fresh processes, then once here for the runs.
    let setups = setups_in_children(a, work.path())?;
    let (mapped, parsed, _) = start(work.path(), warm_seed)?;
    r.check(if parsed == wg {
        Ok(())
    } else {
        Err("weighted parse differs from the generated graph".into())
    });
    drop(parsed);
    let builder = DecomposerBuilder::new(BETA);
    let mut session = builder.build_weighted(&mapped).map_err(|e| e.to_string())?;
    let _ = session.run_with_seed(warm_seed);

    // BitExact pin: Δ-stepping against the heap Dijkstra path.
    let delta = session.run_with_seed(pin_seed);
    let heap = builder
        .clone()
        .seed(pin_seed)
        .traversal(Traversal::TopDownSeq)
        .build_weighted(&mapped)
        .map(|mut s| s.run());
    r.check(match heap {
        Ok(d) if same(&d, &delta) => Ok(()),
        Ok(_) => Err("BitExact pin: Δ-stepping labels differ from heap Dijkstra".into()),
        Err(e) => Err(format!("BitExact pin: {e}")),
    });

    // Timed warm runs, back to back in batches so that the verifier's
    // memory traffic does not cool the next run's caches; every output is
    // verified after its batch. Every vertex is within δ_max of its
    // center, so the hop bound also bounds weighted radii.
    let bound = VerifyReport::radius_bound(wg.num_vertices(), BETA) as f64;
    let end = deadline(a.seconds, if a.trace { 0.45 } else { 1.0 });
    let (mut lat, mut verify_ms) = (Vec::new(), Vec::new());
    while lat.is_empty() || Instant::now() < end {
        let batch: Vec<(u64, WeightedDecomposition)> = (0..BATCH)
            .map(|_| {
                let seed = run_seeds.next();
                let (d, ms) = timed(|| session.run_with_seed(seed));
                lat.push(ms);
                (seed, d)
            })
            .collect();
        for (seed, d) in batch {
            let (verified, vms) = timed(|| verify_weighted(&wg, &d));
            verify_ms.push(vms);
            r.check(match verified {
                Err(e) => Err(format!("seed {seed}: {e}")),
                Ok(()) if d.max_radius() > bound => Err(format!(
                    "seed {seed}: radius {} > bound {bound}",
                    d.max_radius()
                )),
                Ok(()) => Ok(()),
            });
        }
    }
    if !a.trace {
        r.metric("setup_s", setups.median("setup_s"), "s");
        r.metric("latency_ms.p50", median(&lat), "ms");
        r.metric("latency_ms.p90", percentile(&lat, 0.9), "ms");
        r.metric(
            "ops_per_s",
            1e3 * lat.len() as f64 / lat.iter().sum::<f64>(),
            "1/s",
        );
        r.metric("peak_rss_mb", peak_rss_mb(), "MB");
        eprintln!("wrmat-session: {} timed runs", lat.len());
        return Ok(());
    }

    // Traced run: ingest layers, weighted-engine probes, traced runs.
    for name in ["io.parse_ms", "snapshot.write_ms", "snapshot.open_ms"] {
        r.metric(name, setups.median(name), "ms");
    }
    r.metric("verify.full_ms", median(&verify_ms), "ms");

    // Per probe seed: an untraced session run (the reference), a traced
    // one, then each layer on its own.
    let mut probe = WeightedProbe::new(&mapped, &wg, warm_seed);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for &seed in &probe_seeds {
        let (reference, ms) = timed(|| session.run_with_seed(seed));
        plain.push(ms);
        let trace_session = mpx_trace::start();
        let t = Instant::now();
        let d = session.run_with_seed(seed);
        traced.push(ms_since(t));
        drop(trace_session.finish());
        r.check(if same(&d, &reference) {
            Ok(())
        } else {
            Err(format!("seed {seed}: traced labels differ from untraced"))
        });
        probe.run(seed, r);
    }
    let decomp_p50 = median(&plain);
    r.metric("decomp_ms.p50", decomp_p50, "ms");
    r.metric("decomp_ms.traced_p50", median(&traced), "ms");
    r.metric(
        "trace.overhead_frac",
        median(&traced) / decomp_p50 - 1.0,
        "ratio",
    );
    let layers = probe.layers();
    layers.emit(r);
    r.metric("floor.ratio", decomp_p50 / layers.dijkstra_ms(), "ratio");
    r.metric(
        "layers.accounted_frac",
        layers.run_ms() / decomp_p50,
        "ratio",
    );
    Ok(())
}
