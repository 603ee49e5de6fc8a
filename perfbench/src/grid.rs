//! `grid-session`: a 2-D grid written as a text edge list, parsed in
//! parallel, stored as a v1 snapshot, memory-mapped, and decomposed by a
//! warm `Decomposer` with a fresh seed per run.

use crate::common::{
    deadline, median, ms_since, peak_rss_mb, percentile, setups_in_children, timed, Report, Seeds,
    SetupTimes, WorkDir, BETA,
};
use crate::layers::{EngineProbe, EngineSpans};
use crate::Args;
use mpx_decomp::{verify_decomposition, DecomposerBuilder, Traversal, VerifyReport};
use mpx_graph::io::{self, GraphFormat, TextParser};
use mpx_graph::snapshot::{self, MappedCsr};
use mpx_graph::{gen, CsrGraph, GraphView};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The input files in the work directory.
fn files(dir: &Path) -> (PathBuf, PathBuf) {
    (dir.join("grid.txt"), dir.join("grid.mpx"))
}

/// The set-up: text → parallel parse → v1 snapshot → validated mmap →
/// session → one warm-up run. Also returns the parsed graph, so the
/// caller can compare it with the generated one after the timing.
fn start(dir: &Path, warm_seed: u64) -> Result<(MappedCsr, CsrGraph, SetupTimes), String> {
    let (text, snap) = files(dir);
    let t = Instant::now();
    let (parsed, parse_ms) =
        timed(|| io::read_graph_as(&text, GraphFormat::EdgeList, TextParser::Parallel));
    let parsed = parsed.map_err(|e| format!("parse: {e}"))?;
    let (written, write_ms) = timed(|| snapshot::write_snapshot(&parsed, &snap));
    written.map_err(|e| format!("snapshot write: {e}"))?;
    let (mapped, open_ms) = timed(|| {
        let m = MappedCsr::open(&snap).map_err(|e| e.to_string())?;
        m.validate()?;
        Ok::<_, String>(m)
    });
    let mapped = mapped.map_err(|e| format!("snapshot open: {e}"))?;
    let mut session = DecomposerBuilder::new(BETA)
        .build(&mapped)
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

pub fn run(a: &Args, r: &mut Report) -> Result<(), String> {
    let mut fixed = Seeds::new(a.seed);
    let (warm_seed, pin_seed) = (fixed.next(), fixed.next());
    let probe_seeds: Vec<u64> = (0..a.size.probes()).map(|_| fixed.next()).collect();
    let mut run_seeds = Seeds::new(fixed.next());

    let side = a.size.grid_side();
    let g = gen::grid2d(side, side);
    let work = WorkDir::create().map_err(|e| format!("work dir: {e}"))?;
    io::write_edge_list(&g, files(work.path()).0).map_err(|e| format!("write input: {e}"))?;

    // Set-up: timed in fresh processes, then once here for the runs.
    let setups = setups_in_children(a, work.path())?;
    let (mapped, parsed, _) = start(work.path(), warm_seed)?;
    r.check(if parsed == g {
        Ok(())
    } else {
        Err("parallel parse differs from the generated grid".into())
    });
    drop(parsed);
    let builder = DecomposerBuilder::new(BETA);
    let mut session = builder.build(&mapped).map_err(|e| e.to_string())?;
    let _ = session.run_with_seed(warm_seed);

    // BitExact pin: the timed Auto path against a 1-thread TopDownSeq run.
    let auto = session.run_with_seed(pin_seed);
    let seq = mpx_par::with_threads(1, || {
        builder
            .clone()
            .seed(pin_seed)
            .traversal(Traversal::TopDownSeq)
            .build(&mapped)
            .map(|mut s| s.run())
    });
    r.check(match seq {
        Ok(d) if d == auto => Ok(()),
        Ok(_) => Err("BitExact pin: Auto labels differ from 1-thread TopDownSeq".into()),
        Err(e) => Err(format!("BitExact pin: {e}")),
    });
    drop(auto);

    // Timed warm runs, each verified outside its timing.
    let bound = VerifyReport::radius_bound(g.num_vertices(), BETA);
    let end = deadline(a.seconds, if a.trace { 0.45 } else { 1.0 });
    let (mut lat, mut verify_ms) = (Vec::new(), Vec::new());
    while lat.is_empty() || Instant::now() < end {
        let seed = run_seeds.next();
        let (d, ms) = timed(|| session.run_with_seed(seed));
        lat.push(ms);
        let (report, vms) = timed(|| verify_decomposition(&g, &d));
        verify_ms.push(vms);
        r.check(if !report.is_valid() {
            Err(format!("seed {seed}: {:?}", report.errors))
        } else if u64::from(d.max_radius()) > bound {
            Err(format!(
                "seed {seed}: radius {} > bound {bound}",
                d.max_radius()
            ))
        } else {
            Ok(())
        });
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
        eprintln!("grid-session: {} timed runs", lat.len());
        r.metric("peak_rss_mb", peak_rss_mb(), "MB");
        return Ok(());
    }

    // Traced run: ingest layers, per-layer probes, and traced session runs.
    for name in ["io.parse_ms", "snapshot.write_ms", "snapshot.open_ms"] {
        r.metric(name, setups.median(name), "ms");
    }
    r.metric("verify.full_ms", median(&verify_ms), "ms");

    // Per probe seed: an untraced session run (the reference), a traced
    // one, then each layer on its own.
    let mut probe = EngineProbe::new(&mapped, None, warm_seed);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut spans = EngineSpans::default();
    for &seed in &probe_seeds {
        let (reference, ms) = timed(|| session.run_with_seed(seed));
        plain.push(ms);
        let trace_session = mpx_trace::start();
        let t = Instant::now();
        let d = session.run_with_seed(seed);
        traced.push(ms_since(t));
        let trace = trace_session.finish();
        spans.add(&trace);
        r.check(if d == reference {
            Ok(())
        } else {
            Err(format!("seed {seed}: traced labels differ from untraced"))
        });
        drop((reference, d));
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
    spans.emit(r);
    let layers = probe.layers();
    layers.emit(mapped.total_degree(), r);
    r.metric("floor.ratio", decomp_p50 / layers.bfs_ms(), "ratio");
    r.metric(
        "layers.accounted_frac",
        layers.run_ms() / decomp_p50,
        "ratio",
    );
    Ok(())
}
