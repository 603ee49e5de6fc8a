//! Per-layer probes of a traced run. Each probe calls one layer's public
//! functions in isolation, on the workload's own view and seeds, and
//! times the call from outside: shifts, the engine round loop, finalize,
//! the cheap internal check, the BFS or Dijkstra floor, the weighted
//! engine, and the runtime's dispatch counters around the engine call.

use crate::common::{median, timed, Report, BETA};
use mpx_decomp::engine::compute_parents_view;
use mpx_decomp::wengine::partition_weighted_view_reusing;
use mpx_decomp::{
    compute_parents_weighted, partition_view_reusing, DecompOptions, Decomposition, EngineScratch,
    ExpShifts, PartitionTelemetry, VerifyReport, WeightedDecomposition, WeightedScratch,
    WeightedTelemetry,
};
use mpx_graph::algo::{multi_source_bfs, multi_source_dijkstra};
use mpx_graph::{GraphView, Vertex, WeightedCsrGraph, WeightedGraphView};
use mpx_trace::Trace;
use std::collections::BTreeMap;

/// Options of every decomposition: β, the default `Traversal::Auto`,
/// `Determinism::BitExact`, and the given seed.
pub fn options(seed: u64) -> DecompOptions {
    DecompOptions::new(BETA).with_seed(seed)
}

/// The cheap check the server runs on every reply: `check_internal` plus
/// the Theorem 1.1 radius bound.
fn check_internal(d: &Decomposition) -> Result<(), String> {
    d.check_internal()?;
    let radius = u64::from(d.max_radius());
    let bound = VerifyReport::radius_bound(d.num_vertices(), BETA);
    if radius > bound {
        return Err(format!("max radius {radius} exceeds bound {bound}"));
    }
    Ok(())
}

/// Per-seed probes of the unweighted layers on one view: shift buffers
/// and engine scratch of its own, warmed before the first timing.
pub struct EngineProbe<'v, V: GraphView> {
    view: &'v V,
    new_to_old: Option<&'v [Vertex]>,
    shifts: ExpShifts,
    scratch: EngineScratch,
    layers: EngineLayers,
}

/// Per-seed samples of the unweighted layers.
#[derive(Default)]
pub struct EngineLayers {
    shift_ms: Vec<f64>,
    engine_ms: Vec<f64>,
    parents_ms: Vec<f64>,
    from_raw_ms: Vec<f64>,
    internal_ms: Vec<f64>,
    bfs_ms: Vec<f64>,
    rounds: Vec<f64>,
    bottom_up_rounds: Vec<f64>,
    arcs_scanned: Vec<f64>,
    regions: Vec<f64>,
    workers_per_region: Vec<f64>,
    steals: Vec<f64>,
}

impl<'v, V: GraphView> EngineProbe<'v, V> {
    /// `new_to_old` selects the permuted shift gather of a reordered
    /// snapshot.
    pub fn new(view: &'v V, new_to_old: Option<&'v [Vertex]>, warm_seed: u64) -> Self {
        let mut probe = EngineProbe {
            view,
            new_to_old,
            shifts: ExpShifts::default(),
            scratch: EngineScratch::new(),
            layers: EngineLayers::default(),
        };
        let opts = options(warm_seed);
        probe.regenerate(&opts);
        let _ = probe.engine(&opts);
        probe
    }

    fn regenerate(&mut self, opts: &DecompOptions) {
        let n = self.view.num_vertices();
        match self.new_to_old {
            Some(p) => self.shifts.regenerate_permuted(n, opts, p),
            None => self.shifts.regenerate(n, opts),
        }
    }

    fn engine(&mut self, opts: &DecompOptions) -> (Decomposition, PartitionTelemetry) {
        partition_view_reusing(
            self.view,
            &self.shifts,
            opts.traversal,
            opts.alpha,
            opts.determinism,
            &mut self.scratch,
        )
    }

    /// Probes shift generation, the engine, finalize, the internal check
    /// and the BFS floor for one seed, checking every output into
    /// `report`.
    pub fn run(&mut self, seed: u64, report: &mut Report) {
        let opts = options(seed);
        let view = self.view;
        let shift_ms = timed(|| self.regenerate(&opts)).1;
        let epoch = mpx_runtime::stats::begin_epoch();
        let ((d, tel), engine_ms) = timed(|| self.engine(&opts));
        let rt = epoch.finish();
        let out = &mut self.layers;
        out.shift_ms.push(shift_ms);
        out.engine_ms.push(engine_ms);
        out.rounds.push(tel.rounds as f64);
        out.bottom_up_rounds.push(tel.bottom_up_rounds as f64);
        out.arcs_scanned.push(tel.relaxations as f64);
        out.regions.push(rt.regions as f64);
        out.workers_per_region.push(rt.avg_workers_per_region());
        out.steals.push(rt.steals as f64);

        let (parents, parents_ms) =
            timed(|| compute_parents_view(view, d.assignment(), d.distances()));
        out.parents_ms.push(parents_ms);
        let (assignment, dist) = (d.assignment().to_vec(), d.distances().to_vec());
        let (rebuilt, from_raw_ms) = timed(|| Decomposition::from_raw(assignment, dist, parents));
        out.from_raw_ms.push(from_raw_ms);
        report.check(if rebuilt == d {
            Ok(())
        } else {
            Err(format!(
                "seed {seed}: finalize rebuilt from the run's arrays differs"
            ))
        });

        let (internal, internal_ms) = timed(|| check_internal(&d));
        out.internal_ms.push(internal_ms);
        report.check(internal.map_err(|e| format!("seed {seed}: {e}")));

        let (floor, bfs_ms) = timed(|| multi_source_bfs(view, d.centers()));
        out.bfs_ms.push(bfs_ms);
        // Every vertex is at most its recorded in-cluster distance away
        // from the nearest center.
        report.check(
            match (0..view.num_vertices()).find(|&v| floor[v] > d.distances()[v]) {
                None => Ok(()),
                Some(v) => Err(format!("seed {seed}: BFS floor exceeds the label at {v}")),
            },
        );
    }

    pub fn layers(&self) -> &EngineLayers {
        &self.layers
    }
}

impl EngineLayers {
    /// Shift generation plus the engine call, the two steps a session's
    /// `run_with_seed` makes.
    pub fn run_ms(&self) -> f64 {
        median(&self.shift_ms) + median(&self.engine_ms)
    }

    pub fn bfs_ms(&self) -> f64 {
        median(&self.bfs_ms)
    }

    pub fn emit(&self, arcs: u64, r: &mut Report) {
        r.metric("shift.gen_ms", median(&self.shift_ms), "ms");
        r.metric("engine.run_ms", median(&self.engine_ms), "ms");
        r.metric("engine.rounds", median(&self.rounds), "count");
        r.metric(
            "engine.bottom_up_rounds",
            median(&self.bottom_up_rounds),
            "count",
        );
        r.metric("engine.arcs_scanned", median(&self.arcs_scanned), "count");
        r.metric(
            "engine.scan_ratio",
            median(&self.arcs_scanned) / arcs.max(1) as f64,
            "ratio",
        );
        r.metric("finalize.parents_ms", median(&self.parents_ms), "ms");
        r.metric("finalize.from_raw_ms", median(&self.from_raw_ms), "ms");
        r.metric("verify.internal_ms", median(&self.internal_ms), "ms");
        r.metric("runtime.regions", median(&self.regions), "count");
        r.metric(
            "runtime.workers_per_region",
            median(&self.workers_per_region),
            "count",
        );
        r.metric("runtime.steals", median(&self.steals), "count");
        r.metric("floor.bfs_ms", self.bfs_ms(), "ms");
    }
}

/// Per-seed probes of the weighted layers on one view, with the same
/// graph held in memory for the heap Dijkstra floor.
pub struct WeightedProbe<'v, W: WeightedGraphView> {
    view: &'v W,
    graph: &'v WeightedCsrGraph,
    shifts: ExpShifts,
    scratch: WeightedScratch,
    layers: WeightedLayers,
}

/// Per-seed samples of the weighted layers.
#[derive(Default)]
pub struct WeightedLayers {
    shift_ms: Vec<f64>,
    run_ms: Vec<f64>,
    parents_ms: Vec<f64>,
    dijkstra_ms: Vec<f64>,
    phases: Vec<f64>,
    buckets: Vec<f64>,
    relaxations: Vec<f64>,
    regions: Vec<f64>,
    workers_per_region: Vec<f64>,
    steals: Vec<f64>,
}

impl<'v, W: WeightedGraphView> WeightedProbe<'v, W> {
    pub fn new(view: &'v W, graph: &'v WeightedCsrGraph, warm_seed: u64) -> Self {
        let mut probe = WeightedProbe {
            view,
            graph,
            shifts: ExpShifts::default(),
            scratch: WeightedScratch::new(),
            layers: WeightedLayers::default(),
        };
        let opts = options(warm_seed);
        probe.shifts.regenerate(view.num_vertices(), &opts);
        let _ = probe.engine(&opts);
        probe
    }

    fn engine(&mut self, opts: &DecompOptions) -> (WeightedDecomposition, WeightedTelemetry) {
        partition_weighted_view_reusing(
            self.view,
            &self.shifts,
            opts.traversal,
            None,
            opts.determinism,
            &mut self.scratch,
        )
    }

    /// Probes shift generation, the Δ-stepping engine, weighted parents
    /// and the heap Dijkstra floor for one seed.
    pub fn run(&mut self, seed: u64, report: &mut Report) {
        let opts = options(seed);
        let (view, n) = (self.view, self.view.num_vertices());
        let shift_ms = timed(|| self.shifts.regenerate(n, &opts)).1;
        let epoch = mpx_runtime::stats::begin_epoch();
        let ((d, tel), run_ms) = timed(|| self.engine(&opts));
        let rt = epoch.finish();
        let out = &mut self.layers;
        out.shift_ms.push(shift_ms);
        out.run_ms.push(run_ms);
        out.phases.push(tel.phases as f64);
        out.buckets.push(tel.buckets as f64);
        out.relaxations.push(tel.relaxations as f64);
        out.regions.push(rt.regions as f64);
        out.workers_per_region.push(rt.avg_workers_per_region());
        out.steals.push(rt.steals as f64);
        out.parents_ms
            .push(timed(|| compute_parents_weighted(view, &d)).1);
        let sources: Vec<(Vertex, f64)> = d.centers.iter().map(|&c| (c, 0.0)).collect();
        let (floor, dijkstra_ms) = timed(|| multi_source_dijkstra(self.graph, &sources));
        out.dijkstra_ms.push(dijkstra_ms);
        report.check(
            match (0..n).find(|&v| floor[v] > d.dist_to_center[v] * (1.0 + 1e-9)) {
                None => Ok(()),
                Some(v) => Err(format!(
                    "seed {seed}: Dijkstra floor exceeds the label at {v}"
                )),
            },
        );
    }

    pub fn layers(&self) -> &WeightedLayers {
        &self.layers
    }
}

impl WeightedLayers {
    pub fn run_ms(&self) -> f64 {
        median(&self.shift_ms) + median(&self.run_ms)
    }

    pub fn dijkstra_ms(&self) -> f64 {
        median(&self.dijkstra_ms)
    }

    pub fn emit(&self, r: &mut Report) {
        r.metric("shift.gen_ms", median(&self.shift_ms), "ms");
        r.metric("wengine.run_ms", median(&self.run_ms), "ms");
        r.metric("wengine.parents_ms", median(&self.parents_ms), "ms");
        r.metric("wengine.phases", median(&self.phases), "count");
        r.metric("wengine.buckets", median(&self.buckets), "count");
        r.metric("wengine.relaxations", median(&self.relaxations), "count");
        r.metric("runtime.regions", median(&self.regions), "count");
        r.metric(
            "runtime.workers_per_region",
            median(&self.workers_per_region),
            "count",
        );
        r.metric("runtime.steals", median(&self.steals), "count");
        r.metric("floor.dijkstra_ms", self.dijkstra_ms(), "ms");
    }
}

/// Phase spans of the engine's round loop.
const ROUND_PHASES: [(&str, &str); 5] = [
    ("engine.wake", "engine.wake_ms"),
    ("engine.expand", "engine.expand_ms"),
    ("engine.settle", "engine.settle_ms"),
    ("engine.compact", "engine.compact_ms"),
    ("engine.scan", "engine.scan_ms"),
];

/// Where the time of traced unweighted runs went, one sample per run:
/// the summed time of each round phase span, the `engine.round` spans'
/// own time outside their phases, and the `engine.partition` time outside
/// any round (copy-out, parents, `from_raw`).
#[derive(Default)]
pub struct EngineSpans {
    phases: [Vec<f64>; ROUND_PHASES.len()],
    round_self: Vec<f64>,
    untraced: Vec<f64>,
}

impl EngineSpans {
    pub fn add(&mut self, trace: &Trace) {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut children_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &trace.spans {
            *children_ns.entry(s.parent).or_default() += s.duration_ns();
        }
        let own_ns = |name: &str| -> u64 {
            trace
                .spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| {
                    let covered = children_ns.get(&s.id).copied().unwrap_or(0);
                    s.duration_ns().saturating_sub(covered)
                })
                .sum()
        };
        for (samples, (span, _)) in self.phases.iter_mut().zip(ROUND_PHASES) {
            let total: u64 = trace
                .spans
                .iter()
                .filter(|s| s.name == span)
                .map(|s| s.duration_ns())
                .sum();
            samples.push(ms(total));
        }
        self.round_self.push(ms(own_ns("engine.round")));
        self.untraced.push(ms(own_ns("engine.partition")));
    }

    pub fn emit(&self, r: &mut Report) {
        for (samples, (_, metric)) in self.phases.iter().zip(ROUND_PHASES) {
            r.metric(metric, median(samples), "ms");
        }
        r.metric("engine.round_self_ms", median(&self.round_self), "ms");
        r.metric("engine.untraced_ms", median(&self.untraced), "ms");
    }
}
