//! The mpx benchmark: one command runs a named workload from a seed,
//! checks every output, and prints one JSON line of metrics.
//!
//! ```text
//! mpx-perfbench --workload <grid-session|rmat-serve|wrmat-session>
//!               --seed <n> --seconds <s> --trace <0|1> [--size tiny]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics of a separate, traced run. The last line of standard
//! output is `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! The exit code is 0 only for a correct run. See README.md.

mod common;
mod grid;
mod layers;
mod serve;
mod wrmat;

use common::{Report, Size};

/// End-to-end metrics, emitted on every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, emitted on every workload with `--trace 1`. A layer
/// the workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("io.parse_ms", "ms"),
    ("snapshot.write_ms", "ms"),
    ("snapshot.open_ms", "ms"),
    ("compress.reorder_ms", "ms"),
    ("compress.encode_ms", "ms"),
    ("compress.open_ms", "ms"),
    ("compress.bytes_per_arc", "B/arc"),
    ("compress.decode_ratio", "ratio"),
    ("decomp_ms.p50", "ms"),
    ("decomp_ms.traced_p50", "ms"),
    ("shift.gen_ms", "ms"),
    ("engine.run_ms", "ms"),
    ("engine.wake_ms", "ms"),
    ("engine.expand_ms", "ms"),
    ("engine.settle_ms", "ms"),
    ("engine.compact_ms", "ms"),
    ("engine.scan_ms", "ms"),
    ("engine.round_self_ms", "ms"),
    ("engine.untraced_ms", "ms"),
    ("engine.rounds", "count"),
    ("engine.bottom_up_rounds", "count"),
    ("engine.arcs_scanned", "count"),
    ("engine.scan_ratio", "ratio"),
    ("finalize.parents_ms", "ms"),
    ("finalize.from_raw_ms", "ms"),
    ("verify.internal_ms", "ms"),
    ("verify.full_ms", "ms"),
    ("wengine.run_ms", "ms"),
    ("wengine.parents_ms", "ms"),
    ("wengine.phases", "count"),
    ("wengine.buckets", "count"),
    ("wengine.relaxations", "count"),
    ("runtime.regions", "count"),
    ("runtime.workers_per_region", "count"),
    ("runtime.steals", "count"),
    ("serve.compute_ms.p50", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.in_flight_hwm", "count"),
    ("serve.waiting_hwm", "count"),
    ("serve.rejected_overload", "count"),
    ("serve.verify_failures", "count"),
    ("loadgen.late_ms.p99", "ms"),
    ("loadgen.send_rate", "1/s"),
    ("floor.bfs_ms", "ms"),
    ("floor.dijkstra_ms", "ms"),
    ("floor.ratio", "ratio"),
    ("layers.accounted_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("fail_frac", "ratio"),
];

/// Checked command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Set-up only: run the workload's set-up once on the inputs already
    /// in this directory, print its timings, and exit.
    pub setup_only: Option<std::path::PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let seed = get("--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|_| "bad --seed")?;
    let seconds: f64 = get("--seconds")
        .ok_or("missing --seconds")?
        .parse()
        .map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace").ok_or("missing --trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let size = match get("--size").as_deref() {
        None | Some("full") => Size::Full,
        Some("tiny") => Size::Tiny,
        Some(other) => return Err(format!("unknown --size {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        size,
        setup_only: get("--setup-only").map(Into::into),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Some(dir) = &args.setup_only {
        let times = match args.workload.as_str() {
            "grid-session" => grid::setup_only(&args, dir),
            "rmat-serve" => serve::setup_only(&args, dir),
            "wrmat-session" => wrmat::setup_only(&args, dir),
            other => Err(format!("unknown workload {other}")),
        };
        match times {
            Ok(times) => times.iter().for_each(|(name, v)| println!("{name} {v}")),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "grid-session" => grid::run(&args, &mut report),
        "rmat-serve" => serve::run(&args, &mut report),
        "wrmat-session" => wrmat::run(&args, &mut report),
        other => {
            eprintln!("error: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    let json = if args.trace {
        report.metric("fail_frac", report.fail_frac(), "ratio");
        report.to_json(PER_LAYER, true)
    } else {
        report.to_json(END_TO_END, false)
    };
    for p in report.problems() {
        eprintln!("check failed: {p}");
    }
    match json {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    if !report.correct() {
        std::process::exit(1);
    }
}
