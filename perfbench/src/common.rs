//! Shared pieces of the benchmark: the seed stream, timing samples and
//! percentiles, the metric report and its JSON line, peak memory, and the
//! scratch directory the inputs are written to.

use crate::Args;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// β of every workload.
pub const BETA: f64 = 0.1;

/// Generator seed of the RMAT graph (and of its hashed edge lengths). The
/// graph is the same in every run, so runs differ only in the seeds drawn
/// from `--seed`, not in graph structure.
pub const RMAT_SEED: u64 = 1;

/// Input sizes. `Full` is what the benchmark measures; `Tiny` keeps the
/// same code paths on graphs small enough for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// grid 1000², rmat:16:8.
    Full,
    /// grid 40², rmat:10:8.
    Tiny,
}

impl Size {
    pub fn token(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }

    /// Side of the square grid.
    pub fn grid_side(self) -> usize {
        match self {
            Size::Full => 1000,
            Size::Tiny => 40,
        }
    }

    /// RMAT scale (n = 2^scale, m ≈ 8n before deduplication).
    pub fn rmat_scale(self) -> u32 {
        match self {
            Size::Full => 16,
            Size::Tiny => 10,
        }
    }

    /// Set-ups per run, each in a process of its own; `setup_s` is their
    /// median.
    pub fn setups(self) -> usize {
        match self {
            Size::Full => 5,
            Size::Tiny => 2,
        }
    }

    /// Seeds of the per-layer probes in a traced run (a fixed count, so
    /// count metrics repeat exactly for one workload seed).
    pub fn probes(self) -> u64 {
        match self {
            Size::Full => 9,
            Size::Tiny => 3,
        }
    }
}

/// Seeds derived from the workload seed: a SplitMix64 stream, so every
/// input and every per-run decomposition seed is a pure function of
/// `--seed`.
pub struct Seeds(u64);

impl Seeds {
    pub fn new(seed: u64) -> Self {
        Seeds(seed ^ 0x6d70_7862_656e_6368)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with its wall time in ms.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = std::hint::black_box(f());
    (r, ms_since(t))
}

/// Linear-interpolated percentile (`q` in `[0, 1]`) of unsorted samples;
/// 0 for no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// A deadline `seconds` from now, scaled by `share`.
pub fn deadline(seconds: f64, share: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64((seconds * share).max(0.0))
}

/// Peak resident memory of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The run's outcome: operations attempted and failed, the reasons of
/// the failures, and the metrics in emission order.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Records one checked operation; `Err` counts it as failed. The first
    /// 20 reasons are kept for the report.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(why);
            }
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn problems(&self) -> &[String] {
        &self.problems
    }

    /// The one-line JSON result, with the metrics in `catalog` order and
    /// units. With `idle_zero`, a catalog metric the workload did not
    /// emit is a layer it does not exercise and reads 0; otherwise every
    /// catalog metric must have been emitted. Non-finite values, which
    /// only a broken run produces, are written as `null`.
    pub fn to_json(
        &self,
        catalog: &[(&'static str, &'static str)],
        idle_zero: bool,
    ) -> Result<String, String> {
        if let Some((name, _, _)) = self
            .metrics
            .iter()
            .find(|(name, _, _)| !catalog.iter().any(|(c, _)| c == name))
        {
            return Err(format!("metric {name} is not in the catalog"));
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, &(name, unit)) in catalog.iter().enumerate() {
            let value = match self.metrics.iter().find(|(n, _, _)| *n == name) {
                Some(&(_, v, u)) if u == unit => v,
                Some(&(_, _, u)) => {
                    return Err(format!("metric {name} in {u}, catalog says {unit}"))
                }
                None if idle_zero => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// A scratch directory for the generated inputs, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create() -> std::io::Result<WorkDir> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Timings of one set-up, by metric name; `setup_s` is the whole set-up.
pub type SetupTimes = Vec<(&'static str, f64)>;

/// Samples of every set-up timing across the set-ups of a run.
pub struct Setups(BTreeMap<String, Vec<f64>>);

impl Setups {
    pub fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
}

/// Runs the workload's set-up `a.size.setups()` times, one after the
/// other, each in a fresh process of this benchmark started with
/// `--setup-only <dir>`: every set-up starts cold, like a program start,
/// and this process's heap and peak memory carry none of them.
pub fn setups_in_children(a: &Args, dir: &Path) -> Result<Setups, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for _ in 0..a.size.setups() {
        let out = Command::new(&exe)
            .args(["--workload", &a.workload, "--seed", &a.seed.to_string()])
            .args(["--seconds", "1", "--trace", "0", "--size", a.size.token()])
            .arg("--setup-only")
            .arg(dir)
            .output()
            .map_err(|e| format!("set-up process: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "set-up process failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let (name, value) = line
                .split_once(' ')
                .and_then(|(n, v)| Some((n, v.parse::<f64>().ok()?)))
                .ok_or_else(|| format!("set-up process printed {line:?}"))?;
            samples.entry(name.to_string()).or_default().push(value);
        }
    }
    Ok(Setups(samples))
}
