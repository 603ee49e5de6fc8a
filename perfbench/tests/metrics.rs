//! The benchmark's own tests, at tiny sizes: every declared metric is
//! emitted with its declared unit, each layer reads non-zero exactly on
//! the workloads that exercise it, and count metrics repeat exactly for
//! one seed.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::{Mutex, OnceLock};

const WORKLOADS: [&str; 3] = ["grid-session", "rmat-serve", "wrmat-session"];

/// A minimal JSON value: enough for BENCHMARK.json and the result line.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            other => panic!("not a number: {other:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }
    fn value(b: &[u8], i: &mut usize) -> Json {
        ws(b, i);
        match b[*i] {
            b'{' => {
                *i += 1;
                let mut fields = Vec::new();
                loop {
                    ws(b, i);
                    if b[*i] == b'}' {
                        *i += 1;
                        return Json::Obj(fields);
                    }
                    let Json::Str(key) = value(b, i) else {
                        panic!("object key is not a string")
                    };
                    ws(b, i);
                    assert_eq!(b[*i], b':');
                    *i += 1;
                    fields.push((key, value(b, i)));
                    ws(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'[' => {
                *i += 1;
                let mut items = Vec::new();
                loop {
                    ws(b, i);
                    if b[*i] == b']' {
                        *i += 1;
                        return Json::Arr(items);
                    }
                    items.push(value(b, i));
                    ws(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'"' => {
                let start = *i + 1;
                *i = start;
                while b[*i] != b'"' {
                    assert_ne!(b[*i], b'\\', "escapes are not expected");
                    *i += 1;
                }
                *i += 1;
                Json::Str(String::from_utf8(b[start..*i - 1].to_vec()).unwrap())
            }
            _ => {
                let start = *i;
                while *i < b.len() && !b",}] \n".contains(&b[*i]) {
                    *i += 1;
                }
                match &text_of(b, start, *i)[..] {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Null,
                    t => Json::Num(t.parse().unwrap_or_else(|_| panic!("bad number {t}"))),
                }
            }
        }
    }
    fn text_of(b: &[u8], from: usize, to: usize) -> String {
        String::from_utf8(b[from..to].to_vec()).unwrap()
    }
    let mut i = 0;
    value(text.as_bytes(), &mut i)
}

/// `(name, unit)` of the declared metrics of one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"));
    let Json::Arr(items) = spec.get(section) else {
        panic!("{section} is not a list")
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// The metrics of one tiny run, `name → (value, unit)`, memoized so the
/// tests share runs.
fn run(workload: &str, trace: bool, seed: u64) -> BTreeMap<String, (f64, String)> {
    type Runs = Mutex<BTreeMap<(String, bool, u64), BTreeMap<String, (f64, String)>>>;
    static RUNS: OnceLock<Runs> = OnceLock::new();
    let key = (workload.to_string(), trace, seed);
    if let Some(m) = RUNS.get_or_init(Default::default).lock().unwrap().get(&key) {
        return m.clone();
    }
    let out = Command::new(env!("CARGO_BIN_EXE_mpx-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.5", "--trace", if trace { "1" } else { "0" }])
        .args(["--size", "tiny"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace={trace}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = parse(stdout.lines().last().expect("a result line"));
    assert_eq!(result.get("correct"), &Json::Bool(true));
    assert_eq!(result.get("failed").num(), 0.0);
    assert!(result.get("attempted").num() >= 1.0);
    let Json::Obj(fields) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    let metrics: BTreeMap<String, (f64, String)> = fields
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                (v.get("value").num(), v.get("unit").str().to_string()),
            )
        })
        .collect();
    RUNS.get_or_init(Default::default)
        .lock()
        .unwrap()
        .insert(key, metrics.clone());
    metrics
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want: BTreeMap<String, String> = declared(section).into_iter().collect();
        for w in WORKLOADS {
            let got: BTreeMap<String, String> = run(w, trace, 1)
                .into_iter()
                .map(|(k, (_, unit))| (k, unit))
                .collect();
            assert_eq!(got, want, "{w} {section}");
        }
    }
}

#[test]
fn end_to_end_metrics_are_positive() {
    for w in WORKLOADS {
        for (name, (value, _)) in run(w, false, 1) {
            assert!(value > 0.0, "{w}: {name} = {value}");
        }
    }
}

#[test]
fn layers_read_non_zero_exactly_on_their_workloads() {
    let on = |metric: &str, workloads: &[&str]| {
        for w in WORKLOADS {
            let value = run(w, true, 1)[metric].0;
            assert_eq!(
                value > 0.0,
                workloads.contains(&w),
                "{metric} = {value} on {w}"
            );
        }
    };
    let (grid, serve, weighted) = ("grid-session", "rmat-serve", "wrmat-session");
    on("io.parse_ms", &[grid, serve, weighted]);
    on("shift.gen_ms", &[grid, serve, weighted]);
    on("runtime.regions", &[grid, serve, weighted]);
    on("floor.ratio", &[grid, serve, weighted]);
    on("snapshot.open_ms", &[grid, weighted]);
    on("verify.full_ms", &[grid, serve, weighted]);
    for m in [
        "compress.encode_ms",
        "compress.open_ms",
        "compress.bytes_per_arc",
        "compress.decode_ratio",
        "serve.compute_ms.p50",
        "serve.in_flight_hwm",
        "loadgen.send_rate",
    ] {
        on(m, &[serve]);
    }
    for m in [
        "engine.run_ms",
        "engine.expand_ms",
        "engine.scan_ms",
        "engine.untraced_ms",
        "engine.rounds",
        "engine.arcs_scanned",
        "finalize.from_raw_ms",
        "verify.internal_ms",
        "floor.bfs_ms",
    ] {
        on(m, &[grid, serve]);
    }
    for m in [
        "wengine.run_ms",
        "wengine.phases",
        "wengine.relaxations",
        "floor.dijkstra_ms",
    ] {
        on(m, &[weighted]);
    }
    for w in WORKLOADS {
        let m = run(w, true, 1);
        assert_eq!(m["fail_frac"].0, 0.0, "{w}");
        assert_eq!(m["serve.rejected_overload"].0, 0.0, "{w}");
        assert_eq!(m["serve.verify_failures"].0, 0.0, "{w}");
    }
}

#[test]
fn counts_repeat_exactly_for_one_seed() {
    let counts = [
        "engine.rounds",
        "engine.arcs_scanned",
        "wengine.phases",
        "wengine.relaxations",
        "runtime.regions",
    ];
    for w in WORKLOADS {
        let a = run(w, true, 1);
        let again = {
            // A second run of seed 1, not served from the memo.
            let out = Command::new(env!("CARGO_BIN_EXE_mpx-perfbench"))
                .args(["--workload", w, "--seed", "1", "--seconds", "0.5"])
                .args(["--trace", "1", "--size", "tiny"])
                .output()
                .expect("run the benchmark");
            assert!(out.status.success());
            let stdout = String::from_utf8(out.stdout).unwrap();
            parse(stdout.lines().last().unwrap())
        };
        for c in counts {
            assert_eq!(
                again.get("metrics").get(c).get("value").num(),
                a[c].0,
                "{w} {c}"
            );
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "grid-session",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "grid-session",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--workload", "grid-session", "--seed", "1", "--trace", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mpx-perfbench"))
            .args(args)
            .output()
            .expect("run the benchmark");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
