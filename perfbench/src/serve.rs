//! `rmat-serve`: an RMAT graph written as a text edge list, parsed,
//! BFS-reordered and stored as a compressed v2 snapshot, and served by an
//! in-process `mpx_serve::Server`. Phase 1 is an open loop at a fixed
//! rate over two pipelined connections; phase 2 is a closed loop over two
//! connections.

use crate::common::{
    deadline, median, ms_since, peak_rss_mb, percentile, setups_in_children, timed, Report, Seeds,
    SetupTimes, WorkDir, BETA, RMAT_SEED,
};
use crate::layers::{options, EngineProbe, EngineSpans};
use crate::Args;
use mpx_compress::{
    apply_permutation, reorder_permutation, write_compressed_snapshot, MappedCompressedCsr, Reorder,
};
use mpx_decomp::{verify_decomposition, Workspace};
use mpx_graph::io::{self, GraphFormat, TextParser};
use mpx_graph::{gen, CsrGraph, GraphView};
use mpx_serve::protocol::{self, FrameKind};
use mpx_serve::{
    Client, ErrorReply, PartitionReply, PartitionRequest, ServeSnapshot, Server, ServerConfig,
    ServerStats, ShutdownHandle,
};
use mpx_trace::{Trace, Value};
use std::collections::{BTreeMap, VecDeque};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Open-loop send rate, requests per second. About half the closed-loop
/// capacity of the code this benchmark was written against (46–51 req/s
/// on 2 cores), and the same on every commit so latencies compare.
const OPEN_LOOP_RATE: f64 = 24.0;

/// Client connections (and server workers: the default, 2 on 2 cores).
const CONNECTIONS: usize = 2;

/// Latency recorded for a failed or refused request: beyond any limit.
const FAILED_MS: f64 = 1e6;

/// One request in every `SAMPLE_EVERY` is re-run in process on the
/// uncompressed graph and compared with its reply.
const SAMPLE_EVERY: usize = 16;

/// What a reply says about a decomposition, for the in-process comparison.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Summary {
    seed: u64,
    clusters: u64,
    cut_edges: u64,
    max_radius: f64,
}

/// Checks one reply frame against the request it answers.
fn check_reply(
    reply: Result<PartitionReply, String>,
    seed: u64,
    n: usize,
) -> Result<Summary, String> {
    let p = reply?;
    if !p.verified {
        return Err(format!("seed {seed}: reply not verified"));
    }
    if p.seed != seed || p.n != n as u64 {
        return Err(format!(
            "seed {seed}: reply for seed {} over n = {}",
            p.seed, p.n
        ));
    }
    Ok(Summary {
        seed,
        clusters: p.clusters,
        cut_edges: p.cut_edges,
        max_radius: p.max_radius,
    })
}

/// A running server plus what the benchmark sent it.
struct Live {
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    thread: JoinHandle<std::io::Result<ServerStats>>,
    sent: u64,
}

impl Live {
    /// Drains the server and checks its final counters: every request
    /// sent is served, rejected or an error, and none was refused or
    /// failed verification.
    fn stop(self, r: &mut Report) -> Result<ServerStats, String> {
        self.shutdown.shutdown();
        let stats = self
            .thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))?;
        let rejected = stats.rejected_overload + stats.drained;
        let errors = stats.verify_failures + stats.protocol_errors;
        r.check(if stats.served + rejected + errors != self.sent {
            Err(format!(
                "server accounts for {} of {} requests sent",
                stats.served + rejected + errors,
                self.sent
            ))
        } else if rejected + errors > 0 {
            Err(format!(
                "server rejected {rejected} and failed {errors} requests"
            ))
        } else {
            Ok(())
        });
        Ok(stats)
    }
}

/// The input files in the work directory.
fn files(dir: &Path) -> (PathBuf, PathBuf) {
    (dir.join("rmat.txt"), dir.join("rmat-v2.mpx"))
}

/// The set-up: text → parallel parse → BFS reorder → v2 encode →
/// validated open → bind → one warm-up request per connection. Also
/// returns the parsed graph, so the caller can compare it with the
/// generated one after the timing, and the open connections.
fn start(dir: &Path, warm_seed: u64) -> Result<(Live, CsrGraph, SetupTimes, Vec<Client>), String> {
    let (text, v2) = files(dir);
    let t = Instant::now();
    let (parsed, parse_ms) =
        timed(|| io::read_graph_as(&text, GraphFormat::EdgeList, TextParser::Parallel));
    let parsed = parsed.map_err(|e| format!("parse: {e}"))?;
    let ((perm, stored), reorder_ms) = timed(|| {
        let perm =
            reorder_permutation(&parsed, Reorder::Bfs).expect("BFS reorder has a permutation");
        let stored = apply_permutation(&parsed, &perm);
        (perm, stored)
    });
    let (written, encode_ms) = timed(|| write_compressed_snapshot(&stored, Some(&perm), &v2));
    written.map_err(|e| format!("v2 encode: {e}"))?;
    drop(stored);
    let (snap, open_ms) = timed(|| ServeSnapshot::open(&v2));
    let snap = snap.map_err(|e| format!("v2 open: {e}"))?;
    let server = Server::bind("127.0.0.1:0", vec![snap], ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let shutdown = server.shutdown_handle().map_err(|e| e.to_string())?;
    let thread = std::thread::spawn(move || server.run());
    let mut live = Live {
        addr,
        shutdown,
        thread,
        sent: 0,
    };
    let mut clients = Vec::new();
    for _ in 0..CONNECTIONS {
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        live.sent += 1;
        let reply = client.partition(&PartitionRequest::new(0, warm_seed, BETA));
        check_reply(
            reply.map_err(|e| e.to_string()),
            warm_seed,
            parsed.num_vertices(),
        )?;
        clients.push(client);
    }
    let times = vec![
        ("setup_s", t.elapsed().as_secs_f64()),
        ("io.parse_ms", parse_ms),
        ("compress.reorder_ms", reorder_ms),
        ("compress.encode_ms", encode_ms),
        ("compress.open_ms", open_ms),
    ];
    Ok((live, parsed, times, clients))
}

pub fn setup_only(a: &Args, dir: &Path) -> Result<SetupTimes, String> {
    let warm_seed = Seeds::new(a.seed).next();
    let (live, _, times, clients) = start(dir, warm_seed)?;
    drop(clients);
    let mut r = Report::default();
    live.stop(&mut r)?;
    match r.problems().first() {
        Some(p) => Err(p.clone()),
        None => Ok(times),
    }
}

/// Outcome of the open-loop phase.
struct OpenLoop {
    latency_ms: Vec<f64>,
    /// `(seed, latency)` of every successful request.
    by_seed: Vec<(u64, f64)>,
    late_ms: Vec<f64>,
    send_rate: f64,
    sampled: Vec<Summary>,
}

/// One request's seed, its latency in ms, and its checked reply.
type Outcome = (u64, f64, Result<Summary, String>);

struct Pending {
    due: Instant,
    seed: u64,
}

/// Sends `seeds.len()` requests at `rate` per second, alternating over
/// two pipelined connections, from this one generator thread; one reader
/// per connection times each reply from the moment its request was due.
fn open_loop(
    live: &mut Live,
    seeds: &[u64],
    rate: f64,
    n: usize,
    r: &mut Report,
) -> Result<OpenLoop, String> {
    let streams: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| {
            let s = TcpStream::connect(live.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            Ok(s)
        })
        .collect::<std::io::Result<_>>()
        .map_err(|e| format!("connect: {e}"))?;
    let queues: Vec<Mutex<VecDeque<Pending>>> = (0..CONNECTIONS)
        .map(|_| Mutex::new(VecDeque::new()))
        .collect();
    let mut late_ms = Vec::with_capacity(seeds.len());
    let start = Instant::now() + Duration::from_millis(20);
    let (outcomes, last_send) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (stream, queue) = (&streams[c], &queues[c]);
                let expected = (seeds.len() + CONNECTIONS - 1 - c) / CONNECTIONS;
                scope.spawn(move || read_replies(stream, queue, expected, n))
            })
            .collect();
        for (i, &seed) in seeds.iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let c = i % CONNECTIONS;
            queues[c]
                .lock()
                .expect("queue lock")
                .push_back(Pending { due, seed });
            late_ms.push(ms_since(due));
            let frame = PartitionRequest::new(0, seed, BETA).encode();
            if protocol::write_frame(&mut &streams[c], FrameKind::Partition, &frame).is_err() {
                // Unblocks the reader, which fails what is still pending.
                let _ = streams[c].shutdown(Shutdown::Both);
            }
        }
        let last_send = Instant::now();
        let outcomes: Vec<Vec<Outcome>> = readers
            .into_iter()
            .map(|h| h.join().expect("reply reader panicked"))
            .collect();
        (outcomes, last_send)
    });
    live.sent += seeds.len() as u64;
    let mut out = OpenLoop {
        latency_ms: Vec::with_capacity(seeds.len()),
        by_seed: Vec::with_capacity(seeds.len()),
        late_ms,
        send_rate: (seeds.len().max(2) - 1) as f64 / (last_send - start).as_secs_f64(),
        sampled: Vec::new(),
    };
    for (i, (seed, ms, outcome)) in outcomes.into_iter().flatten().enumerate() {
        match outcome {
            Ok(s) => {
                out.latency_ms.push(ms);
                out.by_seed.push((seed, ms));
                if i % SAMPLE_EVERY == 0 {
                    out.sampled.push(s);
                }
                r.check(Ok(()));
            }
            Err(e) => {
                out.latency_ms.push(FAILED_MS);
                r.check(Err(e));
            }
        }
    }
    Ok(out)
}

/// Reads `expected` replies off one connection, matching each to the
/// oldest pending request.
fn read_replies(
    stream: &TcpStream,
    queue: &Mutex<VecDeque<Pending>>,
    expected: usize,
    n: usize,
) -> Vec<Outcome> {
    let mut out = Vec::with_capacity(expected);
    let mut reader = stream;
    while out.len() < expected {
        let frame = protocol::read_frame(&mut reader);
        let arrived = Instant::now();
        let Some(p) = queue.lock().expect("queue lock").pop_front() else {
            // Nothing was sent yet for this reply slot: the write failed.
            out.push((0, FAILED_MS, Err("request never sent".into())));
            continue;
        };
        let ms = (arrived - p.due).as_secs_f64() * 1e3;
        let reply = match frame {
            Ok((FrameKind::PartitionReply, payload)) => {
                PartitionReply::decode(&payload).map_err(|e| e.to_string())
            }
            Ok((FrameKind::Error, payload)) => Err(match ErrorReply::decode(&payload) {
                Ok(e) => format!("refused: {e}"),
                Err(e) => e.to_string(),
            }),
            Ok((kind, _)) => Err(format!("unexpected reply kind {}", kind.as_u16())),
            Err(e) => {
                // The connection is gone: fail this and every later reply.
                out.push((p.seed, FAILED_MS, Err(format!("seed {}: {e}", p.seed))));
                while out.len() < expected {
                    out.push((0, FAILED_MS, Err("connection lost".into())));
                }
                break;
            }
        };
        out.push((p.seed, ms, check_reply(reply, p.seed, n)));
    }
    out
}

/// Closed loop: each of the connections sends its next request when the
/// previous reply arrives, until `end`. Returns successful requests per
/// second and the sampled replies.
fn closed_loop(
    live: &mut Live,
    clients: &mut [Client],
    base_seed: u64,
    end: Instant,
    n: usize,
    r: &mut Report,
) -> (f64, Vec<Summary>) {
    let t = Instant::now();
    let per_client: Vec<Vec<Result<Summary, String>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut seeds = Seeds::new(base_seed ^ c as u64);
                    let mut out = Vec::new();
                    while out.is_empty() || Instant::now() < end {
                        let seed = seeds.next();
                        let reply = client.partition(&PartitionRequest::new(0, seed, BETA));
                        out.push(check_reply(reply.map_err(|e| e.to_string()), seed, n));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let secs = t.elapsed().as_secs_f64();
    let mut ok = 0u64;
    let mut sampled = Vec::new();
    for (i, outcome) in per_client.into_iter().flatten().enumerate() {
        live.sent += 1;
        if let Ok(s) = outcome {
            ok += 1;
            if i % SAMPLE_EVERY == 0 {
                sampled.push(s);
            }
        }
        r.check(outcome.map(|_| ()));
    }
    (ok as f64 / secs, sampled)
}

/// Per traced request: the server-side `serve.run` span (compute), and
/// the request's latency minus it (queueing, protocol, wire), in ms.
fn serve_split(trace: &Trace, by_seed: &[(u64, f64)]) -> (Vec<f64>, Vec<f64>) {
    let runs: BTreeMap<u64, f64> = trace
        .spans
        .iter()
        .filter(|s| s.name == "serve.run")
        .filter_map(|s| match s.arg("seed") {
            Some(Value::U64(seed)) => Some((seed, s.duration_ns() as f64 / 1e6)),
            _ => None,
        })
        .collect();
    by_seed
        .iter()
        .filter_map(|(seed, latency)| runs.get(seed).map(|run| (*run, latency - run)))
        .unzip()
}

/// Re-runs sampled replies in process on the uncompressed graph.
fn compare_in_process(g: &CsrGraph, sampled: &[Summary], r: &mut Report) {
    let mut ws = Workspace::new();
    for s in sampled {
        let (d, _) = ws.partition_view(g, &options(s.seed));
        let local = Summary {
            seed: s.seed,
            clusters: d.num_clusters() as u64,
            cut_edges: d.cut_edges(g) as u64,
            max_radius: f64::from(d.max_radius()),
        };
        r.check(if local == *s {
            Ok(())
        } else {
            Err(format!("served {s:?} but in process {local:?}"))
        });
    }
}

pub fn run(a: &Args, r: &mut Report) -> Result<(), String> {
    let mut fixed = Seeds::new(a.seed);
    let (warm_seed, pin_seed) = (fixed.next(), fixed.next());
    let probe_seeds: Vec<u64> = (0..a.size.probes()).map(|_| fixed.next()).collect();
    let (open_seed, closed_seed) = (fixed.next(), fixed.next());

    let scale = a.size.rmat_scale();
    let g = gen::rmat(scale, 8 << scale, 0.57, 0.19, 0.19, RMAT_SEED);
    let n = g.num_vertices();
    let work = WorkDir::create().map_err(|e| format!("work dir: {e}"))?;
    io::write_edge_list(&g, files(work.path()).0).map_err(|e| format!("write input: {e}"))?;

    // Set-up: timed in fresh processes, then once here for the runs.
    let setups = setups_in_children(a, work.path())?;
    let (mut live, parsed, _, mut clients) = start(work.path(), warm_seed)?;
    r.attempted += CONNECTIONS as u64;
    r.check(if parsed == g {
        Ok(())
    } else {
        Err("parallel parse differs from the generated graph".into())
    });
    drop(parsed);

    // BitExact pin: a want_labels reply against in-process labels.
    let mut pin = PartitionRequest::new(0, pin_seed, BETA);
    pin.want_labels = true;
    live.sent += 1;
    let served = clients[0].partition(&pin).map_err(|e| e.to_string());
    let (local, _) = Workspace::new().partition_view(&g, &options(pin_seed));
    r.check(match served {
        Ok(p) if p.labels.as_deref() == Some(local.assignment()) => Ok(()),
        Ok(_) => Err("BitExact pin: served labels differ from in-process labels".into()),
        Err(e) => Err(format!("BitExact pin: {e}")),
    });

    let (open_share, closed_share) = if a.trace { (0.35, 0.15) } else { (0.65, 0.25) };
    let count = ((a.seconds * open_share * OPEN_LOOP_RATE) as usize).max(CONNECTIONS);
    let mut open_seeds = Seeds::new(open_seed);
    let seeds: Vec<u64> = (0..count).map(|_| open_seeds.next()).collect();
    let open = open_loop(&mut live, &seeds, OPEN_LOOP_RATE, n, r)?;
    let late_p99 = percentile(&open.late_ms, 0.99);
    // A generator behind its schedule would be reported as a slow server.
    r.check(
        if late_p99 > 500.0 / OPEN_LOOP_RATE || open.send_rate < 0.97 * OPEN_LOOP_RATE {
            Err(format!(
                "open loop invalid: generator late by {late_p99:.2} ms (p99), sent {:.2} req/s",
                open.send_rate
            ))
        } else {
            Ok(())
        },
    );
    let (rps, closed_sampled) = closed_loop(
        &mut live,
        &mut clients,
        closed_seed,
        deadline(a.seconds, closed_share),
        n,
        r,
    );
    // Traced run only: a short open loop under a trace session. The
    // server's `serve.run` span of each request is its compute (run,
    // check, reply statistics); the rest of the request's latency is
    // queueing, protocol and wire.
    let mut split = (Vec::new(), Vec::new());
    if a.trace {
        let mut traced_seeds = Seeds::new(closed_seed ^ 1);
        let seeds: Vec<u64> = (0..4 * a.size.probes())
            .map(|_| traced_seeds.next())
            .collect();
        let session = mpx_trace::start();
        let traced_open = open_loop(&mut live, &seeds, OPEN_LOOP_RATE, n, r)?;
        split = serve_split(&session.finish(), &traced_open.by_seed);
        compare_in_process(&g, &traced_open.sampled, r);
    }
    drop(clients);
    let addr = live.addr;
    let stats = live.stop(r)?;
    compare_in_process(&g, &open.sampled, r);
    compare_in_process(&g, &closed_sampled, r);

    let serve_p50 = median(&open.latency_ms);
    if !a.trace {
        r.metric("setup_s", setups.median("setup_s"), "s");
        r.metric("latency_ms.p50", serve_p50, "ms");
        r.metric("latency_ms.p90", percentile(&open.latency_ms, 0.9), "ms");
        r.metric("ops_per_s", rps, "1/s");
        r.metric("peak_rss_mb", peak_rss_mb(), "MB");
        eprintln!(
            "rmat-serve: {} open-loop requests to {addr}, {:.1} req/s closed loop",
            open.latency_ms.len(),
            rps
        );
        return Ok(());
    }

    // Traced run: set-up layers, server counters, generator, and the
    // layers of the server's run step, in process on the same snapshot.
    for name in [
        "io.parse_ms",
        "compress.reorder_ms",
        "compress.encode_ms",
        "compress.open_ms",
    ] {
        r.metric(name, setups.median(name), "ms");
    }
    r.metric(
        "serve.in_flight_hwm",
        f64::from(stats.in_flight_hwm),
        "count",
    );
    r.metric("serve.waiting_hwm", f64::from(stats.waiting_hwm), "count");
    r.metric(
        "serve.rejected_overload",
        stats.rejected_overload as f64,
        "count",
    );
    r.metric(
        "serve.verify_failures",
        stats.verify_failures as f64,
        "count",
    );
    r.metric("loadgen.late_ms.p99", late_p99, "ms");
    r.metric("loadgen.send_rate", open.send_rate, "1/s");

    let view =
        MappedCompressedCsr::open(files(work.path()).1).map_err(|e| format!("v2 open: {e}"))?;
    let perm = view.permutation().ok_or("v2 snapshot has no permutation")?;
    r.metric("compress.bytes_per_arc", view.bytes_per_arc(), "B/arc");

    // Per probe seed: the decomposition alone untraced (the reference),
    // traced, then each layer on its own.
    let mut ws = Workspace::new();
    let _ = ws.partition_view_permuted(&view, &options(warm_seed), perm);
    let mut probe = EngineProbe::new(&view, Some(perm), warm_seed);
    let (mut v2_ms, mut traced, mut outputs) = (Vec::new(), Vec::new(), Vec::new());
    let mut spans = EngineSpans::default();
    for &seed in &probe_seeds {
        let opts = options(seed);
        let ((d, _), ms) = timed(|| ws.partition_view_permuted(&view, &opts, perm));
        v2_ms.push(ms);
        let trace_session = mpx_trace::start();
        let t = Instant::now();
        let (traced_d, _) = ws.partition_view_permuted(&view, &opts, perm);
        traced.push(ms_since(t));
        let trace = trace_session.finish();
        spans.add(&trace);
        r.check(if traced_d == d {
            Ok(())
        } else {
            Err(format!("seed {seed}: traced labels differ from untraced"))
        });
        outputs.push(d);
        probe.run(seed, r);
    }
    // The same seeds over the uncompressed in-memory CSR: the decode
    // ratio's base, and the labels the v2 run must map back to.
    let mut ws_csr = Workspace::new();
    let _ = ws_csr.partition_view(&g, &options(warm_seed));
    let mut csr_ms = Vec::new();
    let mut references = Vec::new();
    for &seed in &probe_seeds {
        let ((reference, _), ms) = timed(|| ws_csr.partition_view(&g, &options(seed)));
        csr_ms.push(ms);
        references.push(reference);
    }
    let mut verify_ms = Vec::new();
    for ((seed, d), reference) in probe_seeds.iter().zip(&outputs).zip(&references) {
        let (report, ms) = timed(|| verify_decomposition(&g, reference));
        verify_ms.push(ms);
        r.check(if !report.is_valid() {
            Err(format!("seed {seed}: {:?}", report.errors))
        } else if d.remap_labels(perm).assignment() != reference.assignment() {
            Err(format!("seed {seed}: v2 labels differ from the CSR labels"))
        } else {
            Ok(())
        });
    }
    let decomp_p50 = median(&v2_ms);
    r.metric("decomp_ms.p50", decomp_p50, "ms");
    r.metric("decomp_ms.traced_p50", median(&traced), "ms");
    r.metric(
        "trace.overhead_frac",
        median(&traced) / decomp_p50 - 1.0,
        "ratio",
    );
    r.metric(
        "compress.decode_ratio",
        decomp_p50 / median(&csr_ms),
        "ratio",
    );
    r.metric("verify.full_ms", median(&verify_ms), "ms");
    r.metric("serve.compute_ms.p50", median(&split.0), "ms");
    r.metric("serve.overhead_ms", median(&split.1), "ms");
    spans.emit(r);

    let layers = probe.layers();
    layers.emit(view.total_degree(), r);
    r.metric("floor.ratio", decomp_p50 / layers.bfs_ms(), "ratio");
    r.metric(
        "layers.accounted_frac",
        layers.run_ms() / decomp_p50,
        "ratio",
    );
    Ok(())
}
