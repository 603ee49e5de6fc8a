//! Load generator: hammers a server with concurrent clients and
//! reports latency percentiles + throughput as `BENCH_serve_*.json`
//! (same hand-rolled JSON conventions as the other bench emitters).

use crate::client::{Client, ClientError};
use crate::protocol::{ErrorCode, PartitionRequest};
use mpx_decomp::{Determinism, Traversal};
use std::io;
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// What to throw at the server.
#[derive(Clone, Copy, Debug)]
pub struct LoadgenConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests per client.
    pub requests: usize,
    /// Snapshot id every request targets.
    pub snapshot: u32,
    /// β for every request.
    pub beta: f64,
    /// Base seed; request `i` of client `c` uses `seed + c*requests + i`.
    pub seed: u64,
    /// Traversal strategy for every request.
    pub traversal: Traversal,
    /// Determinism mode for every request.
    pub determinism: Determinism,
    /// Ask for the label array (costs bandwidth; off for latency runs).
    pub want_labels: bool,
    /// Skip server-side verification (measures the raw decomposition).
    pub skip_verify: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            clients: 4,
            requests: 32,
            snapshot: 0,
            beta: 0.1,
            seed: 1,
            traversal: Traversal::Auto,
            determinism: Determinism::BitExact,
            want_labels: false,
            skip_verify: false,
        }
    }
}

/// Aggregated results of one load-generation run.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// Target address the run hit.
    pub addr: String,
    /// Echo of the configuration.
    pub config: LoadgenConfig,
    /// Successful requests.
    pub ok: u64,
    /// Requests that exhausted their overload-retry budget.
    pub rejected: u64,
    /// Requests that failed with any other error.
    pub errors: u64,
    /// Total `overloaded` replies observed (including retried ones).
    pub overload_replies: u64,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
    /// Per-request latencies (successful requests only), sorted, in ms.
    pub latencies_ms: Vec<f64>,
}

impl LoadgenReport {
    /// Latency percentile in ms (q in `[0,1]`); 0.0 when nothing succeeded.
    pub fn percentile_ms(&self, q: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            0.0
        } else {
            mpx_trace::percentile(&self.latencies_ms, q)
        }
    }

    /// Mean latency in ms; 0.0 when nothing succeeded.
    pub fn mean_ms(&self) -> f64 {
        if self.latencies_ms.is_empty() {
            0.0
        } else {
            self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len() as f64
        }
    }

    /// Successful requests per second of wall-clock.
    pub fn requests_per_s(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.ok as f64 / secs
        } else {
            0.0
        }
    }

    /// Renders the `BENCH_serve` JSON document (stable key order, no
    /// external dependencies — same convention as the `mpx bench*` JSON).
    pub fn to_json(&self) -> String {
        let min = self.latencies_ms.first().copied().unwrap_or(0.0);
        let max = self.latencies_ms.last().copied().unwrap_or(0.0);
        format!(
            concat!(
                "{{\n",
                "  \"bench\": \"serve\",\n",
                "  \"addr\": \"{addr}\",\n",
                "  \"snapshot\": {snapshot},\n",
                "  \"beta\": {beta},\n",
                "  \"seed\": {seed},\n",
                "  \"strategy\": \"{strategy}\",\n",
                "  \"determinism\": \"{determinism}\",\n",
                "  \"clients\": {clients},\n",
                "  \"requests_per_client\": {rpc},\n",
                "  \"requests\": {requests},\n",
                "  \"ok\": {ok},\n",
                "  \"rejected\": {rejected},\n",
                "  \"errors\": {errors},\n",
                "  \"overload_replies\": {overload},\n",
                "  \"elapsed_ms\": {elapsed:.3},\n",
                "  \"latency_ms\": {{\n",
                "    \"p50\": {p50:.3},\n",
                "    \"p99\": {p99:.3},\n",
                "    \"mean\": {mean:.3},\n",
                "    \"min\": {min:.3},\n",
                "    \"max\": {max:.3}\n",
                "  }},\n",
                "  \"requests_per_s\": {rps:.3}\n",
                "}}\n"
            ),
            addr = self.addr,
            snapshot = self.config.snapshot,
            beta = self.config.beta,
            seed = self.config.seed,
            strategy = self.config.traversal.as_str(),
            determinism = self.config.determinism.as_str(),
            clients = self.config.clients,
            rpc = self.config.requests,
            requests = self.config.clients * self.config.requests,
            ok = self.ok,
            rejected = self.rejected,
            errors = self.errors,
            overload = self.overload_replies,
            elapsed = self.elapsed.as_secs_f64() * 1e3,
            p50 = self.percentile_ms(0.50),
            p99 = self.percentile_ms(0.99),
            mean = self.mean_ms(),
            min = min,
            max = max,
            rps = self.requests_per_s(),
        )
    }
}

/// Max retries on an `overloaded` reply before counting the request as
/// rejected.
const OVERLOAD_RETRIES: u32 = 200;

/// Backoff between overload retries.
const OVERLOAD_BACKOFF: Duration = Duration::from_micros(500);

/// Runs the load: `clients` threads, each its own connection, each
/// firing `requests` sequential partition requests with distinct seeds.
/// Overloaded replies are retried with backoff (counted separately) so
/// a saturated server degrades to queueing, not failure.
pub fn run<A: ToSocketAddrs + Clone + Send + Sync>(
    addr: A,
    config: &LoadgenConfig,
) -> io::Result<LoadgenReport> {
    let addr_str = addr
        .clone()
        .to_socket_addrs()?
        .next()
        .map(|a| a.to_string())
        .unwrap_or_default();
    let ok = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let overload_replies = AtomicU64::new(0);
    let start = Instant::now();
    let mut latencies: Vec<f64> = Vec::new();

    std::thread::scope(|scope| -> io::Result<()> {
        let mut handles = Vec::with_capacity(config.clients);
        for c in 0..config.clients {
            let addr = addr.clone();
            let (ok, rejected, errors, overload_replies) =
                (&ok, &rejected, &errors, &overload_replies);
            handles.push(scope.spawn(move || -> io::Result<Vec<f64>> {
                let mut client = Client::connect(addr)?;
                let mut lats = Vec::with_capacity(config.requests);
                for i in 0..config.requests {
                    let mut req = PartitionRequest::new(
                        config.snapshot,
                        config.seed + (c * config.requests + i) as u64,
                        config.beta,
                    );
                    req.traversal = config.traversal;
                    req.determinism = config.determinism;
                    req.want_labels = config.want_labels;
                    req.skip_verify = config.skip_verify;

                    let t0 = Instant::now();
                    let mut attempts = 0u32;
                    loop {
                        match client.partition(&req) {
                            Ok(_) => {
                                lats.push(t0.elapsed().as_secs_f64() * 1e3);
                                ok.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Err(ClientError::Server(e)) if e.code == ErrorCode::Overloaded => {
                                overload_replies.fetch_add(1, Ordering::Relaxed);
                                attempts += 1;
                                if attempts > OVERLOAD_RETRIES {
                                    rejected.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                                std::thread::sleep(OVERLOAD_BACKOFF);
                            }
                            Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                }
                Ok(lats)
            }));
        }
        for h in handles {
            let lats = h.join().expect("loadgen client thread panicked")?;
            latencies.extend(lats);
        }
        Ok(())
    })?;

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    Ok(LoadgenReport {
        addr: addr_str,
        config: *config,
        ok: ok.into_inner(),
        rejected: rejected.into_inner(),
        errors: errors.into_inner(),
        overload_replies: overload_replies.into_inner(),
        elapsed: start.elapsed(),
        latencies_ms: latencies,
    })
}
