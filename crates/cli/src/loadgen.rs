//! `nf loadgen <run_dir>`: a deterministic load generator for `nf serve`;
//! its report is the run directory's `metrics.json`.
//!
//! Determinism is the point: the request *schedule* is a pure function of
//! the run's config — request `k` carries test-split sample
//! `k % test.len()` under SLO tier `weighted_pick(splitmix64(seed, k))`,
//! issued over `connections` connections (request `k` on connection
//! `k % connections`). With `[loadgen] inflight > connections` each
//! connection pipelines `inflight / connections` requests, matching
//! replies by the echoed request id — replicated servers complete out of
//! order. All the sockets are driven by **one mux thread** on a single
//! epoll instance (the caller's thread; `connections = 1024` costs 1024
//! fds, not 1024 threads), mirroring the server's reactor, so one
//! generator process can fan into a server at any connection count. Since
//! the served model is the run's checkpoint, the exit-depth histogram and
//! every per-request prediction are reproducible bit for bit; only
//! wall-clock latencies vary run to run.
//! The report therefore separates the deterministic fields (exit
//! histogram, per-tier request counts) from the host-dependent ones
//! (latency percentiles, requests/sec, per-replica `busy_frac` /
//! `batches` / `served`, `host_cores`).

use crate::config::RunConfig;
use crate::error::{CliError, Result};
use crate::net::reactor::{Conn, ReadEnd, READ_CHUNK};
use crate::net::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN};
use crate::progress::say;
use crate::proto::{self, RejectReason, Request, Response};
use crate::serve::{build_engines, start_server_with_engines, TrainedRun};
use neuroflux_core::serve::splitmix64;
use neuroflux_core::{latency_percentiles, SloTier};
use nf_value::{Table, Value};
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::time::Instant;

/// CLI options for `nf loadgen`.
#[derive(Debug, Default)]
pub struct LoadgenOptions {
    /// Target an already-running server instead of self-hosting one,
    /// which must be serving the same run.
    pub addr: Option<String>,
    /// Suppress progress output.
    pub quiet: bool,
}

/// One request's fate, as observed by the client.
#[derive(Debug, Clone, Copy)]
enum Outcome {
    Ok {
        exit: usize,
        latency_us: u64,
    },
    Rejected {
        reason: RejectReason,
        latency_us: u64,
    },
}

/// A pre-planned request (the deterministic schedule).
struct Job {
    seq: u64,
    tier: SloTier,
    sample: usize,
}

/// Per-tier aggregate statistics.
#[derive(Debug, Clone)]
pub struct TierStats {
    /// The SLO tier.
    pub tier: SloTier,
    /// Deepest exit head this tier may use.
    pub max_exit: usize,
    /// Queue deadline for this tier, microseconds.
    pub deadline_us: u64,
    /// Requests issued under this tier.
    pub requests: usize,
    /// Requests served.
    pub ok: usize,
    /// Requests rejected (any reason).
    pub rejected: usize,
    /// Median client-observed latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile client-observed latency, microseconds.
    pub p99_us: u64,
    /// Exit-depth histogram for this tier's served requests.
    pub exit_hist: Vec<usize>,
}

/// Aggregated results of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Served model name.
    pub model: String,
    /// Number of exit heads in the served model.
    pub n_units: usize,
    /// Total requests issued.
    pub requests: usize,
    /// Client connections used.
    pub connections: usize,
    /// Requests the mux kept in flight across all connections: the
    /// per-connection [`pipeline_window`] times `connections` (equals
    /// `connections` for the plain closed loop), capped by `requests`.
    pub inflight: usize,
    /// Batcher/model replicas on the serving side (from the config when
    /// targeting an external server).
    pub replicas: usize,
    /// Per-replica busy fraction (time inside `infer_batch` / server
    /// lifetime); empty when targeting an external server.
    pub busy_frac: Vec<f64>,
    /// Per-replica micro-batches run; empty like `busy_frac`.
    pub batches: Vec<u64>,
    /// Per-replica requests served; empty like `busy_frac`.
    pub served: Vec<u64>,
    /// Schedule seed.
    pub seed: u64,
    /// Requests served end to end.
    pub ok: usize,
    /// Requests rejected (admission, deadline, shutdown, bad input).
    pub rejected: usize,
    /// Rejection counts by reason name.
    pub rejected_by_reason: Vec<(String, usize)>,
    /// Exit-depth histogram over all served requests (index = exit head).
    pub exit_hist: Vec<usize>,
    /// Median client-observed latency, microseconds.
    pub p50_us: u64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Completed requests per second of wall clock.
    pub rps: f64,
    /// Per-tier breakdown, in `SloTier::ALL` order.
    pub tiers: Vec<TierStats>,
    /// Cores on the host that produced the latency numbers.
    pub host_cores: usize,
    /// `accept(2)` fd-exhaustion backoffs on the serving side (0 when
    /// targeting an external server, whose counter is unreadable from
    /// here).
    pub accept_exhausted: u64,
}

impl LoadgenReport {
    /// Renders the report as the run directory's `metrics.json` document.
    pub fn to_value(&self) -> Value {
        let mut t = Table::new();
        t.insert("kind", Value::Str("serve".into()));
        t.insert("model", Value::Str(self.model.clone()));
        t.insert("n_units", Value::Int(self.n_units as i64));
        t.insert("requests", Value::Int(self.requests as i64));
        t.insert("connections", Value::Int(self.connections as i64));
        t.insert("inflight", Value::Int(self.inflight as i64));
        t.insert("replicas", Value::Int(self.replicas as i64));
        t.insert(
            "busy_frac",
            Value::Array(self.busy_frac.iter().map(|&b| Value::Float(b)).collect()),
        );
        let ints = |v: &[u64]| Value::Array(v.iter().map(|&c| Value::Int(c as i64)).collect());
        t.insert("batches", ints(&self.batches));
        t.insert("served", ints(&self.served));
        t.insert("seed", Value::Int(self.seed as i64));
        t.insert("ok", Value::Int(self.ok as i64));
        t.insert("rejected", Value::Int(self.rejected as i64));
        let mut rej = Table::new();
        for (name, count) in &self.rejected_by_reason {
            rej.insert(name, Value::Int(*count as i64));
        }
        t.insert("rejected_by_reason", rej.build());
        t.insert(
            "exit_hist",
            Value::Array(
                self.exit_hist
                    .iter()
                    .map(|&c| Value::Int(c as i64))
                    .collect(),
            ),
        );
        let mut lat = Table::new();
        lat.insert("p50", Value::Int(self.p50_us as i64));
        lat.insert("p95", Value::Int(self.p95_us as i64));
        lat.insert("p99", Value::Int(self.p99_us as i64));
        t.insert("latency_us", lat.build());
        t.insert("rps", Value::Float(self.rps));
        let tiers = self
            .tiers
            .iter()
            .map(|s| {
                let mut tt = Table::new();
                tt.insert("tier", Value::Str(s.tier.name().into()));
                tt.insert("max_exit", Value::Int(s.max_exit as i64));
                tt.insert("deadline_us", Value::Int(s.deadline_us as i64));
                tt.insert("requests", Value::Int(s.requests as i64));
                tt.insert("ok", Value::Int(s.ok as i64));
                tt.insert("rejected", Value::Int(s.rejected as i64));
                tt.insert("p50_us", Value::Int(s.p50_us as i64));
                tt.insert("p99_us", Value::Int(s.p99_us as i64));
                tt.insert(
                    "exit_hist",
                    Value::Array(s.exit_hist.iter().map(|&c| Value::Int(c as i64)).collect()),
                );
                tt.build()
            })
            .collect();
        t.insert("tiers", Value::Array(tiers));
        t.insert("host_cores", Value::Int(self.host_cores as i64));
        t.insert("accept_exhausted", Value::Int(self.accept_exhausted as i64));
        t.build()
    }
}

/// Per-connection pipeline window: how many requests one connection keeps
/// in flight. `[loadgen] inflight = 0` is the plain closed loop (one
/// each); otherwise the integer share of `inflight`, never below 1. The
/// mux keeps `pipeline_window × connections` requests in flight.
pub fn pipeline_window(inflight: usize, connections: usize) -> usize {
    if inflight == 0 {
        1
    } else {
        (inflight / connections.max(1)).max(1)
    }
}

/// Picks a tier from `weights` using the schedule PRNG draw `bits`.
fn pick_tier(bits: u64, weights: &[usize; 3]) -> SloTier {
    let total: usize = weights.iter().sum::<usize>().max(1);
    let mut r = (bits % total as u64) as usize;
    for (tier, &w) in SloTier::ALL.iter().zip(weights.iter()) {
        if r < w {
            return *tier;
        }
        r -= w;
    }
    SloTier::Exact
}

/// Builds the deterministic request schedule for `cfg`.
fn build_jobs(cfg: &RunConfig, n_samples: usize, seed: u64) -> Vec<Job> {
    let lg = cfg.loadgen();
    (0..lg.requests as u64)
        .map(|k| Job {
            seq: k,
            tier: pick_tier(splitmix64(seed, k), &lg.tier_weights),
            sample: (k as usize) % n_samples.max(1),
        })
        .collect()
}

/// One loadgen connection: the shared [`Conn`] (taken once finished or
/// closed by the server) plus its slice of the schedule and its
/// in-flight window.
struct Client<'a> {
    conn: Option<Conn>,
    /// This connection's slice of the schedule, in order.
    jobs: &'a [Job],
    /// Next job index not yet entered into the window.
    next: usize,
    /// In-flight requests: tier + send instant, keyed by request id.
    pending: BTreeMap<u64, (SloTier, Instant)>,
}

impl Client<'_> {
    /// Tops up the pipeline window: encodes and queues requests until
    /// `window` are in flight or the schedule slice is exhausted.
    /// Latency is measured from the instant a request enters the window
    /// (when its frame is queued), so per-tier attribution survives
    /// pipelining.
    fn top_up(&mut self, images: &[f32], pixels_per_sample: usize, window: usize) -> Result<()> {
        let Some(conn) = self.conn.as_mut() else {
            return Ok(());
        };
        while self.pending.len() < window {
            let Some(job) = self.jobs.get(self.next) else {
                break;
            };
            let start = job.sample * pixels_per_sample;
            let pixels = start
                .checked_add(pixels_per_sample)
                .and_then(|end| images.get(start..end))
                .ok_or_else(|| {
                    CliError::new(format!(
                        "request {} maps to sample {} beyond the test set",
                        job.seq, job.sample
                    ))
                })?;
            let payload = proto::encode_request(&Request::Infer {
                id: job.seq,
                tier: job.tier,
                pixels: pixels.to_vec(),
            });
            let wire = proto::frame_bytes(&payload)
                .map_err(|e| CliError::new(format!("encoding request {}: {e}", job.seq)))?;
            #[expect(
                clippy::disallowed_methods,
                reason = "client-observed latency is what a load generator measures; \
                          the seeded schedule and the predictions never read it"
            )]
            let sent = Instant::now();
            self.pending.insert(job.seq, (job.tier, sent));
            conn.queue(wire);
            self.next += 1;
        }
        Ok(())
    }

    /// Flushes what the socket will take and reconciles epoll interest
    /// (readable while replies are owed); closes the connection once
    /// every job is sent and every reply is in.
    fn sync(&mut self, epoll: &Epoll, idx: usize) -> Result<()> {
        let Some(conn) = self.conn.as_mut() else {
            return Ok(());
        };
        let flushed = conn
            .sync(epoll, idx as u64, !self.pending.is_empty())
            .map_err(|e| CliError::new(format!("sending to the server: {e}")))?;
        if flushed && self.pending.is_empty() && self.next >= self.jobs.len() {
            self.close(epoll);
        }
        Ok(())
    }

    /// Deregisters and closes the socket; later events find no `Conn`.
    fn close(&mut self, epoll: &Epoll) {
        if let Some(conn) = self.conn.take() {
            conn.close(epoll);
        }
    }
}

/// Decodes one reply frame and resolves it against the window.
fn match_reply(
    pending: &mut BTreeMap<u64, (SloTier, Instant)>,
    payload: &[u8],
) -> Result<(u64, SloTier, Outcome)> {
    let resp = proto::decode_response(payload)
        .map_err(|e| CliError::new(format!("decoding a reply: {e}")))?;
    let (id, ok_exit, reject) = match resp {
        Response::Infer { id, exit, .. } => (id, Some(exit as usize), None),
        Response::Rejected { id, reason } => (id, None, Some(reason)),
        Response::Error { message } => {
            return Err(CliError::new(format!("server error: {message}")))
        }
        other => {
            return Err(CliError::new(format!(
                "unexpected reply to an infer request: {other:?}"
            )))
        }
    };
    // A replicated server completes out of order; the echoed id is the
    // contract. A duplicate or unknown id lands here too.
    let (tier, sent_at) = pending
        .remove(&id)
        .ok_or_else(|| CliError::new(format!("reply id {id} matches no in-flight request")))?;
    let latency_us = sent_at.elapsed().as_micros().min(u64::MAX as u128) as u64;
    let outcome = match (ok_exit, reject) {
        (Some(exit), _) => Outcome::Ok { exit, latency_us },
        (None, Some(reason)) => Outcome::Rejected { reason, latency_us },
        (None, None) => {
            return Err(CliError::new(format!(
                "reply for request id {id} is neither served nor rejected"
            )))
        }
    };
    Ok((id, tier, outcome))
}

/// Drives every connection's schedule slice from one thread: all sockets
/// nonblocking on a single epoll instance, each connection keeping up to
/// `window` requests pipelined. No per-connection threads — the thread
/// count of a 1024-connection run equals that of a 1-connection run.
fn run_mux(
    addr: &str,
    per_conn: &[Vec<Job>],
    images: &[f32],
    pixels_per_sample: usize,
    window: usize,
) -> Result<Vec<(u64, SloTier, Outcome)>> {
    let window = window.max(1);
    let epoll = Epoll::new()
        .map_err(|e| CliError::new(format!("creating the loadgen epoll instance: {e}")))?;
    let mut clients: Vec<Client<'_>> = Vec::with_capacity(per_conn.len());
    for (idx, jobs) in per_conn.iter().enumerate() {
        let conn = TcpStream::connect(addr)
            .and_then(|stream| Conn::open(stream, &epoll, idx as u64))
            .map_err(|e| CliError::new(format!("connecting to serve at {addr}: {e}")))?;
        clients.push(Client {
            conn: Some(conn),
            jobs,
            next: 0,
            pending: BTreeMap::new(),
        });
    }
    for (idx, client) in clients.iter_mut().enumerate() {
        client.top_up(images, pixels_per_sample, window)?;
        client.sync(&epoll, idx)?;
    }

    let total: usize = per_conn.iter().map(|jobs| jobs.len()).sum();
    let mut out: Vec<(u64, SloTier, Outcome)> = Vec::with_capacity(total);
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut events = vec![EpollEvent::zeroed(); 256];
    while out.len() < total {
        let n = epoll
            .wait(&mut events, -1)
            .map_err(|e| CliError::new(format!("waiting for server replies: {e}")))?;
        for ev in events.iter().take(n) {
            let idx = ev.token() as usize;
            let Some(client) = clients.get_mut(idx) else {
                continue;
            };
            if ev.ready() & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0 {
                let mut frames = Vec::new();
                let end = match client.conn.as_mut() {
                    Some(conn) => conn.read_frames(&mut scratch, &mut frames),
                    None => continue,
                };
                for payload in &frames {
                    out.push(match_reply(&mut client.pending, payload)?);
                }
                // Freed window slots refill immediately.
                client.top_up(images, pixels_per_sample, window)?;
                match end {
                    ReadEnd::WouldBlock => {}
                    ReadEnd::CleanEof | ReadEnd::Dropped => {
                        let outstanding =
                            client.pending.len() + client.jobs.len().saturating_sub(client.next);
                        if outstanding > 0 {
                            return Err(CliError::new(format!(
                                "server closed the connection with {outstanding} replies \
                                 outstanding"
                            )));
                        }
                        client.close(&epoll);
                        continue;
                    }
                    ReadEnd::Oversized(e) => {
                        return Err(CliError::new(format!("reading a reply: {e}")))
                    }
                }
            }
            // EPOLLOUT needs no separate arm: sync flushes either way.
            client.sync(&epoll, idx)?;
        }
    }
    Ok(out)
}

/// Runs the load against `addr` and aggregates the results. The server
/// must be serving the model described by `cfg`.
pub fn run_load(cfg: &RunConfig, addr: &str) -> Result<LoadgenReport> {
    let (spec, data_spec, _nf) = cfg.resolve()?;
    let n_units = spec.num_units();
    let data = data_spec.generate();
    let test = &data.test;
    if test.is_empty() {
        return Err(CliError::config("data", "test split is empty"));
    }
    let pixels_per_sample: usize = test.images().shape().iter().skip(1).product();
    let lg = cfg.loadgen();
    let seed = lg.seed.unwrap_or(cfg.run.seed);
    let jobs = build_jobs(cfg, test.len(), seed);
    let connections = lg.connections.max(1);
    let window = pipeline_window(lg.inflight, connections);

    // Partition jobs round-robin over connections, preserving order
    // within each connection.
    let mut per_conn: Vec<Vec<Job>> = (0..connections).map(|_| Vec::new()).collect();
    for job in jobs {
        let c = (job.seq as usize) % connections;
        if let Some(conn) = per_conn.get_mut(c) {
            conn.push(job);
        }
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "the replay's wall time is reported, never fed back into the schedule"
    )]
    let wall = Instant::now();
    let images = test.images().data();
    let mut outcomes = run_mux(addr, &per_conn, images, pixels_per_sample, window)?;
    let wall_secs = wall.elapsed().as_secs_f64().max(1e-9);
    outcomes.sort_by_key(|(seq, _, _)| *seq);

    let policy = cfg.resolve_serve()?;
    let mut exit_hist = vec![0usize; n_units];
    let mut all_lat: Vec<u64> = Vec::with_capacity(outcomes.len());
    let mut rejected_by_reason: Vec<(String, usize)> = Vec::new();
    let mut ok = 0usize;
    let mut rejected = 0usize;
    let mut tiers: Vec<TierStats> = SloTier::ALL
        .iter()
        .map(|&tier| TierStats {
            tier,
            max_exit: tier.max_exit(n_units),
            deadline_us: policy.deadline_us(tier),
            requests: 0,
            ok: 0,
            rejected: 0,
            p50_us: 0,
            p99_us: 0,
            exit_hist: vec![0; n_units],
        })
        .collect();
    let mut tier_lats: Vec<Vec<u64>> = vec![Vec::new(); SloTier::ALL.len()];
    for &(_, tier, outcome) in &outcomes {
        // tier.index() is always within SloTier::ALL, so the lookups
        // cannot miss; skipping (rather than indexing) keeps this loop
        // panic-free by construction.
        let ti = tier.index();
        let (Some(ts), Some(lats)) = (tiers.get_mut(ti), tier_lats.get_mut(ti)) else {
            continue;
        };
        ts.requests += 1;
        match outcome {
            Outcome::Ok { exit, latency_us } => {
                ok += 1;
                ts.ok += 1;
                if let Some(slot) = exit_hist.get_mut(exit) {
                    *slot += 1;
                }
                if let Some(slot) = ts.exit_hist.get_mut(exit) {
                    *slot += 1;
                }
                all_lat.push(latency_us);
                lats.push(latency_us);
            }
            Outcome::Rejected { reason, latency_us } => {
                rejected += 1;
                ts.rejected += 1;
                all_lat.push(latency_us);
                lats.push(latency_us);
                let name = reason.name().to_string();
                match rejected_by_reason.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, c)) => *c += 1,
                    None => rejected_by_reason.push((name, 1)),
                }
            }
        }
    }
    all_lat.sort_unstable();
    for (ts, lats) in tiers.iter_mut().zip(tier_lats.iter_mut()) {
        lats.sort_unstable();
        let (p50, _, p99) = latency_percentiles(lats);
        ts.p50_us = p50;
        ts.p99_us = p99;
    }
    let (p50_us, p95_us, p99_us) = latency_percentiles(&all_lat);

    Ok(LoadgenReport {
        model: spec.name,
        n_units,
        requests: lg.requests,
        connections,
        // Round-robin slices make this exactly the peak the mux drove.
        inflight: (window * connections).min(lg.requests),
        // Filled in by the in-process path, which owns the server handle;
        // against an external server the config's replica count stands
        // and busy fractions are unknowable from here.
        replicas: policy.effective_replicas(nf_tensor::host_cores()),
        busy_frac: Vec::new(),
        batches: Vec::new(),
        served: Vec::new(),
        seed,
        ok,
        rejected,
        rejected_by_reason,
        exit_hist,
        p50_us,
        p95_us,
        p99_us,
        rps: (ok + rejected) as f64 / wall_secs,
        tiers,
        host_cores: nf_tensor::host_cores(),
        accept_exhausted: 0,
    })
}

/// Runs the full loadgen flow in-process: serve the run's model on an
/// ephemeral port, drive the schedule, shut the server down, and return
/// the aggregated report. This is what `nf loadgen` without `--addr`
/// runs.
pub fn run_loadgen_inprocess(run: &TrainedRun, quiet: bool) -> Result<LoadgenReport> {
    let engines = build_engines(run, quiet)?;
    let policy = run.cfg.resolve_serve()?;
    let handle = start_server_with_engines(engines, policy, "127.0.0.1:0", false)?;
    let report = run_load(&run.cfg, &handle.addr.to_string());
    let stats = handle.replica_stats();
    let replicas = handle.replicas;
    let accept_exhausted = handle.accept_exhausted();
    handle.stop();
    report.map(|mut r| {
        r.replicas = replicas;
        r.busy_frac = stats.iter().map(|s| s.busy_frac).collect();
        r.batches = stats.iter().map(|s| s.batches).collect();
        r.served = stats.iter().map(|s| s.served).collect();
        r.accept_exhausted = accept_exhausted;
        r
    })
}

/// Executes `nf loadgen <run_dir>`: runs the load and writes the report
/// into the run directory `<out_dir>/<name>-serve`, like every other
/// subcommand.
pub fn run_loadgen(run: &TrainedRun, opts: &LoadgenOptions) -> Result<LoadgenReport> {
    let cfg = &run.cfg;
    let report = match &opts.addr {
        Some(addr) => run_load(cfg, addr)?,
        None => run_loadgen_inprocess(run, opts.quiet)?,
    };
    let run_dir =
        crate::rundir::RunDir::create(&cfg.run.out_dir, &format!("{}-serve", cfg.run.name))?;
    run_dir.write_config(cfg)?;
    run_dir.write_metrics(&report.to_value())?;
    if !opts.quiet {
        say(&format!(
            "loadgen: {} requests over {} connections ({} in flight, {} replica(s)) — \
             {} ok, {} rejected, {:.1} req/s, p50/p95/p99 {}/{}/{} µs",
            report.requests,
            report.connections,
            report.inflight,
            report.replicas,
            report.ok,
            report.rejected,
            report.rps,
            report.p50_us,
            report.p95_us,
            report.p99_us
        ))?;
        say(&format!("  exit histogram: {:?}", report.exit_hist))?;
        say(&format!(
            "inspect it with: nf inspect {}",
            run_dir.root().display()
        ))?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_summary_comes_from_the_shared_core_helper() {
        // The fraction-vs-percent regression this once caught now lives
        // (and is pinned) in `neuroflux_core::latency_percentiles`; this
        // asserts loadgen really calls that helper.
        let lat: Vec<u64> = (1..=200).collect();
        assert_eq!(latency_percentiles(&lat), (100, 190, 198));
    }

    #[test]
    fn pipeline_window_splits_inflight_across_connections() {
        // (inflight, connections) → (window per connection, requests the
        // mux drives and the report states: window × connections).
        for (inflight, connections, window, driven) in [
            // inflight = 0 → plain closed loop: one in flight each.
            (0, 4, 1, 4),
            // inflight = 2× connections → window 2 per connection.
            (8, 4, 2, 8),
            // Non-divisible totals round down but never below 1.
            (7, 4, 1, 4),
            (9, 4, 2, 8),
            (3, 4, 1, 4),
            (1, 1, 1, 1),
        ] {
            let got = pipeline_window(inflight, connections);
            assert_eq!(got, window, "inflight {inflight}, {connections} conns");
            assert_eq!(got * connections, driven);
        }
    }
}
