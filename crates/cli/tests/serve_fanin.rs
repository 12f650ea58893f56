//! The reactor's fan-in contract, end to end over real TCP: 1024
//! concurrent keep-alive connections on a **connection-independent
//! thread count** (reactor + replicas + main, pinned via
//! `/proc/self/status`), abrupt disconnects (mid-prefix, reply unread)
//! reaped back to the fd baseline (`/proc/self/fd`), and served bits
//! identical to offline single-sample inference at any connection count.
//!
//! Everything lives in one `#[test]` on purpose: the assertions read
//! process-wide counters (threads, fds), so concurrent tests in the same
//! binary would make them racy.

#![expect(
    clippy::disallowed_methods,
    reason = "the test polls a real server's fd count against a wall-clock deadline"
)]

use neuroflux_core::{ServeRequest, SloTier};
use nf_cli::proto::{self, Request, Response};
use nf_cli::serve::start_server_with_engines;
use nf_cli::{run_train, RunConfig, TrainOptions, TrainedRun};
use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Total keep-alive connections the server must sustain at once.
const CONNS: usize = 1024;
/// Requests in flight at a time while driving them — stays under the
/// admission queue's capacity so the test pins determinism, not
/// (host-speed-dependent) queue-full behavior.
const WAVE: usize = 32;

/// The served run: this config, trained.
fn trained_run() -> TrainedRun {
    let out_dir = std::env::temp_dir()
        .join(format!("nf_serve_fanin_{}", std::process::id()))
        .to_string_lossy()
        .to_string();
    let doc = format!(
        r#"
[run]
name = "fanin"
seed = 23
out_dir = "{out_dir}"

[model]
preset = "tiny"
channels = [4, 8, 12]

[dataset]
preset = "quick"
classes = 3
image_hw = 8
train = 120

[train]
budget_mb = 16
batch_limit = 8
epochs_per_block = 1

[serve]
threshold = 0.80
max_batch = 6
queue_capacity = 64
fast_deadline_us = 5000000
balanced_deadline_us = 5000000
exact_deadline_us = 5000000
"#
    );
    let cfg = RunConfig::from_value(&nf_value::toml::parse(&doc).unwrap()).unwrap();
    let mut opts = TrainOptions::default();
    (opts.quiet, opts.force) = (true, true);
    TrainedRun::open(run_train(&cfg, &opts).unwrap().run_dir.root()).unwrap()
}

/// Open fds of this process.
fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// Thread count of this process, from `/proc/self/status`.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("/proc/self/status has a Threads: line")
        .trim()
        .parse()
        .unwrap()
}

/// Polls `cond` until it holds or `deadline` lapses.
fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

fn send_request(stream: &mut TcpStream, req: &Request) {
    proto::write_frame(stream, &proto::encode_request(req)).unwrap();
}

fn read_response(stream: &mut TcpStream) -> Response {
    let payload = proto::read_frame(stream)
        .unwrap()
        .expect("connection closed");
    proto::decode_response(&payload).unwrap()
}

#[test]
fn reactor_sustains_1024_connections_on_a_fixed_thread_count() {
    let run = trained_run();
    let cfg = &run.cfg;
    let engine = run.engine().unwrap();
    let mut offline = run.engine().unwrap();
    let n_units = engine.n_units();
    let mut policy = cfg.resolve_serve().unwrap();
    policy.replicas = 1;
    let handle = start_server_with_engines(vec![engine], policy, "127.0.0.1:0", false).unwrap();
    let addr = handle.addr;

    let fd_baseline = fd_count();

    // ---- Thread-count invariance: 1 connection vs 1024. ----
    let samples = {
        let (_, data_spec, _) = cfg.resolve().unwrap();
        let data = data_spec.generate();
        let per: usize = data.test.images().shape()[1..].iter().product();
        let images = data.test.images().data();
        (0..CONNS)
            .map(|i| {
                let s = (i % data.test.len()) * per;
                images[s..s + per].to_vec()
            })
            .collect::<Vec<Vec<f32>>>()
    };

    let mut conns: Vec<TcpStream> = Vec::with_capacity(CONNS);
    let open_and_ping = |conns: &mut Vec<TcpStream>, upto: usize| {
        while conns.len() < upto {
            let mut s = TcpStream::connect(addr).unwrap();
            let id = conns.len() as u64;
            send_request(&mut s, &Request::Ping { id });
            match read_response(&mut s) {
                Response::Pong { id: got } => assert_eq!(got, id),
                other => panic!("connection {id} got {other:?}"),
            }
            conns.push(s);
        }
    };
    open_and_ping(&mut conns, 1);
    let threads_at_1 = thread_count();
    open_and_ping(&mut conns, CONNS);
    let threads_at_1024 = thread_count();
    assert_eq!(
        threads_at_1, threads_at_1024,
        "thread count must be connection-independent (reactor + replicas + main)"
    );

    // ---- Served bits at 1024 live connections == offline inference. ----
    // Drive the requests in waves so at most WAVE are in flight (the
    // queue holds 64); every connection stays open the whole time.
    let mut served_hist = vec![0usize; n_units];
    let mut offline_hist = vec![0usize; n_units];
    for (w, chunk) in samples.chunks(WAVE).enumerate() {
        let base = w * WAVE;
        for (i, sample) in chunk.iter().enumerate() {
            let k = base + i;
            send_request(
                &mut conns[k],
                &Request::Infer {
                    id: k as u64,
                    tier: SloTier::ALL[k % 3],
                    pixels: sample.clone(),
                },
            );
        }
        for (i, sample) in chunk.iter().enumerate() {
            let k = base + i;
            let tier = SloTier::ALL[k % 3];
            let (class, exit, conf_bits) = match read_response(&mut conns[k]) {
                Response::Infer {
                    id,
                    class,
                    exit,
                    confidence,
                    ..
                } => {
                    assert_eq!(id, k as u64);
                    (class, exit, confidence.to_bits())
                }
                other => panic!("request {k} got {other:?}"),
            };
            let r = offline
                .infer_batch(&[ServeRequest {
                    id: k as u64,
                    tier,
                    pixels: sample.clone(),
                    arrival_us: 0,
                    deadline_us: u64::MAX,
                }])
                .unwrap()[0];
            assert_eq!(class as usize, r.class, "request {k}: class diverged");
            assert_eq!(exit as usize, r.exit, "request {k}: exit diverged");
            assert_eq!(
                conf_bits,
                r.confidence.to_bits(),
                "request {k}: confidence bits diverged"
            );
            assert!(exit as usize <= tier.max_exit(n_units));
            served_hist[exit as usize] += 1;
            offline_hist[r.exit] += 1;
        }
    }
    assert_eq!(served_hist, offline_hist);
    assert_eq!(served_hist.iter().sum::<usize>(), CONNS);

    // Still connection-independent after serving through all of them.
    assert_eq!(thread_count(), threads_at_1);
    assert_eq!(
        handle.accept_exhausted(),
        0,
        "no fd exhaustion expected in this test"
    );

    // ---- All 1024 drop: fds return to baseline, server keeps serving. ----
    drop(conns);
    assert!(
        wait_until(Duration::from_secs(10), || fd_count() <= fd_baseline),
        "closed connections were not reaped: {} fds open, baseline {}",
        fd_count(),
        fd_baseline
    );

    // ---- Churn: 256 connect/close cycles, each gone after half a length
    // prefix or after a full request whose reply it never reads. ----
    let exact = |id| Request::Infer {
        id,
        tier: SloTier::Exact,
        pixels: samples[0].clone(),
    };
    for i in 0..256 {
        let mut s = TcpStream::connect(addr).unwrap();
        match i % 2 {
            0 => s.write_all(&100u32.to_le_bytes()[..2]).unwrap(),
            _ => send_request(&mut s, &exact(i)),
        }
    }
    assert!(
        wait_until(Duration::from_secs(10), || fd_count() <= fd_baseline),
        "churned connections were not reaped: {} fds open, baseline {}",
        fd_count(),
        fd_baseline
    );
    let mut s = TcpStream::connect(addr).unwrap();
    send_request(&mut s, &Request::Ping { id: 9999 });
    match read_response(&mut s) {
        Response::Pong { id } => assert_eq!(id, 9999),
        other => panic!("post-churn ping got {other:?}"),
    }
    send_request(&mut s, &exact(7));
    match read_response(&mut s) {
        Response::Infer { id: 7, .. } => {}
        other => panic!("post-churn exact request got {other:?}"),
    }
    drop(s);
    handle.stop();
}
