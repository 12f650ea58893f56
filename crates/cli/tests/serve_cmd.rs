//! `nf serve` end-to-end over real TCP: dynamic micro-batching must be
//! bit-identical to single-sample offline inference, SLO depth caps must
//! hold on the wire, and protocol garbage must never wedge the server.

#![expect(
    clippy::disallowed_methods,
    reason = "the test waits on a real server with a wall-clock deadline"
)]

use neuroflux_core::{ServeEngine, ServePolicy, ServeRequest, SloTier};
use nf_cli::proto::{self, RejectReason, Request, Response};
use nf_cli::serve::{build_engine, replicate_engines, start_server_with_engines};
use nf_cli::{run_inspect, CliError, RunConfig};
use nf_models::{assign_aux, build_aux_head};
use nf_nn::{Layer, Mode, Param};
use nf_tensor::Tensor;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn temp_out_dir(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("nf_serve_cmd_{tag}_{}", std::process::id()))
        .to_string_lossy()
        .to_string()
}

/// A 3-unit config so the three SLO tiers cap at distinct depths
/// (fast → 0, balanced → 1, exact → 2).
fn config(out_dir: &str) -> RunConfig {
    let doc = format!(
        r#"
[run]
name = "servetest"
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
allow_shutdown = true

[loadgen]
requests = 48
connections = 3
tier_weights = [1, 1, 1]
"#
    );
    RunConfig::from_value(&nf_value::toml::parse(&doc).unwrap()).unwrap()
}

/// Test-split pixels, one flat vector per sample.
fn test_samples(cfg: &RunConfig, n: usize) -> Vec<Vec<f32>> {
    let (_, data_spec, _) = cfg.resolve().unwrap();
    let data = data_spec.generate();
    let per: usize = data.test.images().shape()[1..].iter().product();
    let images = data.test.images().data();
    (0..n)
        .map(|i| {
            let s = (i % data.test.len()) * per;
            images[s..s + per].to_vec()
        })
        .collect()
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

/// Runs `shut` (`handle.wait()` or `handle.stop()`) with a deadline so a
/// wedged server fails the test instead of hanging it.
fn within_deadline(shut: impl FnOnce() + Send + 'static) {
    let waiter = std::thread::spawn(shut);
    let deadline = Instant::now() + Duration::from_secs(30);
    while !waiter.is_finished() {
        assert!(Instant::now() < deadline, "server did not shut down");
        std::thread::sleep(Duration::from_millis(10));
    }
    waiter.join().unwrap();
}

fn infer(samples: &[Vec<f32>], id: u64, k: usize) -> Request {
    Request::Infer {
        id,
        tier: SloTier::ALL[k % 3],
        pixels: samples[k].clone(),
    }
}

/// The tentpole determinism claim: predictions served out of dynamic
/// micro-batches (formed from whatever several concurrent connections
/// happened to queue) are bit-identical — class, exit, and confidence
/// bits — to running each sample alone through an identically-trained
/// offline engine. The exit-depth histogram is therefore exact, and no
/// reply ever exceeds its tier's depth cap.
#[test]
fn served_predictions_are_bit_identical_to_offline_single_sample() {
    let cfg = config(&temp_out_dir("det"));
    let engine = build_engine(&cfg, true).unwrap();
    let mut offline = build_engine(&cfg, true).unwrap();
    let n_units = engine.n_units();
    let handle = start_server_with_engines(
        vec![engine],
        cfg.resolve_serve().unwrap(),
        "127.0.0.1:0",
        false,
    )
    .unwrap();
    let addr = handle.addr;

    const PER_CONN: usize = 16;
    const CONNS: usize = 3;
    let samples = test_samples(&cfg, CONNS * PER_CONN);

    // Concurrent closed-loop clients so the batcher forms mixed batches.
    let replies: Vec<(usize, SloTier, u16, u8, u32)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..CONNS {
            let samples = &samples;
            handles.push(scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                let mut got = Vec::new();
                for i in 0..PER_CONN {
                    let k = c * PER_CONN + i;
                    let tier = SloTier::ALL[k % 3];
                    send_request(
                        &mut stream,
                        &Request::Infer {
                            id: k as u64,
                            tier,
                            pixels: samples[k].clone(),
                        },
                    );
                    match read_response(&mut stream) {
                        Response::Infer {
                            id,
                            class,
                            exit,
                            confidence,
                            ..
                        } => {
                            assert_eq!(id, k as u64);
                            got.push((k, tier, class, exit, confidence.to_bits()));
                        }
                        other => panic!("request {k} got {other:?}"),
                    }
                }
                got
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    handle.stop();
    assert_eq!(replies.len(), CONNS * PER_CONN);

    // Offline reference: each sample alone, same tier cap.
    let mut served_hist = vec![0usize; n_units];
    let mut offline_hist = vec![0usize; n_units];
    for (k, tier, class, exit, conf_bits) in replies {
        let reference = offline
            .infer_batch(&[ServeRequest {
                id: k as u64,
                tier,
                pixels: samples[k].clone(),
                arrival_us: 0,
                deadline_us: u64::MAX,
            }])
            .unwrap();
        assert_eq!(reference.len(), 1);
        let r = reference[0];
        assert_eq!(class as usize, r.class, "request {k}: class diverged");
        assert_eq!(exit as usize, r.exit, "request {k}: exit diverged");
        assert_eq!(
            conf_bits,
            r.confidence.to_bits(),
            "request {k}: confidence bits diverged"
        );
        assert!(
            (exit as usize) <= tier.max_exit(n_units),
            "request {k}: exit {exit} violates {} cap {}",
            tier.name(),
            tier.max_exit(n_units)
        );
        served_hist[exit as usize] += 1;
        offline_hist[r.exit] += 1;
    }
    assert_eq!(served_hist, offline_hist, "exit-depth histogram diverged");
    assert_eq!(
        served_hist.iter().sum::<usize>(),
        CONNS * PER_CONN,
        "every request must appear in the histogram exactly once"
    );
    // Fast tier is capped at head 0 on a 3-unit model, so at least the
    // 16 fast requests exit there — the histogram is never degenerate.
    assert!(served_hist[0] >= PER_CONN);
}

/// Replica determinism, the PR-8 tentpole claim: a 4-replica server fed
/// by pipelined concurrent connections (several requests in flight per
/// connection, replies matched by id) returns byte-identical predictions
/// — class, exit, confidence bits — to a 1-replica server AND to offline
/// single-sample inference. Which replica served a request, and what
/// batch it landed in, must be unobservable in the payload.
#[test]
fn four_replicas_with_pipelining_match_one_replica_and_offline() {
    let cfg = config(&temp_out_dir("replicas"));
    let mut offline = build_engine(&cfg, true).unwrap();
    let samples = test_samples(&cfg, 36);

    // One reply table per replica count, keyed by request id.
    let serve_all = |replicas: usize| -> BTreeMap<u64, (u16, u8, u32)> {
        let primary = build_engine(&cfg, true).unwrap();
        let engines = replicate_engines(&cfg, primary, replicas).unwrap();
        let mut policy = cfg.resolve_serve().unwrap();
        policy.replicas = replicas;
        let handle = start_server_with_engines(engines, policy, "127.0.0.1:0", false).unwrap();
        assert_eq!(handle.replicas, replicas);
        let addr = handle.addr;

        const CONNS: usize = 3;
        const WINDOW: usize = 4; // in-flight per connection (pipelined)
        let per_conn = samples.len() / CONNS;
        let replies: BTreeMap<u64, (u16, u8, u32)> = std::thread::scope(|scope| {
            let mut workers = Vec::new();
            for c in 0..CONNS {
                let samples = &samples;
                workers.push(scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    let mut got = BTreeMap::new();
                    let mut sent = 0usize;
                    // Keep up to WINDOW requests on the wire; replies
                    // may come back out of order across the window.
                    while got.len() < per_conn {
                        while sent < per_conn && sent - got.len() < WINDOW {
                            let k = c * per_conn + sent;
                            send_request(
                                &mut stream,
                                &Request::Infer {
                                    id: k as u64,
                                    tier: SloTier::ALL[k % 3],
                                    pixels: samples[k].clone(),
                                },
                            );
                            sent += 1;
                        }
                        match read_response(&mut stream) {
                            Response::Infer {
                                id,
                                class,
                                exit,
                                confidence,
                                ..
                            } => {
                                let prev = got.insert(id, (class, exit, confidence.to_bits()));
                                assert!(prev.is_none(), "duplicate reply for id {id}");
                            }
                            other => panic!("connection {c} got {other:?}"),
                        }
                    }
                    got
                }));
            }
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        let stats = handle.replica_stats();
        handle.stop();
        assert_eq!(stats.len(), replicas);
        assert_eq!(
            stats.iter().map(|s| s.served).sum::<u64>(),
            samples.len() as u64,
            "every request must be served by exactly one replica"
        );
        replies
    };

    let four = serve_all(4);
    let one = serve_all(1);
    assert_eq!(four.len(), samples.len());
    assert_eq!(four, one, "replica count changed served bits");

    for (k, sample) in samples.iter().enumerate() {
        let tier = SloTier::ALL[k % 3];
        let r = offline
            .infer_batch(&[ServeRequest {
                id: k as u64,
                tier,
                pixels: sample.clone(),
                arrival_us: 0,
                deadline_us: u64::MAX,
            }])
            .unwrap()[0];
        let (class, exit, conf_bits) = four[&(k as u64)];
        assert_eq!(class as usize, r.class, "request {k}: class diverged");
        assert_eq!(exit as usize, r.exit, "request {k}: exit diverged");
        assert_eq!(
            conf_bits,
            r.confidence.to_bits(),
            "request {k}: confidence bits diverged"
        );
    }
}

/// Protocol robustness: truncated frames, oversized lengths, unknown
/// bytes, and mid-request disconnects each produce a typed error reply
/// (or a silent close) on *that* connection — and the server keeps
/// serving new connections afterwards.
#[test]
fn protocol_garbage_never_wedges_the_server() {
    let cfg = config(&temp_out_dir("garbage"));
    let engine = build_engine(&cfg, true).unwrap();
    let input_len = engine.input_len();
    let handle = start_server_with_engines(
        vec![engine],
        cfg.resolve_serve().unwrap(),
        "127.0.0.1:0",
        true,
    )
    .unwrap();
    let addr = handle.addr;
    let samples = test_samples(&cfg, 1);

    // Unknown op byte → typed error reply, connection closed.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        proto::write_frame(&mut s, &[0xEE, 1, 2, 3]).unwrap();
        match read_response(&mut s) {
            Response::Error { message } => assert!(message.contains("op"), "{message}"),
            other => panic!("expected error, got {other:?}"),
        }
        assert!(proto::read_frame(&mut s).unwrap().is_none());
    }
    // Oversized length header → typed error, no huge allocation.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&(u32::MAX).to_le_bytes()).unwrap();
        match read_response(&mut s) {
            Response::Error { message } => {
                assert!(message.contains("payload cap"), "{message}")
            }
            other => panic!("expected error, got {other:?}"),
        }
    }
    // Truncated payload then disconnect: a frame claiming 100 bytes but
    // delivering 10. The server just drops the connection.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&100u32.to_le_bytes()).unwrap();
        s.write_all(&[7u8; 10]).unwrap();
        drop(s);
    }
    // Partial header then disconnect.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&[9u8, 9]).unwrap();
        drop(s);
    }
    // Wrong pixel count → typed rejection, connection stays usable.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        send_request(
            &mut s,
            &Request::Infer {
                id: 40,
                tier: SloTier::Exact,
                pixels: vec![0.0; input_len + 1],
            },
        );
        match read_response(&mut s) {
            Response::Rejected { id, reason } => {
                assert_eq!(id, 40);
                assert_eq!(reason, RejectReason::BadInput);
            }
            other => panic!("expected bad-input rejection, got {other:?}"),
        }
        // Same connection still serves a valid request afterwards.
        send_request(
            &mut s,
            &Request::Infer {
                id: 41,
                tier: SloTier::Exact,
                pixels: samples[0].clone(),
            },
        );
        match read_response(&mut s) {
            Response::Infer { id, .. } => assert_eq!(id, 41),
            other => panic!("expected inference reply, got {other:?}"),
        }
    }
    // After all that abuse a fresh connection still works end to end.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        send_request(&mut s, &Request::Ping { id: 77 });
        match read_response(&mut s) {
            Response::Pong { id } => assert_eq!(id, 77),
            other => panic!("expected pong, got {other:?}"),
        }
        send_request(
            &mut s,
            &Request::Infer {
                id: 78,
                tier: SloTier::Fast,
                pixels: samples[0].clone(),
            },
        );
        match read_response(&mut s) {
            Response::Infer { id, exit, .. } => {
                assert_eq!(id, 78);
                assert_eq!(exit, 0, "fast tier on a 3-unit model caps at head 0");
            }
            other => panic!("expected inference reply, got {other:?}"),
        }
    }
    // Graceful remote shutdown (allow_shutdown = true).
    {
        let mut s = TcpStream::connect(addr).unwrap();
        send_request(&mut s, &Request::Shutdown);
        match read_response(&mut s) {
            Response::ShutdownAck => {}
            other => panic!("expected shutdown ack, got {other:?}"),
        }
    }
    within_deadline(move || handle.wait());
}

/// Exactly one reply per admitted request, over real TCP: a client that
/// pipelines requests and closes without reading costs only its own
/// replies. A second client pipelining at the same time gets exactly one
/// reply per request, under its own ids and nothing else, and `stop()`
/// still returns promptly.
#[test]
fn a_client_closing_unread_costs_only_its_own_replies() {
    let cfg = config(&temp_out_dir("unread"));
    let engine = build_engine(&cfg, true).unwrap();
    let policy = cfg.resolve_serve().unwrap();
    let handle = start_server_with_engines(vec![engine], policy, "127.0.0.1:0", false).unwrap();
    const N: usize = 24;
    const M: usize = 16;
    let samples = test_samples(&cfg, N);
    let mut quitter = TcpStream::connect(handle.addr).unwrap();
    let mut keeper = TcpStream::connect(handle.addr).unwrap();
    for k in 0..N {
        send_request(&mut quitter, &infer(&samples, k as u64, k));
    }
    for k in 0..M {
        send_request(&mut keeper, &infer(&samples, 1000 + k as u64, k));
    }
    drop(quitter);
    let mut ids: Vec<u64> = (0..M)
        .map(|_| match read_response(&mut keeper) {
            Response::Infer { id, .. } => id,
            other => panic!("expected an inference reply, got {other:?}"),
        })
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (1000..1000 + M as u64).collect::<Vec<_>>());
    within_deadline(move || handle.stop());
    // The server closed the connection with nothing after the M replies.
    assert!(proto::read_frame(&mut keeper).unwrap().is_none());
}

/// PR 7's shutdown race, over real TCP: pipelined requests race
/// `ServerHandle::stop()`. Each request that was written gets at most
/// one reply — served, `shutting-down` or `deadline` — every reply is a
/// whole frame, and no frame arrives after the close.
#[test]
fn pipelined_requests_racing_stop_get_at_most_one_reply_each() {
    let cfg = config(&temp_out_dir("race"));
    let engine = build_engine(&cfg, true).unwrap();
    let policy = cfg.resolve_serve().unwrap();
    let handle = start_server_with_engines(vec![engine], policy, "127.0.0.1:0", false).unwrap();
    const N: usize = 48;
    let samples = test_samples(&cfg, N);
    let mut stream = TcpStream::connect(handle.addr).unwrap();
    let mut reader = stream.try_clone().unwrap();
    let (go, stop_now) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        stop_now.recv().unwrap();
        within_deadline(move || handle.stop());
    });
    let mut written = 0u64;
    for k in 0..N {
        if k == N / 2 {
            go.send(()).unwrap();
        }
        let payload = proto::encode_request(&infer(&samples, k as u64, k));
        if proto::write_frame(&mut stream, &payload).is_err() {
            break;
        }
        written += 1;
    }
    let mut replied = std::collections::BTreeSet::new();
    loop {
        let payload = match proto::read_frame(&mut reader) {
            Ok(Some(payload)) => payload,
            // A clean close, or a reset once the server dropped the
            // requests it never read.
            Ok(None) | Err(proto::ProtoError::Io(_)) => break,
            Err(e) => panic!("reply stream torn: {e}"),
        };
        let id = match proto::decode_response(&payload).unwrap() {
            Response::Infer { id, .. } => id,
            Response::Rejected {
                id,
                reason: RejectReason::ShuttingDown | RejectReason::Deadline,
            } => id,
            other => panic!("unexpected reply {other:?}"),
        };
        assert!(
            id < written,
            "reply to request {id}, which was never written"
        );
        assert!(replied.insert(id), "request {id} got a second reply");
    }
    assert!(matches!(
        proto::read_frame(&mut reader),
        Ok(None) | Err(proto::ProtoError::Io(_))
    ));
    stopper.join().unwrap();
}

/// A replica whose engine panics mid-batch: its batch gets an error reply
/// instead of silence, the replica retires, and with no replica left the
/// server shuts itself down, so `wait()` (and so `stop()`) returns.
#[test]
fn a_panicking_replica_fails_its_batch_and_stop_still_returns() {
    struct Explode;
    impl Layer for Explode {
        fn name(&self) -> String {
            "explode".into()
        }
        fn forward_into(&mut self, _: &Tensor, _: Mode, _: &mut Tensor) -> nf_nn::Result<()> {
            panic!("injected fault in a replica's forward pass")
        }
        fn backward_into(&mut self, _: &Tensor, _: &mut Tensor) -> nf_nn::Result<()> {
            Ok(())
        }
        fn visit_params(&mut self, _: &mut dyn FnMut(&mut Param)) {}
    }
    let cfg = config(&temp_out_dir("panic"));
    let (spec, _, nf) = cfg.resolve().unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let mut model = spec.build(&mut rng).unwrap();
    model.units[0].push(Box::new(Explode));
    let heads = assign_aux(&spec, nf.aux_policy)
        .iter()
        .map(|aux| build_aux_head(&mut rng, aux).unwrap())
        .collect();
    let engine = ServeEngine::new(model, heads, 0.8).unwrap();
    let policy = cfg.resolve_serve().unwrap();
    let handle = start_server_with_engines(vec![engine], policy, "127.0.0.1:0", false).unwrap();
    let samples = test_samples(&cfg, 1);
    let mut stream = TcpStream::connect(handle.addr).unwrap();
    // A stranded batch would leave this read waiting forever.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    send_request(&mut stream, &infer(&samples, 0, 0));
    match read_response(&mut stream) {
        Response::Error { message } => assert!(message.contains("panicked"), "{message}"),
        other => panic!("expected an error reply, got {other:?}"),
    }
    // No stop(): the last replica to retire began the shutdown itself.
    within_deadline(move || handle.wait());
}

/// Shutdown frames on a server started without `allow_shutdown` are a
/// typed error, and the server keeps running.
/// `nf serve` and `nf loadgen` type an unfittable budget as `nf train` does.
#[test]
fn an_unfittable_budget_is_a_config_error() {
    let mut cfg = config(&temp_out_dir("budget"));
    cfg.train.budget_bytes = 5_000;
    let Err(CliError::Config { path, message }) = build_engine(&cfg, true) else {
        panic!("expected a config error at the budget");
    };
    assert_eq!(path, "train.budget_mb");
    assert!(message.contains("serving model cannot"), "{message}");
}

#[test]
fn shutdown_is_rejected_when_disabled() {
    let cfg = config(&temp_out_dir("noshut"));
    let engine = build_engine(&cfg, true).unwrap();
    let handle =
        start_server_with_engines(vec![engine], ServePolicy::default(), "127.0.0.1:0", false)
            .unwrap();
    let addr = handle.addr;
    {
        let mut s = TcpStream::connect(addr).unwrap();
        send_request(&mut s, &Request::Shutdown);
        match read_response(&mut s) {
            Response::Error { message } => assert!(message.contains("disabled"), "{message}"),
            other => panic!("expected error, got {other:?}"),
        }
    }
    // Still serving.
    let mut s = TcpStream::connect(addr).unwrap();
    send_request(&mut s, &Request::Ping { id: 1 });
    match read_response(&mut s) {
        Response::Pong { id } => assert_eq!(id, 1),
        other => panic!("expected pong, got {other:?}"),
    }
    handle.stop();
}

/// `nf loadgen` in-process: the deterministic fields (schedule, exit
/// histogram, per-tier counts) are identical across runs, and the run
/// directory holds the report and renders through `nf inspect`.
#[test]
fn loadgen_is_deterministic_and_run_dir_inspects() {
    let out_dir = temp_out_dir("loadgen");
    std::fs::create_dir_all(&out_dir).unwrap();
    let cfg = config(&out_dir);
    let a = nf_cli::loadgen::run_loadgen_inprocess(&cfg, true).unwrap();
    let b = nf_cli::loadgen::run_loadgen_inprocess(&cfg, true).unwrap();
    assert_eq!(a.requests, 48);
    assert_eq!(a.ok + a.rejected, 48);
    assert_eq!(a.exit_hist, b.exit_hist, "exit histogram must reproduce");
    assert_eq!(a.ok, b.ok);
    assert_eq!(a.rejected, b.rejected);
    assert_eq!(a.seed, b.seed);
    for (ta, tb) in a.tiers.iter().zip(&b.tiers) {
        assert_eq!(ta.requests, tb.requests);
        assert_eq!(ta.exit_hist, tb.exit_hist);
        assert_eq!(ta.max_exit, tb.max_exit);
    }

    // The CLI path writes the report into an inspectable run dir. Two
    // replicas behind the one queue and two requests pipelined per
    // connection change no served bit, and the report echoes that shape.
    let mut cfg = cfg;
    cfg.serve.as_mut().unwrap().replicas = 2;
    let loadgen = cfg.loadgen.as_mut().unwrap();
    loadgen.inflight = 2 * loadgen.connections;
    let opts = nf_cli::LoadgenOptions {
        addr: None,
        quiet: true,
    };
    let report = nf_cli::run_loadgen(&cfg, &opts).unwrap();
    assert_eq!(report.exit_hist, a.exit_hist);
    assert_eq!(report.ok + report.rejected, report.requests);
    assert_eq!((report.replicas, report.inflight), (2, 6));
    assert_eq!(report.busy_frac.len(), 2, "one busy fraction per replica");
    let run_root = std::path::Path::new(&out_dir).join("servetest-serve");
    let doc = nf_cli::RunDir::open(&run_root)
        .unwrap()
        .read_metrics()
        .unwrap();
    assert_eq!(
        doc.get("kind").and_then(nf_cli::Value::as_str),
        Some("serve")
    );
    let keys = "model requests ok rejected exit_hist latency_us rps tiers host_cores replicas \
                inflight busy_frac";
    for key in keys.split_whitespace() {
        assert!(doc.get(key).is_some(), "report lacks {key:?}");
    }
    let rendered = run_inspect(&run_root).unwrap();
    assert!(rendered.contains("early-exit inference load test"));
    assert!(rendered.contains("## SLO tiers"));
    assert!(rendered.contains("## Exit-depth histogram"));
}
