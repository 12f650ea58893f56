//! `nf serve <config>`: the early-exit inference service.
//!
//! Architecture (all std, no async runtime — vendored deps only):
//!
//! ```text
//!                    ┌─────────────── reactor thread ───────────────┐
//! clients ══socket══▶│ epoll { listener, eventfd, every connection }│
//!                    │  accept → nonblock → register                │
//!                    │  read → frame reassembly → admission ──submit┼──▶ bounded queue
//!                    │  completions → per-conn outbox → write       │    (MicroBatcher,
//!                    └──────────────▲───────────────────────────────┘     one shared lock)
//!                                   │ eventfd wake        ▲ │ draw
//!                                   └───── completions ───┘ replica 0..N-1
//!                                          (reply queue)    (model clone each:
//!                                                            micro-batch → capped
//!                                                            cascade → replies)
//! ```
//!
//! - **One reactor thread** owns every socket: the listener, the eventfd
//!   wake channel, and all client connections, multiplexed through a
//!   single level-triggered epoll instance (`crate::net`). Thread count
//!   is *connection-independent* — reactor + N replicas + main, whether
//!   1 or 10 000 clients are connected.
//! - Accepted sockets are made nonblocking; reads feed a per-connection
//!   frame-reassembly state machine (`net::reactor::FrameAssembler`)
//!   that tolerates arbitrary `read(2)` chunk boundaries. Admission runs
//!   inline in the reactor: full queue → `queue-full`, wrong pixel count
//!   → `bad-input`, malformed frame → a typed error reply and the
//!   connection closes. A broken connection never touches other clients.
//! - Replies travel from replicas to the reactor through a completion
//!   queue plus an **eventfd wake**; the reactor copies them into
//!   bounded per-connection outboxes (`net::reactor::WriteQueue`) and
//!   toggles `EPOLLOUT` only while bytes remain. A peer that stops
//!   reading past the outbox cap is disconnected (backpressure), so no
//!   replica ever blocks on a slow client's socket.
//! - `accept(2)` hitting fd exhaustion (`EMFILE`/`ENFILE`) backs off:
//!   the listener is deregistered for a beat and re-armed, the typed
//!   `accept-exhausted` counter increments, and every live connection
//!   keeps being served — exhaustion degrades accept rate, never the
//!   server.
//! - **N replicas** (`[serve] replicas`, 0 = one per core) each own a
//!   bit-identical model clone (`params_io` snapshot/load) plus private
//!   workspace arenas, and draw from the one shared queue under its
//!   lock. Batch formation stays a pure function of (queue, clock), and
//!   the ascending-k GEMM invariant makes results batch-size
//!   independent, so served predictions are bit-identical to offline
//!   single-sample inference at any replica *or connection* count.
//! - The wake policy is tier-aware: a replica runs a partial batch once
//!   the oldest queued request's *tier window* closes (fast = ¼ of
//!   `batch_window_us`, balanced = ½, exact = full), so a lone `fast`
//!   request is never stuck behind a full `exact` batch window.
//! - Shutdown is an eventfd wake, not a socket trick: the flag flips,
//!   the reactor stops accepting, replicas drain deadline-aware (within
//!   deadline → served, lapsed → `deadline`, new → `shutting-down`),
//!   then the reactor flushes every outbox (bounded by a drain deadline)
//!   and closes all connections. Nothing is silently dropped.
//!
//! The model is trained in-process from the config at startup (seeded by
//! `[run].seed`), so a given config always serves the identical model —
//! the determinism the serve tests pin.

use crate::config::RunConfig;
use crate::error::{CliError, Result};
use crate::net::reactor::{
    FrameAssembler, ReadEnd, WriteQueue, READ_CHUNK, TOKEN_LISTENER, TOKEN_WAKE,
};
use crate::net::sys::{self, Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use crate::proto::{self, RejectReason, Request, Response};
use neuroflux_core::serve::{reactor_timeout_ms, Clock, MicroBatcher, SystemClock};
use neuroflux_core::{BatchPlan, NeuroFluxTrainer, ServeEngine, ServePolicy, ServeRequest};
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Backoff before re-arming accept after `EMFILE`/`ENFILE` (µs). Long
/// enough for the operator (or a disconnect) to return fds, short enough
/// that recovery is prompt.
const ACCEPT_BACKOFF_US: u64 = 50_000;

/// After the replicas finish draining, how long the reactor keeps
/// flushing outboxes to slow readers before closing them anyway (µs) —
/// a wedged client must not wedge `stop()`.
const DRAIN_FLUSH_US: u64 = 2_000_000;

/// Trains the serving model in-process from `cfg` (seeded by
/// `[run].seed`) and wraps it in a [`ServeEngine`] with the configured
/// exit threshold. Deterministic: the same config always yields the same
/// engine, bit for bit.
pub fn build_engine(cfg: &RunConfig, quiet: bool) -> Result<ServeEngine> {
    let (spec, data_spec, nf_config) = cfg.resolve()?;
    let data = data_spec.generate();
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.run.seed);
    if !quiet {
        println!(
            "training {} ({} exit heads) for serving, seed {} ...",
            spec.name,
            spec.num_units(),
            cfg.run.seed
        );
    }
    let outcome = NeuroFluxTrainer::new(nf_config)
        .train(&mut rng, &spec, &data)
        .map_err(|e| CliError::new(format!("training the serving model: {e}")))?;
    ServeEngine::new(
        outcome.model,
        outcome.aux_heads,
        cfg.serve().threshold as f32,
    )
    .map_err(|e| CliError::new(e.to_string()))
}

/// Expands one trained engine into `n` bit-identical replicas: the
/// primary plus `n - 1` `params_io` snapshot/load clones. Every replica
/// gets the config's kernel backend pinned on every layer (replicas must
/// agree on kernels — backends are numerically close, not bit-identical)
/// and its own private workspace arenas, so concurrent replicas never
/// contend on shared scratch.
pub fn replicate_engines(
    cfg: &RunConfig,
    mut primary: ServeEngine,
    n: usize,
) -> Result<Vec<ServeEngine>> {
    let (_, _, nf_config) = cfg.resolve()?;
    let mut engines = Vec::with_capacity(n.max(1));
    for _ in 1..n.max(1) {
        engines.push(
            primary
                .replicate(nf_config.aux_policy)
                .map_err(|e| CliError::new(format!("cloning serve replica: {e}")))?,
        );
    }
    engines.insert(0, primary);
    for engine in &mut engines {
        engine.set_kernel_backend(nf_config.kernel_backend);
        engine.install_private_workspace();
    }
    Ok(engines)
}

/// Builds the full replica set for `cfg`: trains the primary once, then
/// clones it out to `[serve].replicas` engines (0 = one per host core).
pub fn build_engines(cfg: &RunConfig, quiet: bool) -> Result<Vec<ServeEngine>> {
    let policy = cfg.resolve_serve()?;
    let n = policy.effective_replicas(nf_tensor::host_cores());
    let primary = build_engine(cfg, quiet)?;
    if !quiet && n > 1 {
        println!("cloning the engine into {n} bit-identical replicas ...");
    }
    replicate_engines(cfg, primary, n)
}

/// A response route: which connection a served request's reply returns
/// to, under which client-chosen id.
struct Route {
    conn_id: u64,
    client_id: u64,
}

/// Per-replica work counters (lock-free; read by `replica_stats`).
#[derive(Default)]
struct ReplicaStats {
    busy_us: AtomicU64,
    batches: AtomicU64,
    served: AtomicU64,
}

/// One replica's accounting snapshot, as reported in the loadgen report.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaSnapshot {
    /// Fraction of server lifetime this replica spent inside
    /// `infer_batch` (busy/idle accounting).
    pub busy_frac: f64,
    /// Micro-batches this replica ran.
    pub batches: u64,
    /// Requests this replica served.
    pub served: u64,
}

/// State shared between the reactor thread and the replicas.
struct Shared {
    queue: Mutex<MicroBatcher>,
    queue_cv: Condvar,
    routes: Mutex<BTreeMap<u64, Route>>,
    /// Replies routed but not yet copied into connection outboxes;
    /// replicas push here, then wake the reactor through the eventfd.
    completions: Mutex<Vec<(u64, Response)>>,
    /// The reactor's wake channel: replicas (new replies), shutdown, and
    /// drain completion all signal through it — no self-connects, no
    /// socket shutdown tricks.
    wake: EventFd,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    policy: ServePolicy,
    input_len: usize,
    clock: SystemClock,
    allow_shutdown: bool,
    replicas: usize,
    stats: Vec<ReplicaStats>,
    /// `accept(2)` stalls on fd exhaustion (`EMFILE`/`ENFILE`); each one
    /// backed off and re-armed rather than killing the accept path.
    accept_exhausted: AtomicU64,
    /// Replicas that finished their drain; the reactor outlives them and
    /// flushes their final replies before closing connections.
    replicas_done: Mutex<usize>,
    replicas_done_cv: Condvar,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flips the shutdown flag and unblocks everything that sleeps: the
    /// replicas (condvar) and the reactor (eventfd wake). Idempotent.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
        let _ = self.wake.wake();
    }

    /// Routes a response for an admitted request and retires its route.
    /// The reply lands in the completion queue; the caller wakes the
    /// reactor (batched per micro-batch, not per reply).
    fn respond(&self, internal_id: u64, make: impl FnOnce(u64) -> Response) {
        let route = self
            .routes
            .lock()
            .ok()
            .and_then(|mut r| r.remove(&internal_id));
        if let Some(route) = route {
            if let Ok(mut completions) = self.completions.lock() {
                completions.push((route.conn_id, make(route.client_id)));
            }
        }
    }
}

/// A running `nf serve` instance (in-process handle).
pub struct ServerHandle {
    /// The bound listen address (real port even when the config said 0).
    pub addr: SocketAddr,
    /// Exit heads of the model being served.
    pub n_units: usize,
    /// Flattened pixels per request the model expects.
    pub input_len: usize,
    /// Batcher/model replicas drawing from the shared queue.
    pub replicas: usize,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// Per-replica busy/idle accounting since the server started.
    pub fn replica_stats(&self) -> Vec<ReplicaSnapshot> {
        let alive_us = self.shared.clock.now_us().max(1) as f64;
        self.shared
            .stats
            .iter()
            .map(|s| ReplicaSnapshot {
                busy_frac: (s.busy_us.load(Ordering::Relaxed) as f64 / alive_us).clamp(0.0, 1.0),
                batches: s.batches.load(Ordering::Relaxed),
                served: s.served.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// How many times `accept(2)` hit fd exhaustion (`EMFILE`/`ENFILE`)
    /// and the reactor backed off instead of dying.
    pub fn accept_exhausted(&self) -> u64 {
        self.shared.accept_exhausted.load(Ordering::Relaxed)
    }

    /// Signals shutdown and joins the reactor and replica threads (the
    /// replicas finish their deadline-aware drain first; the reactor
    /// then flushes outstanding replies and closes every connection).
    pub fn stop(mut self) {
        self.shared.begin_shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Blocks until the server shuts down (a shutdown frame on an
    /// `allow_shutdown` server, or [`ServerHandle::stop`] from another
    /// thread).
    pub fn wait(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Starts a server around an already-built replica set (all bit-identical
/// clones of one trained engine; `replicate_engines` makes these). Binds
/// `addr` (port 0 → ephemeral), spawns the reactor thread and one replica
/// thread per engine, and returns immediately.
pub fn start_server_with_engines(
    engines: Vec<ServeEngine>,
    policy: ServePolicy,
    addr: &str,
    allow_shutdown: bool,
) -> Result<ServerHandle> {
    policy
        .validate()
        .map_err(|e| CliError::config("serve", e.to_string()))?;
    let mut engines = engines;
    let Some(first) = engines.first() else {
        return Err(CliError::new("starting a server with zero replicas"));
    };
    let input_len = first.input_len();
    let n_units = first.n_units();
    if engines
        .iter()
        .any(|e| e.input_len() != input_len || e.n_units() != n_units)
    {
        return Err(CliError::new(
            "serve replicas disagree on model shape (clones of different engines?)",
        ));
    }
    let listener = TcpListener::bind(addr)
        .map_err(|e| CliError::new(format!("binding serve address {addr}: {e}")))?;
    let bound = listener
        .local_addr()
        .map_err(|e| CliError::new(format!("reading bound address: {e}")))?;
    sys::set_nonblocking(listener.as_raw_fd())
        .map_err(|e| CliError::new(format!("making the listener nonblocking: {e}")))?;
    // std's listen backlog is 128; a thousand-connection fan-in arriving
    // faster than one reactor pass overflows it, and every dropped SYN
    // stalls that client for a ~1 s retransmission timeout. Re-arm the
    // socket with a backlog sized for the fan-in contract (the kernel
    // clamps to net.core.somaxconn).
    sys::set_listen_backlog(listener.as_raw_fd(), 4096)
        .map_err(|e| CliError::new(format!("raising the listen backlog: {e}")))?;
    let wake =
        EventFd::new().map_err(|e| CliError::new(format!("creating the wake eventfd: {e}")))?;
    let epoll =
        Epoll::new().map_err(|e| CliError::new(format!("creating the epoll instance: {e}")))?;
    epoll
        .add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
        .map_err(|e| CliError::new(format!("registering the listener with epoll: {e}")))?;
    epoll
        .add(wake.fd(), EPOLLIN, TOKEN_WAKE)
        .map_err(|e| CliError::new(format!("registering the wake eventfd with epoll: {e}")))?;

    let replicas = engines.len();
    let shared = Arc::new(Shared {
        queue: Mutex::new(MicroBatcher::new(policy.queue_capacity)),
        queue_cv: Condvar::new(),
        routes: Mutex::new(BTreeMap::new()),
        completions: Mutex::new(Vec::new()),
        wake,
        shutdown: AtomicBool::new(false),
        next_id: AtomicU64::new(0),
        policy: policy.clone(),
        input_len,
        clock: SystemClock::new(),
        allow_shutdown,
        replicas,
        stats: (0..replicas).map(|_| ReplicaStats::default()).collect(),
        accept_exhausted: AtomicU64::new(0),
        replicas_done: Mutex::new(0),
        replicas_done_cv: Condvar::new(),
    });

    let reactor = Reactor {
        epoll,
        listener,
        shared: shared.clone(),
        conns: BTreeMap::new(),
        next_conn_id: 0,
        scratch: vec![0u8; READ_CHUNK],
        outbox_limit: policy.outbox_kib.saturating_mul(1024).max(1),
        accepting: true,
        accept_resume_us: None,
        drain_deadline_us: None,
    };
    let mut threads = vec![std::thread::spawn(move || reactor.run())];
    for (idx, mut engine) in engines.drain(..).enumerate() {
        let replica_shared = shared.clone();
        threads.push(std::thread::spawn(move || {
            replica_loop(&mut engine, replica_shared, idx);
        }));
    }

    Ok(ServerHandle {
        addr: bound,
        n_units,
        input_len,
        replicas,
        shared,
        threads,
    })
}

/// Starts a single-replica server around one engine (the replica-count
/// knob in `policy` is ignored here; use [`start_server_with_engines`]
/// or [`start_server`] for a replicated server).
pub fn start_server_with_engine(
    engine: ServeEngine,
    policy: ServePolicy,
    addr: &str,
    allow_shutdown: bool,
) -> Result<ServerHandle> {
    start_server_with_engines(vec![engine], policy, addr, allow_shutdown)
}

/// Trains the model, clones it into the configured replica count, and
/// starts the server described by `cfg` (the in-process form of
/// `nf serve`).
pub fn start_server(cfg: &RunConfig, quiet: bool) -> Result<ServerHandle> {
    let engines = build_engines(cfg, quiet)?;
    let section = cfg.serve();
    start_server_with_engines(
        engines,
        cfg.resolve_serve()?,
        &section.addr,
        section.allow_shutdown,
    )
}

/// Executes `nf serve <config>`: trains, binds, prints the address, and
/// serves until shut down.
pub fn run_serve(cfg: &RunConfig, quiet: bool) -> Result<()> {
    let handle = start_server(cfg, quiet)?;
    let section = cfg.serve();
    if !quiet {
        println!(
            "serving on {} — {} replica(s); tiers fast/balanced/exact cap exits at \
             {}/{}/{} of {} heads; max batch {}, queue {}",
            handle.addr,
            handle.replicas,
            neuroflux_core::SloTier::Fast.max_exit(handle.n_units),
            neuroflux_core::SloTier::Balanced.max_exit(handle.n_units),
            neuroflux_core::SloTier::Exact.max_exit(handle.n_units),
            handle.n_units,
            section.max_batch,
            section.queue_capacity,
        );
        println!("drive it with: nf loadgen <config> --addr={}", handle.addr);
    }
    handle.wait();
    Ok(())
}

/// One connection as the reactor tracks it.
struct Conn {
    stream: TcpStream,
    asm: FrameAssembler,
    outq: WriteQueue,
    /// The interest bits currently registered with epoll.
    interest: u32,
    /// Reading is over (protocol error replied, peer EOF, or shutdown);
    /// flush the outbox, then close.
    close_after_flush: bool,
}

impl Conn {
    /// The interest bits this connection's state wants.
    fn want(&self) -> u32 {
        let mut bits = 0;
        if !self.close_after_flush {
            bits |= EPOLLIN;
        }
        if !self.outq.is_empty() {
            bits |= EPOLLOUT;
        }
        bits
    }
}

/// `EMFILE` (per-process) / `ENFILE` (system-wide) fd exhaustion.
fn is_fd_exhaustion(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(23) | Some(24))
}

/// The single I/O thread: owns the listener, the wake eventfd, and every
/// client socket through one epoll instance.
struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    shared: Arc<Shared>,
    conns: BTreeMap<u64, Conn>,
    next_conn_id: u64,
    scratch: Vec<u8>,
    /// Per-connection outbox cap in bytes (backpressure; from
    /// `[serve] outbox_kib`).
    outbox_limit: usize,
    /// Whether the listener is currently registered with epoll.
    accepting: bool,
    /// When to re-arm the listener after an fd-exhaustion backoff.
    accept_resume_us: Option<u64>,
    /// Shutdown flush deadline, set once the replicas finish draining.
    drain_deadline_us: Option<u64>,
}

impl Reactor {
    fn run(mut self) {
        let mut events = vec![EpollEvent::zeroed(); 256];
        loop {
            let timeout = self.timeout_ms();
            let n = match self.epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                // A failing epoll fd is unrecoverable; drop everything
                // rather than spin.
                Err(_) => break,
            };
            for ev in events.iter().take(n) {
                match ev.token() {
                    TOKEN_WAKE => self.shared.wake.drain(),
                    TOKEN_LISTENER => self.accept_ready(),
                    conn_id => self.conn_event(conn_id, ev.ready()),
                }
            }
            self.deliver_completions();
            self.maybe_resume_accept();
            if self.shutdown_step() {
                break;
            }
        }
    }

    /// Epoll timeout: block forever unless an accept backoff or the
    /// shutdown flush deadline needs a timed wake.
    fn timeout_ms(&self) -> i32 {
        let deadline = match (self.accept_resume_us, self.drain_deadline_us) {
            (Some(a), Some(d)) => Some(a.min(d)),
            (a, d) => a.or(d),
        };
        reactor_timeout_ms(self.shared.clock.now_us(), deadline)
    }

    /// Accepts until the listener would block. Fd exhaustion backs off
    /// (deregister + timed re-arm) and counts; transient per-connection
    /// failures are skipped.
    fn accept_ready(&mut self) {
        if !self.accepting {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.shared.shutting_down() {
                        drop(stream);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if sys::set_nonblocking(stream.as_raw_fd()).is_err() {
                        continue;
                    }
                    let conn_id = self.next_conn_id;
                    self.next_conn_id += 1;
                    if self
                        .epoll
                        .add(stream.as_raw_fd(), EPOLLIN, conn_id)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(
                        conn_id,
                        Conn {
                            stream,
                            asm: FrameAssembler::new(),
                            outq: WriteQueue::new(),
                            interest: EPOLLIN,
                            close_after_flush: false,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if is_fd_exhaustion(&e) => {
                    self.shared.accept_exhausted.fetch_add(1, Ordering::Relaxed);
                    let _ = self.epoll.delete(self.listener.as_raw_fd());
                    self.accepting = false;
                    self.accept_resume_us =
                        Some(self.shared.clock.now_us().saturating_add(ACCEPT_BACKOFF_US));
                    break;
                }
                // A peer that vanished between SYN and accept
                // (ECONNABORTED…) must not take the loop down; level
                // triggering re-reports any still-pending connection.
                Err(_) => break,
            }
        }
    }

    /// Re-arms the listener once an fd-exhaustion backoff lapses.
    fn maybe_resume_accept(&mut self) {
        let Some(resume_at) = self.accept_resume_us else {
            return;
        };
        if self.shared.shutting_down() {
            self.accept_resume_us = None;
            return;
        }
        if self.shared.clock.now_us() < resume_at {
            return;
        }
        if self
            .epoll
            .add(self.listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
            .is_ok()
        {
            self.accepting = true;
            self.accept_resume_us = None;
        } else {
            // Still exhausted (epoll_ctl needs an fd table slot too in
            // the worst case); try again after another backoff.
            self.accept_resume_us =
                Some(self.shared.clock.now_us().saturating_add(ACCEPT_BACKOFF_US));
        }
    }

    /// Dispatches one epoll event for a connection.
    fn conn_event(&mut self, conn_id: u64, ready: u32) {
        if ready & (EPOLLERR | EPOLLHUP) != 0 {
            self.kill(conn_id);
            return;
        }
        if ready & EPOLLOUT != 0 {
            let flushed = match self.conns.get_mut(&conn_id) {
                None => return,
                Some(conn) => conn.outq.flush(&mut conn.stream),
            };
            if flushed.is_err() {
                self.kill(conn_id);
                return;
            }
        }
        if ready & EPOLLIN != 0 {
            self.conn_readable(conn_id);
        }
        self.sync_interest(conn_id);
    }

    /// Reads everything the socket has, reassembles frames, and handles
    /// each complete request.
    fn conn_readable(&mut self, conn_id: u64) {
        let mut frames = Vec::new();
        let end = match self.conns.get_mut(&conn_id) {
            None => return,
            Some(conn) => {
                if conn.close_after_flush {
                    return;
                }
                crate::net::reactor::read_ready(
                    &mut conn.stream,
                    &mut conn.asm,
                    &mut self.scratch,
                    &mut frames,
                )
            }
        };
        for payload in &frames {
            if !self.handle_frame(conn_id, payload) {
                break;
            }
        }
        match end {
            ReadEnd::WouldBlock => {}
            // Peer closed (cleanly or mid-frame): flush whatever replies
            // are still queued for it, then close. Replies already in
            // flight for a vanished peer cost exactly their own bytes.
            ReadEnd::CleanEof | ReadEnd::Dropped => match self.conns.get_mut(&conn_id) {
                Some(conn) if !conn.outq.is_empty() => conn.close_after_flush = true,
                Some(_) => self.kill(conn_id),
                None => {}
            },
            ReadEnd::Oversized(e) => self.push_error(conn_id, e.to_string()),
        }
    }

    /// Handles one complete request frame. Returns `false` when the
    /// connection should stop processing further frames (protocol error
    /// or shutdown frame).
    fn handle_frame(&mut self, conn_id: u64, payload: &[u8]) -> bool {
        match proto::decode_request(payload) {
            Err(e) => {
                self.push_error(conn_id, e.to_string());
                false
            }
            Ok(Request::Ping { id }) => self.push_response(conn_id, &Response::Pong { id }),
            Ok(Request::Shutdown) => {
                if self.shared.allow_shutdown {
                    self.push_response(conn_id, &Response::ShutdownAck);
                    self.shared.begin_shutdown();
                } else {
                    self.push_error(
                        conn_id,
                        "shutdown frames are disabled on this server".to_string(),
                    );
                }
                false
            }
            Ok(Request::Infer { id, tier, pixels }) => {
                if pixels.len() != self.shared.input_len {
                    return self.push_response(
                        conn_id,
                        &Response::Rejected {
                            id,
                            reason: RejectReason::BadInput,
                        },
                    );
                }
                if self.shared.shutting_down() {
                    return self.push_response(
                        conn_id,
                        &Response::Rejected {
                            id,
                            reason: RejectReason::ShuttingDown,
                        },
                    );
                }
                let internal = self.shared.next_id.fetch_add(1, Ordering::SeqCst);
                let now = self.shared.clock.now_us();
                let req = ServeRequest {
                    id: internal,
                    tier,
                    pixels,
                    arrival_us: now,
                    deadline_us: now.saturating_add(self.shared.policy.deadline_us(tier)),
                };
                if let Ok(mut routes) = self.shared.routes.lock() {
                    routes.insert(
                        internal,
                        Route {
                            conn_id,
                            client_id: id,
                        },
                    );
                }
                // Admission happens under the queue lock, re-checking the
                // shutdown flag there: the replicas finish their drain
                // while holding the same lock with the flag set, so a
                // request can never land in the queue after the final
                // drain (which would leak its route and leave the client
                // replyless).
                let admitted = self
                    .shared
                    .queue
                    .lock()
                    .map(|mut q| {
                        if self.shared.shutting_down() {
                            Some(RejectReason::ShuttingDown)
                        } else if q.submit(req).is_err() {
                            Some(RejectReason::QueueFull)
                        } else {
                            None
                        }
                    })
                    .unwrap_or(None);
                match admitted {
                    None => {
                        self.shared.queue_cv.notify_one();
                        true
                    }
                    Some(reason) => {
                        // The reactor rejects synchronously: retire the
                        // route and reply straight into the outbox, no
                        // completion-queue round trip.
                        let route = self
                            .shared
                            .routes
                            .lock()
                            .ok()
                            .and_then(|mut r| r.remove(&internal));
                        match route {
                            Some(r) => self.push_response(
                                conn_id,
                                &Response::Rejected {
                                    id: r.client_id,
                                    reason,
                                },
                            ),
                            None => true,
                        }
                    }
                }
            }
        }
    }

    /// Queues a response on a connection's outbox, enforcing the
    /// backpressure cap: a peer that stopped reading while replies piled
    /// past the cap is disconnected. Returns `false` when the connection
    /// is gone.
    fn push_response(&mut self, conn_id: u64, resp: &Response) -> bool {
        let payload = proto::encode_response(resp);
        let Ok(wire) = proto::frame_bytes(&payload) else {
            // Responses are bounded small; an oversized one is
            // unreachable, and dropping it beats corrupting the stream.
            return true;
        };
        let over_cap = match self.conns.get_mut(&conn_id) {
            None => return false,
            Some(conn) => {
                if conn.outq.queued_bytes().saturating_add(wire.len()) > self.outbox_limit {
                    true
                } else {
                    conn.outq.push(wire);
                    false
                }
            }
        };
        if over_cap {
            self.kill(conn_id);
            return false;
        }
        true
    }

    /// Sends a typed error reply and marks the connection to close once
    /// it flushes — the reply that explains the close still gets out.
    fn push_error(&mut self, conn_id: u64, message: String) {
        if self.push_response(conn_id, &Response::Error { message }) {
            if let Some(conn) = self.conns.get_mut(&conn_id) {
                conn.close_after_flush = true;
            }
        }
    }

    /// Opportunistically flushes, closes a drained closing connection,
    /// and reconciles the epoll interest bits with what the connection's
    /// state wants — the write-interest toggle.
    fn sync_interest(&mut self, conn_id: u64) {
        let flushed = match self.conns.get_mut(&conn_id) {
            None => return,
            Some(conn) if conn.outq.is_empty() => Ok(true),
            Some(conn) => conn.outq.flush(&mut conn.stream),
        };
        if flushed.is_err() {
            self.kill(conn_id);
            return;
        }
        let (fd, want, have) = match self.conns.get_mut(&conn_id) {
            None => return,
            Some(conn) => {
                if conn.close_after_flush && conn.outq.is_empty() {
                    self.kill(conn_id);
                    return;
                }
                (conn.stream.as_raw_fd(), conn.want(), conn.interest)
            }
        };
        if want != have {
            if self.epoll.modify(fd, want, conn_id).is_err() {
                self.kill(conn_id);
                return;
            }
            if let Some(conn) = self.conns.get_mut(&conn_id) {
                conn.interest = want;
            }
        }
    }

    /// Copies completed replies into their connections' outboxes and
    /// reconciles interest for every touched connection.
    fn deliver_completions(&mut self) {
        let batch = match self.shared.completions.lock() {
            Ok(mut completions) => std::mem::take(&mut *completions),
            Err(_) => return,
        };
        if batch.is_empty() {
            return;
        }
        let mut touched: Vec<u64> = Vec::with_capacity(batch.len());
        for (conn_id, resp) in batch {
            if self.push_response(conn_id, &resp) {
                touched.push(conn_id);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for conn_id in touched {
            self.sync_interest(conn_id);
        }
    }

    /// Advances the shutdown state machine. Returns `true` when the
    /// reactor should exit: replicas drained, completions delivered, and
    /// every outbox flushed (or the drain deadline lapsed).
    fn shutdown_step(&mut self) -> bool {
        if !self.shared.shutting_down() {
            return false;
        }
        if self.accepting {
            let _ = self.epoll.delete(self.listener.as_raw_fd());
            self.accepting = false;
            self.accept_resume_us = None;
        }
        let done = self
            .shared
            .replicas_done
            .lock()
            .map(|d| *d)
            .unwrap_or(self.shared.replicas);
        if done < self.shared.replicas {
            return false;
        }
        // All drain replies are now pushed; move them into outboxes.
        self.deliver_completions();
        let now = self.shared.clock.now_us();
        let deadline = *self
            .drain_deadline_us
            .get_or_insert(now.saturating_add(DRAIN_FLUSH_US));
        let conn_ids: Vec<u64> = self.conns.keys().copied().collect();
        for conn_id in conn_ids {
            let flushed = match self.conns.get_mut(&conn_id) {
                None => continue,
                Some(conn) => conn.outq.flush(&mut conn.stream),
            };
            match flushed {
                Ok(true) | Err(_) => self.kill(conn_id),
                Ok(false) if now >= deadline => self.kill(conn_id),
                Ok(false) => self.sync_interest(conn_id),
            }
        }
        self.conns.is_empty()
    }

    /// Removes a connection: deregisters and drops (closes) the socket.
    /// Routes pointing at it resolve to completions that simply find no
    /// connection to deliver to.
    fn kill(&mut self, conn_id: u64) {
        if let Some(conn) = self.conns.remove(&conn_id) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
        }
    }
}

/// Waits for the next batch this replica should run, or `None` when the
/// replica should exit (shutdown with an empty queue).
///
/// While serving, the replica sleeps on the queue condvar with no timeout
/// when the queue is empty (zero idle CPU), and with a bounded timeout
/// until the earliest tier window closes when a partial batch is queued.
/// During shutdown it drains deadline-aware: batches form immediately
/// (no window), `form_batch` splits out lapsed requests for rejection,
/// and the replica exits once the queue is empty.
fn next_plan(shared: &Shared) -> Option<BatchPlan> {
    let mut q = shared.queue.lock().ok()?;
    loop {
        if shared.shutting_down() {
            if q.is_empty() {
                return None;
            }
            break;
        }
        if q.is_empty() {
            q = shared.queue_cv.wait(q).ok()?;
            continue;
        }
        if q.len() >= shared.policy.max_batch {
            break;
        }
        // Partial batch: wait until the earliest tier window closes,
        // re-checking as new requests land.
        let now = shared.clock.now_us();
        let wake = q.window_deadline_us(&shared.policy).unwrap_or(now);
        if now >= wake {
            break;
        }
        let wait = (wake - now).clamp(50, 2_000);
        let (qq, _) = shared
            .queue_cv
            .wait_timeout(q, Duration::from_micros(wait))
            .ok()?;
        q = qq;
    }
    Some(q.form_batch(shared.clock.now_us(), shared.policy.max_batch))
}

/// One replica: draws micro-batches from the shared queue, rejects
/// deadline-lapsed requests, runs ready batches through its own model
/// clone, and accounts its busy time. Replies land in the completion
/// queue with one eventfd wake per micro-batch.
fn replica_loop(engine: &mut ServeEngine, shared: Arc<Shared>, idx: usize) {
    // Each replica owns one stats slot; a bad index means the spawner is
    // broken, and degrading to no service beats a panic in a worker.
    let stats = match shared.stats.get(idx) {
        Some(stats) => stats,
        None => {
            if let Ok(mut done) = shared.replicas_done.lock() {
                *done += 1;
                shared.replicas_done_cv.notify_all();
            }
            let _ = shared.wake.wake();
            return;
        }
    };
    while let Some(plan) = next_plan(&shared) {
        for req in &plan.expired {
            shared.respond(req.id, |client_id| Response::Rejected {
                id: client_id,
                reason: RejectReason::Deadline,
            });
        }
        if plan.ready.is_empty() {
            if !plan.expired.is_empty() {
                let _ = shared.wake.wake();
            }
            continue;
        }
        let t0 = shared.clock.now_us();
        let result = engine.infer_batch(&plan.ready);
        let busy = shared.clock.now_us().saturating_sub(t0);
        stats.busy_us.fetch_add(busy, Ordering::Relaxed);
        stats.batches.fetch_add(1, Ordering::Relaxed);
        match result {
            Ok(replies) => {
                stats
                    .served
                    .fetch_add(plan.ready.len() as u64, Ordering::Relaxed);
                let now = shared.clock.now_us();
                for (req, reply) in plan.ready.iter().zip(replies) {
                    let server_us = now.saturating_sub(req.arrival_us).min(u32::MAX as u64);
                    shared.respond(req.id, |client_id| Response::Infer {
                        id: client_id,
                        class: reply.class.min(u16::MAX as usize) as u16,
                        exit: reply.exit.min(u8::MAX as usize) as u8,
                        confidence: reply.confidence,
                        server_us: server_us as u32,
                    });
                }
            }
            // Engine failures are per-batch diagnostics, never a server
            // crash: each affected request gets an error reply.
            Err(e) => {
                for req in &plan.ready {
                    shared.respond(req.id, |_client_id| Response::Error {
                        message: format!("inference failed: {e}"),
                    });
                }
            }
        }
        // One wake per micro-batch, not per reply.
        let _ = shared.wake.wake();
    }
    if let Ok(mut done) = shared.replicas_done.lock() {
        *done += 1;
        shared.replicas_done_cv.notify_all();
    }
    let _ = shared.wake.wake();
}
