//! `nf serve <config>`: the early-exit inference service.
//!
//! Architecture (all std, no async runtime — vendored deps only):
//!
//! ```text
//!                    ┌─────────────── reactor thread ───────────────┐
//! clients ══socket══▶│ epoll { listener, eventfd, every connection }│
//!                    │  accept → Conn::open                         │
//!                    │  read → frame reassembly → admission ──submit┼──▶ bounded queue
//!                    │  route table (internal id → conn, client id) │    (MicroBatcher,
//!                    │  completions → route → outbox → Conn::sync   │     one shared lock)
//!                    └──────────────▲───────────────────────────────┘
//!                                   │ eventfd wake        ▲ │ draw
//!                                   └───── completions ───┘ replica 0..N-1
//!                                    (internal id, outcome) (model clone each:
//!                                                            micro-batch → capped
//!                                                            cascade → outcomes)
//! ```
//!
//! - **One reactor thread** owns every socket: the listener, the eventfd
//!   wake channel, and all client connections (`net::reactor::Conn`),
//!   multiplexed through a single level-triggered epoll instance. Thread
//!   count is *connection-independent* — reactor + N replicas + main,
//!   whether 1 or 10 000 clients are connected.
//! - Reads feed each connection's frame-reassembly state machine, which
//!   tolerates arbitrary `read(2)` chunk boundaries. Admission runs
//!   inline in the reactor: full queue → `queue-full`, wrong pixel count
//!   → `bad-input`, malformed frame → a typed error reply and the
//!   connection closes. A broken connection never touches other clients.
//! - The reactor alone owns reply routing: it gives each admitted request
//!   an internal id and records, in a plain map, which connection and
//!   client id it came from. Replicas post `(internal id, outcome)` to a
//!   completion queue plus an **eventfd wake**; the reactor renders each
//!   outcome as the client's reply into that connection's bounded outbox
//!   and toggles `EPOLLOUT` only while bytes remain. A peer that stops
//!   reading past [`OUTBOX_CAP_BYTES`] is disconnected (backpressure), so
//!   no replica ever blocks on a slow client's socket.
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
//! - Batching is work-conserving, with no timer: a free replica runs
//!   whatever is queued, up to `max_batch`, at once
//!   (`MicroBatcher::draw`), so a lone request never waits for company.
//!   The reactor wakes one replica once per epoll turn, after it has
//!   queued every frame that turn read, so a burst that arrives together
//!   is still one batch (only a full `max_batch` wakes one mid-turn); the
//!   backlog that builds while every replica is busy is the next batch.
//! - Shutdown is an eventfd wake, not a socket trick: the flag flips,
//!   the reactor stops accepting, replicas drain deadline-aware (within
//!   deadline → served, lapsed → `deadline`, new → `shutting-down`),
//!   then the reactor flushes every outbox (bounded by a drain deadline)
//!   and closes all connections. Nothing is silently dropped.
//!
//! The model is trained in-process from the config at startup (seeded by
//! `[run].seed`), so a given config always serves the identical model —
//! the determinism the serve tests pin.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::config::RunConfig;
use crate::error::{CliError, Result};
use crate::net::reactor::{Conn, ReadEnd, READ_CHUNK, TOKEN_LISTENER, TOKEN_WAKE};
use crate::net::sys::{self, Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN};
use crate::progress::say;
use crate::proto::{self, RejectReason, Request, Response};
use neuroflux_core::serve::{reactor_timeout_ms, Clock, MicroBatcher, SystemClock};
use neuroflux_core::{
    BatchPlan, Draw, NeuroFluxTrainer, NfError, ServeEngine, ServePolicy, ServeReply, ServeRequest,
    OUTBOX_CAP_BYTES,
};
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

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
        say(&format!(
            "training {} ({} exit heads) for serving, seed {} ...",
            spec.name,
            spec.num_units(),
            cfg.run.seed
        ))?;
    }
    let outcome = NeuroFluxTrainer::new(nf_config)
        .train(&mut rng, &spec, &data)
        .map_err(|e| CliError::from_plan("the serving model", e))?;
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
        say(&format!(
            "cloning the engine into {n} bit-identical replicas ..."
        ))?;
    }
    replicate_engines(cfg, primary, n)
}

/// A response route: which connection a served request's reply returns
/// to, under which client-chosen id.
struct Route {
    conn_id: u64,
    client_id: u64,
}

/// A replica's verdict on one admitted request. Replicas post it under
/// the request's internal id; the reactor renders it under the client's.
enum Outcome {
    Served { reply: ServeReply, server_us: u64 },
    Rejected(RejectReason),
    Failed(String),
}

impl Outcome {
    /// The wire reply for the client that sent the request as `client_id`.
    fn into_response(self, client_id: u64) -> Response {
        match self {
            Outcome::Served { reply, server_us } => Response::Infer {
                id: client_id,
                class: reply.class.min(u16::MAX as usize) as u16,
                exit: reply.exit.min(u8::MAX as usize) as u8,
                confidence: reply.confidence,
                server_us: server_us.min(u32::MAX as u64) as u32,
            },
            Outcome::Rejected(reason) => Response::Rejected {
                id: client_id,
                reason,
            },
            Outcome::Failed(message) => Response::Error { message },
        }
    }
}

/// One replica's work counters (lock-free; read by `replica_stats`).
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
    /// Outcomes not yet delivered, keyed by internal request id; replicas
    /// push here, then wake the reactor through the eventfd.
    completions: Mutex<Vec<(u64, Outcome)>>,
    /// The reactor's wake channel: replicas (new outcomes), shutdown, and
    /// drain completion all signal through it — no self-connects, no
    /// socket shutdown tricks.
    wake: EventFd,
    shutdown: AtomicBool,
    policy: ServePolicy,
    clock: SystemClock,
    /// `accept(2)` stalls on fd exhaustion (`EMFILE`/`ENFILE`); each one
    /// backed off and re-armed rather than killing the accept path.
    accept_exhausted: AtomicU64,
    /// Replicas that finished their drain (or retired after a panic); the
    /// reactor outlives them and flushes their final replies before
    /// closing connections.
    replicas_done: AtomicUsize,
    /// Replica threads started.
    replicas: usize,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flips the shutdown flag and unblocks everything that sleeps: the
    /// replicas (condvar) and the reactor (eventfd wake). Idempotent. The
    /// flag flips under the queue lock, so a replica between its `draw`
    /// and its condvar wait cannot miss the notify.
    fn begin_shutdown(&self) {
        let queue = self.queue.lock();
        self.shutdown.store(true, Ordering::SeqCst);
        drop(queue);
        self.queue_cv.notify_all();
        let _ = self.wake.wake();
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
    stats: Vec<Arc<ReplicaStats>>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// Per-replica busy/idle accounting since the server started.
    pub fn replica_stats(&self) -> Vec<ReplicaSnapshot> {
        let alive_us = self.shared.clock.now_us().max(1) as f64;
        self.stats
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
    pub fn stop(self) {
        self.shared.begin_shutdown();
        self.wait();
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
        completions: Mutex::new(Vec::new()),
        wake,
        shutdown: AtomicBool::new(false),
        policy,
        clock: SystemClock::new(),
        accept_exhausted: AtomicU64::new(0),
        replicas_done: AtomicUsize::new(0),
        replicas,
    });

    let reactor = Reactor {
        epoll,
        listener,
        shared: shared.clone(),
        conns: BTreeMap::new(),
        closing: BTreeSet::new(),
        routes: BTreeMap::new(),
        next_conn_id: 0,
        next_id: 0,
        input_len,
        allow_shutdown,
        scratch: vec![0u8; READ_CHUNK],
        accepting: true,
        accept_resume_us: None,
        drain_deadline_us: None,
        admitted: false,
    };
    let mut threads = vec![std::thread::spawn(move || reactor.run())];
    let mut stats = Vec::with_capacity(replicas);
    for mut engine in engines {
        let replica_stats = Arc::new(ReplicaStats::default());
        stats.push(replica_stats.clone());
        let replica_shared = shared.clone();
        threads.push(std::thread::spawn(move || {
            replica_loop(&mut engine, &replica_shared, &replica_stats);
        }));
    }

    Ok(ServerHandle {
        addr: bound,
        n_units,
        input_len,
        replicas,
        shared,
        stats,
        threads,
    })
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
        say(&format!(
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
        ))?;
        say(&format!(
            "drive it with: nf loadgen <config> --addr={}",
            handle.addr
        ))?;
    }
    handle.wait();
    Ok(())
}

/// `EMFILE` (per-process) / `ENFILE` (system-wide) fd exhaustion.
fn is_fd_exhaustion(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(23) | Some(24))
}

/// The single I/O thread: owns the listener, the wake eventfd, every
/// client socket through one epoll instance, and the reply routes.
struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    shared: Arc<Shared>,
    conns: BTreeMap<u64, Conn>,
    /// Connections whose reading is over (protocol error replied, peer
    /// EOF): flush the outbox, then close.
    closing: BTreeSet<u64>,
    /// Where each admitted request's reply goes, by internal id.
    routes: BTreeMap<u64, Route>,
    next_conn_id: u64,
    /// The next internal request id.
    next_id: u64,
    /// Flattened pixels per request the model expects.
    input_len: usize,
    /// Whether a shutdown frame stops the server.
    allow_shutdown: bool,
    scratch: Vec<u8>,
    /// Whether the listener is currently registered with epoll.
    accepting: bool,
    /// When to re-arm the listener after an fd-exhaustion backoff.
    accept_resume_us: Option<u64>,
    /// Shutdown flush deadline, set once the replicas finish draining.
    drain_deadline_us: Option<u64>,
    /// Whether this epoll turn admitted requests no wake has announced
    /// yet (a partial batch: one wake after the turn's last frame).
    admitted: bool,
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
            // One replica wake per turn, after every frame the turn read
            // is queued: requests that arrived together form one batch.
            if std::mem::take(&mut self.admitted) {
                self.shared.queue_cv.notify_one();
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
                    let conn_id = self.next_conn_id;
                    self.next_conn_id += 1;
                    if let Ok(conn) = Conn::open(stream, &self.epoll, conn_id) {
                        self.conns.insert(conn_id, conn);
                    }
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

    /// Dispatches one epoll event for a connection. `EPOLLOUT` needs no
    /// arm of its own: [`Reactor::sync`] flushes either way.
    fn conn_event(&mut self, conn_id: u64, ready: u32) {
        if ready & (EPOLLERR | EPOLLHUP) != 0 {
            self.kill(conn_id);
            return;
        }
        if ready & EPOLLIN != 0 {
            self.conn_readable(conn_id);
        }
        self.sync(conn_id);
    }

    /// Reads everything the socket has, reassembles frames, and handles
    /// each complete request.
    fn conn_readable(&mut self, conn_id: u64) {
        if self.closing.contains(&conn_id) {
            return;
        }
        let mut frames = Vec::new();
        let end = match self.conns.get_mut(&conn_id) {
            None => return,
            Some(conn) => conn.read_frames(&mut self.scratch, &mut frames),
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
            ReadEnd::CleanEof | ReadEnd::Dropped => self.stop_reading(conn_id),
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
                if self.allow_shutdown {
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
                let reject = |reason| Response::Rejected { id, reason };
                if pixels.len() != self.input_len {
                    return self.push_response(conn_id, &reject(RejectReason::BadInput));
                }
                let internal = self.next_id;
                self.next_id += 1;
                let now = self.shared.clock.now_us();
                let req = ServeRequest {
                    id: internal,
                    tier,
                    pixels,
                    arrival_us: now,
                    deadline_us: now.saturating_add(self.shared.policy.deadline_us(tier)),
                };
                // Admission happens under the queue lock, checking the
                // shutdown flag there: the replicas finish their drain
                // while holding the same lock with the flag set, so a
                // request can never land in the queue after the final
                // drain (which would leave the client replyless). A
                // poisoned lock means the replicas are gone: reject.
                let admitted = match self.shared.queue.lock() {
                    Ok(mut q) if !self.shared.shutting_down() => q
                        .submit(req)
                        .map(|()| q.len())
                        .map_err(|_| RejectReason::QueueFull),
                    _ => Err(RejectReason::ShuttingDown),
                };
                match admitted {
                    Ok(queued) => {
                        // Only this thread reads the routes, so the
                        // reply cannot be delivered before this insert.
                        self.routes.insert(
                            internal,
                            Route {
                                conn_id,
                                client_id: id,
                            },
                        );
                        // A full batch cannot grow: a replica takes it now,
                        // not after the turn; a partial one waits for it.
                        self.admitted = queued < self.shared.policy.max_batch;
                        if !self.admitted {
                            self.shared.queue_cv.notify_one();
                        }
                        true
                    }
                    Err(reason) => self.push_response(conn_id, &reject(reason)),
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
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return false;
        };
        if conn.queued_bytes().saturating_add(wire.len()) > OUTBOX_CAP_BYTES {
            self.kill(conn_id);
            return false;
        }
        conn.queue(wire);
        true
    }

    /// Sends a typed error reply and stops reading the connection — the
    /// reply that explains the close still gets out.
    fn push_error(&mut self, conn_id: u64, message: String) {
        if self.push_response(conn_id, &Response::Error { message }) {
            self.stop_reading(conn_id);
        }
    }

    /// Marks a live connection to close once its outbox drains.
    fn stop_reading(&mut self, conn_id: u64) {
        if self.conns.contains_key(&conn_id) {
            self.closing.insert(conn_id);
        }
    }

    /// Flushes a connection and reconciles its epoll interest (readable
    /// unless closing). `None` when the connection is gone.
    fn flush(&mut self, conn_id: u64) -> Option<io::Result<bool>> {
        let want_read = !self.closing.contains(&conn_id);
        let conn = self.conns.get_mut(&conn_id)?;
        Some(conn.sync(&self.epoll, conn_id, want_read))
    }

    /// [`Reactor::flush`], then closes the connection if its peer is gone
    /// or it is closing with nothing left to send.
    fn sync(&mut self, conn_id: u64) {
        match self.flush(conn_id) {
            None | Some(Ok(false)) => {}
            Some(Ok(true)) if !self.closing.contains(&conn_id) => {}
            Some(_) => self.kill(conn_id),
        }
    }

    /// Renders completed outcomes as replies into their connections'
    /// outboxes (retiring each route) and syncs every touched connection.
    fn deliver_completions(&mut self) {
        let batch = match self.shared.completions.lock() {
            Ok(mut completions) => std::mem::take(&mut *completions),
            Err(_) => return,
        };
        let mut touched: Vec<u64> = Vec::with_capacity(batch.len());
        for (internal, outcome) in batch {
            let Some(route) = self.routes.remove(&internal) else {
                continue;
            };
            let resp = outcome.into_response(route.client_id);
            if self.push_response(route.conn_id, &resp) {
                touched.push(route.conn_id);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for conn_id in touched {
            self.sync(conn_id);
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
        if self.shared.replicas_done.load(Ordering::SeqCst) < self.shared.replicas {
            return false;
        }
        // All drain outcomes are now posted; move them into outboxes.
        self.deliver_completions();
        let now = self.shared.clock.now_us();
        let deadline = *self
            .drain_deadline_us
            .get_or_insert(now.saturating_add(DRAIN_FLUSH_US));
        let conn_ids: Vec<u64> = self.conns.keys().copied().collect();
        for conn_id in conn_ids {
            match self.flush(conn_id) {
                None => {}
                Some(Ok(false)) if now < deadline => {}
                Some(_) => self.kill(conn_id),
            }
        }
        self.conns.is_empty()
    }

    /// Removes a connection: deregisters and closes the socket. Routes
    /// pointing at it resolve to completions that simply find no
    /// connection to deliver to.
    fn kill(&mut self, conn_id: u64) {
        self.closing.remove(&conn_id);
        if let Some(conn) = self.conns.remove(&conn_id) {
            conn.close(&self.epoll);
        }
    }
}

/// Waits for the next batch this replica should run, or `None` when the
/// replica should exit (shutdown with an empty queue): the queue lock and
/// a condvar loop around [`MicroBatcher::draw`]. A free replica runs
/// whatever is queued at once; on an empty queue it sleeps with no
/// timeout (zero idle CPU). Draining differs from serving only in that an
/// empty queue means exit, and `form_batch` splits lapsed requests out
/// for rejection either way.
fn next_plan(shared: &Shared) -> Option<BatchPlan> {
    let mut q = shared.queue.lock().ok()?;
    loop {
        let now = shared.clock.now_us();
        match q.draw(now, shared.policy.max_batch, shared.shutting_down()) {
            Draw::Run(plan) => {
                // More was queued than one batch holds: the rest goes to
                // the next free replica, not back to the reactor's wake.
                if !q.is_empty() {
                    shared.queue_cv.notify_one();
                }
                return Some(plan);
            }
            Draw::Sleep => q = shared.queue_cv.wait(q).ok()?,
            Draw::Exit => return None,
        }
    }
}

/// One replica: draws micro-batches from the shared queue, rejects
/// deadline-lapsed requests, runs ready batches through its own model
/// clone, and accounts its busy time. Each micro-batch's outcomes land in
/// the completion queue under one lock, with one eventfd wake.
///
/// An engine that panics fails its batch like an engine error and retires
/// with its replica. The last replica to stop begins the shutdown, so
/// admission answers `shutting-down` and `stop()` / `wait()` return.
fn replica_loop(engine: &mut ServeEngine, shared: &Shared, stats: &ReplicaStats) {
    let mut panicked = false;
    while let Some(plan) = next_plan(shared) {
        let mut outcomes: Vec<(u64, Outcome)> = plan
            .expired
            .iter()
            .map(|req| (req.id, Outcome::Rejected(RejectReason::Deadline)))
            .collect();
        if !plan.ready.is_empty() {
            let t0 = shared.clock.now_us();
            let result = catch_unwind(AssertUnwindSafe(|| engine.infer_batch(&plan.ready)));
            let busy = shared.clock.now_us().saturating_sub(t0);
            stats.busy_us.fetch_add(busy, Ordering::Relaxed);
            stats.batches.fetch_add(1, Ordering::Relaxed);
            panicked = result.is_err();
            let result = result.unwrap_or_else(|_| {
                Err(NfError::Serve {
                    cause: "the replica panicked and retired".into(),
                })
            });
            match result {
                Ok(replies) => {
                    stats
                        .served
                        .fetch_add(plan.ready.len() as u64, Ordering::Relaxed);
                    let now = shared.clock.now_us();
                    outcomes.extend(plan.ready.iter().zip(replies).map(|(req, reply)| {
                        let server_us = now.saturating_sub(req.arrival_us);
                        (req.id, Outcome::Served { reply, server_us })
                    }));
                }
                // Engine failures are per-batch diagnostics, never a
                // server crash: each affected request gets an error reply.
                Err(e) => {
                    let message = format!("inference failed: {e}");
                    outcomes.extend(
                        plan.ready
                            .iter()
                            .map(|req| (req.id, Outcome::Failed(message.clone()))),
                    );
                }
            }
        }
        if let Ok(mut completions) = shared.completions.lock() {
            completions.extend(outcomes);
        }
        // One wake per micro-batch, not per reply.
        let _ = shared.wake.wake();
        if panicked {
            break;
        }
    }
    if shared.replicas_done.fetch_add(1, Ordering::SeqCst) + 1 == shared.replicas {
        shared.begin_shutdown();
    }
    let _ = shared.wake.wake();
}
