//! The serving engine behind `nf serve`: SLO tiers, admission control,
//! deterministic micro-batching, and the capped confidence cascade.
//!
//! The paper's adaptive early exits (§5.4) are a latency/throughput knob
//! at inference time: easy inputs leave at shallow auxiliary heads, hard
//! inputs ride deeper. This module turns that knob into a serving policy:
//!
//! - [`SloTier`] maps a client-facing service level (`fast` / `balanced` /
//!   `exact`) to a **maximum exit depth** — the deepest head a request may
//!   reach before it is forced to exit — and a queue deadline.
//! - [`MicroBatcher`] is a bounded FIFO queue with admission control.
//!   Batch formation and a free replica's next step ([`MicroBatcher::draw`]:
//!   run what is queued, sleep, or exit) are pure functions of (queue
//!   contents, clock, shutdown flag), so a [`VirtualClock`] makes every
//!   schedule reproducible in tests.
//! - [`ServeEngine`] owns a trained model plus its auxiliary heads and
//!   runs mixed-tier micro-batches through the capped cascade.
//!
//! Determinism contract: a sample's prediction (class, exit, confidence —
//! as f32 *bits*) is independent of which batch it rides in. Every kernel
//! in the forward path accumulates per output element in ascending-k
//! order regardless of the batch dimension, so batching changes wall
//! time, never results. `crates/cli/tests/serve_cmd.rs` pins this against
//! single-sample offline inference.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::confidence_exit::ConfidenceCascade;
use crate::params_io::{load_snapshot, snapshot_params};
use crate::{NfError, Result};
use nf_models::{assign_aux, build_aux_head, AuxPolicy, BuiltModel};
use nf_nn::{Layer, Sequential};
use nf_tensor::Tensor;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Client-facing service level of one request.
///
/// Each tier caps how deep a request may travel before it is forced to
/// exit at the deepest head its budget allows, and how long it may sit in
/// the queue before admission control rejects it. A tier never delays a
/// request: every tier rides the same work-conserving batches
/// ([`MicroBatcher::draw`]), which run as soon as a replica is free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SloTier {
    /// Lowest latency: exit by the shallowest quarter of the cascade.
    Fast,
    /// Middle ground: exit by the middle of the cascade.
    Balanced,
    /// Full accuracy: the whole cascade is available.
    Exact,
}

impl SloTier {
    /// All tiers, in wire-index order.
    pub const ALL: [SloTier; 3] = [SloTier::Fast, SloTier::Balanced, SloTier::Exact];

    /// Stable lowercase name (config values, artifacts, reports).
    pub fn name(self) -> &'static str {
        match self {
            SloTier::Fast => "fast",
            SloTier::Balanced => "balanced",
            SloTier::Exact => "exact",
        }
    }

    /// Wire/index encoding (`fast = 0`, `balanced = 1`, `exact = 2`).
    pub fn index(self) -> usize {
        match self {
            SloTier::Fast => 0,
            SloTier::Balanced => 1,
            SloTier::Exact => 2,
        }
    }

    /// Decodes the wire index back into a tier.
    pub fn from_index(i: u8) -> Option<SloTier> {
        match i {
            0 => Some(SloTier::Fast),
            1 => Some(SloTier::Balanced),
            2 => Some(SloTier::Exact),
            _ => None,
        }
    }

    /// The deepest exit (0-based unit index) a request of this tier may
    /// reach in a cascade of `n_units` heads: the shallowest quarter for
    /// `fast`, the midpoint for `balanced`, the full depth for `exact`.
    /// Monotone in tier and always a valid exit index.
    pub fn max_exit(self, n_units: usize) -> usize {
        let deepest = n_units.saturating_sub(1);
        match self {
            SloTier::Fast => deepest / 4,
            SloTier::Balanced => deepest / 2,
            SloTier::Exact => deepest,
        }
    }
}

impl std::str::FromStr for SloTier {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "fast" => Ok(SloTier::Fast),
            "balanced" => Ok(SloTier::Balanced),
            "exact" => Ok(SloTier::Exact),
            other => Err(format!(
                "unknown SLO tier {other:?} (expected fast, balanced, or exact)"
            )),
        }
    }
}

/// Per-connection reply-outbox cap (bytes): a peer that stops reading
/// while this many reply bytes pile up is disconnected (backpressure), so
/// one slow client can never pin server memory.
pub const OUTBOX_CAP_BYTES: usize = 1 << 20;

/// Server-side serving policy: batching, admission, per-tier queue
/// deadlines, and replica count. The tier→depth mapping itself lives on
/// [`SloTier`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServePolicy {
    /// Cascade exit threshold: a head fires when its max softmax
    /// probability reaches this value.
    pub threshold: f32,
    /// Largest micro-batch the batcher forms.
    pub max_batch: usize,
    /// Bounded-queue capacity; a submit beyond this is rejected
    /// immediately (admission control).
    pub queue_capacity: usize,
    /// Queue deadline per tier, indexed by [`SloTier::index`]: a request
    /// still queued this long after arrival is rejected, not served late.
    pub deadline_us: [u64; 3],
    /// Batcher/model replicas sharing the admission queue. `0` = one per
    /// host core. Each replica owns a bit-identical model clone.
    pub replicas: usize,
}

impl Default for ServePolicy {
    fn default() -> Self {
        ServePolicy {
            threshold: 0.85,
            max_batch: 8,
            queue_capacity: 64,
            deadline_us: [10_000, 50_000, 250_000],
            replicas: 0,
        }
    }
}

/// Upper bound on explicit replica counts: a model clone per replica
/// makes absurd values a misconfiguration, not a slow OOM.
pub const MAX_REPLICAS: usize = 64;

impl ServePolicy {
    /// Queue deadline for `tier`.
    pub fn deadline_us(&self, tier: SloTier) -> u64 {
        let [fast, balanced, exact] = self.deadline_us;
        match tier {
            SloTier::Fast => fast,
            SloTier::Balanced => balanced,
            SloTier::Exact => exact,
        }
    }

    /// Replica count to actually run: the explicit setting, or one per
    /// host core when `replicas = 0` (auto).
    pub fn effective_replicas(&self, host_cores: usize) -> usize {
        if self.replicas == 0 {
            host_cores.max(1)
        } else {
            self.replicas
        }
    }

    /// Validates the policy (positive batch/queue sizes, finite positive
    /// threshold, sane replica count).
    pub fn validate(&self) -> Result<()> {
        if self.max_batch == 0 {
            return Err(NfError::BadConfig("serve.max_batch must be > 0".into()));
        }
        if self.queue_capacity == 0 {
            return Err(NfError::BadConfig(
                "serve.queue_capacity must be > 0".into(),
            ));
        }
        if !(self.threshold.is_finite() && self.threshold > 0.0) {
            return Err(NfError::BadConfig(
                "serve.threshold must be a finite number > 0".into(),
            ));
        }
        if self.replicas > MAX_REPLICAS {
            return Err(NfError::BadConfig(format!(
                "serve.replicas must be ≤ {MAX_REPLICAS} (0 = one per core)"
            )));
        }
        Ok(())
    }
}

/// One admitted inference request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Server-assigned identity; response routing is keyed on it.
    pub id: u64,
    /// Requested service level.
    pub tier: SloTier,
    /// Flattened `C×H×W` input pixels.
    pub pixels: Vec<f32>,
    /// Queue-clock arrival time (µs).
    pub arrival_us: u64,
    /// Queue-clock deadline (µs): still queued past this → rejected.
    pub deadline_us: u64,
}

/// One served prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeReply {
    /// The request's [`ServeRequest::id`].
    pub id: u64,
    /// Predicted class.
    pub class: usize,
    /// Exit head that fired (0-based unit index).
    pub exit: usize,
    /// Softmax confidence at the firing exit.
    pub confidence: f32,
}

/// Why admission control refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The bounded queue is at capacity.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull { capacity } => {
                write!(f, "serve queue full (capacity {capacity})")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// What one [`MicroBatcher::form_batch`] call produced.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct BatchPlan {
    /// Requests to run now, in FIFO arrival order, at most `max_batch`.
    pub ready: Vec<ServeRequest>,
    /// Requests whose queue deadline passed before they could be batched;
    /// the caller must reject these, never serve them late.
    pub expired: Vec<ServeRequest>,
}

/// Bounded FIFO micro-batch queue with admission control.
///
/// Pure data structure: time enters only through the `now_us` arguments,
/// so a [`VirtualClock`] reproduces any schedule exactly. FIFO pops make
/// starvation impossible — every `form_batch` on a non-empty queue
/// removes at least one request (into `ready` or `expired`).
#[derive(Debug)]
pub struct MicroBatcher {
    queue: VecDeque<ServeRequest>,
    capacity: usize,
}

impl MicroBatcher {
    /// Creates a batcher with the given queue capacity.
    pub fn new(capacity: usize) -> Self {
        MicroBatcher {
            queue: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Queued request count.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Admits a request, or rejects it if the queue is at capacity.
    pub fn submit(&mut self, req: ServeRequest) -> std::result::Result<(), AdmissionError> {
        if self.queue.len() >= self.capacity {
            return Err(AdmissionError::QueueFull {
                capacity: self.capacity,
            });
        }
        self.queue.push_back(req);
        Ok(())
    }

    /// Forms the next micro-batch at queue-clock time `now_us`: pops
    /// requests in FIFO order, splitting out those whose deadline already
    /// passed, until `max_batch` are ready or the queue is empty.
    pub fn form_batch(&mut self, now_us: u64, max_batch: usize) -> BatchPlan {
        let mut plan = BatchPlan::default();
        while plan.ready.len() < max_batch.max(1) {
            let req = match self.queue.pop_front() {
                Some(r) => r,
                None => break,
            };
            if req.deadline_us < now_us {
                plan.expired.push(req);
            } else {
                plan.ready.push(req);
            }
        }
        plan
    }

    /// What a free replica does next at queue-clock time `now_us`: run
    /// whatever is queued (up to `max_batch`, via [`Self::form_batch`])
    /// the moment it is free, sleep until a submit wakes it on an empty
    /// queue, or exit on an empty queue once `shutting_down` — the one
    /// difference between serving and draining. No timer: the backlog
    /// that builds while every replica is busy is the next batch.
    pub fn draw(&mut self, now_us: u64, max_batch: usize, shutting_down: bool) -> Draw {
        if !self.queue.is_empty() {
            Draw::Run(self.form_batch(now_us, max_batch))
        } else if shutting_down {
            Draw::Exit
        } else {
            Draw::Sleep
        }
    }
}

/// A free replica's next step: [`MicroBatcher::draw`]'s verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum Draw {
    /// Run this batch (it holds at least one request, ready or expired).
    Run(BatchPlan),
    /// The queue is empty and the server is serving: block until woken.
    Sleep,
    /// The queue is empty during shutdown: the drain is over.
    Exit,
}

/// A microsecond clock the serving path reads time from.
pub trait Clock: Send + Sync {
    /// Monotonic microseconds since the clock's epoch.
    fn now_us(&self) -> u64;
}

/// Wall-clock time, anchored at construction.
#[derive(Debug)]
pub struct SystemClock {
    anchor: Instant,
}

impl SystemClock {
    /// Creates a clock whose epoch is now.
    #[expect(
        clippy::disallowed_methods,
        reason = "the one wall clock: everything else reads time through a `Clock`"
    )]
    pub fn new() -> Self {
        SystemClock {
            anchor: Instant::now(),
        }
    }

    /// Seconds since construction, at the host timer's full resolution:
    /// the stopwatch behind every run's `wall_seconds` telemetry (reported
    /// to the operator, never fed back into scheduling or model state).
    pub fn elapsed_seconds(&self) -> f64 {
        self.anchor.elapsed().as_secs_f64()
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_us(&self) -> u64 {
        self.anchor.elapsed().as_micros() as u64
    }
}

/// Hand-advanced time for deterministic queue simulation in tests.
#[derive(Debug, Default)]
pub struct VirtualClock {
    us: AtomicU64,
}

impl VirtualClock {
    /// Creates a virtual clock at t = 0 µs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `us` microseconds.
    pub fn advance(&self, us: u64) {
        self.us.fetch_add(us, Ordering::SeqCst);
    }

    /// Sets the clock to an absolute time.
    pub fn set(&self, us: u64) {
        self.us.store(us, Ordering::SeqCst);
    }
}

impl Clock for VirtualClock {
    fn now_us(&self) -> u64 {
        self.us.load(Ordering::SeqCst)
    }
}

/// Converts an optional absolute deadline (µs, on the serving clock) into
/// an `epoll_wait`-style millisecond timeout measured from `now_us`:
/// `None` → `-1` (block until a wake), a lapsed deadline → `0` (poll),
/// otherwise the gap rounded **up** to whole milliseconds — rounding down
/// would wake the reactor a sub-millisecond early and spin it against a
/// deadline that has not lapsed yet.
pub fn reactor_timeout_ms(now_us: u64, deadline_us: Option<u64>) -> i32 {
    match deadline_us {
        None => -1,
        Some(d) if d <= now_us => 0,
        Some(d) => {
            let gap = d - now_us;
            let ms = gap / 1000 + u64::from(!gap.is_multiple_of(1000));
            ms.min(i32::MAX as u64) as i32
        }
    }
}

/// The inference engine: a trained backbone + auxiliary heads running
/// mixed-tier micro-batches through the capped confidence cascade.
pub struct ServeEngine {
    model: BuiltModel,
    aux_heads: Vec<Sequential>,
    threshold: f32,
}

impl ServeEngine {
    /// Wraps a trained model and its heads with an exit threshold.
    ///
    /// Every unit must have a head (the cascade exits through them), so a
    /// mismatch is a typed error, not a panic downstream.
    pub fn new(model: BuiltModel, aux_heads: Vec<Sequential>, threshold: f32) -> Result<Self> {
        if aux_heads.len() != model.units.len() {
            return Err(NfError::Serve {
                cause: format!(
                    "{} auxiliary heads for {} units (one head per unit required)",
                    aux_heads.len(),
                    model.units.len()
                ),
            });
        }
        if !(threshold.is_finite() && threshold > 0.0) {
            return Err(NfError::BadConfig(
                "serve threshold must be a finite number > 0".into(),
            ));
        }
        Ok(ServeEngine {
            model,
            aux_heads,
            threshold,
        })
    }

    /// Number of exit heads (== backbone units).
    pub fn n_units(&self) -> usize {
        self.model.units.len()
    }

    /// Model name (for reports).
    pub fn model_name(&self) -> &str {
        &self.model.spec.name
    }

    /// Flattened input length one request must carry (`C·H·W`).
    pub fn input_len(&self) -> usize {
        let (c, h, w) = self.model.spec.input;
        c * h * w
    }

    /// Runs one micro-batch through the capped cascade: each request
    /// exits at the first head whose confidence clears the threshold, or
    /// at its tier's maximum depth, whichever comes first. Results are
    /// bit-identical to running each request alone.
    pub fn infer_batch(&mut self, requests: &[ServeRequest]) -> Result<Vec<ServeReply>> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let expected = self.input_len();
        for req in requests {
            if req.pixels.len() != expected {
                return Err(NfError::Serve {
                    cause: format!(
                        "request {} carries {} pixels, model {} expects {expected}",
                        req.id,
                        req.pixels.len(),
                        self.model.spec.name
                    ),
                });
            }
        }
        let (c, h, w) = self.model.spec.input;
        let n = requests.len();
        let mut data = Vec::with_capacity(n * expected);
        for req in requests {
            data.extend_from_slice(&req.pixels);
        }
        let images = Tensor::from_vec(vec![n, c, h, w], data)?;
        let caps: Vec<usize> = requests
            .iter()
            .map(|r| r.tier.max_exit(self.model.units.len()))
            .collect();
        let mut cascade =
            ConfidenceCascade::new(&mut self.model, &mut self.aux_heads, self.threshold);
        let preds = cascade.predict_with_caps(&images, &caps)?;
        Ok(requests
            .iter()
            .zip(preds)
            .map(|(req, p)| ServeReply {
                id: req.id,
                class: p.class,
                exit: p.exit,
                confidence: p.confidence,
            })
            .collect())
    }

    /// Snapshots every parameter and buffer — one flat blob per layer
    /// (units, then head, then aux heads), in the stable
    /// `visit_params`/`visit_buffers` order `params_io` defines.
    pub fn params_snapshot(&mut self) -> Vec<Vec<u8>> {
        snapshot_params(&mut self.model, &mut self.aux_heads)
    }

    /// Loads a [`ServeEngine::params_snapshot`] back into this engine.
    /// Blob count or any per-layer shape mismatch is a typed error.
    pub fn load_params(&mut self, blobs: &[Vec<u8>]) -> Result<()> {
        load_snapshot(&mut self.model, &mut self.aux_heads, blobs)
    }

    /// Builds a bit-identical clone of this engine: the architecture is
    /// rebuilt from the spec (`aux_policy` must match the one the engine
    /// was trained under — a mismatch is a typed shape error, never
    /// silent corruption), then every parameter and buffer is copied via
    /// the `params_io` snapshot/load round trip. Serving replicas are
    /// made of these.
    pub fn replicate(&mut self, aux_policy: AuxPolicy) -> Result<ServeEngine> {
        let spec = self.model.spec.clone();
        // Any seed works: every parameter the build randomises is
        // overwritten by load_params below.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let model = spec.build(&mut rng).map_err(|e| NfError::Serve {
            cause: format!("rebuilding replica architecture: {e}"),
        })?;
        let aux_specs = assign_aux(&spec, aux_policy);
        if aux_specs.len() != self.aux_heads.len() {
            return Err(NfError::Serve {
                cause: format!(
                    "aux policy yields {} heads, engine has {} (policy mismatch?)",
                    aux_specs.len(),
                    self.aux_heads.len()
                ),
            });
        }
        let mut aux_heads = Vec::with_capacity(aux_specs.len());
        for a in &aux_specs {
            aux_heads.push(build_aux_head(&mut rng, a).map_err(|e| NfError::Serve {
                cause: format!("rebuilding replica aux head: {e}"),
            })?);
        }
        let mut clone = ServeEngine::new(model, aux_heads, self.threshold)?;
        let snapshot = self.params_snapshot();
        clone.load_params(&snapshot)?;
        Ok(clone)
    }

    /// Pins every layer's GEMM backend (replicas must agree on kernels:
    /// backends are numerically close, not bit-identical).
    pub fn set_kernel_backend(&mut self, backend: nf_tensor::KernelBackend) {
        for unit in &mut self.model.units {
            unit.set_kernel_backend(backend);
        }
        self.model.head.set_kernel_backend(backend);
        for head in &mut self.aux_heads {
            head.set_kernel_backend(backend);
        }
    }

    /// Gives this engine its own scratch arenas: a fresh
    /// [`nf_tensor::SharedWorkspace`] installed on every layer, so
    /// replicas running concurrently never contend on (or grow) a shared
    /// workspace lock.
    pub fn install_private_workspace(&mut self) {
        let ws = nf_tensor::shared_workspace();
        for unit in &mut self.model.units {
            unit.set_workspace(&ws);
        }
        self.model.head.set_workspace(&ws);
        for head in &mut self.aux_heads {
            head.set_workspace(&ws);
        }
    }
}

/// Nearest-rank percentile of an **ascending-sorted** latency slice.
/// `q` is in percent (e.g. `99.0`). Empty input yields 0.
pub fn percentile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    // rank is clamped into 1..=len, so the index is always in range; the
    // unwrap_or is unreachable but keeps this panic-free by construction.
    sorted
        .get(rank.clamp(1, sorted.len()) - 1)
        .copied()
        .unwrap_or(0)
}

/// `(p50, p95, p99)` of an **ascending-sorted** latency slice — the one
/// percentile summary every latency consumer (`nf loadgen`, `bench_json`)
/// reports. Quantiles are in percent; a fraction-vs-percent mixup here
/// once collapsed every percentile to the minimum, so this lives in one
/// unit-tested place.
pub fn latency_percentiles(sorted: &[u64]) -> (u64, u64, u64) {
    (
        percentile_us(sorted, 50.0),
        percentile_us(sorted, 95.0),
        percentile_us(sorted, 99.0),
    )
}

/// SplitMix64: a tiny, stable hash for deriving per-request streams
/// (tier assignment, arrival jitter) from `(seed, index)`.
pub fn splitmix64(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, tier: SloTier, arrival: u64, deadline: u64) -> ServeRequest {
        ServeRequest {
            id,
            tier,
            pixels: Vec::new(),
            arrival_us: arrival,
            deadline_us: deadline,
        }
    }

    #[test]
    fn tier_caps_are_monotone_and_valid() {
        for n in 1..40 {
            let fast = SloTier::Fast.max_exit(n);
            let balanced = SloTier::Balanced.max_exit(n);
            let exact = SloTier::Exact.max_exit(n);
            assert!(fast <= balanced && balanced <= exact);
            assert_eq!(exact, n - 1);
            assert!(fast < n);
        }
        // The quarter/half/full split on a VGG16-sized cascade.
        assert_eq!(SloTier::Fast.max_exit(13), 3);
        assert_eq!(SloTier::Balanced.max_exit(13), 6);
        assert_eq!(SloTier::Exact.max_exit(13), 12);
    }

    #[test]
    fn tier_names_round_trip() {
        for tier in SloTier::ALL {
            assert_eq!(tier.name().parse::<SloTier>().unwrap(), tier);
            assert_eq!(SloTier::from_index(tier.index() as u8), Some(tier));
        }
        assert!("turbo".parse::<SloTier>().is_err());
        assert_eq!(SloTier::from_index(3), None);
    }

    #[test]
    fn reactor_timeout_blocks_polls_and_rounds_up() {
        // No deadline → block until a wake.
        assert_eq!(reactor_timeout_ms(5_000, None), -1);
        // Lapsed (or exactly-now) deadline → poll.
        assert_eq!(reactor_timeout_ms(5_000, Some(4_000)), 0);
        assert_eq!(reactor_timeout_ms(5_000, Some(5_000)), 0);
        // Sub-millisecond gaps round UP: never wake before the deadline.
        assert_eq!(reactor_timeout_ms(5_000, Some(5_001)), 1);
        assert_eq!(reactor_timeout_ms(5_000, Some(5_999)), 1);
        assert_eq!(reactor_timeout_ms(5_000, Some(6_000)), 1);
        assert_eq!(reactor_timeout_ms(5_000, Some(6_001)), 2);
        assert_eq!(reactor_timeout_ms(0, Some(50_000)), 50);
        // Absurd gaps clamp to i32 rather than wrapping negative.
        assert_eq!(reactor_timeout_ms(0, Some(u64::MAX)), i32::MAX);
    }

    #[test]
    fn admission_control_rejects_at_capacity() {
        let mut b = MicroBatcher::new(2);
        b.submit(req(0, SloTier::Fast, 0, 100)).unwrap();
        b.submit(req(1, SloTier::Fast, 0, 100)).unwrap();
        let err = b.submit(req(2, SloTier::Fast, 0, 100)).unwrap_err();
        assert_eq!(err, AdmissionError::QueueFull { capacity: 2 });
        // Popping frees capacity again.
        let plan = b.form_batch(0, 1);
        assert_eq!(plan.ready.len(), 1);
        b.submit(req(2, SloTier::Fast, 0, 100)).unwrap();
    }

    #[test]
    fn form_batch_is_fifo_and_respects_deadlines() {
        let clock = VirtualClock::new();
        let mut b = MicroBatcher::new(8);
        b.submit(req(0, SloTier::Fast, 0, 50)).unwrap();
        b.submit(req(1, SloTier::Exact, 10, 500)).unwrap();
        b.submit(req(2, SloTier::Balanced, 20, 60)).unwrap();
        clock.advance(100); // 0 and 2 now past their deadlines
        let plan = b.form_batch(clock.now_us(), 8);
        assert_eq!(
            plan.expired.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(plan.ready.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1]);
        assert!(b.is_empty());
    }

    #[test]
    fn form_batch_caps_at_max_batch_in_order() {
        let mut b = MicroBatcher::new(16);
        for i in 0..5 {
            b.submit(req(i, SloTier::Exact, i, 1_000)).unwrap();
        }
        let plan = b.form_batch(0, 3);
        assert_eq!(
            plan.ready.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(b.len(), 2);
        let rest = b.form_batch(0, 3);
        assert_eq!(
            rest.ready.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![3, 4]
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let lat: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&lat, 50.0), 50);
        assert_eq!(percentile_us(&lat, 95.0), 95);
        assert_eq!(percentile_us(&lat, 99.0), 99);
        assert_eq!(percentile_us(&lat, 100.0), 100);
        assert_eq!(percentile_us(&[7], 99.0), 7);
        assert_eq!(percentile_us(&[], 50.0), 0);
    }

    #[test]
    fn latency_percentiles_take_percent_quantiles() {
        // 1..=200 µs: nearest-rank p50/p95/p99 are 100/190/198. A
        // fraction-vs-percent mixup would collapse all three to ~1 (the
        // minimum), so pin the exact values and the ordering.
        let lat: Vec<u64> = (1..=200).collect();
        assert_eq!(latency_percentiles(&lat), (100, 190, 198));
        assert_eq!(latency_percentiles(&[]), (0, 0, 0));
    }

    #[test]
    fn replicas_resolve_and_validate() {
        let auto = ServePolicy::default();
        assert_eq!(auto.replicas, 0);
        assert_eq!(auto.effective_replicas(4), 4);
        assert_eq!(auto.effective_replicas(0), 1);
        let pinned = ServePolicy {
            replicas: 2,
            ..ServePolicy::default()
        };
        assert_eq!(pinned.effective_replicas(16), 2);
        assert!(pinned.validate().is_ok());
        let absurd = ServePolicy {
            replicas: MAX_REPLICAS + 1,
            ..ServePolicy::default()
        };
        assert!(absurd.validate().is_err());
    }

    #[test]
    fn policy_validation_catches_degenerate_knobs() {
        assert!(ServePolicy::default().validate().is_ok());
        let no_batch = ServePolicy {
            max_batch: 0,
            ..ServePolicy::default()
        };
        assert!(no_batch.validate().is_err());
        let nan_threshold = ServePolicy {
            threshold: f32::NAN,
            ..ServePolicy::default()
        };
        assert!(nan_threshold.validate().is_err());
    }

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(7, 0), splitmix64(7, 0));
        assert_ne!(splitmix64(7, 0), splitmix64(7, 1));
        assert_ne!(splitmix64(7, 0), splitmix64(8, 0));
    }
}
