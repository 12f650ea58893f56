//! Property-based tests over the serving micro-batcher and SLO tiers:
//! invariants the server relies on for any request schedule.
//!
//! The batcher is a pure function of (queue contents, clock, shutdown
//! flag), so a
//! [`VirtualClock`] replays arbitrary proptest-generated schedules
//! exactly — no sleeps, no flakiness.

use neuroflux_core::serve::VirtualClock;
use neuroflux_core::{AdmissionError, Clock, Draw, MicroBatcher, ServeRequest, SloTier};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One generated scheduler event.
#[derive(Debug, Clone)]
enum Event {
    /// Submit a request with this tier index and deadline offset (µs).
    Submit { tier: u8, deadline_offset: u64 },
    /// Advance the virtual clock.
    Advance { us: u64 },
    /// Form a batch of up to `max_batch`.
    Form { max_batch: usize },
}

fn event_strategy() -> impl Strategy<Value = Event> {
    prop_oneof![
        (0u8..3, 0u64..5_000).prop_map(|(tier, deadline_offset)| Event::Submit {
            tier,
            deadline_offset,
        }),
        (0u64..3_000).prop_map(|us| Event::Advance { us }),
        (1usize..10).prop_map(|max_batch| Event::Form { max_batch }),
    ]
}

fn request(id: u64, tier: SloTier, now: u64, deadline_offset: u64) -> ServeRequest {
    ServeRequest {
        id,
        tier,
        pixels: Vec::new(),
        arrival_us: now,
        deadline_us: now + deadline_offset,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Conservation: every admitted request leaves the queue exactly once
    /// — in `ready` or `expired`, never both, never dropped, never
    /// duplicated — and queue-full rejections never enter it at all.
    #[test]
    fn no_request_is_lost_or_duplicated(
        events in proptest::collection::vec(event_strategy(), 1..120),
        capacity in 1usize..20,
    ) {
        let clock = VirtualClock::new();
        let mut q = MicroBatcher::new(capacity);
        let mut next_id = 0u64;
        let mut admitted = Vec::new();
        let mut rejected = Vec::new();
        let mut departed = Vec::new();
        for ev in &events {
            match *ev {
                Event::Submit { tier, deadline_offset } => {
                    let tier = SloTier::from_index(tier).unwrap();
                    let id = next_id;
                    next_id += 1;
                    let req = request(id, tier, clock.now_us(), deadline_offset);
                    match q.submit(req) {
                        Ok(()) => admitted.push(id),
                        Err(AdmissionError::QueueFull { capacity: c }) => {
                            prop_assert_eq!(c, capacity);
                            prop_assert_eq!(q.len(), capacity);
                            rejected.push(id);
                        }
                    }
                }
                Event::Advance { us } => clock.advance(us),
                Event::Form { max_batch } => {
                    let plan = q.form_batch(clock.now_us(), max_batch);
                    prop_assert!(plan.ready.len() <= max_batch);
                    // ready and expired are each FIFO; the pop order is
                    // their merge by id (pops are a queue prefix).
                    let mut popped: Vec<u64> = plan
                        .ready
                        .iter()
                        .chain(plan.expired.iter())
                        .map(|r| r.id)
                        .collect();
                    let mut sorted = popped.clone();
                    sorted.sort_unstable();
                    prop_assert!(
                        plan.ready.windows(2).all(|w| w[0].id < w[1].id)
                            && plan.expired.windows(2).all(|w| w[0].id < w[1].id),
                        "ready/expired must each preserve FIFO order"
                    );
                    popped = sorted;
                    departed.extend(popped);
                }
            }
        }
        // Drain whatever is left.
        while !q.is_empty() {
            let plan = q.form_batch(clock.now_us(), 4);
            let mut popped: Vec<u64> = plan
                .ready
                .iter()
                .chain(plan.expired.iter())
                .map(|r| r.id)
                .collect();
            popped.sort_unstable();
            departed.extend(popped);
        }
        prop_assert!(departed == admitted,
            "pop order must equal admission order with nothing lost");
        for id in rejected {
            prop_assert!(!departed.contains(&id), "rejected id {} departed", id);
        }
    }

    /// Deadline correctness: at the instant a batch forms, everything in
    /// `expired` is past its deadline and everything in `ready` is not.
    #[test]
    fn expiry_splits_exactly_on_the_deadline(
        events in proptest::collection::vec(event_strategy(), 1..120),
    ) {
        let clock = VirtualClock::new();
        let mut q = MicroBatcher::new(64);
        let mut next_id = 0u64;
        for ev in &events {
            match *ev {
                Event::Submit { tier, deadline_offset } => {
                    let tier = SloTier::from_index(tier).unwrap();
                    let req = request(next_id, tier, clock.now_us(), deadline_offset);
                    next_id += 1;
                    let _ = q.submit(req);
                }
                Event::Advance { us } => clock.advance(us),
                Event::Form { max_batch } => {
                    let now = clock.now_us();
                    let plan = q.form_batch(now, max_batch);
                    for r in &plan.expired {
                        prop_assert!(r.deadline_us < now,
                            "expired request {} has live deadline {} at {}",
                            r.id, r.deadline_us, now);
                    }
                    for r in &plan.ready {
                        prop_assert!(r.deadline_us >= now,
                            "ready request {} is past deadline {} at {}",
                            r.id, r.deadline_us, now);
                    }
                }
            }
        }
    }

    /// Progress (no starvation): a form_batch on a non-empty queue always
    /// removes at least one request, so any backlog drains in at most
    /// `len` calls even with max_batch = 1 and everything expired.
    #[test]
    fn nonempty_queue_always_makes_progress(
        n in 1usize..40,
        deadline_offsets in proptest::collection::vec(0u64..2_000, 1..40),
        advance in 0u64..4_000,
    ) {
        let clock = VirtualClock::new();
        let mut q = MicroBatcher::new(64);
        for id in 0..n as u64 {
            let off = deadline_offsets[id as usize % deadline_offsets.len()];
            let _ = q.submit(request(id, SloTier::Balanced, clock.now_us(), off));
        }
        clock.advance(advance);
        let mut calls = 0;
        while !q.is_empty() {
            let before = q.len();
            let plan = q.form_batch(clock.now_us(), 1);
            prop_assert!(plan.ready.len() + plan.expired.len() >= 1);
            prop_assert!(q.len() < before, "form_batch made no progress");
            calls += 1;
            prop_assert!(calls <= n, "drain took more calls than requests");
        }
    }

    /// Work conservation: a replica's draw on a non-empty queue always
    /// runs (at least one request leaves it, `ready` filled up to
    /// `max_batch`), whatever the clock or tier mix; it sleeps only on an
    /// empty queue while serving and exits only on an empty queue during
    /// shutdown. No timer is consulted.
    #[test]
    fn draw_runs_whatever_is_queued_and_sleeps_or_exits_only_when_empty(
        // Each `Form` is a replica's draw, under the paired shutdown flag.
        events in proptest::collection::vec(
            (event_strategy(), (0u8..2).prop_map(|b| b == 1)),
            1..120,
        ),
    ) {
        let clock = VirtualClock::new();
        let mut q = MicroBatcher::new(16);
        for (id, (ev, down)) in events.into_iter().enumerate() {
            match ev {
                Event::Submit { tier, deadline_offset } => {
                    let tier = SloTier::from_index(tier).unwrap();
                    let _ = q.submit(request(id as u64, tier, clock.now_us(), deadline_offset));
                }
                Event::Advance { us } => clock.advance(us),
                Event::Form { max_batch } => {
                    let before = q.len();
                    match q.draw(clock.now_us(), max_batch, down) {
                        Draw::Run(plan) => {
                            let left = plan.ready.len() + plan.expired.len();
                            prop_assert!(left >= 1 && q.len() == before - left, "ran nothing");
                            prop_assert!(plan.ready.len() <= max_batch);
                            prop_assert!(plan.ready.len() == max_batch || q.is_empty(),
                                "a run left work queued below max_batch");
                        }
                        Draw::Sleep => prop_assert!(before == 0 && !down, "slept beside work"),
                        Draw::Exit => prop_assert!(before == 0 && down, "exited early"),
                    }
                }
            }
        }
    }

    /// SLO depth caps: for any model depth, fast ≤ balanced ≤ exact,
    /// exact reaches the deepest head, and no tier's cap exceeds it —
    /// the invariant the server's per-request exit capping relies on.
    #[test]
    fn tier_caps_are_monotone_and_bounded(n_units in 1usize..64) {
        let fast = SloTier::Fast.max_exit(n_units);
        let balanced = SloTier::Balanced.max_exit(n_units);
        let exact = SloTier::Exact.max_exit(n_units);
        prop_assert!(fast <= balanced);
        prop_assert!(balanced <= exact);
        prop_assert_eq!(exact, n_units - 1);
        prop_assert!(fast < n_units);
    }

    /// Per-connection FIFO under the shared replica queue: when several
    /// replicas draw batches from one `MicroBatcher` (modelled here as
    /// interleaved `form_batch` calls — each call happens under the
    /// server's queue lock, so the model is exact), requests from any one
    /// connection still depart in their submission order. A request
    /// submitted earlier on a connection departs in an earlier-or-equal
    /// draw, and draws in the same plan preserve list order. This is what
    /// lets the pipelined client trust that reply N+1 for a connection is
    /// never computed from a batch formed before reply N's.
    #[test]
    fn shared_queue_draw_preserves_per_connection_fifo(
        events in proptest::collection::vec(
            prop_oneof![
                // Submit on connection c with a tier + deadline offset.
                (0u64..4, 0u8..3, 0u64..5_000)
                    .prop_map(|(conn, tier, off)| (0u8, conn, tier, off)),
                // Advance the clock.
                (0u64..2_000).prop_map(|us| (1u8, us, 0, 0)),
                // A replica draws a batch (max_batch 1..8).
                (1u64..8).prop_map(|mb| (2u8, mb, 0, 0)),
            ],
            1..160,
        ),
    ) {
        let clock = VirtualClock::new();
        let mut q = MicroBatcher::new(64);
        // Connection-tagged ids: conn * 10_000 + per-connection sequence.
        let mut next_seq = [0u64; 4];
        let mut admitted_per_conn: Vec<Vec<u64>> = vec![Vec::new(); 4];
        // (plan index, list tag, position) for every departure, by id.
        let mut departures: BTreeMap<u64, (usize, u8, usize)> =
            BTreeMap::new();
        let mut plan_idx = 0usize;
        let record = |plan: &neuroflux_core::BatchPlan,
                          plan_idx: usize,
                          departures: &mut BTreeMap<u64, (usize, u8, usize)>| {
            for (pos, r) in plan.ready.iter().enumerate() {
                departures.insert(r.id, (plan_idx, 0, pos));
            }
            for (pos, r) in plan.expired.iter().enumerate() {
                departures.insert(r.id, (plan_idx, 1, pos));
            }
        };
        for &(kind, a, b, c) in &events {
            match kind {
                0 => {
                    let conn = a as usize;
                    let tier = SloTier::from_index(b).unwrap();
                    let id = conn as u64 * 10_000 + next_seq[conn];
                    if q.submit(request(id, tier, clock.now_us(), c)).is_ok() {
                        next_seq[conn] += 1;
                        admitted_per_conn[conn].push(id);
                    }
                }
                1 => clock.advance(a),
                _ => {
                    let plan = q.form_batch(clock.now_us(), a as usize);
                    record(&plan, plan_idx, &mut departures);
                    plan_idx += 1;
                }
            }
        }
        while !q.is_empty() {
            let plan = q.form_batch(clock.now_us(), 8);
            record(&plan, plan_idx, &mut departures);
            plan_idx += 1;
        }
        for admitted in &admitted_per_conn {
            for pair in admitted.windows(2) {
                let (pa, la, xa) = departures[&pair[0]];
                let (pb, lb, xb) = departures[&pair[1]];
                prop_assert!(
                    pa < pb || (pa == pb && (la != lb || xa < xb)),
                    "connection FIFO violated: id {} departed at {:?}, \
                     earlier id {} at {:?}",
                    pair[1], (pb, lb, xb), pair[0], (pa, la, xa)
                );
            }
        }
    }

    /// Admission control boundary: exactly `capacity` requests are
    /// admitted from a burst, and the queue never exceeds capacity.
    #[test]
    fn burst_admission_stops_exactly_at_capacity(
        capacity in 1usize..32,
        burst in 1usize..64,
    ) {
        let clock = VirtualClock::new();
        let mut q = MicroBatcher::new(capacity);
        let mut ok = 0;
        for id in 0..burst as u64 {
            let r = request(id, SloTier::Exact, clock.now_us(), 1_000);
            if q.submit(r).is_ok() {
                ok += 1;
            }
            prop_assert!(q.len() <= capacity);
        }
        prop_assert_eq!(ok, burst.min(capacity));
    }
}
