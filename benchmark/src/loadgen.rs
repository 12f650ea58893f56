//! The load generator: one thread, two keep-alive connections.
//!
//! It sleeps in `epoll_wait` on its sockets plus a timerfd armed for the
//! next due send, and spins only inside the last [`SPIN_NS`] before that
//! send — no helper or poller threads (PR 13's two busy pollers burned
//! 43 s of sys time in a 45 s run and shared the server's cores).
//!
//! Open loop: requests are due on a seeded Poisson schedule and latency
//! runs from the *due* time, so a stalled server delays the answers of
//! later requests too instead of receiving less load. Closed loop: a
//! fixed window of requests stays in flight, which measures capacity
//! without a growing backlog.

use crate::sys::TimerFd;
use neuroflux_core::SloTier;
use nf_cli::net::reactor::{read_ready, FrameAssembler, ReadEnd, WriteQueue, READ_CHUNK};
use nf_cli::net::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use nf_cli::proto::{self, RejectReason, Request, Response};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Connections the generator multiplexes.
pub const CONNECTIONS: usize = 2;
/// Busy-wait budget before a due send (ns); everything earlier sleeps.
const SPIN_NS: u64 = 200_000;
/// Gap between socket polls while spinning (ns): replies are stamped at
/// most this late, and the spin costs at most `SPIN_NS / POLL_GAP_NS`
/// system calls per request.
const POLL_GAP_NS: u64 = 20_000;
/// How long after the last due send unanswered requests are waited for.
const DRAIN_NS: u64 = 3_000_000_000;
const TOKEN_TIMER: u64 = u64::MAX;

/// SplitMix64 of `(seed, k)`: the stateless seeded stream everything in
/// the schedule is drawn from, so request `k` is the same whatever was
/// drawn before it.
pub fn splitmix64(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which pooled image and which tier request `k` carries.
pub fn pick(seed: u64, k: u64, pool: usize, weights: [u32; 3]) -> (usize, SloTier) {
    let image = (splitmix64(seed ^ 0x1A6E, k) % pool.max(1) as u64) as usize;
    let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
    let mut draw = splitmix64(seed ^ 0x71E2, k) % total.max(1);
    let mut tier = SloTier::Exact;
    for (t, &w) in SloTier::ALL.iter().zip(&weights) {
        if draw < u64::from(w) {
            tier = *t;
            break;
        }
        draw -= u64::from(w);
    }
    (image, tier)
}

/// Due times (ns from phase start) of a Poisson arrival process of
/// `rate_rps` over `horizon_ns`: exponential gaps from the seeded stream.
pub fn poisson_due_ns(seed: u64, rate_rps: f64, horizon_ns: u64) -> Vec<u64> {
    let mut due = Vec::new();
    let mut t = 0.0f64;
    for k in 0u64.. {
        // (0, 1]: never ln(0).
        let u = ((splitmix64(seed ^ 0xA881, k) >> 11) + 1) as f64 / (1u64 << 53) as f64;
        t += -u.ln() / rate_rps * 1e9;
        if t >= horizon_ns as f64 {
            break;
        }
        due.push(t as u64);
    }
    due
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Sent (or not yet sent), no reply seen.
    Unanswered,
    /// Served.
    Ok {
        /// Predicted class.
        class: u16,
        /// Exit head that fired.
        exit: u8,
        /// Confidence, as f32 bits.
        conf_bits: u32,
        /// Server-side arrival → reply time.
        server_us: u32,
    },
    /// Refused by admission control or a lapsed queue deadline.
    Rejected(RejectReason),
}

/// One request's record: what was asked, when it was due, sent and
/// answered (ns from phase start), and how it ended.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Pooled image index.
    pub image: usize,
    /// Tier asked for.
    pub tier: SloTier,
    /// When the schedule wanted it sent (closed loop: when it was sent).
    pub due_ns: u64,
    /// When it actually left.
    pub sent_ns: u64,
    /// When its reply was read (0 while unanswered).
    pub recv_ns: u64,
    /// How it ended.
    pub outcome: Outcome,
}

impl Record {
    /// Latency a user waiting since the due time saw (µs); infinite when
    /// the request was not served, so it can never flatter a percentile.
    pub fn latency_us(&self) -> f64 {
        match self.outcome {
            Outcome::Ok { .. } => self.recv_ns.saturating_sub(self.due_ns) as f64 / 1e3,
            _ => f64::INFINITY,
        }
    }

    /// How late the generator sent it (µs).
    pub fn late_us(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }
}

struct Conn {
    stream: TcpStream,
    asm: FrameAssembler,
    outq: WriteQueue,
    want_out: bool,
}

/// The generator: sockets, epoll, timer and the phase's records.
pub struct Generator<'p> {
    epoll: Epoll,
    timer: TimerFd,
    conns: Vec<Conn>,
    scratch: Vec<u8>,
    events: Vec<EpollEvent>,
    pool: &'p [Vec<f32>],
    seed: u64,
    weights: [u32; 3],
    start: Instant,
    /// Records of the current phase, indexed by request id.
    pub records: Vec<Record>,
    outstanding: usize,
    /// Error frames and dead connections seen (each fails its requests).
    pub conn_errors: usize,
}

fn other(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

impl<'p> Generator<'p> {
    /// Connects [`CONNECTIONS`] keep-alive sockets to `addr`.
    pub fn connect(
        addr: SocketAddr,
        pool: &'p [Vec<f32>],
        seed: u64,
        weights: [u32; 3],
    ) -> io::Result<Generator<'p>> {
        let epoll = Epoll::new()?;
        let timer = TimerFd::new()?;
        epoll.add(timer.fd(), EPOLLIN, TOKEN_TIMER)?;
        let mut conns = Vec::new();
        for token in 0..CONNECTIONS {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            epoll.add(stream.as_raw_fd(), EPOLLIN, token as u64)?;
            conns.push(Conn {
                stream,
                asm: FrameAssembler::new(),
                outq: WriteQueue::new(),
                want_out: false,
            });
        }
        Ok(Generator {
            epoll,
            timer,
            conns,
            scratch: vec![0u8; READ_CHUNK],
            events: vec![EpollEvent::zeroed(); 8],
            pool,
            seed,
            weights,
            start: Instant::now(),
            records: Vec::new(),
            outstanding: 0,
            conn_errors: 0,
        })
    }

    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Starts a phase: clears the records and restarts the phase clock.
    fn begin(&mut self) {
        self.records.clear();
        self.outstanding = 0;
        self.start = Instant::now();
    }

    /// Sends the next request of the stream (id = its record index).
    fn send(&mut self, stream_pos: u64, due_ns: Option<u64>) -> io::Result<()> {
        let id = self.records.len();
        let (image, tier) = pick(self.seed, stream_pos, self.pool.len(), self.weights);
        let pixels = self.pool.get(image).cloned().unwrap_or_default();
        let payload = proto::encode_request(&Request::Infer {
            id: id as u64,
            tier,
            pixels,
        });
        let wire = proto::frame_bytes(&payload).map_err(|e| other(e.to_string()))?;
        let c = id % self.conns.len();
        let conn = &mut self.conns[c];
        conn.outq.push(wire);
        let drained = conn.outq.flush(&mut conn.stream)?;
        if !drained && !conn.want_out {
            conn.want_out = true;
            self.epoll
                .modify(conn.stream.as_raw_fd(), EPOLLIN | EPOLLOUT, c as u64)?;
        }
        let sent_ns = self.now_ns();
        self.records.push(Record {
            image,
            tier,
            due_ns: due_ns.unwrap_or(sent_ns),
            sent_ns,
            recv_ns: 0,
            outcome: Outcome::Unanswered,
        });
        self.outstanding += 1;
        Ok(())
    }

    /// Waits up to `timeout` for socket or timer events and handles them.
    /// Returns how many replies arrived.
    fn poll(&mut self, timeout_ms: i32) -> io::Result<usize> {
        let mut events = std::mem::take(&mut self.events);
        let n = self.epoll.wait(&mut events, timeout_ms);
        let mut replies = 0;
        if let Ok(n) = n {
            for ev in events.iter().take(n) {
                match ev.token() {
                    TOKEN_TIMER => self.timer.clear(),
                    c => replies += self.conn_event(c as usize, ev.ready())?,
                }
            }
        }
        self.events = events;
        n.map(|_| replies)
    }

    fn conn_event(&mut self, c: usize, ready: u32) -> io::Result<usize> {
        if ready & (EPOLLERR | EPOLLHUP) != 0 {
            return Err(other("server closed a connection"));
        }
        if ready & EPOLLOUT != 0 {
            let conn = &mut self.conns[c];
            if conn.outq.flush(&mut conn.stream)? {
                conn.want_out = false;
                self.epoll
                    .modify(conn.stream.as_raw_fd(), EPOLLIN, c as u64)?;
            }
        }
        let mut replies = 0;
        if ready & EPOLLIN != 0 {
            let mut frames = Vec::new();
            let conn = &mut self.conns[c];
            let end = read_ready(
                &mut conn.stream,
                &mut conn.asm,
                &mut self.scratch,
                &mut frames,
            );
            // One stamp per read pass: every frame in it became readable
            // before this instant, and none was waited on after it.
            let recv_ns = self.now_ns();
            for payload in &frames {
                replies += self.on_frame(payload, recv_ns);
            }
            if end != ReadEnd::WouldBlock {
                return Err(other(format!("connection {c} ended: {end:?}")));
            }
        }
        Ok(replies)
    }

    fn on_frame(&mut self, payload: &[u8], recv_ns: u64) -> usize {
        let (id, outcome) = match proto::decode_response(payload) {
            Ok(Response::Infer {
                id,
                class,
                exit,
                confidence,
                server_us,
            }) => (
                id,
                Outcome::Ok {
                    class,
                    exit,
                    conf_bits: confidence.to_bits(),
                    server_us,
                },
            ),
            Ok(Response::Rejected { id, reason }) => (id, Outcome::Rejected(reason)),
            // Pong / ShutdownAck are never asked for; an error frame or an
            // undecodable reply fails whatever is still unanswered.
            _ => {
                self.conn_errors += 1;
                return 0;
            }
        };
        match self.records.get_mut(id as usize) {
            Some(rec) if rec.outcome == Outcome::Unanswered => {
                rec.outcome = outcome;
                rec.recv_ns = recv_ns;
                self.outstanding = self.outstanding.saturating_sub(1);
                1
            }
            _ => {
                self.conn_errors += 1;
                0
            }
        }
    }

    /// Sleeps until `deadline_ns` (phase clock) or until a reply arrives,
    /// whichever is first; spins only inside the last [`SPIN_NS`].
    fn wait_until(&mut self, deadline_ns: u64) -> io::Result<usize> {
        let now = self.now_ns();
        if deadline_ns > now + SPIN_NS {
            self.timer
                .arm(Duration::from_nanos(deadline_ns - now - SPIN_NS))?;
            return self.poll(-1);
        }
        let mut last_poll = 0u64;
        loop {
            let now = self.now_ns();
            if now >= deadline_ns {
                return Ok(0);
            }
            if now - last_poll >= POLL_GAP_NS {
                last_poll = now;
                let replies = self.poll(0)?;
                if replies > 0 {
                    return Ok(replies);
                }
            }
            std::hint::spin_loop();
        }
    }

    /// Open loop: sends request `k` at `due_ns[k]` whatever the server is
    /// doing, then waits (bounded) for the stragglers.
    pub fn run_open(&mut self, due_ns: &[u64], stream_offset: u64) -> io::Result<()> {
        self.begin();
        let mut next = 0usize;
        let last_due = due_ns.last().copied().unwrap_or(0);
        loop {
            let now = self.now_ns();
            while next < due_ns.len() && due_ns[next] <= now {
                self.send(stream_offset + next as u64, Some(due_ns[next]))?;
                next += 1;
            }
            let deadline = match due_ns.get(next) {
                Some(&due) => due,
                None if self.outstanding == 0 => return Ok(()),
                None if now > last_due + DRAIN_NS => return Ok(()),
                None => last_due + DRAIN_NS,
            };
            self.wait_until(deadline)?;
        }
    }

    /// Closed loop: keeps `window` requests in flight for `duration_ns`,
    /// or until `max_requests` were sent, then collects what is in flight.
    pub fn run_closed(
        &mut self,
        window: usize,
        duration_ns: u64,
        max_requests: usize,
        stream_offset: u64,
    ) -> io::Result<()> {
        self.begin();
        loop {
            let now = self.now_ns();
            let sending = now < duration_ns && self.records.len() < max_requests;
            while sending && self.outstanding < window && self.records.len() < max_requests {
                self.send(stream_offset + self.records.len() as u64, None)?;
            }
            if !sending && self.outstanding == 0 {
                return Ok(());
            }
            if now > duration_ns + DRAIN_NS {
                return Ok(());
            }
            // Nothing is due on a clock here; wake for replies, and at the
            // end of the window to stop sending.
            let deadline = if sending {
                duration_ns
            } else {
                duration_ns + DRAIN_NS
            };
            self.wait_until(deadline.max(now + 1))?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_is_a_pure_function_of_seed_and_position() {
        let a: Vec<_> = (0..64).map(|k| pick(7, k, 64, [1, 1, 6])).collect();
        let b: Vec<_> = (0..64).rev().map(|k| pick(7, k, 64, [1, 1, 6])).collect();
        assert!(
            a.iter().eq(b.iter().rev()),
            "order of drawing changed the stream"
        );
        let c: Vec<_> = (0..64).map(|k| pick(8, k, 64, [1, 1, 6])).collect();
        assert_ne!(a, c, "another seed gave the same stream");
        assert!(a.iter().all(|&(image, _)| image < 64));
        let exact = a.iter().filter(|(_, t)| *t == SloTier::Exact).count();
        assert!(
            (32..=60).contains(&exact),
            "6/8 exact expected, got {exact}/64"
        );
        assert!((0..256).all(|k| pick(3, k, 5, [1, 0, 0]).1 == SloTier::Fast));
    }

    #[test]
    fn poisson_schedule_is_seeded_sorted_and_at_the_asked_rate() {
        let due = poisson_due_ns(11, 2000.0, 5_000_000_000);
        assert_eq!(due, poisson_due_ns(11, 2000.0, 5_000_000_000));
        assert_ne!(due, poisson_due_ns(12, 2000.0, 5_000_000_000));
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.iter().all(|&t| t < 5_000_000_000));
        // 10 000 expected, σ = 100.
        assert!(
            (9_500..=10_500).contains(&due.len()),
            "{} arrivals",
            due.len()
        );
        // Exponential gaps: about e⁻¹ of them exceed the mean.
        let mean_ns = 500_000u64;
        let long = due.windows(2).filter(|w| w[1] - w[0] > mean_ns).count();
        let share = long as f64 / (due.len() - 1) as f64;
        assert!((0.33..0.41).contains(&share), "share of long gaps {share}");
    }

    #[test]
    fn latency_runs_from_the_due_time_and_lateness_is_separate() {
        let mut rec = Record {
            image: 0,
            tier: SloTier::Fast,
            due_ns: 1_000_000,
            sent_ns: 1_250_000,
            recv_ns: 0,
            outcome: Outcome::Unanswered,
        };
        assert_eq!(rec.latency_us(), f64::INFINITY);
        assert_eq!(rec.late_us(), 250.0);
        rec.recv_ns = 3_000_000;
        rec.outcome = Outcome::Ok {
            class: 1,
            exit: 0,
            conf_bits: 0,
            server_us: 900,
        };
        // 2 ms since it was due, although only 1.75 ms since it was sent.
        assert_eq!(rec.latency_us(), 2000.0);
        rec.outcome = Outcome::Rejected(RejectReason::QueueFull);
        assert_eq!(rec.latency_us(), f64::INFINITY);
    }
}
