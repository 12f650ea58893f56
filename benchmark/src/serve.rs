//! The serving side of a run: one fresh `nf serve` child per phase,
//! driven over TCP one slice at a time by the single-thread generator,
//! every reply held to the child's own offline reference.

use crate::loadgen::{poisson_due_ns, Generator, Outcome, Record};
use crate::proc::{fact, Ctx, Proc};
use crate::stats::percentile;
use crate::workloads::Workload;
use nf_cli::proto::RejectReason;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;

/// Length of one measurement slice.
pub const SLICE_NS: u64 = 500_000_000;

/// How a phase loads the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Seeded Poisson arrivals at a fixed rate, whatever the server does.
    Open {
        /// Requests per second.
        rate_rps: f64,
    },
    /// A fixed number of requests in flight.
    Closed {
        /// In flight over both connections.
        window: usize,
    },
}

/// Request counts of one phase (warm-up included): every request is
/// attempted, and anything but a correct, served reply is failed.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Counts {
    /// Requests sent.
    pub sent: u64,
    /// Served with the expected answer.
    pub ok: u64,
    /// Refused: queue full.
    pub queue_full: u64,
    /// Refused: queue deadline lapsed.
    pub deadline: u64,
    /// Refused for another reason, error frames, or never answered.
    pub failed: u64,
    /// Served, but class / exit / confidence disagree with the offline
    /// reference beyond what a differing kernel plan explains.
    pub wrong: u64,
    /// Served with equal class and exit but different confidence bits,
    /// under a kernel plan whose `KC` split varies with batch size (the
    /// program's bit-identity contract only covers a fixed plan).
    pub bits_differ: u64,
}

impl Counts {
    /// Requests that did not end as a correct served reply.
    pub fn not_ok(&self) -> u64 {
        self.sent - self.ok
    }
}

/// What one serve session measured.
#[derive(Debug, Clone)]
pub struct Session {
    /// Child start → `@ready` (engine build incl. training the served
    /// model, bind, listen).
    pub ready_s: f64,
    /// Records of the measured slices, one list per slice (warm-up
    /// excluded).
    pub slices: Vec<Vec<Record>>,
    /// Counts over warm-up and measured slices together.
    pub counts: Counts,
    /// Server child's `VmHWM` when it stopped, kB.
    pub hwm_kb: f64,
    /// Mean replica busy fraction over the server's lifetime (idle gaps
    /// between its slices included).
    pub busy_frac: f64,
    /// Micro-batches the replicas ran.
    pub batches: f64,
    /// Requests the replicas served.
    pub served: f64,
}

/// Offline reference rows keyed by `(image, tier index)`.
type Refs = BTreeMap<(usize, usize), (u16, u8, u32)>;

fn parse_refs(facts: &BTreeMap<String, Vec<String>>) -> Result<Refs, String> {
    let mut refs = Refs::new();
    for line in facts.get("ref").map(Vec::as_slice).unwrap_or_default() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("unreadable @ref line {line:?}");
        let [image, tier, class, exit, bits] = f[..] else {
            return Err(bad());
        };
        refs.insert(
            (
                image.parse().map_err(|_| bad())?,
                tier.parse().map_err(|_| bad())?,
            ),
            (
                class.parse().map_err(|_| bad())?,
                exit.parse().map_err(|_| bad())?,
                bits.parse().map_err(|_| bad())?,
            ),
        );
    }
    Ok(refs)
}

/// Files every record under [`Counts`], holding served replies to the
/// offline reference bit for bit. `kc_uniform` says whether the server's
/// kernel plan makes f32 rounding independent of batch size; only when it
/// does not may confidence bits differ (within 1e-3) without being wrong.
pub fn tally(records: &[Record], refs: &Refs, kc_uniform: bool, counts: &mut Counts) {
    for rec in records {
        counts.sent += 1;
        match rec.outcome {
            Outcome::Unanswered => counts.failed += 1,
            Outcome::Rejected(RejectReason::QueueFull) => counts.queue_full += 1,
            Outcome::Rejected(RejectReason::Deadline) => counts.deadline += 1,
            Outcome::Rejected(_) => counts.failed += 1,
            Outcome::Ok {
                class,
                exit,
                conf_bits,
                ..
            } => match refs.get(&(rec.image, rec.tier.index())) {
                Some(&(c, e, b)) if (c, e, b) == (class, exit, conf_bits) => counts.ok += 1,
                Some(&(c, e, b))
                    if !kc_uniform
                        && (c, e) == (class, exit)
                        && (f32::from_bits(b) - f32::from_bits(conf_bits)).abs() <= 1e-3 =>
                {
                    counts.bits_differ += 1;
                    counts.ok += 1;
                }
                _ => counts.wrong += 1,
            },
        }
    }
}

/// A live server child with its generator: started and warmed once,
/// then driven one slice at a time. Between its slices it is idle
/// (reactor and replica asleep), which is what lets the run interleave the
/// phases so every metric samples the whole length of the run.
pub struct Server<'p> {
    child: Proc,
    generator: Generator<'p>,
    ready_s: f64,
    warm: Vec<Record>,
    slices: Vec<Vec<Record>>,
    load: Load,
    seed: u64,
    /// Start of this server's stretch of the seeded request stream.
    stream: u64,
}

fn io_err(e: std::io::Error) -> String {
    format!("load generator: {e}")
}

/// Spawns a pinned server child on `config` and waits until it listens:
/// the child, its address, and child start → `@ready` in seconds.
fn spawn_ready(ctx: &Ctx, config: &Path) -> Result<(Proc, SocketAddr, f64), String> {
    let mut child = Proc::spawn(ctx, "serve", config, &[]).map_err(|e| e.to_string())?;
    let (ready, at) = child.wait_for("@ready").map_err(|e| e.to_string())?;
    let ready_s = at.duration_since(child.spawned).as_secs_f64();
    let addr = ready
        .trim_start_matches("@ready")
        .trim()
        .parse()
        .map_err(|_| format!("unreadable ready line {ready:?}"))?;
    Ok((child, addr, ready_s))
}

/// Starts a server child only to time its start-up (one more `setup_s`
/// sample), then kills it unserved.
pub fn time_start(ctx: &Ctx, config: &Path) -> Result<f64, String> {
    spawn_ready(ctx, config).map(|(_child, _, ready_s)| ready_s)
}

impl<'p> Server<'p> {
    /// Starts a fresh pinned server child on the serve config at `config`
    /// (rendered from `w` and `seed`) for phase number `phase`, and warms
    /// it. The warm-up walks the in-flight windows up to twice the batch
    /// cap, so the server's first-use kernel tuning of every batch-size
    /// class is paid before any slice, as it is for a long-running server.
    pub fn start(
        ctx: &Ctx,
        w: &Workload,
        seed: u64,
        config: &Path,
        pool: &'p [Vec<f32>],
        load: Load,
        phase: u64,
    ) -> Result<Server<'p>, String> {
        let (child, addr, ready_s) = spawn_ready(ctx, config)?;
        let stream = phase << 40;
        let mut generator =
            Generator::connect(addr, pool, seed, w.serve.tier_weights).map_err(io_err)?;
        let mut warm = Vec::new();
        let mut window = 1;
        while window <= 2 * w.serve.max_batch {
            generator
                .run_closed(
                    window,
                    u64::MAX / 2,
                    4 * window + 8,
                    stream + warm.len() as u64,
                )
                .map_err(io_err)?;
            warm.extend_from_slice(&generator.records);
            window *= 2;
        }
        Ok(Server {
            child,
            generator,
            ready_s,
            warm,
            slices: Vec::new(),
            load,
            seed,
            stream,
        })
    }

    /// Child start → `@ready`, seconds.
    pub fn ready_s(&self) -> f64 {
        self.ready_s
    }

    /// Drives one [`SLICE_NS`] slice of this server's load. Each slice
    /// starts from an empty queue and draws its own stretch of the
    /// seeded stream and schedule.
    pub fn slice(&mut self) -> Result<(), String> {
        let k = self.slices.len() as u64 + 1;
        let at = self.stream + (k << 24);
        match self.load {
            Load::Open { rate_rps } => {
                let due = poisson_due_ns(self.seed ^ at, rate_rps, SLICE_NS);
                self.generator.run_open(&due, at).map_err(io_err)?;
            }
            Load::Closed { window } => self
                .generator
                .run_closed(window, SLICE_NS, usize::MAX, at)
                .map_err(io_err)?,
        }
        self.slices
            .push(std::mem::take(&mut self.generator.records));
        Ok(())
    }

    /// Stops the server and holds every reply it ever sent to its offline
    /// reference.
    pub fn stop(self) -> Result<Session, String> {
        let Server {
            mut child,
            generator,
            ready_s,
            warm,
            slices,
            ..
        } = self;
        let conn_errors = generator.conn_errors;
        drop(generator);
        child.send_stop().map_err(|e| e.to_string())?;
        let facts = child.finish().map_err(|e| e.to_string())?;
        let refs = parse_refs(&facts)?;
        let kc_uniform: bool = fact(&facts, "kc_uniform")?;
        let mut counts = Counts::default();
        tally(&warm, &refs, kc_uniform, &mut counts);
        for records in &slices {
            tally(records, &refs, kc_uniform, &mut counts);
        }
        if conn_errors > 0 {
            return Err(format!(
                "{conn_errors} error frames or stray replies from the server"
            ));
        }
        Ok(Session {
            ready_s,
            slices,
            counts,
            hwm_kb: fact(&facts, "hwm_kb")?,
            busy_frac: fact(&facts, "busy_frac")?,
            batches: fact(&facts, "batches")?,
            served: fact(&facts, "served")?,
        })
    }
}

impl Session {
    fn records(&self) -> impl Iterator<Item = &Record> {
        self.slices.iter().flatten()
    }

    /// Each slice's p50 of due-time latency (µs).
    pub fn p50_by_slice(&self) -> Vec<f64> {
        self.slices
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| {
                let lat: Vec<f64> = s.iter().map(Record::latency_us).collect();
                percentile(&lat, 50.0)
            })
            .collect()
    }

    /// Percentile of due-time latency (µs) over all slices — info only.
    pub fn latency_percentile(&self, p: f64) -> f64 {
        let all: Vec<f64> = self.records().map(Record::latency_us).collect();
        percentile(&all, p)
    }

    /// Share of the requests *sent* that were served within `slo_us` of
    /// their due time; refused, failed and late ones all miss.
    pub fn slo_share(&self, slo_us: f64) -> f64 {
        let within = self.records().filter(|r| r.latency_us() <= slo_us).count();
        within as f64 / self.records().count().max(1) as f64
    }

    /// Replies completed per second inside each slice; replies that came
    /// after the slice closed count for none.
    pub fn rps_by_slice(&self) -> Vec<f64> {
        self.slices
            .iter()
            .map(|s| {
                let done = s
                    .iter()
                    .filter(|r| matches!(r.outcome, Outcome::Ok { .. }) && r.recv_ns <= SLICE_NS)
                    .count();
                done as f64 / (SLICE_NS as f64 / 1e9)
            })
            .collect()
    }

    /// Generator lateness (µs): median and maximum over all slices.
    pub fn lateness_us(&self) -> (f64, f64) {
        let late: Vec<f64> = self.records().map(Record::late_us).collect();
        (percentile(&late, 50.0), percentile(&late, 100.0))
    }

    /// Medians of the server-side time (`server_us` reply field) and of
    /// what is left of client latency after it (wire, reactor, generator),
    /// µs, over served requests.
    pub fn server_and_wire_p50_us(&self) -> (f64, f64) {
        let mut server = Vec::new();
        let mut wire = Vec::new();
        for r in self.records() {
            if let Outcome::Ok { server_us, .. } = r.outcome {
                let client = r.recv_ns.saturating_sub(r.sent_ns) as f64 / 1e3;
                server.push(f64::from(server_us));
                wire.push((client - f64::from(server_us)).max(0.0));
            }
        }
        (percentile(&server, 50.0), percentile(&wire, 50.0))
    }

    /// Mean exit depth of served requests.
    pub fn mean_exit(&self) -> f64 {
        let exits: Vec<f64> = self
            .records()
            .filter_map(|r| match r.outcome {
                Outcome::Ok { exit, .. } => Some(f64::from(exit)),
                _ => None,
            })
            .collect();
        exits.iter().sum::<f64>() / exits.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neuroflux_core::SloTier;

    fn served(image: usize, class: u16, exit: u8, conf: f32) -> Record {
        Record {
            image,
            tier: SloTier::Exact,
            due_ns: 0,
            sent_ns: 0,
            recv_ns: 1_000_000,
            outcome: Outcome::Ok {
                class,
                exit,
                conf_bits: conf.to_bits(),
                server_us: 400,
            },
        }
    }

    #[test]
    fn replies_are_held_to_the_reference_bit_for_bit() {
        let mut refs = Refs::new();
        refs.insert((0, 2), (3, 7, 0.9f32.to_bits()));
        let nearly = f32::from_bits(0.9f32.to_bits() + 1);
        let records = [
            served(0, 3, 7, 0.9),
            served(0, 3, 7, nearly),
            served(0, 2, 7, 0.9),
            served(5, 3, 7, 0.9), // no reference row at all
        ];
        let mut strict = Counts::default();
        tally(&records, &refs, true, &mut strict);
        assert_eq!(
            (strict.sent, strict.ok, strict.wrong, strict.bits_differ),
            (4, 1, 3, 0)
        );
        // A plan whose KC split varies with batch size excuses the last
        // bit of the confidence, never the class.
        let mut lenient = Counts::default();
        tally(&records, &refs, false, &mut lenient);
        assert_eq!((lenient.ok, lenient.wrong, lenient.bits_differ), (2, 2, 1));
        assert_eq!(lenient.not_ok(), 2);
    }

    #[test]
    fn refused_and_unanswered_requests_are_failures_and_miss_the_slo() {
        let mut rejected = served(0, 0, 0, 0.5);
        rejected.outcome = Outcome::Rejected(RejectReason::QueueFull);
        let mut lapsed = rejected;
        lapsed.outcome = Outcome::Rejected(RejectReason::Deadline);
        let mut silent = rejected;
        silent.outcome = Outcome::Unanswered;
        let mut counts = Counts::default();
        tally(&[rejected, lapsed, silent], &Refs::new(), true, &mut counts);
        assert_eq!(
            (
                counts.queue_full,
                counts.deadline,
                counts.failed,
                counts.not_ok()
            ),
            (1, 1, 1, 3)
        );
        let session = Session {
            ready_s: 0.0,
            slices: vec![vec![
                served(0, 0, 0, 0.5),
                rejected,
                silent,
                served(0, 0, 0, 0.5),
            ]],
            counts,
            hwm_kb: 0.0,
            busy_frac: 0.0,
            batches: 0.0,
            served: 0.0,
        };
        assert_eq!(session.slo_share(2_000.0), 0.5);
        assert_eq!(session.slo_share(500.0), 0.0);
        assert_eq!(session.rps_by_slice(), vec![4.0]);
        assert_eq!(session.server_and_wire_p50_us(), (400.0, 600.0));
    }
}
