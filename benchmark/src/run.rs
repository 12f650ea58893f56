//! One untraced run of one workload: the nine end-to-end metrics, the
//! info fields around them, and the correctness verdict.

use crate::child::request_pool;
use crate::host::{self, Canary};
use crate::json::Json;
use crate::proc::Ctx;
use crate::serve::{self, Counts, Load, Server, Session};
use crate::stats::{median, Summary};
use crate::train::{run_rep, verdict};
use crate::workloads::Workload;
use std::time::Instant;

/// `run_seconds` the repetition and slice floors are sized for.
pub const BASE_SECONDS: u64 = 30;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload to run.
    pub workload: &'static Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Scales the number of repetitions and slices (never their size).
    pub seconds: u64,
    /// ≤10 s sanity run: 3 repetitions, 2 slices, no server started only to
    /// be timed; result stamped `smoke`.
    pub smoke: bool,
}

impl RunArgs {
    /// Fresh-process training repetitions: 9 at the base length, more for
    /// longer runs, never fewer than 7.
    pub fn train_reps(&self) -> usize {
        if self.smoke {
            return 3;
        }
        (9 * self.seconds / BASE_SECONDS).max(7) as usize
    }

    /// Half-second slices per serve phase: 12 at the base length, never
    /// fewer than 10.
    pub fn slices(&self) -> usize {
        if self.smoke {
            return 2;
        }
        (12 * self.seconds / BASE_SECONDS).max(10) as usize
    }

    /// Servers started only to time their start-up, on top of the three
    /// that serve the phases, so `setup_s` rests on seven starts spread
    /// over the run instead of three back to back at its beginning.
    pub fn extra_server_starts(&self) -> usize {
        if self.smoke {
            return 0;
        }
        4
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order, with their units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("train_wall_s", "s"),
    ("train_cache_peak_mb", "MB"),
    ("peak_rss_mb", "MB"),
    ("serve_p50_us.lo", "us"),
    ("serve_p50_us.hi", "us"),
    ("serve_slo_share.hi", "fraction"),
    ("serve_capacity_rps", "1/s"),
    ("serve_peak_rss_mb", "MB"),
];

/// A finished run, ready to print.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted: training repetitions plus requests sent.
    pub attempted: u64,
    /// Operations that failed, refused requests included.
    pub failed: u64,
    /// `name → value` of the contract metrics of this mode.
    pub metrics: Vec<(String, f64, String)>,
    /// Everything else worth knowing, unbounded.
    pub info: Json,
    /// What went wrong, if anything.
    pub problems: Vec<String>,
}

impl RunResult {
    /// The contract line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn contract_line(&self) -> String {
        Json::obj()
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", self.metrics_json())
            .to_line()
    }

    fn metrics_json(&self) -> Json {
        let mut metrics = Json::obj();
        for (name, value, unit) in &self.metrics {
            metrics.set(
                name,
                Json::obj()
                    .with("value", *value)
                    .with("unit", unit.as_str()),
            );
        }
        metrics
    }

    /// The full document `--out` writes and `compare` reads.
    pub fn document(&self) -> Json {
        let mut doc = self.info.clone();
        doc.set("correct", self.correct);
        doc.set("attempted", self.attempted);
        doc.set("failed", self.failed);
        doc.set("metrics", self.metrics_json());
        doc.set(
            "problems",
            Json::Arr(
                self.problems
                    .iter()
                    .map(|p| Json::from(p.as_str()))
                    .collect(),
            ),
        );
        doc
    }
}

fn summary_info(info: &mut Json, name: &str, values: &[f64]) -> Summary {
    let s = Summary::of(values);
    info.set(&format!("{name}.median"), s.median);
    info.set(&format!("{name}.q1"), s.quartiles.0);
    info.set(&format!("{name}.q3"), s.quartiles.1);
    info.set(&format!("{name}.iqr_rel"), s.iqr_rel);
    info.set(&format!("{name}.n"), s.n);
    info.set(
        &format!("{name}.each"),
        Json::Arr(values.iter().map(|&v| Json::from(v)).collect()),
    );
    s
}

fn phase_info(info: &mut Json, phase: &str, s: &Session) {
    let c: &Counts = &s.counts;
    let (late_p50, late_max) = s.lateness_us();
    info.set(
        &format!("serve.{phase}"),
        Json::obj()
            .with("sent", c.sent)
            .with("ok", c.ok)
            .with("queue_full", c.queue_full)
            .with("deadline", c.deadline)
            .with("failed", c.failed)
            .with("wrong", c.wrong)
            .with("bits_differ", c.bits_differ)
            .with("p50_us", s.latency_percentile(50.0))
            .with("p90_us", s.latency_percentile(90.0))
            .with("p99_us", s.latency_percentile(99.0))
            .with("gen_late_p50_us", late_p50)
            .with("gen_late_max_us", late_max)
            .with("mean_exit", s.mean_exit())
            .with("busy_frac", s.busy_frac)
            .with("mean_batch", s.served / s.batches.max(1.0))
            .with("ready_s", s.ready_s),
    );
}

/// Runs `args.workload` once, untraced, and folds the repetitions into
/// the end-to-end metrics.
///
/// The three servers are started (and their start-up timed) first; then
/// the run goes round: a training repetition, one slice at `lo`, one at
/// `hi`, one closed-loop, now and then a server started only to be timed,
/// a canary quantum between any two — so every metric's samples are
/// spread over the whole run. This host slows down by 30–40 % for seconds
/// at a time (co-tenants on the physical core); a metric measured in one
/// contiguous window lands inside or outside such a stretch at random,
/// while samples spread over the run see the same mix. Each timing metric
/// then reports the quartile on its good side
/// ([`Summary::good_quartile`]).
pub fn end_to_end(ctx: &Ctx, args: &RunArgs, nproc: usize) -> Result<RunResult, String> {
    let w = args.workload;
    let started = Instant::now();
    let (user0, sys0) = host::cpu_seconds();
    let mut canary = Canary::default();
    let mut problems = Vec::new();
    let mut info = Json::obj()
        .with("workload", w.name)
        .with("why", w.why)
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("smoke", args.smoke)
        .with("trace", false);

    let serve_cfg = ctx.out_dir.join("serve.toml");
    std::fs::write(
        &serve_cfg,
        w.serve_toml(args.seed, &ctx.out_dir.to_string_lossy()),
    )
    .map_err(|e| e.to_string())?;
    let cfg = nf_cli::RunConfig::load(&serve_cfg).map_err(|e| e.to_string())?;
    let pool = request_pool(&cfg)?;
    let phases = [
        (
            "lo",
            Load::Open {
                rate_rps: w.serve.lo_rps,
            },
        ),
        (
            "hi",
            Load::Open {
                rate_rps: w.serve.hi_rps,
            },
        ),
        (
            "capacity",
            Load::Closed {
                window: w.serve.window,
            },
        ),
    ];
    let mut servers = Vec::new();
    for (i, (name, load)) in phases.iter().enumerate() {
        servers.push(
            Server::start(ctx, w, args.seed, &serve_cfg, &pool, *load, i as u64 + 1)
                .map_err(|e| format!("starting the {name} server: {e}"))?,
        );
    }

    let rounds = args.slices();
    let reps_wanted = args.train_reps();
    let starts_wanted = args.extra_server_starts();
    let mut ready: Vec<f64> = servers.iter().map(Server::ready_s).collect();
    let mut reps = Vec::new();
    let mut failed_reps = 0u64;
    // Host state around every sample: `brackets[0]` for the training
    // repetitions, `brackets[1..]` for the slices of each serve phase.
    let mut brackets: Vec<Vec<Json>> = vec![Vec::new(); 1 + phases.len()];
    let pair = |a: f64, b: f64| Json::Arr(vec![Json::from(a), Json::from(b)]);
    let mut before = canary.probe(ctx);
    for round in 0..rounds {
        // Spread the repetitions evenly over the rounds.
        let due = (round + 1) * reps_wanted / rounds;
        while reps.len() + (failed_reps as usize) < due {
            let rep = reps.len() + failed_reps as usize;
            match run_rep(ctx, w, args.seed, rep) {
                Ok(r) => reps.push(r),
                Err(e) => {
                    failed_reps += 1;
                    problems.push(format!("train rep {rep}: {e}"));
                }
            }
            let after = canary.probe(ctx);
            brackets[0].push(pair(before, after));
            before = after;
        }
        for (i, (server, (name, _))) in servers.iter_mut().zip(&phases).enumerate() {
            server
                .slice()
                .map_err(|e| format!("serve phase {name}, slice {round}: {e}"))?;
            let after = canary.probe(ctx);
            brackets[1 + i].push(pair(before, after));
            before = after;
        }
        while ready.len() - servers.len() < (round + 1) * starts_wanted / rounds {
            ready.push(
                serve::time_start(ctx, &serve_cfg)
                    .map_err(|e| format!("timing a server start: {e}"))?,
            );
            before = canary.probe(ctx);
        }
    }
    for (name, b) in ["train", "lo", "hi", "capacity"].iter().zip(brackets) {
        info.set(&format!("host.bracket_ms.{name}"), Json::Arr(b));
    }
    let mut sessions = Vec::new();
    for (server, (name, _)) in servers.into_iter().zip(&phases) {
        let s = server
            .stop()
            .map_err(|e| format!("stopping the {name} server: {e}"))?;
        phase_info(&mut info, name, &s);
        if s.counts.not_ok() > 0 {
            problems.push(format!(
                "serve phase {name}: {} of {} requests were not served correctly",
                s.counts.not_ok(),
                s.counts.sent
            ));
        }
        sessions.push(s);
    }

    // --- fold ---------------------------------------------------------
    let v = verdict(w, &reps);
    problems.extend(v.problems.iter().cloned());
    let col = |f: fn(&crate::train::TrainRep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let train_setup = summary_info(&mut info, "setup_s.train", &col(|r| r.setup_s));
    let train_wall = summary_info(&mut info, "train_wall_s", &col(|r| r.wall_s));
    let [lo, hi, cap] = &sessions[..] else {
        return Err("a serve phase is missing".into());
    };
    let p50_lo = summary_info(&mut info, "serve_p50_us.lo", &lo.p50_by_slice());
    let p50_hi = summary_info(&mut info, "serve_p50_us.hi", &hi.p50_by_slice());
    let capacity = summary_info(&mut info, "serve_capacity_rps", &cap.rps_by_slice());
    let serve_setup = summary_info(&mut info, "setup_s.serve", &ready);
    let max = |v: Vec<f64>| v.into_iter().fold(f64::NAN, f64::max);
    let values = [
        train_setup.good_quartile(true) + serve_setup.good_quartile(true),
        train_wall.good_quartile(true),
        median(&col(|r| r.cache_peak_bytes)) / 1e6,
        max(col(|r| r.hwm_kb)) / 1e3,
        p50_lo.good_quartile(true),
        p50_hi.good_quartile(true),
        hi.slo_share(w.serve.slo_us),
        capacity.good_quartile(false),
        max(sessions.iter().map(|s| s.hwm_kb).collect()) / 1e3,
    ];
    let mut metrics = Vec::new();
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        if !value.is_finite() {
            problems.push(format!("{name} could not be measured"));
        }
        metrics.push((name.to_string(), value, unit.to_string()));
    }
    // Accuracy is seed-dependent at these training sizes (0.4–1.0 across
    // seeds), so it is an info field held to the workload's floor, not a
    // bounded metric.
    info.set("train_test_acc", median(&col(|r| r.acc)));
    info.set("plan_unstable", v.plan_unstable);

    let host_summary = canary.summary();
    info.set("host.ref_ms_p50", host_summary.median);
    info.set("host.ref_iqr_rel", host_summary.iqr_rel);
    info.set("host.ref_n", host_summary.n);
    info.set(
        "host.ref_ms.each",
        Json::Arr(canary.quanta_ms().iter().map(|&v| Json::from(v)).collect()),
    );
    info.set("host.slow_share", canary.slow_share());
    info.set("host_noisy", canary.host_noisy());
    info.set("generator_threads", host::proc_status("Threads"));
    let wall = started.elapsed().as_secs_f64();
    let (user1, sys1) = host::cpu_seconds();
    info.set(
        "cpu",
        Json::obj()
            .with("wall_s", wall)
            .with("user_s", user1 - user0)
            .with("sys_s", sys1 - sys0)
            .with("sys_share_of_wall", (sys1 - sys0) / wall),
    );
    info.set("provenance", host::provenance(ctx, nproc));

    let requests: u64 = sessions.iter().map(|s| s.counts.sent).sum();
    let bad_requests: u64 = sessions.iter().map(|s| s.counts.not_ok()).sum();
    Ok(RunResult {
        correct: problems.is_empty(),
        attempted: reps_wanted as u64 + requests,
        failed: failed_reps + bad_requests,
        metrics,
        info,
        problems,
    })
}
