//! `nf-benchmark` — the repo benchmark named by `BENCHMARK.json`.
//!
//! ```text
//! nf-benchmark --workload <compute|cache_io|quant> --seed <n>
//!              [--seconds <s>] [--trace <0|1>] [--smoke] [--out <file>]
//! nf-benchmark selfcheck [--sets 2] [--runs 7] [--seconds <s>] [--workload <w>]
//! nf-benchmark compare <baseline.jsonl> <new.jsonl>
//! nf-benchmark canary [--seconds <s>]
//! ```
//!
//! The last stdout line of a run is one JSON object with exactly
//! `correct`, `attempted`, `failed`, `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `README.md` for what each metric means and how it is kept steady.

// deny (not forbid) so `sys` can opt back in for its three glibc calls.
#![deny(unsafe_code)]
#![deny(missing_docs)]

mod check;
mod child;
mod host;
mod json;
mod loadgen;
mod proc;
mod replay;
mod run;
mod serve;
mod stats;
mod sys;
mod trace;
mod tracerun;
mod train;
mod workloads;

#[global_allocator]
static ALLOCATOR: trace::CountingAlloc = trace::CountingAlloc;

use proc::Ctx;
use run::{RunArgs, RunResult};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `--key value` and bare flags, in order of appearance.
struct Args {
    positional: Vec<String>,
    options: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>, flags: &[&str]) -> Args {
        let mut args = Args {
            positional: Vec::new(),
            options: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some(key) if flags.contains(&key) => args.options.push((key.into(), "1".into())),
                Some(key) => match key.split_once('=') {
                    Some((k, v)) => args.options.push((k.into(), v.into())),
                    None => {
                        let value = raw.next().unwrap_or_default();
                        args.options.push((key.into(), value));
                    }
                },
                None => args.positional.push(a),
            }
        }
        args
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} takes a whole number, got {v:?}")),
        }
    }
}

/// Sets the run up: CPU layout, scratch directory, generator pinning.
fn context(tag: &str) -> Result<(Ctx, usize), String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let (measured_cpus, generator_cpu) = Ctx::cpu_layout(nproc);
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let ctx = Ctx {
        exe: std::env::current_exe().map_err(|e| e.to_string())?,
        out_dir,
        measured_cpus,
        generator_cpu,
    };
    sys::pin_to(&[ctx.generator_cpu]).map_err(|e| format!("pinning the generator: {e}"))?;
    Ok((ctx, nproc))
}

fn print_human(result: &RunResult) {
    for (name, value, unit) in &result.metrics {
        println!("{name:<28} {value:>14.4} {unit}");
    }
    for (key, value) in result.info.entries() {
        println!("# {key} = {}", value.to_line());
    }
    for p in &result.problems {
        println!("! {p}");
    }
}

fn run_command(args: &Args) -> Result<ExitCode, String> {
    let name = args.get("workload").ok_or("--workload is required")?;
    let workload = workloads::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name:?} (expected one of {})",
            known.join(", ")
        )
    })?;
    let run_args = RunArgs {
        workload,
        seed: args.number("seed", 1)?,
        seconds: args.number("seconds", run::BASE_SECONDS)?,
        smoke: args.get("smoke").is_some(),
    };
    let trace = args.number("trace", 0)? != 0;
    let (ctx, nproc) = context(&format!("{name}-{}", run_args.seed))?;
    let result = if trace {
        tracerun::traced(&ctx, &run_args, nproc)
    } else {
        run::end_to_end(&ctx, &run_args, nproc)
    };
    let _ = std::fs::remove_dir_all(&ctx.out_dir);
    let result = result?;
    print_human(&result);
    if let Some(out) = args.get("out") {
        // One document per line, appended: a file of runs is a set that
        // `compare` takes.
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| writeln!(f, "{}", result.document().to_line()))
            .map_err(|e| format!("writing {out}: {e}"))?;
    }
    println!("{}", result.contract_line());
    Ok(ExitCode::SUCCESS)
}

fn child_command(args: &Args) -> Result<ExitCode, String> {
    let cpus: Vec<usize> = args
        .get("cpus")
        .unwrap_or("0")
        .split(',')
        .filter_map(|c| c.parse().ok())
        .collect();
    // Before anything else: thread pools, kernel plans and `replicas = 0`
    // are all sized from the affinity mask the first time they are asked.
    sys::pin_to(&cpus).map_err(|e| format!("pinning the child to {cpus:?}: {e}"))?;
    let [_, mode, config] = &args.positional[..] else {
        return Err("usage: nf-benchmark child <train|serve|replay> --cpus <list> <config>".into());
    };
    let config = PathBuf::from(config);
    match mode.as_str() {
        "train" => child::train(&config)?,
        "serve" => child::serve(&config)?,
        "replay" => replay::run(
            &config,
            Path::new(
                args.get("serve")
                    .ok_or("child replay needs --serve <config>")?,
            ),
            match args.number("traced", 0)? {
                0 => replay::Depth::Plain,
                1 => replay::Depth::Full,
                _ => replay::Depth::Traced,
            },
            Path::new(
                args.get("trace-out")
                    .ok_or("child replay needs --trace-out <file>")?,
            ),
        )?,
        other => return Err(format!("unknown child mode {other:?}")),
    }
    Ok(ExitCode::SUCCESS)
}

/// `nf-benchmark selfcheck`: the noise self-check behind `NOISE.json`.
fn selfcheck_command(args: &Args) -> Result<ExitCode, String> {
    let workloads: Vec<&'static workloads::Workload> = match args.get("workload") {
        Some(name) => {
            vec![workloads::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?]
        }
        None => workloads::WORKLOADS.iter().collect(),
    };
    let (ctx, nproc) = context("selfcheck")?;
    let pass = check::selfcheck(
        &ctx,
        nproc,
        &workloads,
        args.number("sets", 2)? as usize,
        args.number("runs", 7)? as usize,
        args.number("seconds", run::BASE_SECONDS)?,
    );
    let _ = std::fs::remove_dir_all(&ctx.out_dir);
    Ok(if pass? {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `nf-benchmark compare <a> <b>`: baseline set against new set.
fn compare_command(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = &args.positional[..] else {
        return Err("usage: nf-benchmark compare <baseline.jsonl> <new.jsonl>".into());
    };
    Ok(if check::compare(a, b)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `nf-benchmark canary [--seconds N]`: only the host canary, to see what
/// the machine is doing before trusting (or blaming) a run.
fn canary_command(args: &Args) -> Result<ExitCode, String> {
    let (ctx, _) = context("canary")?;
    let _ = std::fs::remove_dir_all(&ctx.out_dir);
    let mut canary = host::Canary::default();
    canary.watch(&ctx, args.number("seconds", 10)?);
    let s = canary.summary();
    println!(
        "host.ref_ms_p50 {:.3}  host.ref_iqr_rel {:.4}  n {}  host_noisy {}",
        s.median,
        s.iqr_rel,
        s.n,
        canary.host_noisy()
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1), &["smoke"]);
    let outcome = match args.positional.first().map(String::as_str) {
        Some("child") => child_command(&args),
        Some("canary") => canary_command(&args),
        Some("selfcheck") => selfcheck_command(&args),
        Some("compare") => compare_command(&args),
        None => run_command(&args),
        Some(other) => Err(format!("unknown subcommand {other:?}")),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("nf-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
