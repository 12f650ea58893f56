//! The `nf` binary: thin argv parsing over the `nf-cli` library.

use nf_cli::progress::say;
use nf_cli::{
    run_baseline, run_inspect, run_loadgen, run_serve, run_sweep, run_train, LoadgenOptions,
    Paradigm, RunConfig, TrainOptions, TrainedRun,
};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
nf — config-driven NeuroFlux experiment runner

USAGE:
    nf train <config.toml> [--resume] [--force] [--quiet]
    nf baseline <bp|ll|fa|sp> <config.toml> [--quiet]
    nf sweep <config.toml> [--quiet]
    nf serve <run-dir> [--quiet]
    nf loadgen <run-dir> [--addr=HOST:PORT] [--connections=N] [--quiet]
    nf inspect <run-dir>
    nf help

serve restores the model a finished `nf train` run wrote (its
checkpoint.nfck) and serves early-exit inference over a length-prefixed
TCP protocol (see [serve] in the run's config: SLO deadlines, queue
capacity, replicas). loadgen drives a server with the run's
deterministic, seeded request schedule and writes its
latency/exit-histogram report to <out_dir>/<name>-serve/metrics.json;
without --addr it hosts the server itself on an ephemeral port.
--connections overrides [loadgen].connections, keeping the config's
per-connection pipelining window (one epoll mux thread drives every
connection, so high fan-in costs sockets, not threads).

Runs are written to <out_dir>/<name>/ (config snapshot, metrics.json,
checkpoint, activation cache). See DESIGN.md for the config schema and
README.md for a 60-second walkthrough.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> nf_cli::Result<()> {
    let mut positional = Vec::new();
    let mut resume = false;
    let mut force = false;
    let mut quiet = false;
    let mut addr = None;
    let mut connections = None;
    for arg in args {
        match arg.as_str() {
            "--resume" => resume = true,
            "--force" => force = true,
            "--quiet" | "-q" => quiet = true,
            a if a.starts_with("--addr=") => addr = Some(a["--addr=".len()..].to_string()),
            a if a.starts_with("--connections=") => {
                connections = Some(a["--connections=".len()..].to_string())
            }
            "--help" | "-h" | "help" => return say(USAGE),
            other if other.starts_with('-') => {
                return Err(nf_cli::CliError::new(format!("unknown flag {other:?}")));
            }
            other => positional.push(other.to_string()),
        }
    }
    let command = positional.first().map(String::as_str);
    match command {
        Some("train") => {
            let config_path = positional
                .get(1)
                .ok_or_else(|| nf_cli::CliError::new("usage: nf train <config.toml> [--resume]"))?;
            let cfg = RunConfig::load(Path::new(config_path))?;
            let opts = TrainOptions {
                resume,
                force,
                quiet,
                interrupt_after_blocks: None,
            };
            let summary = run_train(&cfg, &opts)?;
            if !quiet {
                let root = summary.run_dir.root().display();
                say(&format!(
                    "\nrun complete: {root}\ninspect it with: nf inspect {root}\n\
                     serve it with: nf serve {root}"
                ))?;
            }
            Ok(())
        }
        Some("baseline") => {
            let paradigm = positional.get(1).ok_or_else(|| {
                nf_cli::CliError::new("usage: nf baseline <bp|ll|fa|sp> <config.toml>")
            })?;
            let config_path = positional.get(2).ok_or_else(|| {
                nf_cli::CliError::new("usage: nf baseline <bp|ll|fa|sp> <config.toml>")
            })?;
            let paradigm = Paradigm::parse(paradigm)?;
            let cfg = RunConfig::load(Path::new(config_path))?;
            let (run_dir, metrics) = run_baseline(&cfg, paradigm)?;
            if !quiet {
                if let Some(acc) = metrics
                    .get("final_test_accuracy")
                    .and_then(nf_cli::Value::as_float)
                {
                    say(&format!(
                        "{} final test accuracy: {:.1}%",
                        paradigm.name(),
                        acc * 100.0
                    ))?;
                }
                say(&format!("run complete: {}", run_dir.root().display()))?;
            }
            Ok(())
        }
        Some("sweep") => {
            let config_path = positional
                .get(1)
                .ok_or_else(|| nf_cli::CliError::new("usage: nf sweep <config.toml>"))?;
            let cfg = RunConfig::load(Path::new(config_path))?;
            let (run_dir, _) = run_sweep(&cfg, quiet)?;
            if !quiet {
                say(&format!("run complete: {}", run_dir.root().display()))?;
            }
            Ok(())
        }
        Some("serve") => {
            let run_path = positional
                .get(1)
                .ok_or_else(|| nf_cli::CliError::new("usage: nf serve <run-dir>"))?;
            run_serve(&TrainedRun::open(Path::new(run_path))?, quiet)
        }
        Some("loadgen") => {
            let run_path = positional.get(1).ok_or_else(|| {
                nf_cli::CliError::new("usage: nf loadgen <run-dir> [--addr=HOST:PORT]")
            })?;
            let mut run = TrainedRun::open(Path::new(run_path))?;
            if let Some(n) = &connections {
                let n: usize = n.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                    nf_cli::CliError::new("--connections must be a positive integer")
                })?;
                let mut lg = run.cfg.loadgen();
                // Preserve the config's per-connection pipelining window so
                // the override scales fan-in, not queueing behavior.
                let window = nf_cli::loadgen::pipeline_window(lg.inflight, lg.connections);
                lg.connections = n;
                lg.inflight = if window == 1 {
                    0
                } else {
                    window.saturating_mul(n)
                };
                run.cfg.loadgen = Some(lg);
            }
            run_loadgen(&run, &LoadgenOptions { addr, quiet })?;
            Ok(())
        }
        Some("inspect") => {
            let run_path = positional
                .get(1)
                .ok_or_else(|| nf_cli::CliError::new("usage: nf inspect <run-dir>"))?;
            say(&run_inspect(Path::new(run_path))?)
        }
        Some(other) => Err(nf_cli::CliError::new(format!(
            "unknown command {other:?}\n\n{USAGE}"
        ))),
        None => say(USAGE),
    }
}
