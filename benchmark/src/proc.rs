//! Running the measured programs as pinned child processes and reading
//! their `@key value` lines with arrival stamps.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Where things run and where they may write.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// This executable, re-exec'd for every child.
    pub exe: PathBuf,
    /// Scratch directory of this run (inside the benchmark's own
    /// directory, removed when the run ends).
    pub out_dir: PathBuf,
    /// CPUs the measured programs are pinned to (`0..nproc-2`; CPU 0 on
    /// one- and two-CPU hosts).
    pub measured_cpus: Vec<usize>,
    /// CPU the generator (this process) is pinned to: the last one.
    pub generator_cpu: usize,
}

impl Ctx {
    /// Lays the CPUs out for a host with `nproc` of them.
    pub fn cpu_layout(nproc: usize) -> (Vec<usize>, usize) {
        let last = nproc.max(1) - 1;
        ((0..last.max(1)).collect(), last)
    }
}

/// A running child whose stdout is read line by line.
pub struct Proc {
    child: Child,
    lines: BufReader<ChildStdout>,
    /// When the child was spawned.
    pub spawned: Instant,
    /// Every `@key value` line seen so far (`ref` lines accumulate).
    pub facts: BTreeMap<String, Vec<String>>,
}

impl Proc {
    /// Re-executes this binary as `child <mode> --cpus <set> <config>`.
    pub fn spawn(ctx: &Ctx, mode: &str, config: &Path, extra: &[&str]) -> io::Result<Proc> {
        let cpus: Vec<String> = ctx.measured_cpus.iter().map(usize::to_string).collect();
        let spawned = Instant::now();
        let mut child = Command::new(&ctx.exe)
            .arg("child")
            .arg(mode)
            .arg("--cpus")
            .arg(cpus.join(","))
            .arg(config)
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| io::Error::other("no child stdout"))?;
        Ok(Proc {
            child,
            lines: BufReader::new(stdout),
            spawned,
            facts: BTreeMap::new(),
        })
    }

    /// The next stdout line and when it arrived; `None` at end of output.
    /// Protocol lines are also filed under [`Proc::facts`].
    pub fn next_line(&mut self) -> io::Result<Option<(String, Instant)>> {
        let mut line = String::new();
        if self.lines.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        let at = Instant::now();
        let line = line.trim_end().to_string();
        if let Some(rest) = line.strip_prefix('@') {
            let (key, value) = rest.split_once(' ').unwrap_or((rest, ""));
            self.facts
                .entry(key.to_string())
                .or_default()
                .push(value.to_string());
        }
        Ok(Some((line, at)))
    }

    /// Reads lines until one starts with `prefix`; its arrival stamp.
    pub fn wait_for(&mut self, prefix: &str) -> io::Result<(String, Instant)> {
        while let Some((line, at)) = self.next_line()? {
            if line.starts_with(prefix) {
                return Ok((line, at));
            }
        }
        Err(io::Error::other(format!(
            "child ended before printing {prefix:?}"
        )))
    }

    /// Tells a serve child to stop (one line on its stdin).
    pub fn send_stop(&mut self) -> io::Result<()> {
        match self.child.stdin.as_mut() {
            Some(stdin) => stdin.write_all(b"stop\n"),
            None => Ok(()),
        }
    }

    /// Reads the remaining output, waits for the exit, and fails unless
    /// the child succeeded.
    pub fn finish(mut self) -> io::Result<BTreeMap<String, Vec<String>>> {
        while self.next_line()?.is_some() {}
        let status = self.child.wait()?;
        if !status.success() {
            return Err(io::Error::other(format!("child exited with {status}")));
        }
        Ok(std::mem::take(&mut self.facts))
    }
}

impl Drop for Proc {
    /// A child must never outlive the run: on any early return it is
    /// killed and reaped here (a no-op after [`Proc::finish`]).
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The single value of fact `key`, parsed.
pub fn fact<T: std::str::FromStr>(
    facts: &BTreeMap<String, Vec<String>>,
    key: &str,
) -> Result<T, String> {
    facts
        .get(key)
        .and_then(|v| v.last())
        .ok_or_else(|| format!("child did not report @{key}"))?
        .trim()
        .parse()
        .map_err(|_| format!("child reported an unreadable @{key}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_layout_keeps_generator_and_measured_apart_when_it_can() {
        assert_eq!(Ctx::cpu_layout(1), (vec![0], 0));
        assert_eq!(Ctx::cpu_layout(2), (vec![0], 1));
        assert_eq!(Ctx::cpu_layout(4), (vec![0, 1, 2], 3));
    }

    #[test]
    fn facts_parse_or_say_what_is_missing() {
        let mut facts = BTreeMap::new();
        facts.insert("acc".to_string(), vec!["0.75".to_string()]);
        assert_eq!(fact::<f64>(&facts, "acc"), Ok(0.75));
        assert!(fact::<f64>(&facts, "hwm_kb")
            .unwrap_err()
            .contains("@hwm_kb"));
        assert!(fact::<u64>(&facts, "acc").is_err());
    }
}
