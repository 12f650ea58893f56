//! Host canary and provenance: what the machine was doing while the
//! benchmark ran, so a bad run is pinned on the host, not the code.
//!
//! The canary is a fixed scalar kernel owned by the benchmark — one
//! floating-point sum streamed over an L2-resident array, nothing of the
//! repo's — run in ~4 ms quanta on the *measured* CPU set around every sample.
//! Sizing found what the repo's GEMM is sensitive to on this host: not
//! clock speed (a register-only integer chain never moved by more than
//! 3 %) but the core's caches being shared with a co-tenant, which slows
//! this loop and the GEMM together by 30–90 % for seconds at a time.

use crate::json::Json;
use crate::proc::Ctx;
use crate::stats::Summary;
use crate::sys;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Floats the canary streams over: 256 KiB, resident in a private L2 and
/// evicted from it as soon as something else shares the core.
const WORKING_SET: usize = 64 * 1024;
/// Passes over the working set per quantum (≈3.7 ms on the 2.1 GHz sizing
/// host in its fast state, ≈7 ms in its slow one).
const PASSES: usize = 320;
/// Canary spread above which a run is marked `host_noisy`.
pub const NOISY_IQR_REL: f64 = 0.05;

fn quantum(data: &[f32]) -> f64 {
    let t0 = Instant::now();
    let mut sum = 0.0f32;
    for _ in 0..PASSES {
        for c in black_box(data).chunks_exact(8) {
            sum += c[0] + c[1] + c[2] + c[3] + c[4] + c[5] + c[6] + c[7];
        }
    }
    black_box(sum);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Canary samples collected over a run.
#[derive(Debug)]
pub struct Canary {
    data: Vec<f32>,
    quanta_ms: Vec<f64>,
}

impl Default for Canary {
    fn default() -> Self {
        Canary {
            data: (0..WORKING_SET).map(|i| (i % 251) as f32).collect(),
            quanta_ms: Vec::new(),
        }
    }
}

impl Canary {
    /// Runs one quantum on the measured CPUs, then returns this thread to
    /// the generator CPU; nothing else of the benchmark runs meanwhile.
    /// The run probes before and after every repetition and slice, so each
    /// sample carries the host state it was taken in.
    pub fn probe(&mut self, ctx: &Ctx) -> f64 {
        let _ = sys::pin_to(&ctx.measured_cpus);
        let ms = quantum(&self.data);
        let _ = sys::pin_to(&[ctx.generator_cpu]);
        self.quanta_ms.push(ms);
        ms
    }

    /// Watches the host for `seconds`: back-to-back quanta on the measured
    /// CPUs, one printed line per second (median and range of its quanta).
    pub fn watch(&mut self, ctx: &Ctx, seconds: u64) {
        let _ = sys::pin_to(&ctx.measured_cpus);
        let started = Instant::now();
        for second in 0..seconds {
            let mut quanta = Vec::new();
            while started.elapsed().as_secs() <= second {
                quanta.push(quantum(&self.data));
            }
            let lo = quanta.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = quanta.iter().copied().fold(0.0, f64::max);
            println!(
                "t={second:>3}s  ref_ms p50 {:7.3}  min {lo:7.3}  max {hi:7.3}",
                crate::stats::median(&quanta)
            );
            self.quanta_ms.extend(quanta);
        }
        let _ = sys::pin_to(&[ctx.generator_cpu]);
    }

    /// Every quantum so far, ms, in order.
    pub fn quanta_ms(&self) -> &[f64] {
        &self.quanta_ms
    }

    /// Median quantum (ms), spread, count.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.quanta_ms)
    }

    /// Share of the quanta that took more than 1.3 × the fastest one: how
    /// much of the run the host spent in its slow state.
    pub fn slow_share(&self) -> f64 {
        let fastest = self.quanta_ms.iter().copied().fold(f64::INFINITY, f64::min);
        let slow = self
            .quanta_ms
            .iter()
            .filter(|&&q| q > 1.3 * fastest)
            .count();
        slow as f64 / self.quanta_ms.len().max(1) as f64
    }

    /// Whether the host, not the code, made this run unreliable.
    pub fn host_noisy(&self) -> bool {
        self.summary().iqr_rel > NOISY_IQR_REL
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// A numeric field of `/proc/self/status` (`VmHWM` in kB, `Threads`, …).
pub fn proc_status(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// CPU time this process and its reaped children spent in the kernel and
/// in user code, seconds (`/proc/self/stat` fields 14–17, in clock ticks
/// of 1/100 s on every Linux this runs on).
pub fn cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let f: Vec<f64> = after
        .split_whitespace()
        .map(|v| v.parse().unwrap_or(0.0))
        .collect();
    let tick = |i: usize| f.get(i).copied().unwrap_or(0.0) / 100.0;
    // after ')' field 0 is `state` (field 3 of the file), so utime (14)
    // sits at index 11.
    (tick(11) + tick(13), tick(12) + tick(14))
}

/// Where and on what the numbers were taken.
pub fn provenance(ctx: &Ctx, nproc: usize) -> Json {
    let cpus = |set: &[usize]| Json::Arr(set.iter().map(|&c| Json::from(c)).collect());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj()
        .with("nproc", nproc)
        .with("measured_cpus", cpus(&ctx.measured_cpus))
        .with("generator_cpus", cpus(&[ctx.generator_cpu]))
        .with("cpu_model", model)
        .with(
            "git_rev",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        )
        .with(
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        )
        .with("gemm_simd", nf_tensor::kernels::simd::kernel_name())
        .with("int8_simd", nf_tensor::kernels::int8::kernel_name())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canary_quanta_take_time_and_summarise() {
        let mut c = Canary {
            quanta_ms: vec![20.0, 20.2, 19.9, 20.1, 20.0, 27.0],
            ..Canary::default()
        };
        let s = c.summary();
        assert_eq!(s.n, 6);
        assert!((s.median - 20.05).abs() < 1e-9);
        assert!(
            c.host_noisy(),
            "a 35 % outlier in six quanta is a noisy host"
        );
        assert!((c.slow_share() - 1.0 / 6.0).abs() < 1e-12);
        c.quanta_ms = vec![20.0, 20.1, 20.0, 20.1, 20.0, 20.1];
        assert!(!c.host_noisy());
        assert_eq!(c.slow_share(), 0.0);
        assert!(proc_status("Threads") >= 1);
        assert!(proc_status("VmHWM") > 0);
        assert!(quantum(&c.data) > 0.0);
    }

    #[test]
    fn cpu_seconds_reads_this_process() {
        let (user, sys) = cpu_seconds();
        assert!(user >= 0.0 && sys >= 0.0);
        assert!(user + sys < 1e6);
    }
}
