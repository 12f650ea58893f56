//! Host-calibrated cost model: price sweeps from *measured* primitives.
//!
//! The Table 1 presets in [`crate::device`] model the paper's edge boards.
//! This module closes the loop on the machine the benchmarks actually run
//! on: the caller measures the host's GEMM throughput and codec
//! encode/decode bandwidth into [`MeasuredPrimitives`]. `nf sweep` on its
//! `host` device turns them into a device profile
//! ([`MeasuredPrimitives::host_profile`]) with no fitted overheads
//! (`per_batch_overhead_s = 0`); it builds no [`CalibratedCostModel`].
//!
//! A [`CalibratedCostModel`] adds two fitted overhead terms. The model is
//! deliberately linear —
//! `step = batch·flops/gemm_rate + batch·per_sample_overhead + per_batch_overhead`
//! — mirroring the [`crate::timing`] functions' structure. The two
//! overhead terms are fitted from two measured step times at different
//! batch sizes ([`CalibratedCostModel::fit_overheads`]), after which the
//! model *predicts* unmeasured batch sizes; the root
//! `tests/calibrated_cost.rs` holds the prediction within 25 % of a real
//! quickstart-shaped step. Only that test builds one today; folding it
//! into one fitted cost model is ROADMAP item 4.
//!
//! This crate never touches `nf-tensor` (it is `forbid(unsafe_code)` and
//! dependency-free by design), so the measuring itself lives with the
//! callers: `nf-cli`'s sweep and the root `tests/` for the accuracy
//! assertion.

use crate::device::DeviceProfile;

/// Throughputs measured on the bench host, in the units the bench
/// artifacts report them.
///
/// # Examples
///
/// ```
/// use nf_memsim::MeasuredPrimitives;
///
/// let p = MeasuredPrimitives {
///     gemm_gflops: 8.0,
///     encode_gbps: 2.0,
///     decode_gbps: 3.0,
///     host_cores: 4,
/// };
/// let host = p.host_profile();
/// assert_eq!(host.cpu_cores, 4);
/// // effective_flops reproduces the measured GEMM rate exactly.
/// assert!((host.effective_flops() - 8.0e9).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredPrimitives {
    /// Sustained GEMM throughput in GFLOP/s (the default kernel, benched shapes).
    pub gemm_gflops: f64,
    /// Activation-cache codec encode bandwidth in GB/s (f32 input bytes).
    pub encode_gbps: f64,
    /// Activation-cache codec decode bandwidth in GB/s (f32 output bytes).
    pub decode_gbps: f64,
    /// Cores the kernels had available (`nf_tensor::host_cores`).
    pub host_cores: usize,
}

impl MeasuredPrimitives {
    /// A [`DeviceProfile`] for *this* host, usable anywhere the Table 1
    /// presets are (sweeps, feasibility, timing): `peak_tflops` is set so
    /// that `effective_flops()` equals the measured GEMM rate, and the
    /// storage bandwidth is the slower of the two codec directions (a
    /// cache round-trip is bounded by its worse half).
    pub fn host_profile(&self) -> DeviceProfile {
        DeviceProfile {
            name: "Calibrated host".into(),
            cpu: "bench host".into(),
            cpu_cores: self.host_cores.max(1),
            memory_bytes: 0,
            gpu_cores: 0,
            peak_tflops: self.gemm_gflops / 1e3,
            tdp_w: 0.0,
            // Calibration folds sustained efficiency into the measured
            // rate itself, so the profile's own multiplier is exactly 1.
            compute_efficiency: 1.0,
            per_batch_overhead_s: 0.0,
            storage_bw_bytes_s: self
                .encode_gbps
                .min(self.decode_gbps)
                .max(f64::MIN_POSITIVE)
                * 1e9,
        }
    }
}

/// Prices NeuroFlux steps and cache traffic from measured host primitives.
///
/// Construct with [`CalibratedCostModel::new`], optionally refine the two
/// overhead terms with [`CalibratedCostModel::fit_overheads`], then query
/// [`step_time_s`](CalibratedCostModel::step_time_s) /
/// [`cache_write_time_s`](CalibratedCostModel::cache_write_time_s) /
/// [`cache_read_time_s`](CalibratedCostModel::cache_read_time_s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibratedCostModel {
    /// The measured rates this model prices from.
    pub primitives: MeasuredPrimitives,
    /// Fitted per-sample cost not proportional to GEMM FLOPs (im2col,
    /// activations, optimizer updates), in seconds.
    pub per_sample_overhead_s: f64,
    /// Fitted fixed cost per step (allocation, bookkeeping), in seconds.
    pub per_batch_overhead_s: f64,
}

impl CalibratedCostModel {
    /// A model with both overhead terms at zero (pure-rate pricing).
    pub fn new(primitives: MeasuredPrimitives) -> Self {
        CalibratedCostModel {
            primitives,
            per_sample_overhead_s: 0.0,
            per_batch_overhead_s: 0.0,
        }
    }

    /// Seconds of GEMM compute for `flops` floating-point operations.
    pub fn compute_time_s(&self, flops: f64) -> f64 {
        flops / (self.primitives.gemm_gflops.max(f64::MIN_POSITIVE) * 1e9)
    }

    /// Seconds to encode `bytes` of f32 activations into the cache.
    pub fn cache_write_time_s(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.primitives.encode_gbps.max(f64::MIN_POSITIVE) * 1e9)
    }

    /// Seconds to decode `bytes` of f32 activations back out of the cache.
    pub fn cache_read_time_s(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.primitives.decode_gbps.max(f64::MIN_POSITIVE) * 1e9)
    }

    /// Predicted wall-clock seconds for one training step of `batch`
    /// samples costing `flops_per_sample` each.
    pub fn step_time_s(&self, flops_per_sample: f64, batch: usize) -> f64 {
        let b = batch as f64;
        self.compute_time_s(flops_per_sample * b)
            + b * self.per_sample_overhead_s
            + self.per_batch_overhead_s
    }

    /// Fits the two overhead terms from two measured `(batch, seconds)`
    /// step timings at *different* batch sizes. Solves the 2×2 linear
    /// system exactly; overheads are clamped at zero so a noisy pair can
    /// never produce negative costs. Returns `false` (leaving the model
    /// unchanged) when the batches coincide.
    pub fn fit_overheads(
        &mut self,
        a: (usize, f64),
        b: (usize, f64),
        flops_per_sample: f64,
    ) -> bool {
        let (b1, t1) = (a.0 as f64, a.1);
        let (b2, t2) = (b.0 as f64, b.1);
        if (b1 - b2).abs() < f64::EPSILON {
            return false;
        }
        // Residual after pricing the GEMM work: r_i = s·b_i + c.
        let r1 = t1 - self.compute_time_s(flops_per_sample * b1);
        let r2 = t2 - self.compute_time_s(flops_per_sample * b2);
        let s = (r2 - r1) / (b2 - b1);
        let c = r1 - s * b1;
        self.per_sample_overhead_s = s.max(0.0);
        self.per_batch_overhead_s = c.max(0.0);
        true
    }

    /// The calibrated host as a [`DeviceProfile`], with the fitted
    /// per-batch overhead carried over so sweep comparisons against the
    /// Table 1 presets price this host consistently.
    pub fn device_profile(&self) -> DeviceProfile {
        let mut p = self.primitives.host_profile();
        p.per_batch_overhead_s = self.per_batch_overhead_s;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn primitives() -> MeasuredPrimitives {
        MeasuredPrimitives {
            gemm_gflops: 10.0,
            encode_gbps: 4.0,
            decode_gbps: 2.0,
            host_cores: 2,
        }
    }

    #[test]
    fn host_profile_reproduces_measured_rates() {
        let host = primitives().host_profile();
        assert!((host.effective_flops() - 10.0e9).abs() < 1.0);
        // Storage bandwidth is the slower codec direction.
        assert!((host.storage_bw_bytes_s - 2.0e9).abs() < 1.0);
        assert_eq!(host.cpu_cores, 2);
    }

    #[test]
    fn pricing_uses_each_primitive() {
        let m = CalibratedCostModel::new(primitives());
        assert!((m.compute_time_s(10.0e9) - 1.0).abs() < 1e-12);
        assert!((m.cache_write_time_s(4_000_000_000) - 1.0).abs() < 1e-9);
        assert!((m.cache_read_time_s(4_000_000_000) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fit_recovers_synthetic_overheads_exactly() {
        let mut m = CalibratedCostModel::new(primitives());
        let flops = 5.0e6;
        // Ground truth: 0.3 ms/sample + 2 ms/step on top of the GEMM rate.
        let truth = |b: usize| {
            CalibratedCostModel {
                primitives: primitives(),
                per_sample_overhead_s: 3e-4,
                per_batch_overhead_s: 2e-3,
            }
            .step_time_s(flops, b)
        };
        assert!(m.fit_overheads((8, truth(8)), (32, truth(32)), flops));
        assert!((m.per_sample_overhead_s - 3e-4).abs() < 1e-12);
        assert!((m.per_batch_overhead_s - 2e-3).abs() < 1e-12);
        // An interpolated batch is then predicted exactly.
        assert!((m.step_time_s(flops, 16) - truth(16)).abs() < 1e-12);
    }

    #[test]
    fn fit_rejects_equal_batches_and_clamps_negative_residuals() {
        let mut m = CalibratedCostModel::new(primitives());
        assert!(!m.fit_overheads((8, 1.0), (8, 2.0), 1.0e6));
        assert_eq!(m.per_batch_overhead_s, 0.0);
        // Measured faster than the GEMM rate allows → clamped to zero,
        // never negative.
        let fast = 1e-12;
        assert!(m.fit_overheads((8, fast), (32, fast), 1.0e9));
        assert!(m.per_sample_overhead_s >= 0.0);
        assert!(m.per_batch_overhead_s >= 0.0);
    }

    #[test]
    fn device_profile_carries_fitted_overhead() {
        let mut m = CalibratedCostModel::new(primitives());
        m.per_batch_overhead_s = 0.025;
        let p = m.device_profile();
        assert_eq!(p.per_batch_overhead_s, 0.025);
        assert_eq!(p.name, "Calibrated host");
    }
}
