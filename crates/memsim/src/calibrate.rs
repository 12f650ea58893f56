//! The bench host as a device: sweeps priced from *measured* primitives.
//!
//! The caller measures the host's GEMM throughput and codec bandwidth
//! into [`MeasuredPrimitives`] (`nf-cli`'s `sweep::calibrate_host`; this
//! crate runs no kernels), and [`MeasuredPrimitives::host_profile`]
//! lowers them to a [`DeviceProfile`] that [`crate::timing`] prices like
//! a Table 1 preset. Fitting the host sets that profile's two calibration
//! constants from two measured `(batch, seconds)` steps: the line's slope
//! gives `compute_efficiency` (≤ 1) and its intercept
//! `per_batch_overhead_s` (≥ 0). The root `tests/calibrated_cost.rs` fits
//! it and holds the predicted step at an unmeasured batch within 25 %.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_profile_reproduces_measured_rates() {
        let host = MeasuredPrimitives {
            gemm_gflops: 10.0,
            encode_gbps: 4.0,
            decode_gbps: 2.0,
            host_cores: 2,
        }
        .host_profile();
        assert!((host.effective_flops() - 10.0e9).abs() < 1.0);
        // Storage bandwidth is the slower codec direction.
        assert!((host.storage_bw_bytes_s - 2.0e9).abs() < 1.0);
        assert_eq!(host.cpu_cores, 2);
    }
}
