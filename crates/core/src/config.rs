//! NeuroFlux run configuration (the system's four inputs, §0 of Figure 7).

use crate::codec::CodecKind;
use nf_models::AuxPolicy;
use nf_tensor::KernelBackend;

/// The user-facing knobs of a NeuroFlux training run.
///
/// The paper's system takes four inputs: an untrained CNN, a training set,
/// a GPU memory budget, and a batch-size limit (Section 4). The remaining
/// fields parameterise the training loop itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeuroFluxConfig {
    /// GPU memory budget in bytes.
    pub budget_bytes: u64,
    /// Batch-size cap (Algorithm 1, line 4) — the paper caps batches to
    /// preserve generalisation (Section 5.2, citing Keskar et al.).
    pub batch_limit: usize,
    /// Grouping threshold ρ (Algorithm 1; the paper found 40 % best).
    pub rho: f64,
    /// Auxiliary-head sizing policy (AAN by default).
    pub aux_policy: AuxPolicy,
    /// Learning rate for every unit + head.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Epochs each block is trained for before moving on.
    pub epochs_per_block: usize,
    /// Tolerance (in accuracy points, 0–1 scale) for early-exit selection:
    /// the smallest exit within `exit_tolerance` of the best validation
    /// accuracy wins.
    pub exit_tolerance: f32,
    /// Whether trained blocks' parameters (and optimizer state) round-trip
    /// through serialised storage when evicted (§3.1: "the current block is
    /// moved to storage"). Disable only to isolate the activation cache in
    /// ablations.
    pub evict_params: bool,
    /// GEMM kernel backend every layer's matrix products run on
    /// (the blocked, multi-threaded kernel by default; the naive reference
    /// kernel is selectable for A/B runs and debugging).
    pub kernel_backend: KernelBackend,
    /// Codec the activation cache stores block outputs with (bit-exact f32
    /// by default; f16 halves and int8 quarters the §6.4 cache footprint
    /// at bounded per-element error — see [`crate::codec`]).
    pub cache_codec: CodecKind,
    /// Whether frozen-block regeneration consumes int8-cached activations
    /// *without* decoding to f32, running the integer GEMM path
    /// ([`nf_tensor::kernels::int8`]) through the first layer of each
    /// block. Only takes effect when `cache_codec` is
    /// [`CodecKind::Int8Affine`]; training itself always runs in f32.
    /// Defaults to `false`.
    pub int8_compute: bool,
}

/// The Partitioner's grouping threshold ρ (Algorithm 1) the paper settles
/// on: 40 % balanced training efficiency and convergence best across the
/// 10–70 % it swept (§5.2).
pub const RHO: f64 = 0.4;

impl NeuroFluxConfig {
    /// Creates a config with the paper's defaults ([`RHO`], AAN heads).
    pub fn new(budget_bytes: u64, batch_limit: usize) -> Self {
        NeuroFluxConfig {
            budget_bytes,
            batch_limit,
            rho: RHO,
            aux_policy: AuxPolicy::Adaptive,
            lr: 0.05,
            momentum: 0.9,
            epochs_per_block: 3,
            exit_tolerance: 0.005,
            evict_params: true,
            kernel_backend: KernelBackend::default(),
            cache_codec: CodecKind::default(),
            int8_compute: false,
        }
    }

    /// Sets the GEMM kernel backend the run's layers compute on.
    pub fn with_kernel_backend(mut self, backend: KernelBackend) -> Self {
        self.kernel_backend = backend;
        self
    }

    /// Sets the activation-cache codec.
    pub fn with_cache_codec(mut self, codec: CodecKind) -> Self {
        self.cache_codec = codec;
        self
    }

    /// Enables (or disables) quantized compute on the frozen-block
    /// regeneration pass (effective only with the int8 cache codec).
    pub fn with_int8_compute(mut self, enabled: bool) -> Self {
        self.int8_compute = enabled;
        self
    }

    /// Sets epochs per block.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs_per_block = epochs;
        self
    }

    /// Sets the learning rate.
    pub fn with_lr(mut self, lr: f32) -> Self {
        self.lr = lr;
        self
    }

    /// Sets the grouping threshold ρ.
    pub fn with_rho(mut self, rho: f64) -> Self {
        self.rho = rho;
        self
    }

    /// Sets the auxiliary-head policy.
    pub fn with_aux_policy(mut self, policy: AuxPolicy) -> Self {
        self.aux_policy = policy;
        self
    }

    /// Sets the early-exit selection tolerance (accuracy points, 0–1).
    pub fn with_exit_tolerance(mut self, tolerance: f32) -> Self {
        self.exit_tolerance = tolerance;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> crate::Result<()> {
        if self.batch_limit == 0 {
            return Err(crate::NfError::BadConfig("batch_limit must be > 0".into()));
        }
        if self.budget_bytes == 0 {
            return Err(crate::NfError::BadConfig("budget must be > 0".into()));
        }
        if !(0.0..=1.0).contains(&self.rho) {
            return Err(crate::NfError::BadConfig(format!(
                "rho {} outside [0, 1]",
                self.rho
            )));
        }
        if self.epochs_per_block == 0 {
            return Err(crate::NfError::BadConfig(
                "epochs_per_block must be > 0".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = NeuroFluxConfig::new(1 << 30, 512);
        assert_eq!(c.rho, 0.4);
        assert_eq!(c.aux_policy, AuxPolicy::Adaptive);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        assert!(NeuroFluxConfig::new(1 << 30, 0).validate().is_err());
        assert!(NeuroFluxConfig::new(0, 8).validate().is_err());
        assert!(NeuroFluxConfig::new(1 << 30, 8)
            .with_rho(1.5)
            .validate()
            .is_err());
        assert!(NeuroFluxConfig::new(1 << 30, 8)
            .with_epochs(0)
            .validate()
            .is_err());
    }
}
