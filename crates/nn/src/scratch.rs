//! Per-layer steady-state caching helpers shared by the GEMM-backed
//! layers (`Conv2d` and `Linear`).
//!
//! Two idioms recur in every such layer and must behave identically
//! everywhere, so they live here rather than being re-implemented
//! per layer:
//!
//! - [`PackedPanel`]: a re-laid-out weight panel (transposed, or flipped
//!   for the conv input gradient) cached across the
//!   minibatch loop, re-derived only when [`Param::version`] says the
//!   weights actually changed (once per optimizer step in training;
//!   never during frozen-weight eval sweeps).
//! - [`InputCache`]: the Train-forward → backward cache (a conv's padded
//!   input, a linear layer's input, batch-norm's normalised activations, a
//!   ReLU mask, pooling codes),
//!   recycled through a retired spare buffer so caching stops allocating
//!   after warm-up while keeping the take-on-backward (`NoForwardCache`
//!   on double backward) contract.
//! - [`QuantPanel`]: the int8 sibling of [`PackedPanel`] — a per-channel
//!   `i8` packed weight panel for [`nf_tensor::kernels::int8::gemm_i32`],
//!   re-quantized from the f32 panel only when the weights changed.

use crate::param::Param;
use crate::Result;
use nf_tensor::kernels::int8::QuantizedRhs;
use nf_tensor::{transpose2d_into, Tensor};

/// A layer's packed weight panel — `weight.value` in the layout one of
/// its GEMMs consumes — keyed by the owning [`Param`]'s version (see
/// `DESIGN.md` §8).
#[derive(Debug, Default)]
pub struct PackedPanel {
    tensor: Tensor,
    version: Option<u64>,
}

impl PackedPanel {
    /// An empty panel; packed on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The transpose of `weight.value`, re-packed into the reused buffer
    /// iff the weight changed since the last call.
    pub fn get(&mut self, weight: &Param) -> Result<&Tensor> {
        self.get_with(weight.version(), &weight.value, transpose2d_into)
    }

    /// `pack(source)` for any layout of any matrix that changes only when
    /// the owning weight's `version` does (the weights themselves, or the
    /// operand of their input-gradient product), cached the same way. One
    /// panel must always be asked for with the same `source` and `pack`:
    /// the cache is keyed by weight version alone.
    pub fn get_with(
        &mut self,
        version: u64,
        source: &Tensor,
        pack: impl FnOnce(&Tensor, &mut Tensor) -> nf_tensor::Result<()>,
    ) -> Result<&Tensor> {
        if self.version != Some(version) {
            pack(source, &mut self.tensor)?;
            self.version = Some(version);
        }
        Ok(&self.tensor)
    }
}

/// A layer's quantized (`i8`, per-output-channel symmetric) GEMM weight
/// panel, keyed by the owning [`Param`]'s version exactly like
/// [`PackedPanel`].
///
/// `get` takes the *K×N f32 panel* the forward GEMM would multiply by
/// (for `Linear` the weight itself; for `Conv2d` the transposed panel
/// from [`PackedPanel::get`]) rather than the raw `Param`, so the two
/// caches can share one version key without double-transposing.
#[derive(Debug, Default)]
pub struct QuantPanel {
    rhs: QuantizedRhs,
    version: Option<u64>,
}

impl QuantPanel {
    /// An empty panel; quantized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The packed int8 form of the `k×n` panel, re-quantized into the
    /// reused buffers iff `version` (the owning weight's
    /// [`Param::version`]) moved since the last call.
    pub fn get(&mut self, version: u64, panel: &Tensor) -> Result<&QuantizedRhs> {
        let k = panel.dims2()?.0;
        self.get_runs(version, panel, k.max(1))
    }

    /// [`QuantPanel::get`] packed for an LHS whose `K` axis is contiguous
    /// `run` values at a time (`Conv2d`: its kernel width; see
    /// [`QuantizedRhs::pack_runs_from_f32`]). One panel must always be
    /// asked for with the same `run`: the cache is keyed by weight version
    /// alone.
    pub fn get_runs(&mut self, version: u64, panel: &Tensor, run: usize) -> Result<&QuantizedRhs> {
        if self.version != Some(version) {
            let (k, n) = panel.dims2()?;
            self.rhs.pack_runs_from_f32(panel.data(), k, n, run);
            self.version = Some(version);
        }
        Ok(&self.rhs)
    }
}

/// Recycled cache for the forward→backward handshake: whatever a Train
/// forward must keep for the one backward that follows — by default a
/// copy of the input tensor ([`InputCache::store`]), or any `T` a layer
/// fills in place ([`InputCache::recycle`]). The storage survives the
/// backward pass as a retired spare and is refilled by the next forward,
/// until [`InputCache::clear`] releases it.
#[derive(Debug)]
pub struct InputCache<T = Tensor> {
    cached: Option<T>,
    spare: Option<T>,
}

impl<T> Default for InputCache<T> {
    fn default() -> Self {
        InputCache {
            cached: None,
            spare: None,
        }
    }
}

impl<T: Default> InputCache<T> {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The storage to fill for the next backward: the buffer the previous
    /// step retired (or left pending) when there is one, an empty `T`
    /// otherwise. Hand it back with [`InputCache::put_back`] once filled.
    pub fn recycle(&mut self) -> T {
        let pending = self.cached.take();
        pending.or_else(|| self.spare.take()).unwrap_or_default()
    }

    /// Consumes the pending state (`None` if no Train forward preceded —
    /// the layer maps this to `NoForwardCache`).
    pub fn take(&mut self) -> Option<T> {
        self.cached.take()
    }

    /// Instates `state` as pending: a freshly filled [`InputCache::recycle`]
    /// buffer, or a taken one unconsumed (backward validation failed
    /// before using it).
    pub fn put_back(&mut self, state: T) {
        self.cached = Some(state);
    }

    /// Retires consumed state's storage for reuse by the next forward.
    pub fn retire(&mut self, state: T) {
        self.spare = Some(state);
    }

    /// Drops the pending state (the [`crate::Layer::clear_cache`]
    /// eviction path; the spare buffer is released too).
    pub fn clear(&mut self) {
        self.cached = None;
        self.spare = None;
    }
}

impl InputCache<Tensor> {
    /// Stores a copy of `x` as the pending backward input, reusing the
    /// retired buffer from the previous step when one exists.
    pub fn store(&mut self, x: &Tensor) {
        let mut cache = self.recycle();
        cache.copy_from(x);
        self.put_back(cache);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_panel_repacks_only_on_version_change() {
        let mut weight =
            Param::new(Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap());
        let mut panel = PackedPanel::new();
        let t = panel.get(&weight).unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.data(), &[1., 4., 2., 5., 3., 6.]);
        // Mutating without note_update: stale by contract.
        weight.value.data_mut()[0] = 9.0;
        assert_eq!(panel.get(&weight).unwrap().data()[0], 1.0);
        weight.note_update();
        assert_eq!(panel.get(&weight).unwrap().data()[0], 9.0);
    }

    #[test]
    fn quant_panel_repacks_only_on_version_change() {
        let mut weight =
            Param::new(Tensor::from_vec(vec![2, 2], vec![1.0, -2.0, 0.5, 4.0]).unwrap());
        let mut panel = QuantPanel::new();
        let rhs = panel.get(weight.version(), &weight.value).unwrap();
        assert_eq!((rhs.k(), rhs.n()), (2, 2));
        let s0 = rhs.scales().to_vec();
        // Mutating without note_update: stale by contract.
        weight.value.data_mut()[0] = 100.0;
        assert_eq!(
            panel.get(weight.version(), &weight.value).unwrap().scales(),
            &s0[..]
        );
        weight.note_update();
        let rescaled = panel.get(weight.version(), &weight.value).unwrap();
        assert!(rescaled.scales()[0] > s0[0]);
    }

    #[test]
    fn input_cache_recycles_buffers() {
        let mut cache = InputCache::new();
        let x = Tensor::ones(&[2, 2]);
        cache.store(&x);
        let taken = cache.take().expect("stored");
        assert_eq!(taken, x);
        assert!(cache.take().is_none(), "take consumes");
        cache.retire(taken);
        cache.store(&Tensor::zeros(&[2, 2]));
        assert_eq!(cache.take().unwrap(), Tensor::zeros(&[2, 2]));
    }

    #[test]
    fn recycle_hands_back_the_same_storage_until_cleared() {
        let mut cache: InputCache<Vec<u8>> = InputCache::new();
        let mut mask = cache.recycle();
        mask.resize(100, 1);
        let ptr = mask.as_ptr();
        cache.put_back(mask);
        // A second forward without a backward refills the pending buffer…
        let mask = cache.recycle();
        assert_eq!(mask.as_ptr(), ptr);
        cache.put_back(mask);
        // …and so does the forward after a backward retired it.
        let taken = cache.take().unwrap();
        cache.retire(taken);
        assert!(cache.take().is_none(), "retired state is not pending");
        let mask = cache.recycle();
        assert_eq!(mask.as_ptr(), ptr);
        cache.put_back(mask);
        cache.clear();
        assert_eq!(cache.recycle().capacity(), 0);
    }
}
