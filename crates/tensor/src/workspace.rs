//! Reusable scratch buffers for the conv/GEMM hot path.
//!
//! Every training step pads conv inputs for the gathered lowering and runs
//! three products per layer; done naively, each of those builds its entire
//! working set from scratch (`vec![0.0; …]`) and drops it again — per
//! minibatch, per layer. A [`Workspace`] owns those buffers instead, with a
//! **grow-only** policy: buffers are resized in place ([`Tensor::reuse_as`]),
//! capacity never shrinks, so after one warm-up step the steady-state
//! training loop performs no heap allocation in the lowering/GEMM path at
//! all (asserted by the `alloc_free` integration test).
//!
//! Ownership model (see DESIGN.md §8):
//!
//! - Layers hold a [`SharedWorkspace`] handle. A standalone layer gets its
//!   own; the Worker and the baseline trainers install run-wide arenas
//!   (one for the unit chain, one for the aux heads), so layers share
//!   buffers sized to the largest layer of their chain (training is
//!   sequential, so arenas never conflict).
//! - A layer locks the workspace for the duration of one forward or
//!   backward call and takes disjoint `&mut` slots via
//!   [`Workspace::parts`]. Calls within a block are sequential, so the
//!   lock is uncontended; it exists so layers stay `Send` and so the
//!   [`crate::kernels::fan`] workers inside a kernel can never observe a
//!   half-written buffer (they only ever receive sub-slices of a slot
//!   borrowed for the whole call).
//! - State that must survive *across* calls (a layer's cached forward
//!   input, packed weight panels) lives in the layer, not here: workspace
//!   slots are valid only within a single lock scope.
//! - The one exception is the **hand-off** free list
//!   ([`Workspace::take_handoff`]): the activations a container passes
//!   from one child layer to the next. A container takes its buffers *out*
//!   of the workspace (the mutex is not re-entrant, and its children lock
//!   it themselves), runs the chain, and gives them back, so every chain
//!   sharing the arena shares one set of hand-off buffers.

use crate::tensor::Tensor;
use std::sync::{Arc, Mutex, MutexGuard};

/// Grow-only scratch buffers for one block's lowering/GEMM traffic.
///
/// Slots are named by role rather than by owner so sequential layers of
/// different shapes can share them:
///
/// | slot      | role                                                     |
/// |-----------|----------------------------------------------------------|
/// | `cols`    | padded conv input of an eval forward, or output gradient |
/// | `cols_u8` | padded `u8` conv input of the int8 forward (bytes)       |
/// | `posrows` | position-major activations or gradients (`N·H·W × C`)    |
/// | `out`     | row-major GEMM outputs consumed within the same call     |
/// | `pack`    | transpose/pack and row-group scratch inside the GEMM     |
///
/// Beside the slots sits the hand-off free list
/// ([`Workspace::take_handoff`]): activations on their way from one layer
/// of a chain to the next, held by the container for the length of a pass.
///
/// # Examples
///
/// ```
/// use nf_tensor::{matmul_into, KernelBackend, Tensor, Workspace};
///
/// let a = Tensor::ones(&[3, 4]);
/// let b = Tensor::ones(&[4, 2]);
/// let mut ws = Workspace::new();
/// let parts = ws.parts();
/// matmul_into(KernelBackend::Blocked, &a, &b, parts.out).unwrap();
/// assert_eq!(parts.out.shape(), &[3, 2]);
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    cols: Tensor,
    cols_u8: Vec<u8>,
    posrows: Tensor,
    out: Tensor,
    pack: Vec<f32>,
    /// Hand-off activations not currently taken out by a container.
    handoff: Vec<Tensor>,
}

/// Disjoint mutable views of every [`Workspace`] slot, so one call can use
/// several slots at once (e.g. conv backward reads `cols` and `posrows`
/// while writing `out` and packing into `pack`).
pub struct WorkspaceParts<'a> {
    /// Lowering slot: the padded input (or output gradient) a conv's
    /// gathered GEMM reads. A training forward pads into the layer's own
    /// cache instead, which its weight gradient reads again.
    pub cols: &'a mut Tensor,
    /// The `u8` sibling of `cols`: the int8-cached input padded once with
    /// its zero-point byte, which `Conv2d::forward_quant`'s gathered
    /// integer GEMM reads. Never grows in an f32 run.
    pub cols_u8: &'a mut Vec<u8>,
    /// Position-major rows slot.
    pub posrows: &'a mut Tensor,
    /// Row-major GEMM output slot (a conv's `dWᵀ`, its strided `g·W`; the
    /// layers' activations go straight into the caller's tensors).
    pub out: &'a mut Tensor,
    /// Transpose/pack scratch slot; also the row group a product bound
    /// for NCHW accumulates before it is emitted, and the lane sums of a
    /// weight gradient on the positions axis.
    pub pack: &'a mut Vec<f32>,
}

impl Workspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Splits the workspace into simultaneous mutable slot views.
    pub fn parts(&mut self) -> WorkspaceParts<'_> {
        WorkspaceParts {
            cols: &mut self.cols,
            cols_u8: &mut self.cols_u8,
            posrows: &mut self.posrows,
            out: &mut self.out,
            pack: &mut self.pack,
        }
    }

    /// Takes one hand-off buffer out of the workspace: the one most
    /// recently given back, or an empty tensor the first time. Containers
    /// (`nf_nn::Sequential`) take what their chain needs before calling
    /// their children, which lock this workspace themselves, and return
    /// the buffers with [`Workspace::give_handoff`] last out first in — so
    /// a chain meets its own buffers again every pass, already grown to
    /// its widest activation, and a nested container's stay below them.
    pub fn take_handoff(&mut self) -> Tensor {
        self.handoff.pop().unwrap_or_default()
    }

    /// Returns a buffer taken with [`Workspace::take_handoff`] (grow-only:
    /// its capacity stays with the workspace).
    pub fn give_handoff(&mut self, buf: Tensor) {
        self.handoff.push(buf);
    }

    /// Total bytes currently reserved across all slots and the hand-off
    /// buffers at rest — the steady-state scratch footprint of the block
    /// this workspace serves.
    pub fn reserved_bytes(&self) -> u64 {
        let elems = self.cols.data_capacity()
            + self.posrows.data_capacity()
            + self.out.data_capacity()
            + self.pack.capacity()
            + self
                .handoff
                .iter()
                .map(Tensor::data_capacity)
                .sum::<usize>();
        elems as u64 * 4 + self.cols_u8.capacity() as u64
    }
}

/// Shared handle to a [`Workspace`]: the Worker hands one per block to
/// every layer in that block.
///
/// `Mutex` rather than `RefCell` keeps layers `Send`; the lock is
/// uncontended in practice (layer calls within a block are sequential).
pub type SharedWorkspace = Arc<Mutex<Workspace>>;

/// Creates a fresh [`SharedWorkspace`].
pub fn shared_workspace() -> SharedWorkspace {
    Arc::new(Mutex::new(Workspace::new()))
}

/// Locks a [`SharedWorkspace`], recovering from poisoning (a panic while
/// holding the lock leaves only scratch data behind, which the next call
/// overwrites anyway).
pub fn lock_workspace(ws: &SharedWorkspace) -> MutexGuard<'_, Workspace> {
    match ws.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_disjoint_and_grow_only() {
        let mut ws = Workspace::new();
        {
            let p = ws.parts();
            p.cols.reuse_as(&[4, 8]);
            p.out.reuse_as(&[2, 2]);
            p.pack.resize(16, 0.0);
        }
        assert_eq!(ws.reserved_bytes(), (32 + 4 + 16) * 4);
        // The u8 slot counts in bytes, not f32 elements.
        ws.parts().cols_u8.resize(10, 0);
        let bytes = ws.parts().cols_u8.capacity() as u64;
        let grown = ws.reserved_bytes();
        assert!((10..40).contains(&bytes));
        assert_eq!(grown, (32 + 4 + 16) * 4 + bytes);
        // Shrinking shapes must not release capacity.
        {
            let p = ws.parts();
            p.cols.reuse_as(&[2, 2]);
            p.pack.clear();
        }
        assert_eq!(ws.reserved_bytes(), grown);
    }

    #[test]
    fn handoff_buffers_come_back_in_the_order_they_left() {
        let mut ws = Workspace::new();
        let (mut a, mut b) = (ws.take_handoff(), ws.take_handoff());
        a.reuse_as(&[16]);
        b.reuse_as(&[8]);
        ws.give_handoff(b);
        ws.give_handoff(a);
        assert_eq!(ws.reserved_bytes(), (16 + 8) * 4);
        // Same roles next time: the first buffer out is the big one.
        assert_eq!(ws.take_handoff().data_capacity(), 16);
        assert_eq!(ws.take_handoff().data_capacity(), 8);
        // A nested taker finds the list empty and starts its own.
        assert_eq!(ws.take_handoff().data_capacity(), 0);
    }

    #[test]
    fn shared_workspace_recovers_from_poison() {
        let ws = shared_workspace();
        let ws2 = Arc::clone(&ws);
        let _ = std::thread::spawn(move || {
            let _guard = ws2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        let mut guard = lock_workspace(&ws);
        guard.parts().out.reuse_as(&[1]);
    }
}
