//! The memory model's workspace term against the bytes a real `Workspace`
//! reserves: `memory::ll_unit_workspace_bytes_per_sample` is exactly the
//! padded-input copies the conv layers keep in their lowering slot plus
//! the hand-off buffers their chains pass activations through — and a
//! forward pass reserves nothing else that grows with the batch.

use nf_memsim::memory;
use nf_models::{assign_aux, build_aux_head, AuxPolicy, ModelSpec};
use nf_nn::{Layer, Mode};
use nf_tensor::{lock_workspace, shared_workspace, Tensor};
use rand::SeedableRng;

#[test]
fn workspace_term_is_the_padded_input_the_layers_reserve() {
    let hw = 12usize;
    let spec = ModelSpec::tiny("ws", hw, &[6, 8], 3);
    let aux_specs = assign_aux(&spec, AuxPolicy::Fixed(4));
    let analytics = spec.analyze();
    let (a, aux) = (&analytics[0], &aux_specs[0]);

    let modelled_per_sample = memory::ll_unit_workspace_bytes_per_sample(&spec, a, aux) as u64;

    // Bytes the unit's and the head's arenas hold after one forward pass
    // at `batch`, from fresh arenas (they are grow-only).
    let reserved = |batch: usize| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut model = spec.build(&mut rng).unwrap();
        let mut head = build_aux_head(&mut rng, aux).unwrap();
        let (ws_unit, ws_head) = (shared_workspace(), shared_workspace());
        let unit = &mut model.units[0];
        unit.set_workspace(&ws_unit);
        head.set_workspace(&ws_head);
        let out = unit
            .forward(&Tensor::ones(&[batch, 3, hw, hw]), Mode::Eval)
            .unwrap();
        head.forward(&out, Mode::Eval).unwrap();
        let (unit_bytes, head_bytes) = (
            lock_workspace(&ws_unit).reserved_bytes(),
            lock_workspace(&ws_head).reserved_bytes(),
        );
        unit_bytes + head_bytes
    };

    // A forward pass fills, per arena, the padded input and the two
    // hand-off buffers between the chain's layers — the conv's product
    // lands in a hand-off buffer directly, there is no position-row copy
    // of it — plus the GEMM's group scratch: 16 KiB of output rows per
    // arena however many samples there are, so it is the same at every
    // batch and everything that grows is the model's term, to the byte.
    let (small, large) = (reserved(5), reserved(9));
    assert_eq!(large - small, 4 * modelled_per_sample);
    let fixed = small - 5 * modelled_per_sample;
    assert_eq!(fixed, large - 9 * modelled_per_sample);
    assert!(fixed > 0 && fixed <= 2 << 14, "group scratch {fixed} B");
    // The hand-off pairs are two conv outputs each (pre-pool for the unit;
    // `filters` wide for the head); the padded inputs are a ninth of what
    // the explicit patch matrix took for these 3×3 convs, up to the
    // padding rim.
    let conv_out = 6 * hw * hw + aux.filters * aux.in_hw.0 * aux.in_hw.1;
    let padded = modelled_per_sample - (2 * conv_out * 4) as u64;
    let im2col = (3 * hw * hw + aux.in_ch * aux.in_hw.0 * aux.in_hw.1) * 9 * 4;
    assert!(padded * 5 < im2col as u64);
}
