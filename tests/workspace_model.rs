//! The memory model's optional workspace term against the bytes a real
//! `Workspace` reserves: with `include_workspace` set, the per-sample
//! slope grows by exactly the padded-input copies the conv layers keep in
//! their lowering slot plus the hand-off buffers their chains pass
//! activations through.

use nf_memsim::MemoryModel;
use nf_models::{assign_aux, build_aux_head, AuxPolicy, ModelSpec};
use nf_nn::{Layer, Mode};
use nf_tensor::{lock_workspace, shared_workspace, Tensor};
use rand::SeedableRng;

#[test]
fn workspace_term_is_the_padded_input_the_layers_reserve() {
    let (hw, batch) = (12usize, 5usize);
    let spec = ModelSpec::tiny("ws", hw, &[6, 8], 3);
    let aux_specs = assign_aux(&spec, AuxPolicy::Fixed(4));
    let analytics = spec.analyze();
    let (a, aux) = (&analytics[0], &aux_specs[0]);

    let slope = |include_workspace| {
        let model = MemoryModel {
            include_workspace,
            ..MemoryModel::default()
        };
        model.ll_unit_activation_bytes_per_sample(&spec, a, aux)
    };
    let modelled = (slope(true) - slope(false)) as u64 * batch as u64;

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

    // A forward pass fills, per arena: the padded input, the two hand-off
    // buffers between the chain's layers (both modelled), and the conv's
    // position-row GEMM output (pre-pool for the unit; `filters` wide for
    // the head), which lives and dies inside one layer call.
    let conv_out = 6 * hw * hw + aux.filters * aux.in_hw.0 * aux.in_hw.1;
    let reserved =
        lock_workspace(&ws_unit).reserved_bytes() + lock_workspace(&ws_head).reserved_bytes();
    assert_eq!(reserved - (conv_out * batch * 4) as u64, modelled);
    // The hand-off pair is two more of those conv outputs; the padded
    // inputs are a ninth of what the explicit patch matrix took for these
    // 3×3 convs, up to the padding rim.
    let padded = modelled - (2 * conv_out * batch * 4) as u64;
    let im2col = (3 * hw * hw + aux.in_ch * aux.in_hw.0 * aux.in_hw.1) * 9 * batch * 4;
    assert!(padded * 5 < im2col as u64);
}
