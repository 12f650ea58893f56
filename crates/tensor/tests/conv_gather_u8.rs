//! The gathered int8 conv lowering against its oracle, the explicit one.
//!
//! `ConvGather::forward_quant_into` multiplies a `u8` patch matrix it
//! never builds — quads of four bytes read in place from the input padded
//! once with its zero-point byte, against a weight panel packed one quad
//! per kernel row; `im2col_batch_u8_into` builds the matrix and
//! `gemm_i32` multiplies it densely. Accumulation is exact `i32`, so the
//! two must agree **bit for bit** on every geometry, every tile (full,
//! both masked widths, the `M % 4` scalar rows) and every encoding — the
//! bytes the zero-weight quad padding meets (a neighbouring pixel, the
//! next row, the slack behind the buffer) must never show.

use nf_tensor::kernels::int8::{self, QuantizedLhs, QuantizedRhs};
use nf_tensor::kernels::GatherQuads;
use nf_tensor::{
    im2col_batch_u8_into, pad_nchw_u8_into, posrows_to_nchw, Conv2dGeometry, ConvGather,
    QuantTensor, Tensor, TensorError,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Affine encodings `(min, scale)` whose zero point is mid-range (128),
/// clamped low (0), clamped high (255), and the degenerate constant
/// encoding (`scale = 0`, pad byte 0 standing for `min`).
const ENCODINGS: [(f32, f32); 4] = [(-1.0, 1.0 / 128.0), (5.0, 0.1), (-100.0, 0.1), (2.5, 0.0)];

fn quant_input(shape: &[usize], (min, scale): (f32, f32), seed: u64) -> QuantTensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut q = QuantTensor::new();
    for b in q.reuse_as(shape, scale, min) {
        *b = rng.gen_range(0..=255u8);
    }
    q
}

/// A `(c·k·k) × c_out` f32 kernel panel.
fn panel(k: usize, c_out: usize, seed: u64) -> Vec<f32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..k * c_out).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// The oracle: build the patch matrix, multiply it densely.
fn explicit(x: &QuantTensor, geom: &Conv2dGeometry, wt: &[f32], c_out: usize) -> Vec<i32> {
    let pad_byte = int8::zero_point(x.min(), x.scale());
    let mut lhs = QuantizedLhs::default();
    im2col_batch_u8_into(x, geom, pad_byte, &mut lhs).unwrap();
    let mut rhs = QuantizedRhs::default();
    rhs.pack_from_f32(wt, lhs.k, c_out);
    let mut acc = Vec::new();
    int8::gemm_i32(&lhs, &rhs, &mut acc);
    acc
}

/// One conv problem checked through a (possibly warm) table cache: the
/// accumulators against the explicit lowering's, and the dequantized NCHW
/// output against `dequantize_into` over them and the transposing pass.
fn check(lowering: &mut ConvGather, n: usize, c: usize, c_out: usize, geom: &Conv2dGeometry) {
    let seed = (n * 7 + c * 5 + c_out * 3 + geom.in_h + geom.in_w) as u64;
    let k = c * geom.k_h * geom.k_w;
    let wt = panel(k, c_out, seed + 1);
    let bias = panel(1, c_out, seed + 2);
    let mut rhs = QuantizedRhs::default();
    rhs.pack_runs_from_f32(&wt, k, c_out, geom.k_w);
    // Stale scratch from a larger problem must not leak into a smaller one.
    let (mut padded, mut acc, mut group) = (vec![0xAB; 7], vec![-1; 5], vec![-1; 3]);
    let mut nchw = Tensor::from_vec(vec![1, 2], vec![f32::NAN; 2]).unwrap();
    for (e, &encoding) in ENCODINGS.iter().enumerate() {
        let x = quant_input(&[n, c, geom.in_h, geom.in_w], encoding, seed + e as u64);
        let rows = lowering
            .forward_quant_into(&x, geom, &rhs, &mut padded, &mut acc)
            .unwrap();
        assert_eq!(rows, n * geom.out_positions());
        assert_eq!(
            acc,
            explicit(&x, geom, &wt, c_out),
            "n {n} c {c} c_out {c_out} {geom:?} encoding {encoding:?}"
        );
        lowering
            .forward_quant_nchw_into(&x, geom, &rhs, &bias, &mut padded, &mut group, &mut nchw)
            .unwrap();
        let mut y = Tensor::zeros(&[rows, c_out]);
        let (scale, min) = (x.scale(), x.min());
        int8::dequantize_into(
            scale,
            min,
            &rhs,
            &acc,
            Some(&bias),
            &mut Vec::new(),
            y.data_mut(),
        );
        let want = posrows_to_nchw(&y, n, c_out, geom.out_h, geom.out_w).unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(nchw.shape(), want.shape());
        assert_eq!(
            bits(&nchw),
            bits(&want),
            "NCHW n {n} c_out {c_out} {geom:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The geometry grid of `conv_gather.rs`: kernel 1/2/3/5 (one quad per
    /// kernel row padded by 3/2/1 zero weights, two quads for 5), stride
    /// 1/2, pad 0–2 (pad 0 still copies: the slack), odd H≠W, batch 1–5,
    /// and `c_out` 1–40 so full 16-column tiles, both masked widths and
    /// the `M % 4` scalar rows are all hit; each case then runs a smaller
    /// batch through the same cached tables (the prefix path).
    #[test]
    fn gather_matches_explicit_lowering(
        k in 0usize..4,
        stride in 1usize..3,
        pad in 0usize..3,
        h in 3usize..10,
        dw in 1usize..4,
        n in 1usize..6,
        c in 1usize..5,
        c_out in 1usize..41,
    ) {
        let k = [1usize, 2, 3, 5][k];
        let w = h + dw;
        prop_assume!(k <= h + 2 * pad);
        let geom = Conv2dGeometry::new(h, w, k, k, stride, pad).unwrap();
        let mut lowering = ConvGather::new();
        check(&mut lowering, n, c, c_out, &geom);
        check(&mut lowering, 1, c, c_out, &geom);
    }
}

#[test]
fn tables_follow_batch_and_geometry_changes() {
    // One cache driven through a batch that shrinks then grows past its
    // old size (prefix reuse, then extension) and through channel, size,
    // kernel, stride and pad changes (rebuild, not stale offsets) — shared
    // with the f32 products, which use the same position table.
    let mut lowering = ConvGather::new();
    for (n, c, h, k, stride, pad) in [
        (3, 3, 6, 3, 1, 1),
        (1, 3, 6, 3, 1, 1),
        (5, 3, 6, 3, 1, 1),
        (2, 2, 6, 3, 1, 1),
        (2, 2, 7, 3, 2, 1),
        (2, 2, 7, 5, 1, 2),
        (2, 2, 7, 1, 1, 0),
    ] {
        let geom = Conv2dGeometry::new(h, h + 1, k, k, stride, pad).unwrap();
        check(&mut lowering, n, c, 12, &geom);
    }
}

/// The tables `ConvGather` builds, written out independently:
/// `(n, oy, ox)` window origins and the `kw = 0, 4, …` tap of every
/// `(c, kh)` kernel row in the padded `n × c × hp × wp` buffer.
fn tables(n: usize, c: usize, geom: &Conv2dGeometry) -> (Vec<u32>, Vec<u32>) {
    let (hp, wp) = (geom.in_h + 2 * geom.pad, geom.in_w + 2 * geom.pad);
    let mut pos = Vec::new();
    for img in 0..n {
        for oy in 0..geom.out_h {
            for ox in 0..geom.out_w {
                pos.push((img * c * hp * wp + (oy * wp + ox) * geom.stride) as u32);
            }
        }
    }
    let mut quads = Vec::new();
    for ch in 0..c {
        for kh in 0..geom.k_h {
            for kw in (0..geom.k_w).step_by(4) {
                quads.push(((ch * hp + kh) * wp + kw) as u32);
            }
        }
    }
    (pos, quads)
}

#[test]
fn slack_is_required_and_its_content_is_not() {
    // 3×3 and 5×5 kernels need 1 and 3 bytes behind the padded image for
    // the quad of the last window of the last row; a 1×1 kernel at pad 0
    // needs 3 behind the unpadded one.
    for (k, pad, slack) in [(3usize, 1usize, 1usize), (5, 2, 3), (1, 0, 3)] {
        let (n, c, c_out, h, w) = (2usize, 3usize, 12usize, 5usize, 6usize);
        let geom = Conv2dGeometry::new(h, w, k, k, 1, pad).unwrap();
        let x = quant_input(&[n, c, h, w], ENCODINGS[0], 11 + k as u64);
        let pad_byte = int8::zero_point(x.min(), x.scale());
        let wt = panel(c * k * k, c_out, 5);
        let mut rhs = QuantizedRhs::default();
        rhs.pack_runs_from_f32(&wt, c * k * k, c_out, k);
        let (pos, quads) = tables(n, c, &geom);
        let mut padded = Vec::new();
        pad_nchw_u8_into(&x, pad, pad_byte, slack, &mut padded).unwrap();
        let image = n * c * (h + 2 * pad) * (w + 2 * pad);
        assert_eq!(padded.len(), image + slack);

        // One byte of slack short: a typed error, not a read past the end.
        let err = GatherQuads::new(&padded[..image + slack - 1], &pos, &quads).unwrap_err();
        assert_eq!(
            err,
            TensorError::OffsetOutOfBounds {
                reach: (image + slack - 1) as u64,
                len: image + slack - 1
            },
            "kernel {k}"
        );

        // Exactly enough: equals the oracle, whatever the slack holds —
        // and with guard bytes behind the slice the product must not see.
        let want = explicit(&x, &geom, &wt, c_out);
        let mut acc = Vec::new();
        for poison in [pad_byte, 0xFF] {
            padded[image..].fill(poison);
            padded.extend([0xFF; 16]);
            let a = GatherQuads::new(&padded[..image + slack], &pos, &quads).unwrap();
            int8::gemm_i32_gather(&a, &rhs, &mut acc);
            assert_eq!(acc, want, "kernel {k} slack {poison:#x}");
            padded.truncate(image + slack);
        }
    }
}

#[test]
fn shape_errors_are_typed() {
    let geom = Conv2dGeometry::new(4, 4, 3, 3, 1, 1).unwrap();
    let (mut padded, mut acc) = (Vec::new(), Vec::new());
    let mut lowering = ConvGather::new();
    let wt = panel(18, 4, 1);
    let mut rhs = QuantizedRhs::default();
    rhs.pack_runs_from_f32(&wt, 18, 4, 3);
    // Wrong spatial size, wrong rank, wrong channel count for the panel.
    for shape in [&[1, 2, 5, 4][..], &[2, 4, 4], &[1, 3, 4, 4]] {
        let x = quant_input(shape, ENCODINGS[0], 2);
        assert!(lowering
            .forward_quant_into(&x, &geom, &rhs, &mut padded, &mut acc)
            .is_err());
    }
    // A densely packed panel has the right K but the wrong quad layout.
    let x = quant_input(&[1, 2, 4, 4], ENCODINGS[0], 3);
    rhs.pack_from_f32(&wt, 18, 4);
    assert!(matches!(
        lowering.forward_quant_into(&x, &geom, &rhs, &mut padded, &mut acc),
        Err(TensorError::ShapeMismatch { .. })
    ));
    rhs.pack_runs_from_f32(&wt, 18, 4, 3);
    assert_eq!(
        lowering.forward_quant_into(&x, &geom, &rhs, &mut padded, &mut acc),
        Ok(16)
    );
}
