//! Max and average pooling over NCHW tensors, with exact backward passes.

use crate::conv::Conv2dGeometry;
use crate::error::TensorError;
use crate::tensor::Tensor;
use crate::Result;

fn check_nchw(op: &'static str, x: &Tensor, geom: &Conv2dGeometry) -> Result<(usize, usize)> {
    let (n, c, h, w) = x.dims4().map_err(|_| TensorError::RankMismatch {
        op,
        expected: 4,
        actual: x.rank(),
    })?;
    if h != geom.in_h || w != geom.in_w {
        return Err(TensorError::shape_mismatch(
            op,
            x.shape(),
            &[n, c, geom.in_h, geom.in_w],
        ));
    }
    Ok((n, c))
}

/// Validates a pooling output gradient against `geom` and returns `(n, c)`.
fn check_grad(
    op: &'static str,
    grad_out: &Tensor,
    geom: &Conv2dGeometry,
) -> Result<(usize, usize)> {
    let (n, c, oh, ow) = grad_out.dims4()?;
    if oh != geom.out_h || ow != geom.out_w {
        return Err(TensorError::shape_mismatch(
            op,
            grad_out.shape(),
            &[n, c, geom.out_h, geom.out_w],
        ));
    }
    Ok((n, c))
}

/// Max pooling; returns the pooled tensor and, for every output element,
/// the **window-local code** of the input element that won the max
/// (`ky · k_w + kx`, one byte — needed by the backward pass).
///
/// Padding positions are treated as `-inf`, so a window fully inside padding
/// never wins. Ties go to the first element in `(ky, kx)` order that is
/// strictly greater than everything before it. A window holding nothing
/// greater than `-inf` (all NaN or `-inf`) yields `-inf` and is attributed
/// to its first in-bounds element.
pub fn max_pool2d(x: &Tensor, geom: &Conv2dGeometry) -> Result<(Tensor, Vec<u8>)> {
    let (mut out, mut codes) = (Tensor::default(), Vec::new());
    max_pool2d_into(x, geom, &mut out, &mut codes)?;
    Ok((out, codes))
}

/// [`max_pool2d`] writing into caller-provided buffers (grow-only; every
/// element of both is overwritten).
///
/// The unpadded 2×2 / stride-2 window — every pooling layer in this
/// workspace — takes a branch-free path over row pairs that the compiler
/// vectorises; any other geometry runs the general per-output loop, which
/// is also the fast path's test oracle.
pub fn max_pool2d_into(
    x: &Tensor,
    geom: &Conv2dGeometry,
    out: &mut Tensor,
    codes: &mut Vec<u8>,
) -> Result<()> {
    let (n, c) = check_nchw("max_pool2d", x, geom)?;
    if geom.k_h * geom.k_w > usize::from(u8::MAX) + 1 {
        return Err(TensorError::InvalidGeometry(format!(
            "max_pool2d window {}x{} does not fit one-byte codes",
            geom.k_h, geom.k_w
        )));
    }
    let out_plane = geom.out_positions();
    out.reuse_as(&[n, c, geom.out_h, geom.out_w]);
    codes.resize(n * c * out_plane, 0);
    if geom.in_h * geom.in_w == 0 {
        // Nothing but padding to pool over.
        out.data_mut().fill(f32::NEG_INFINITY);
        codes.fill(0);
        return Ok(());
    }
    let planes = x.data().chunks_exact(geom.in_h * geom.in_w);
    let outs = out.data_mut().chunks_exact_mut(out_plane);
    let plane_codes = codes.chunks_exact_mut(out_plane);
    for ((src, dst), code) in planes.zip(outs).zip(plane_codes) {
        if is_unpadded_2x2(geom) {
            max_pool_plane_2x2(src, geom, dst, code);
        } else {
            max_pool_plane_general(src, geom, dst, code);
        }
    }
    Ok(())
}

/// Whether `g` is the unpadded, non-overlapping 2×2 window the fast paths
/// are written for.
fn is_unpadded_2x2(g: &Conv2dGeometry) -> bool {
    (g.k_h, g.k_w, g.stride, g.pad) == (2, 2, 2, 0)
}

/// One plane of [`max_pool2d_into`] for the unpadded 2×2 / stride-2
/// window: two input rows per output row, one literal pair from each per
/// output, no bounds branch. Taps in `(ky, kx)` order under a strict `>`
/// — the general loop's tie-break exactly. A trailing odd row or column
/// belongs to no window and is never read.
fn max_pool_plane_2x2(src: &[f32], g: &Conv2dGeometry, dst: &mut [f32], codes: &mut [u8]) {
    let outs = dst
        .chunks_exact_mut(g.out_w)
        .zip(codes.chunks_exact_mut(g.out_w));
    for ((best_row, code_row), rows) in outs.zip(src.chunks_exact(2 * g.in_w)) {
        let (top, bottom) = rows.split_at(g.in_w);
        let windows = top.chunks_exact(2).zip(bottom.chunks_exact(2));
        for ((b, c), (t, u)) in best_row.iter_mut().zip(code_row.iter_mut()).zip(windows) {
            let mut best = f32::NEG_INFINITY;
            let mut code = 0u8;
            for (tap, &v) in [t[0], t[1], u[0], u[1]].iter().enumerate() {
                if v > best {
                    best = v;
                    code = tap as u8;
                }
            }
            *b = best;
            *c = code;
        }
    }
}

/// One plane of [`max_pool2d_into`] for any geometry: per output, the
/// window's in-bounds taps in `(ky, kx)` order.
fn max_pool_plane_general(src: &[f32], g: &Conv2dGeometry, dst: &mut [f32], codes: &mut [u8]) {
    for oy in 0..g.out_h {
        for ox in 0..g.out_w {
            let mut best = f32::NEG_INFINITY;
            let mut code = None;
            for ky in 0..g.k_h {
                let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                if iy < 0 || iy >= g.in_h as isize {
                    continue;
                }
                for kx in 0..g.k_w {
                    let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                    if ix < 0 || ix >= g.in_w as isize {
                        continue;
                    }
                    let v = src[iy as usize * g.in_w + ix as usize];
                    let tap = (ky * g.k_w + kx) as u8;
                    code.get_or_insert(tap);
                    if v > best {
                        best = v;
                        code = Some(tap);
                    }
                }
            }
            dst[oy * g.out_w + ox] = best;
            // A window wholly inside padding has no element to name; the
            // backward pass drops its (out-of-bounds) code 0.
            codes[oy * g.out_w + ox] = code.unwrap_or(0);
        }
    }
}

/// Backward pass of [`max_pool2d`]: routes each output gradient to the input
/// element its window-local code names.
pub fn max_pool2d_backward(
    grad_out: &Tensor,
    codes: &[u8],
    geom: &Conv2dGeometry,
) -> Result<Tensor> {
    let mut grad_in = Tensor::default();
    max_pool2d_backward_into(grad_out, codes, geom, &mut grad_in)?;
    Ok(grad_in)
}

/// [`max_pool2d_backward`] writing into a caller-provided buffer
/// (grow-only), zeroed first: only the winning elements are written.
pub fn max_pool2d_backward_into(
    grad_out: &Tensor,
    codes: &[u8],
    geom: &Conv2dGeometry,
    grad_in: &mut Tensor,
) -> Result<()> {
    let (n, c) = check_grad("max_pool2d_backward", grad_out, geom)?;
    if grad_out.numel() != codes.len() {
        return Err(TensorError::ShapeDataMismatch {
            expected: grad_out.numel(),
            actual: codes.len(),
        });
    }
    grad_in.reuse_zeroed(&[n, c, geom.in_h, geom.in_w]);
    let (out_plane, g) = (geom.out_positions(), geom);
    if grad_in.numel() == 0 {
        return Ok(());
    }
    let planes = grad_in.data_mut().chunks_exact_mut(g.in_h * g.in_w);
    let grads = grad_out.data().chunks_exact(out_plane);
    for ((gi, go), code) in planes.zip(grads).zip(codes.chunks_exact(out_plane)) {
        if is_unpadded_2x2(g) {
            max_pool_backward_plane_2x2(go, code, g, gi);
        } else {
            max_pool_backward_plane_general(go, code, g, gi);
        }
    }
    Ok(())
}

/// One plane of [`max_pool2d_backward_into`] for the unpadded 2×2 /
/// stride-2 window: windows do not overlap, so each gradient is stored —
/// not accumulated — at an offset that is pure arithmetic on its code.
fn max_pool_backward_plane_2x2(go: &[f32], codes: &[u8], g: &Conv2dGeometry, gi: &mut [f32]) {
    let outs = go.chunks_exact(g.out_w).zip(codes.chunks_exact(g.out_w));
    for ((go_row, code_row), rows) in outs.zip(gi.chunks_exact_mut(2 * g.in_w)) {
        for (ox, (&dy, &code)) in go_row.iter().zip(code_row).enumerate() {
            let tap = usize::from(code & 3);
            rows[(tap >> 1) * g.in_w + 2 * ox + (tap & 1)] = dy;
        }
    }
}

/// One plane of [`max_pool2d_backward_into`] for any geometry.
fn max_pool_backward_plane_general(go: &[f32], codes: &[u8], g: &Conv2dGeometry, gi: &mut [f32]) {
    let rows = go.chunks_exact(g.out_w).zip(codes.chunks_exact(g.out_w));
    for (oy, (go_row, code_row)) in rows.enumerate() {
        for (ox, (&dy, &code)) in go_row.iter().zip(code_row).enumerate() {
            let (ky, kx) = (usize::from(code) / g.k_w, usize::from(code) % g.k_w);
            // A window can name padding only when it held no input element
            // at all (or the code is foreign): nothing to route.
            let (iy, ix) = (oy * g.stride + ky, ox * g.stride + kx);
            if iy < g.pad || ix < g.pad || iy - g.pad >= g.in_h || ix - g.pad >= g.in_w {
                continue;
            }
            gi[(iy - g.pad) * g.in_w + ix - g.pad] += dy;
        }
    }
}

/// Average pooling over the window defined by `geom`.
///
/// The divisor is the full window size `k_h * k_w` (PyTorch's
/// `count_include_pad=True` semantics), which keeps the backward pass an
/// exact adjoint.
pub fn avg_pool2d(x: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor> {
    let mut out = Tensor::default();
    avg_pool2d_into(x, geom, &mut out)?;
    Ok(out)
}

/// [`avg_pool2d`] writing into a caller-provided buffer (grow-only; every
/// element is overwritten).
pub fn avg_pool2d_into(x: &Tensor, geom: &Conv2dGeometry, out: &mut Tensor) -> Result<()> {
    let (n, c) = check_nchw("avg_pool2d", x, geom)?;
    let (oh, ow) = (geom.out_h, geom.out_w);
    out.reuse_as(&[n, c, oh, ow]);
    let out = out.data_mut();
    let src = x.data();
    let plane = geom.in_h * geom.in_w;
    let inv = 1.0 / (geom.k_h * geom.k_w) as f32;
    for img in 0..n {
        for ch in 0..c {
            let base = (img * c + ch) * plane;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ky in 0..geom.k_h {
                        let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                        if iy < 0 || iy >= geom.in_h as isize {
                            continue;
                        }
                        for kx in 0..geom.k_w {
                            let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                            if ix < 0 || ix >= geom.in_w as isize {
                                continue;
                            }
                            acc += src[base + iy as usize * geom.in_w + ix as usize];
                        }
                    }
                    out[((img * c + ch) * oh + oy) * ow + ox] = acc * inv;
                }
            }
        }
    }
    Ok(())
}

/// Backward pass of [`avg_pool2d`]: spreads each output gradient uniformly
/// over its window. `input_shape` must be the `(n, c, in_h, in_w)` that
/// `grad_out` and `geom` imply.
pub fn avg_pool2d_backward(
    grad_out: &Tensor,
    geom: &Conv2dGeometry,
    input_shape: &[usize],
) -> Result<Tensor> {
    let mut grad_in = Tensor::default();
    avg_pool2d_backward_into(grad_out, geom, &mut grad_in)?;
    if grad_in.shape() != input_shape {
        return Err(TensorError::shape_mismatch(
            "avg_pool2d_backward",
            grad_in.shape(),
            input_shape,
        ));
    }
    Ok(grad_in)
}

/// [`avg_pool2d_backward`] writing into a caller-provided buffer
/// (grow-only), zeroed first: overlapping windows accumulate.
pub fn avg_pool2d_backward_into(
    grad_out: &Tensor,
    geom: &Conv2dGeometry,
    grad_in: &mut Tensor,
) -> Result<()> {
    let (n, c) = check_grad("avg_pool2d_backward", grad_out, geom)?;
    let (oh, ow) = (geom.out_h, geom.out_w);
    grad_in.reuse_zeroed(&[n, c, geom.in_h, geom.in_w]);
    let gi = grad_in.data_mut();
    let go = grad_out.data();
    let plane = geom.in_h * geom.in_w;
    let inv = 1.0 / (geom.k_h * geom.k_w) as f32;
    for img in 0..n {
        for ch in 0..c {
            let base = (img * c + ch) * plane;
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = go[((img * c + ch) * oh + oy) * ow + ox] * inv;
                    for ky in 0..geom.k_h {
                        let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                        if iy < 0 || iy >= geom.in_h as isize {
                            continue;
                        }
                        for kx in 0..geom.k_w {
                            let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                            if ix < 0 || ix >= geom.in_w as isize {
                                continue;
                            }
                            gi[base + iy as usize * geom.in_w + ix as usize] += g;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_known_values() {
        let x = Tensor::from_vec(
            vec![1, 1, 4, 4],
            vec![
                1., 2., 3., 4., //
                5., 6., 7., 8., //
                9., 10., 11., 12., //
                13., 14., 15., 16.,
            ],
        )
        .unwrap();
        let g = Conv2dGeometry::new(4, 4, 2, 2, 2, 0).unwrap();
        let (out, arg) = max_pool2d(&x, &g).unwrap();
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[6., 8., 14., 16.]);
        // Every window's max is its bottom-right element.
        assert_eq!(arg, vec![3, 3, 3, 3]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 9., 3., 4.]).unwrap();
        let g = Conv2dGeometry::new(2, 2, 2, 2, 2, 0).unwrap();
        let (_, arg) = max_pool2d(&x, &g).unwrap();
        let go = Tensor::from_vec(vec![1, 1, 1, 1], vec![2.5]).unwrap();
        let gi = max_pool2d_backward(&go, &arg, &g).unwrap();
        assert_eq!(gi.shape(), x.shape());
        assert_eq!(gi.data(), &[0., 2.5, 0., 0.]);
    }

    /// `max_pool2d_into` with every plane forced through the general loop.
    fn max_pool_oracle(x: &Tensor, g: &Conv2dGeometry) -> (Tensor, Vec<u8>) {
        let (n, c, _, _) = x.dims4().unwrap();
        let mut out = Tensor::zeros(&[n, c, g.out_h, g.out_w]);
        let mut codes = vec![0u8; out.numel()];
        let planes = x.data().chunks_exact(g.in_h * g.in_w);
        let outs = out.data_mut().chunks_exact_mut(g.out_positions());
        for ((src, dst), code) in planes
            .zip(outs)
            .zip(codes.chunks_exact_mut(g.out_positions()))
        {
            max_pool_plane_general(src, g, dst, code);
        }
        (out, codes)
    }

    #[test]
    fn fast_path_matches_the_general_loop_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        // (h, w, k, stride): the 2×2/2 fast path on even, odd and tiny
        // planes; the rest check the dispatch leaves other windows alone.
        for (h, w, k, stride) in [
            (32, 32, 2, 2),
            (7, 9, 2, 2),
            (2, 2, 2, 2),
            (3, 2, 2, 2),
            (1, 1, 1, 1),
            (9, 7, 3, 2),
            (5, 6, 2, 1),
            (4, 4, 4, 4),
        ] {
            let g = Conv2dGeometry::new(h, w, k, k, stride, 0).unwrap();
            for n in [1usize, 3] {
                // Coarse values so ties are common; NaN and -inf sprinkled in.
                let data = (0..n * 2 * h * w)
                    .map(|_| match rng.gen_range(0..12) {
                        0 => f32::NAN,
                        1 => f32::NEG_INFINITY,
                        v => (v % 4) as f32 - 1.5,
                    })
                    .collect();
                let x = Tensor::from_vec(vec![n, 2, h, w], data).unwrap();
                let (want, want_codes) = max_pool_oracle(&x, &g);
                // Stale contents in oversized buffers must not leak through.
                let mut got = Tensor::full(&[n * 2 * h * w + 5], f32::NAN);
                let mut codes = vec![0xAAu8; n * 2 * h * w + 5];
                max_pool2d_into(&x, &g, &mut got, &mut codes).unwrap();
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(got.shape(), want.shape());
                assert_eq!(bits(&got), bits(&want), "{h}x{w} k{k} s{stride}");
                assert_eq!(codes, want_codes, "{h}x{w} k{k} s{stride}");
                // Backward the same way: dispatched ≡ general, into a
                // stale oversized buffer.
                let go = Tensor::from_vec(
                    want.shape().to_vec(),
                    (0..want.numel())
                        .map(|_| rng.gen_range(-1.0..1.0))
                        .collect(),
                )
                .unwrap();
                let mut want_gi = Tensor::zeros(x.shape());
                let planes = want_gi.data_mut().chunks_exact_mut(h * w);
                let grads = go.data().chunks_exact(g.out_positions());
                for ((gi, dy), code) in planes
                    .zip(grads)
                    .zip(want_codes.chunks_exact(g.out_positions()))
                {
                    max_pool_backward_plane_general(dy, code, &g, gi);
                }
                max_pool2d_backward_into(&go, &codes, &g, &mut got).unwrap();
                assert_eq!(got, want_gi, "{h}x{w} k{k} s{stride}");
            }
        }
    }

    #[test]
    fn window_without_a_maximum_goes_to_its_first_element() {
        // Second window holds only NaN / -inf: value -inf, gradient to the
        // window's first element — not to element 0 of the plane.
        let x = Tensor::from_vec(
            vec![1, 1, 2, 4],
            vec![
                1.,
                2.,
                f32::NAN,
                f32::NEG_INFINITY,
                3.,
                0.,
                f32::NAN,
                f32::NAN,
            ],
        )
        .unwrap();
        let g = Conv2dGeometry::new(2, 4, 2, 2, 2, 0).unwrap();
        let (out, codes) = max_pool2d(&x, &g).unwrap();
        assert_eq!(out.data(), &[3.0, f32::NEG_INFINITY]);
        assert_eq!(codes, vec![2, 0]);
        let go = Tensor::from_vec(vec![1, 1, 1, 2], vec![1.0, 5.0]).unwrap();
        let gi = max_pool2d_backward(&go, &codes, &g).unwrap();
        assert_eq!(gi.data(), &[0., 0., 5., 0., 1., 0., 0., 0.]);
        // Same attribution from the padded loop: the first *in-bounds* tap.
        let gp = Conv2dGeometry::new(2, 4, 2, 2, 2, 1).unwrap();
        let nan = Tensor::full(&[1, 1, 2, 4], f32::NAN);
        let (_, codes) = max_pool2d(&nan, &gp).unwrap();
        // Top-left window covers padding except its bottom-right tap.
        assert_eq!(codes[0], 3);
    }

    #[test]
    fn padded_backward_reuses_and_zeroes_its_buffer() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        // pad ≥ k: the corner windows lie wholly in padding and own nothing.
        for (k, stride, pad) in [(3, 2, 1), (2, 1, 1), (2, 2, 2)] {
            let g = Conv2dGeometry::new(5, 6, k, k, stride, pad).unwrap();
            let x = Tensor::from_vec(
                vec![2, 2, 5, 6],
                (0..120).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            )
            .unwrap();
            let (y, codes) = max_pool2d(&x, &g).unwrap();
            let go = Tensor::ones(y.shape());
            let want = max_pool2d_backward(&go, &codes, &g).unwrap();
            // Each in-bounds window routed exactly one unit of gradient.
            let owned = y.data().iter().filter(|v| v.is_finite()).count();
            assert_eq!(want.data().iter().sum::<f32>(), owned as f32);
            let mut again = Tensor::full(&[500], f32::NAN);
            max_pool2d_backward_into(&go, &codes, &g, &mut again).unwrap();
            assert_eq!(again, want);
        }
    }

    #[test]
    fn avg_pool_known_values() {
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 2., 3., 4.]).unwrap();
        let g = Conv2dGeometry::new(2, 2, 2, 2, 2, 0).unwrap();
        let out = avg_pool2d(&x, &g).unwrap();
        assert_eq!(out.data(), &[2.5]);
    }

    #[test]
    fn avg_pool_backward_is_adjoint() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let g = Conv2dGeometry::new(6, 6, 3, 3, 2, 1).unwrap();
        let x = Tensor::from_vec(
            vec![2, 3, 6, 6],
            (0..2 * 3 * 36).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
        .unwrap();
        let y = avg_pool2d(&x, &g).unwrap();
        let gy = Tensor::from_vec(
            y.shape().to_vec(),
            (0..y.numel()).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
        .unwrap();
        let gx = avg_pool2d_backward(&gy, &g, x.shape()).unwrap();
        let lhs: f32 = y.data().iter().zip(gy.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(gx.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn pooling_rejects_bad_shapes() {
        let g = Conv2dGeometry::new(4, 4, 2, 2, 2, 0).unwrap();
        let bad_rank = Tensor::zeros(&[4, 4]);
        assert!(max_pool2d(&bad_rank, &g).is_err());
        assert!(avg_pool2d(&bad_rank, &g).is_err());
        let wrong_hw = Tensor::zeros(&[1, 1, 3, 3]);
        assert!(max_pool2d(&wrong_hw, &g).is_err());
        let go = Tensor::zeros(&[1, 1, 3, 3]);
        assert!(avg_pool2d_backward(&go, &g, &[1, 1, 4, 4]).is_err());
        assert!(max_pool2d_backward(&go, &[0; 9], &g).is_err());
        let go = Tensor::zeros(&[1, 1, 2, 2]);
        assert!(max_pool2d_backward(&go, &[0; 3], &g).is_err());
        // An empty plane under padding pools to -inf and owns no gradient.
        let pad_only = Conv2dGeometry::new(0, 0, 2, 2, 1, 1).unwrap();
        let (y, codes) = max_pool2d(&Tensor::zeros(&[1, 2, 0, 0]), &pad_only).unwrap();
        assert_eq!(y.data(), &[f32::NEG_INFINITY; 2]);
        let gi = max_pool2d_backward(&Tensor::ones(&[1, 2, 1, 1]), &codes, &pad_only).unwrap();
        assert_eq!(gi.shape(), &[1, 2, 0, 0]);
        // Windows too large for a one-byte code are refused, not truncated.
        let huge = Conv2dGeometry::new(20, 20, 17, 17, 1, 0).unwrap();
        assert!(max_pool2d(&Tensor::zeros(&[1, 1, 20, 20]), &huge).is_err());
    }
}
