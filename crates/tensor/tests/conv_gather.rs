//! The gathered conv lowering against its oracle, the explicit one.
//!
//! `ConvGather` multiplies a patch matrix it never builds and writes the
//! product as NCHW; `im2col_batch` builds the matrix and
//! `posrows_to_nchw_into` permutes a row-major product (adding the bias).
//! On the blocked backend the two must agree **bit for bit** for the
//! forward pass and the weight gradient (same `K` order, same `KC` split,
//! padding taps multiplying a stored `0.0` either way, the bias added to
//! the finished sum either way); the naive backend materialises the
//! gathered operand, so there the two are the same lowering up to the
//! kernels' tolerance. The input gradient changes summation order (a
//! gather where `col2im` scatter-adds) and is held to 1e-5 relative. The
//! weight gradient on the positions axis has an order of its own: it is
//! held to a scalar spelling of that order bit for bit on every tile, and
//! to the explicit lowering to 1e-4.

use nf_tensor::kernels::{Dest, GatherA};
use nf_tensor::{
    col2im_batch, flip_kernel_panel_into, im2col_batch, matmul_at_b_with, matmul_with,
    nchw_to_posrows, pad_nchw_into, posrows_to_nchw_into, sum_axis0, transpose2d, Conv2dGeometry,
    ConvGather, KernelBackend, Tensor,
};
use proptest::prelude::*;

fn random(shape: &[usize], seed: u64) -> Tensor {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n: usize = shape.iter().product();
    Tensor::from_vec(
        shape.to_vec(),
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
    .unwrap()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn assert_close(got: &Tensor, want: &Tensor, tol: f32, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    let scale = want.data().iter().fold(1.0f32, |m, v| m.max(v.abs()));
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert!(
            (g - w).abs() <= tol * scale,
            "{what}[{i}]: {g} vs {w} (scale {scale})"
        );
    }
}

/// One conv problem: input, weights `(c_out, c·k·k)`, output gradient.
struct Case {
    x: Tensor,
    weight: Tensor,
    grad_out: Tensor,
    geom: Conv2dGeometry,
    c_in: usize,
}

impl Case {
    fn new(n: usize, c: usize, c_out: usize, h: usize, w: usize, geom: Conv2dGeometry) -> Case {
        let seed = (n * 7 + c * 5 + c_out * 3 + h + w) as u64;
        Case {
            x: random(&[n, c, h, w], seed),
            weight: random(&[c_out, c * geom.k_h * geom.k_w], seed + 1),
            grad_out: random(&[n, c_out, geom.out_h, geom.out_w], seed + 2),
            geom,
            c_in: c,
        }
    }

    fn check(&self, lowering: &mut ConvGather, dlowering: &mut ConvGather) {
        let Case {
            x,
            weight,
            grad_out,
            geom,
            c_in,
        } = self;
        let n = x.shape()[0];
        let c_out = weight.shape()[0];
        let cols = im2col_batch(x, geom).unwrap();
        let wt = transpose2d(weight).unwrap();
        let g_rows = nchw_to_posrows(grad_out).unwrap();
        let bias: Vec<f32> = (0..c_out).map(|j| 0.3 - 0.11 * j as f32).collect();
        let (mut pad, mut pack, mut out) = (Tensor::default(), Vec::new(), Tensor::default());
        let mut want = Tensor::default();
        // Every product reads its operand padded once, by the caller.
        pad_nchw_into(x, geom.pad, &mut pad).unwrap();

        for (backend, exact) in [
            (KernelBackend::Blocked, true),
            (KernelBackend::Naive, false),
        ] {
            let what = backend.name();
            // Forward, with and without a bias, into a poisoned buffer.
            for bias in [Some(&bias[..]), None] {
                out.reuse_as(&[n * c_out * geom.out_positions() + 3]);
                out.data_mut().fill(f32::NAN);
                lowering
                    .forward_into(backend, &pad, geom, &wt, bias, &mut pack, &mut out)
                    .unwrap();
                let rows = matmul_with(backend, &cols, &wt).unwrap();
                posrows_to_nchw_into(&rows, bias, n, c_out, geom.out_h, geom.out_w, &mut want)
                    .unwrap();
                if exact {
                    assert_eq!(bits(&out), bits(&want), "{what} forward bits");
                }
                assert_close(&out, &want, 1e-4, "forward");
            }
            // Weight gradient: the gathered product is dWᵀ, read from the
            // same padded input.
            lowering
                .wgrad_into(backend, &pad, geom, &g_rows, &mut pack, &mut out)
                .unwrap();
            let want = transpose2d(&matmul_at_b_with(backend, &g_rows, &cols).unwrap()).unwrap();
            if exact {
                assert_eq!(bits(&out), bits(&want), "{what} wgrad bits");
            }
            assert_close(&out, &want, 1e-4, "wgrad");
            // Input gradient, where it is a stride-1 convolution.
            if let Some(dgeom) = geom.input_grad_geometry() {
                let mut flipped = Tensor::default();
                flip_kernel_panel_into(weight, *c_in, geom.k_h, geom.k_w, &mut flipped).unwrap();
                let mut g_pad = Tensor::default();
                pad_nchw_into(grad_out, dgeom.pad, &mut g_pad).unwrap();
                dlowering
                    .dgrad_into(backend, &g_pad, &dgeom, &flipped, &mut pack, &mut out)
                    .unwrap();
                let dcols = matmul_with(backend, &g_rows, weight).unwrap();
                let want = col2im_batch(&dcols, n, *c_in, geom).unwrap();
                assert_close(&out, &want, 1e-5, "dgrad");
            }
        }
        // The weight gradient on the positions axis (stride 1, any row
        // width) sums in another order: against the explicit lowering on
        // the naive backend, to 1e-4.
        if geom.stride == 1 {
            let taps = cols.shape()[1];
            let (mut dw, mut db) = (Tensor::zeros(&[c_out, taps]), Tensor::zeros(&[c_out]));
            lowering
                .wgrad_positions_into(&pad, geom, grad_out, &mut pack, &mut dw, &mut db)
                .unwrap();
            let want = matmul_at_b_with(KernelBackend::Naive, &g_rows, &cols).unwrap();
            assert_close(&dw, &want, 1e-4, "positions dW");
            assert_close(&db, &sum_axis0(&g_rows).unwrap(), 1e-4, "positions db");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kernel 1/2/3/5, stride 1/2, pad 0–2, odd H≠W, batch 1–5, and
    /// `c_out` 1–40 so every tile the host has (32-wide, 16-wide masked,
    /// 8-wide and its masked tail) and the row remainder are all hit;
    /// each case reuses one table cache at two batch sizes (the prefix
    /// path).
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
        let (mut lowering, mut dlowering) = (ConvGather::new(), ConvGather::new());
        Case::new(n, c, c_out, h, w, geom).check(&mut lowering, &mut dlowering);
        // A smaller batch through the same cached tables.
        Case::new(1, c, c_out, h, w, geom).check(&mut lowering, &mut dlowering);
    }
}

/// `gemm_gather` into [`Dest::Nchw`] against the composition it replaced —
/// the row-major product, then `posrows_to_nchw_into` — on `backend`, over
/// a NaN-filled destination (every element must be written).
fn check_nchw_dest(backend: KernelBackend, samples: usize, plane: usize, n: usize, k: usize) {
    let m = samples * plane;
    let seed = (m * 31 + n * 7 + k) as u64;
    let base = random(&[600], seed);
    let row_off: Vec<u32> = (0..m as u32).map(|i| i * 13 % 290).collect();
    let col_off: Vec<u32> = (0..k as u32).map(|p| p * 29 % 310).collect();
    let a = GatherA::new(base.data(), &row_off, &col_off).unwrap();
    let b = random(&[k, n], seed + 1);
    let bias: Vec<f32> = (0..n).map(|j| 0.7 - 0.05 * j as f32).collect();
    let gemm = backend.backend();
    let mut pack = Vec::new();
    let mut rows = Tensor::full(&[m, n], f32::NAN);
    gemm.gemm_gather(&a, n, b.data(), Dest::RowMajor, rows.data_mut(), &mut pack);
    for bias in [Some(&bias[..]), None] {
        let mut want = Tensor::default();
        posrows_to_nchw_into(&rows, bias, samples, n, plane, 1, &mut want).unwrap();
        let mut got = Tensor::full(&[samples, n, plane, 1], f32::NAN);
        let dest = Dest::Nchw { plane, bias };
        gemm.gemm_gather(&a, n, b.data(), dest, got.data_mut(), &mut pack);
        assert_eq!(
            bits(&got),
            bits(&want),
            "{} {samples}×{plane} rows, n {n}, k {k}, bias {}",
            backend.name(),
            bias.is_some()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Planes on both sides of the 8-row register block and of the group
    /// (64 rows at 70 columns, 256 at 16, everything at once below 10:
    /// groups straddling samples, `plane % 8 ≠ 0`), every strip width and
    /// column remainder, and one, exactly one, and several `KC` blocks.
    #[test]
    fn nchw_destination_is_the_row_major_product_transposed(
        plane in 0usize..6,
        samples in 1usize..5,
        n in 1usize..71,
        k in 0usize..5,
    ) {
        let plane = [1usize, 4, 9, 16, 64, 100][plane];
        let k = [1usize, 27, 256, 257, 577][k];
        check_nchw_dest(KernelBackend::Blocked, samples, plane, n, k);
        check_nchw_dest(KernelBackend::Naive, samples, plane, n, k);
    }
}

#[test]
fn kc_split_shapes_stay_bit_identical() {
    // K = 32·9 = 288 > KC (256): two K blocks in the forward product;
    // M = 2·10·10 = 200 positions is the wgrad's K. c_out 12 exercises the
    // masked tile next to a full one.
    let geom = Conv2dGeometry::new(10, 10, 3, 3, 1, 1).unwrap();
    let (mut lowering, mut dlowering) = (ConvGather::new(), ConvGather::new());
    Case::new(2, 32, 12, 10, 10, geom).check(&mut lowering, &mut dlowering);
    // wgrad with K = 4·16·16 = 1024 positions: four K blocks.
    let geom = Conv2dGeometry::new(16, 16, 3, 3, 1, 1).unwrap();
    Case::new(4, 3, 5, 16, 16, geom).check(&mut lowering, &mut dlowering);
}

#[test]
fn every_strip_kind_stays_bit_identical() {
    // Forward and weight-gradient strips by c_out on an AVX-512 host:
    // 40 = 32 + 8 (zmm pair, full ymm), 37 = 32 + 5 (masked ymm),
    // 24 = 16 + 8 (one zmm), 13 (one masked zmm), 8 and 5 (ymm only).
    let geom = Conv2dGeometry::new(7, 9, 3, 3, 1, 1).unwrap();
    let (mut lowering, mut dlowering) = (ConvGather::new(), ConvGather::new());
    for c_out in [40, 37, 24, 13, 8, 5] {
        Case::new(2, 3, c_out, 7, 9, geom).check(&mut lowering, &mut dlowering);
    }
}

#[test]
fn tables_follow_geometry_changes() {
    // One cache driven through different channels/geometry/batch in turn
    // must rebuild, not reuse stale offsets.
    let (mut lowering, mut dlowering) = (ConvGather::new(), ConvGather::new());
    for (n, c, h, k, stride, pad) in [
        (2, 3, 6, 3, 1, 1),
        (3, 3, 6, 3, 1, 1),
        (1, 2, 6, 3, 1, 1),
        (2, 2, 7, 3, 2, 1),
        (2, 2, 7, 1, 1, 0),
    ] {
        let geom = Conv2dGeometry::new(h, h + 1, k, k, stride, pad).unwrap();
        Case::new(n, c, 4, h, h + 1, geom).check(&mut lowering, &mut dlowering);
    }
}

#[test]
fn shape_errors_are_typed() {
    let geom = Conv2dGeometry::new(4, 4, 3, 3, 1, 1).unwrap();
    let (mut pad, mut pack, mut out) = (Tensor::default(), Vec::new(), Tensor::default());
    let mut lowering = ConvGather::new();
    let wt = Tensor::zeros(&[18, 4]);
    let backend = KernelBackend::Blocked;
    // The forward reads the input padded by 1: 6×6 here.
    let padded = Tensor::zeros(&[1, 2, 6, 6]);
    assert!(lowering
        .forward_into(backend, &padded, &geom, &wt, None, &mut pack, &mut out)
        .is_ok());
    // Wrong spatial size (the unpadded input among them), wrong rank, panel
    // not matching channels·k·k.
    for x in [
        Tensor::zeros(&[1, 2, 4, 4]),
        Tensor::zeros(&[1, 2, 7, 6]),
        Tensor::zeros(&[2, 6, 6]),
        Tensor::zeros(&[1, 3, 6, 6]),
    ] {
        assert!(lowering
            .forward_into(backend, &x, &geom, &wt, None, &mut pack, &mut out)
            .is_err());
    }
    // One bias value per output channel.
    let bias = [0.0; 3];
    assert!(lowering
        .forward_into(
            backend,
            &padded,
            &geom,
            &wt,
            Some(&bias),
            &mut pack,
            &mut out
        )
        .is_err());
    // Gradient rows not matching the positions.
    let x = Tensor::zeros(&[1, 2, 4, 4]);
    let g = Tensor::zeros(&[15, 4]);
    pad_nchw_into(&x, geom.pad, &mut pad).unwrap();
    assert!(lowering
        .wgrad_into(backend, &pad, &geom, &g, &mut pack, &mut out)
        .is_err());
    // The weight gradient reads the padded input, not the input.
    let g = Tensor::zeros(&[16, 4]);
    assert!(lowering
        .wgrad_into(backend, &pad, &geom, &g, &mut pack, &mut out)
        .is_ok());
    assert!(lowering
        .wgrad_into(backend, &x, &geom, &g, &mut pack, &mut out)
        .is_err());
    // Strided and over-padded convolutions have no stride-1 dgrad form.
    assert!(Conv2dGeometry::new(8, 8, 3, 3, 2, 1)
        .unwrap()
        .input_grad_geometry()
        .is_none());
    assert!(Conv2dGeometry::new(8, 8, 1, 1, 1, 1)
        .unwrap()
        .input_grad_geometry()
        .is_none());
}

/// The tables `ConvGather` builds for `batch` samples of `c` channels
/// under `g`, written out: window origins `(n, oy, ox)`, output-row origins
/// `(n, oy)` and taps `(c, kh, kw)`.
fn tables(batch: usize, c: usize, g: &Conv2dGeometry) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let (hp, wp) = (g.in_h + 2 * g.pad, g.in_w + 2 * g.pad);
    let rows: Vec<u32> = (0..batch * g.out_h)
        .map(|r| ((r / g.out_h) * c * hp * wp + (r % g.out_h) * g.stride * wp) as u32)
        .collect();
    let pos = rows
        .iter()
        .flat_map(|&o| (0..g.out_w).map(move |ox| o + (ox * g.stride) as u32))
        .collect();
    let taps = (0..c)
        .flat_map(|ch| (0..g.k_h).flat_map(move |kh| (0..g.k_w).map(move |kw| (ch, kh, kw))))
        .map(|(ch, kh, kw)| ((ch * hp + kh) * wp + kw) as u32)
        .collect();
    (pos, rows, taps)
}

/// One NCHW-bound conv product (`src` padded by `g.pad`, times `panel`)
/// in both orientations: the gathered product on the blocked backend, both
/// orientations on every tile the host has driven directly, and the
/// orientation `ConvGather` picks — all into poisoned outputs, all with
/// the same bits.
fn check_orientations(src: &Tensor, g: &Conv2dGeometry, panel: &Tensor, bias: Option<&[f32]>) {
    use nf_tensor::kernels::gather_nchw_on_tile;
    use nf_tensor::kernels::simd::{lanes_on_tile, Tile};
    let (batch, c) = (src.shape()[0], src.shape()[1]);
    let (n, plane) = (panel.shape()[1], g.out_positions());
    let (pos, rows, taps) = tables(batch, c, g);
    let mut padded = Tensor::default();
    pad_nchw_into(src, g.pad, &mut padded).unwrap();
    let len = batch * n * plane;
    let what = format!(
        "{batch}×{c}→{n} @{}×{}, bias {}",
        g.out_h,
        g.out_w,
        bias.is_some()
    );

    let plain = GatherA::new(padded.data(), &pos, &taps).unwrap();
    let mut gathered = vec![f32::NAN; len];
    let dest = Dest::Nchw { plane, bias };
    let blocked = KernelBackend::Blocked.backend();
    blocked.gemm_gather(
        &plain,
        n,
        panel.data(),
        dest,
        &mut gathered,
        &mut Vec::new(),
    );
    assert!(gathered.iter().all(|v| !v.is_nan()), "{what}: gathered");

    let runs = plain.with_runs(&rows, g.out_w).unwrap();
    for tile in Tile::ALL.into_iter().filter(|t| t.supported()) {
        let mut lanes = vec![f32::NAN; len];
        assert!(lanes_on_tile(
            tile,
            &runs,
            n,
            panel.data(),
            plane,
            bias,
            &mut lanes
        ));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&lanes), bits(&gathered), "{what}: lanes on {tile:?}");
        let mut on_tile = vec![f32::NAN; len];
        let b = panel.data();
        let mut scratch = Vec::new();
        assert!(gather_nchw_on_tile(
            tile,
            &plain,
            n,
            b,
            plane,
            bias,
            &mut on_tile,
            &mut scratch
        ));
        assert_eq!(
            bits(&on_tile),
            bits(&gathered),
            "{what}: gathered on {tile:?}"
        );
    }
    // And the dispatching backend with runs attached, whatever it picks.
    let mut dispatched = vec![f32::NAN; len];
    blocked.gemm_gather(
        &runs,
        n,
        panel.data(),
        dest,
        &mut dispatched,
        &mut Vec::new(),
    );
    assert_eq!(
        dispatched.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        gathered.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "{what}: dispatched"
    );
}

#[test]
fn lanes_equal_gathered_bit_for_bit() {
    // `(batch, c_in, c_out, h, w)` of a 3×3 / stride 1 / pad 1 conv: output
    // rows 8..=64 wide, on and off every vector width (masked last runs),
    // channels 1..=70 on both sides of the 8-row panel, batches 1..=9, and
    // a `K` (`c_in·9` forward, `c_out·9` input gradient) on both sides of
    // `KC` = 256. Two or three output rows keep it quick unoptimised.
    for (batch, c_in, c_out, h, w) in [
        (1usize, 1usize, 1usize, 2usize, 8usize),
        (2, 3, 70, 2, 9),
        (9, 2, 5, 2, 15),
        (4, 29, 8, 3, 16),
        (3, 30, 13, 2, 17),
        (5, 1, 64, 2, 24),
        (2, 4, 33, 3, 31),
        (7, 3, 2, 2, 32),
        (1, 8, 40, 2, 37),
        (6, 2, 4, 2, 48),
        (2, 16, 9, 2, 63),
        (3, 3, 6, 2, 64),
    ] {
        let geom = Conv2dGeometry::new(h, w, 3, 3, 1, 1).unwrap();
        let case = Case::new(batch, c_in, c_out, h, w, geom);
        let wt = transpose2d(&case.weight).unwrap();
        let bias: Vec<f32> = (0..c_out).map(|j| 0.25 - 0.03 * j as f32).collect();
        for bias in [Some(&bias[..]), None] {
            check_orientations(&case.x, &geom, &wt, bias);
        }
        let dgeom = geom.input_grad_geometry().unwrap();
        let mut flipped = Tensor::default();
        flip_kernel_panel_into(&case.weight, c_in, 3, 3, &mut flipped).unwrap();
        check_orientations(&case.grad_out, &dgeom, &flipped, None);
    }
}

/// The weight gradient on the positions axis spelled out: for each output
/// channel and tap (the bias last, as a tap of ones), lane `j` of 16 takes
/// the positions `x ≡ j (mod 16)` of every output row in `(n, oy)` order —
/// one `mul_add` per term (a plain add for the bias), `0·0` (`+ 0`) on a
/// masked tail lane — and the lanes fold 16 → 8 → 4 → 2 → 1 into what `dw`
/// / `db` already hold.
fn positions_oracle(padded: &Tensor, g: &Conv2dGeometry, grad_out: &Tensor) -> (Tensor, Tensor) {
    let (n, c, hp, wp) = padded.dims4().unwrap();
    let (_, c_out, oh, ow) = grad_out.dims4().unwrap();
    let taps = c * g.k_h * g.k_w;
    let (mut dw, mut db) = prefilled(c_out, taps);
    let (x, gr) = (padded.data(), grad_out.data());
    for co in 0..c_out {
        for t in 0..=taps {
            let (ch, kh, kw) = (t / (g.k_h * g.k_w), t / g.k_w % g.k_h, t % g.k_w);
            let mut lanes = [0.0f32; 16];
            for img in 0..n {
                for oy in 0..oh {
                    for x0 in (0..ow).step_by(16) {
                        for (j, lane) in lanes.iter_mut().enumerate() {
                            let ox = x0 + j;
                            let gv = if ox < ow {
                                gr[((img * c_out + co) * oh + oy) * ow + ox]
                            } else {
                                0.0
                            };
                            if t == taps {
                                *lane += gv;
                                continue;
                            }
                            let xv = if ox < ow {
                                x[((img * c + ch) * hp + oy + kh) * wp + ox + kw]
                            } else {
                                0.0
                            };
                            *lane = gv.mul_add(xv, *lane);
                        }
                    }
                }
            }
            let l8: [f32; 8] = std::array::from_fn(|i| lanes[i] + lanes[i + 8]);
            let l4: [f32; 4] = std::array::from_fn(|i| l8[i] + l8[i + 4]);
            let l2: [f32; 2] = std::array::from_fn(|i| l4[i] + l4[i + 2]);
            let sum = l2[0] + l2[1];
            if t < taps {
                dw.data_mut()[co * taps + t] += sum;
            } else {
                db.data_mut()[co] += sum;
            }
        }
    }
    (dw, db)
}

/// `dW` and `db` holding non-zero values, so accumulation shows.
fn prefilled(c_out: usize, taps: usize) -> (Tensor, Tensor) {
    (random(&[c_out, taps], 77), random(&[c_out], 78))
}

#[test]
fn positions_equal_the_scalar_order_on_every_tile() {
    use nf_tensor::kernels::simd::{positions_on_tile, Tile};
    // `(batch, c_in, c_out, h, w)` of a 3×3 / stride 1 / pad 1 conv: output
    // rows 16..=64 wide (whole chunks and masked tails), channels 1..=70 on
    // both sides of every channel block, batches 1..=9.
    for (batch, c_in, c_out, h, w) in [
        (1usize, 1usize, 1usize, 2usize, 16usize),
        (2, 3, 70, 2, 17),
        (9, 2, 5, 2, 24),
        (4, 29, 8, 3, 31),
        (3, 30, 13, 2, 32),
        (5, 1, 64, 2, 33),
        (2, 4, 33, 3, 47),
        (7, 3, 2, 2, 48),
        (1, 8, 40, 2, 63),
        (6, 2, 3, 2, 64),
    ] {
        let geom = Conv2dGeometry::new(h, w, 3, 3, 1, 1).unwrap();
        let case = Case::new(batch, c_in, c_out, h, w, geom);
        let mut padded = Tensor::default();
        pad_nchw_into(&case.x, 1, &mut padded).unwrap();
        let (want_dw, want_db) = positions_oracle(&padded, &geom, &case.grad_out);
        let what = format!("{batch}×{c_in}→{c_out} @{h}×{w}");
        let taps = c_in * 9;
        // The layer's entry point, on whatever tile the host dispatches.
        let (mut dw, mut db) = prefilled(c_out, taps);
        let mut scratch = vec![f32::NAN; 5];
        ConvGather::new()
            .wgrad_positions_into(
                &padded,
                &geom,
                &case.grad_out,
                &mut scratch,
                &mut dw,
                &mut db,
            )
            .unwrap();
        assert_eq!(bits(&dw), bits(&want_dw), "{what}: dispatched dW");
        assert_eq!(bits(&db), bits(&want_db), "{what}: dispatched db");
        // Every tile the host has, driven directly.
        let (pos, rows, taps_tbl) = tables(batch, c_in, &geom);
        let a = GatherA::new(padded.data(), &pos, &taps_tbl).unwrap();
        let a = a.with_runs(&rows, geom.out_w).unwrap();
        for tile in Tile::ALL.into_iter().filter(|t| t.supported()) {
            let (mut dw, mut db) = prefilled(c_out, taps);
            let (g, plane) = (case.grad_out.data(), geom.out_positions());
            let (dwm, dbm) = (dw.data_mut(), db.data_mut());
            assert!(positions_on_tile(
                tile,
                &a,
                g,
                plane,
                dwm,
                dbm,
                &mut scratch
            ));
            assert_eq!(bits(&dw), bits(&want_dw), "{what}: dW on {tile:?}");
            assert_eq!(bits(&db), bits(&want_db), "{what}: db on {tile:?}");
        }
    }
}

#[test]
fn positions_need_stride_one_and_matching_gradients() {
    use nf_tensor::TensorError;
    let geom = Conv2dGeometry::new(4, 16, 3, 3, 1, 1).unwrap();
    let padded = random(&[2, 3, 6, 18], 3);
    let grad = random(&[2, 5, 4, 16], 4);
    let (mut dw, mut db) = prefilled(5, 27);
    let (mut lowering, mut scratch) = (ConvGather::new(), Vec::new());
    let mut run = |padded: &Tensor, geom: &Conv2dGeometry, grad: &Tensor, dw: &mut Tensor| {
        lowering.wgrad_positions_into(padded, geom, grad, &mut scratch, dw, &mut db)
    };
    assert!(run(&padded, &geom, &grad, &mut dw).is_ok());
    // An output gradient of another batch or width, or a dW of other taps.
    for bad in [random(&[1, 5, 4, 16], 5), random(&[2, 5, 4, 15], 5)] {
        assert!(matches!(
            run(&padded, &geom, &bad, &mut dw),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }
    assert!(run(&padded, &geom, &grad, &mut Tensor::zeros(&[5, 18])).is_err());
    // A strided convolution has no runs.
    let strided = Conv2dGeometry::new(4, 16, 3, 3, 2, 1).unwrap();
    let grad = random(&[2, 5, 2, 8], 6);
    assert!(matches!(
        run(&padded, &strided, &grad, &mut dw),
        Err(TensorError::InvalidGeometry(_))
    ));
}

#[test]
fn run_tables_reaching_past_the_padded_input_are_rejected() {
    use nf_tensor::TensorError;
    let geom = Conv2dGeometry::new(3, 16, 3, 3, 1, 1).unwrap();
    let x = random(&[2, 2, 3, 16], 5);
    let (pos, mut rows, taps) = tables(2, 2, &geom);
    let mut padded = Tensor::default();
    pad_nchw_into(&x, 1, &mut padded).unwrap();
    let a = GatherA::new(padded.data(), &pos, &taps).unwrap();
    assert!(a.with_runs(&rows, 16).is_ok());
    // One float too far for the last run of the last sample's last row.
    *rows.last_mut().unwrap() += 1;
    assert!(matches!(
        a.with_runs(&rows, 16),
        Err(TensorError::OffsetOutOfBounds { .. })
    ));
    // Runs that do not tile the rows.
    assert!(matches!(
        a.with_runs(&rows[..5], 16),
        Err(TensorError::ShapeDataMismatch { .. })
    ));
}
