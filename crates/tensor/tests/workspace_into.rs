//! Property tests pinning the `*_into` workspace entry points and the
//! runtime-dispatched SIMD micro-kernel to the naive oracle, plus the
//! grow-only steady-state guarantees of [`Workspace`].

use nf_tensor::{
    col2im_batch, col2im_batch_into, im2col_batch, im2col_batch_into, matmul_a_bt_into,
    matmul_a_bt_with, matmul_at_b_into, matmul_at_b_with, matmul_into, matmul_with,
    nchw_to_posrows, nchw_to_posrows_into, Conv2dGeometry, KernelBackend, Tensor, Workspace,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn random(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n: usize = shape.iter().product();
    Tensor::from_vec(
        shape.to_vec(),
        (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect(),
    )
    .unwrap()
}

fn assert_close(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what} shape");
    for (g, w) in got.data().iter().zip(want.data()) {
        assert!((g - w).abs() < 1e-4 * (1.0 + w.abs()), "{what}: {g} vs {w}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `matmul_into` (and friends) on the blocked/SIMD backends match the
    /// naive oracle on rectangular and odd shapes, including into a dirty
    /// reused buffer.
    #[test]
    fn into_variants_match_naive_oracle(
        m in 1usize..40,
        k in 1usize..70,
        n in 1usize..40,
        seed in 0u64..500,
    ) {
        let a = random(&[m, k], seed);
        let b = random(&[k, n], seed ^ 1);
        let at = random(&[k, m], seed ^ 2);
        let bt = random(&[n, k], seed ^ 3);
        // Dirty, deliberately oversized reused buffers: outputs must be
        // fully overwritten and shapes corrected.
        let mut out = Tensor::full(&[97], f32::NAN);
        let mut pack = vec![f32::NAN; 131];
        let backend = KernelBackend::Blocked;
        let want = matmul_with(KernelBackend::Naive, &a, &b).unwrap();
        matmul_into(backend, &a, &b, &mut out).unwrap();
        assert_close(&out, &want, "matmul_into");

        let want = matmul_at_b_with(KernelBackend::Naive, &at, &b).unwrap();
        matmul_at_b_into(backend, &at, &b, &mut out, &mut pack).unwrap();
        assert_close(&out, &want, "matmul_at_b_into");

        let want = matmul_a_bt_with(KernelBackend::Naive, &a, &bt).unwrap();
        matmul_a_bt_into(backend, &a, &bt, &mut out, &mut pack).unwrap();
        assert_close(&out, &want, "matmul_a_bt_into");
    }

    /// The K-outermost loop order (small output × huge K — the
    /// weight-gradient shape) agrees with the oracle across its threshold.
    /// The oracle here is the product accumulated in `f64`: over 8192
    /// terms the naive backend's own f32 running sum strays up to 2.6e-4
    /// from it — more than this tolerance — so it can only referee
    /// elements that happen to be summed in its order.
    #[test]
    fn kouter_weight_gradient_shape_matches_naive(
        m in 1usize..20,
        n in 1usize..20,
        seed in 0u64..100,
    ) {
        let k = 1 << 13; // large enough that k*n clears the K-outer floor
        let a = random(&[k, m], seed);
        let b = random(&[k, n], seed ^ 7);
        let mut exact = vec![0.0f64; m * n];
        for (arow, brow) in a.data().chunks(m).zip(b.data().chunks(n)) {
            for (orow, &av) in exact.chunks_mut(n).zip(arow) {
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += f64::from(av) * f64::from(bv);
                }
            }
        }
        let want = Tensor::from_vec(vec![m, n], exact.iter().map(|&v| v as f32).collect()).unwrap();
        let got = matmul_at_b_with(KernelBackend::Blocked, &a, &b).unwrap();
        assert_close(&got, &want, "kouter at_b");
    }

    /// Batched lowering `*_into` variants match their allocating wrappers
    /// even when writing into dirty reused buffers.
    #[test]
    fn lowering_into_matches_allocating(
        n in 1usize..4,
        c in 1usize..4,
        h in 3usize..9,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u64..500,
    ) {
        prop_assume!(k <= h + 2 * pad);
        let geom = Conv2dGeometry::new(h, h, k, k, stride, pad).unwrap();
        let x = random(&[n, c, h, h], seed);
        let mut buf = Tensor::full(&[7, 3], f32::NAN);

        let want = im2col_batch(&x, &geom).unwrap();
        im2col_batch_into(&x, &geom, &mut buf).unwrap();
        prop_assert_eq!(&buf, &want);

        let cols = random(want.shape(), seed ^ 11);
        let want = col2im_batch(&cols, n, c, &geom).unwrap();
        col2im_batch_into(&cols, n, c, &geom, &mut buf).unwrap();
        prop_assert_eq!(&buf, &want);

        let want = nchw_to_posrows(&x).unwrap();
        nchw_to_posrows_into(&x, &mut buf).unwrap();
        prop_assert_eq!(&buf, &want);
    }
}

/// A workspace driven through 100 steps of a fixed-shape conv/GEMM cycle
/// must stop growing after the first step (grow-only buffers, warmed once).
#[test]
fn workspace_never_grows_after_warmup() {
    let geom = Conv2dGeometry::new(12, 12, 3, 3, 1, 1).unwrap();
    let (n, c, f) = (4usize, 6usize, 10usize);
    let x = random(&[n, c, 12, 12], 1);
    let w = random(&[c * 9, f], 2);
    let g = random(&[n, f, 12, 12], 3);

    let mut ws = Workspace::new();
    let step = |ws: &mut Workspace| {
        let p = ws.parts();
        im2col_batch_into(&x, &geom, p.cols).unwrap();
        matmul_into(KernelBackend::Blocked, p.cols, &w, p.out).unwrap();
        nchw_to_posrows_into(&g, p.posrows).unwrap();
        matmul_at_b_into(KernelBackend::Blocked, p.posrows, p.cols, p.out, p.pack).unwrap();
        matmul_into(
            KernelBackend::Blocked,
            p.posrows,
            &random(&[f, c * 9], 4),
            p.out,
        )
        .unwrap();
        let mut dx = Tensor::default();
        col2im_batch_into(p.out, n, c, &geom, &mut dx).unwrap();
    };
    step(&mut ws);
    let warmed = ws.reserved_bytes();
    assert!(warmed > 0);
    for i in 0..100 {
        step(&mut ws);
        assert_eq!(
            ws.reserved_bytes(),
            warmed,
            "workspace grew on step {i} after warm-up"
        );
    }
}

/// Mixed shapes through one shared workspace: capacity is the running max,
/// never the sum, and shrinking shapes release nothing.
#[test]
fn workspace_capacity_is_max_not_sum() {
    let mut ws = Workspace::new();
    let big = random(&[64, 48], 5);
    let small = random(&[48, 4], 6);
    {
        let p = ws.parts();
        matmul_into(KernelBackend::Blocked, &big, &small, p.out).unwrap();
    }
    let after_big = ws.reserved_bytes();
    {
        let p = ws.parts();
        let a = random(&[2, 3], 7);
        let b = random(&[3, 2], 8);
        matmul_into(KernelBackend::Blocked, &a, &b, p.out).unwrap();
        assert_eq!(p.out.shape(), &[2, 2]);
    }
    assert_eq!(ws.reserved_bytes(), after_big);
}
