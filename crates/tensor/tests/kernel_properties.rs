//! Property-based tests over the tensor kernels: algebraic identities that
//! must hold for any inputs.

use nf_tensor::*;
use proptest::prelude::*;
use rand::SeedableRng;

fn matrix(r: usize, c: usize, seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    uniform_init(&mut rng, &[r, c], -2.0, 2.0)
}

/// Max absolute elementwise difference, scaled by magnitude.
fn max_rel_diff(a: &Tensor, b: &Tensor) -> f32 {
    a.data()
        .iter()
        .zip(b.data())
        .map(|(x, y)| (x - y).abs() / (1.0 + x.abs()))
        .fold(0.0, f32::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (A + B)·C == A·C + B·C (distributivity).
    #[test]
    fn matmul_distributes_over_addition(
        m in 1usize..5, k in 1usize..5, n in 1usize..5, seed in 0u64..1000
    ) {
        let a = matrix(m, k, seed);
        let b = matrix(m, k, seed.wrapping_add(1));
        let c = matrix(k, n, seed.wrapping_add(2));
        let lhs = matmul(&add(&a, &b).unwrap(), &c).unwrap();
        let rhs = add(&matmul(&a, &c).unwrap(), &matmul(&b, &c).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// Softmax is invariant to a constant shift of the logits.
    #[test]
    fn softmax_shift_invariance(
        rows in 1usize..4, cols in 1usize..6, shift in -5.0f32..5.0, seed in 0u64..1000
    ) {
        let t = matrix(rows, cols, seed);
        let shifted = t.map(|v| v + shift);
        let a = softmax_rows(&t).unwrap();
        let b = softmax_rows(&shifted).unwrap();
        for (x, y) in a.data().iter().zip(b.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// slice_batch then cat_batch reconstructs the original tensor for any
    /// split point — the AB-LL re-batching primitive must be lossless.
    #[test]
    fn rebatching_is_lossless(
        n in 2usize..8, per in 1usize..6, cut in 1usize..7, seed in 0u64..1000
    ) {
        let cut = cut.min(n - 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let t = uniform_init(&mut rng, &[n, per], -1.0, 1.0);
        let a = t.slice_batch(0, cut).unwrap();
        let b = t.slice_batch(cut, n).unwrap();
        prop_assert_eq!(Tensor::cat_batch(&[&a, &b]).unwrap(), t);
    }

    /// Pooling never increases the max and never decreases the min.
    #[test]
    fn max_pool_bounded_by_input(seed in 0u64..1000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = uniform_init(&mut rng, &[1, 2, 4, 4], -3.0, 3.0);
        let geom = Conv2dGeometry::new(4, 4, 2, 2, 2, 0).unwrap();
        let (y, _) = max_pool2d(&x, &geom).unwrap();
        let in_max = x.data().iter().cloned().fold(f32::MIN, f32::max);
        let out_max = y.data().iter().cloned().fold(f32::MIN, f32::max);
        prop_assert!(out_max <= in_max + 1e-6);
        // Every pooled value exists somewhere in the input.
        for v in y.data() {
            prop_assert!(x.data().iter().any(|u| (u - v).abs() < 1e-6));
        }
    }

    /// Average pooling preserves the global mean for exact tilings.
    #[test]
    fn avg_pool_preserves_mean(seed in 0u64..1000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = uniform_init(&mut rng, &[2, 3, 4, 4], -1.0, 1.0);
        let geom = Conv2dGeometry::new(4, 4, 2, 2, 2, 0).unwrap();
        let y = avg_pool2d(&x, &geom).unwrap();
        prop_assert!((mean_all(&x) - mean_all(&y)).abs() < 1e-5);
    }

    /// The blocked backend must reproduce the naive reference on random
    /// shapes, for all three GEMM variants, within 1e-4 — shapes range
    /// past the kernel's MR/KC/NC blocking boundaries.
    #[test]
    fn fast_backends_match_naive_reference(
        m in 1usize..40, k in 1usize..300, n in 1usize..40, seed in 0u64..1000
    ) {
        let a = matrix(m, k, seed);
        let b = matrix(k, n, seed.wrapping_add(1));
        let at = matrix(k, m, seed.wrapping_add(2));
        let bt = matrix(n, k, seed.wrapping_add(3));
        let backend = KernelBackend::Blocked;

        let want = matmul_with(KernelBackend::Naive, &a, &b).unwrap();
        let got = matmul_with(backend, &a, &b).unwrap();
        let d = max_rel_diff(&want, &got);
        prop_assert!(d < 1e-4, "gemm diverges: {d}");

        let want = matmul_at_b_with(KernelBackend::Naive, &at, &b).unwrap();
        let got = matmul_at_b_with(backend, &at, &b).unwrap();
        let d = max_rel_diff(&want, &got);
        prop_assert!(d < 1e-4, "at_b diverges: {d}");

        let want = matmul_a_bt_with(KernelBackend::Naive, &a, &bt).unwrap();
        let got = matmul_a_bt_with(backend, &a, &bt).unwrap();
        let d = max_rel_diff(&want, &got);
        prop_assert!(d < 1e-4, "a_bt diverges: {d}");
    }

    /// Convolving with a one-hot kernel extracts the corresponding shifted
    /// input plane (im2col correctness against a direct definition).
    #[test]
    fn one_hot_kernel_selects_tap(tap in 0usize..9, seed in 0u64..1000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let img = uniform_init(&mut rng, &[1, 5, 5], -1.0, 1.0);
        let geom = Conv2dGeometry::new(5, 5, 3, 3, 1, 1).unwrap();
        let cols = im2col(&img, 1, &geom).unwrap();
        // Row `tap` of the patch matrix is the input shifted by the tap
        // offset (with zero padding at the borders).
        let (dy, dx) = (tap / 3, tap % 3);
        for oy in 0..5usize {
            for ox in 0..5usize {
                let iy = oy as isize + dy as isize - 1;
                let ix = ox as isize + dx as isize - 1;
                let expected = if (0..5).contains(&iy) && (0..5).contains(&ix) {
                    img.at(&[0, iy as usize, ix as usize])
                } else {
                    0.0
                };
                prop_assert_eq!(cols.at(&[tap, oy * 5 + ox]), expected);
            }
        }
    }
}
