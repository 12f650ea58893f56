//! Fuzz of the offset-table constructors the unchecked kernels trust:
//! `GatherA::new`, `GatherA::with_runs` (whose first step is the runs' own
//! bounds check, `simd::GatherRuns::new`) and `GatherQuads::new`.
//!
//! Random bases, offsets, origins and run lengths — offsets up to one past
//! the end of the buffer — must be refused with a typed error exactly when
//! some load would leave the buffer, and otherwise accepted with a product
//! equal, bit for bit, to the same product over the materialised matrix.
//! No input may panic. Every case is a pure function of its seed; a
//! failure names it.

use nf_tensor::kernels::int8::{self, QuantizedLhs, QuantizedRhs};
use nf_tensor::kernels::{Dest, GatherA, GatherQuads, KernelBackend};
use nf_tensor::TensorError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `len` offsets into a buffer of `len_base` elements: up to one past its
/// end in half the cases, within its first third otherwise (so that most
/// of those tables are accepted and their products run).
fn offsets(rng: &mut StdRng, len: usize, len_base: usize) -> Vec<u32> {
    let reach = if rng.gen_bool(0.5) {
        len_base
    } else {
        len_base / 3
    };
    (0..len).map(|_| rng.gen_range(0..=reach) as u32).collect()
}

fn values(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Whether every `row + col + 0..width` load stays inside `len` elements.
fn in_bounds(rows: &[u32], cols: &[u32], width: u64, len: usize) -> bool {
    match (rows.iter().max(), cols.iter().max()) {
        (Some(&r), Some(&c)) => u64::from(r) + u64::from(c) + width <= len as u64,
        _ => true,
    }
}

/// `GatherA::new` over random tables, and the accepted ones' products on
/// both backends against the dense product of the materialised matrix.
fn gather_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rng.gen_range(0..48);
    let base = values(&mut rng, len);
    let (m, k, n) = (
        rng.gen_range(0..7),
        rng.gen_range(0..7),
        rng.gen_range(1..5),
    );
    let rows = offsets(&mut rng, m, base.len());
    let cols = offsets(&mut rng, k, base.len());
    let fits = in_bounds(&rows, &cols, 1, base.len());
    let a = match GatherA::new(&base, &rows, &cols) {
        Ok(a) => a,
        Err(e) => {
            assert!(!fits, "seed {seed}: in-bounds tables refused: {e}");
            assert!(
                matches!(e, TensorError::OffsetOutOfBounds { .. }),
                "seed {seed}: {e}"
            );
            return;
        }
    };
    assert!(fits, "seed {seed}: out-of-bounds tables accepted");
    let at = |r: u32, c: u32| base[(r + c) as usize];
    let dense: Vec<f32> = rows
        .iter()
        .flat_map(|&r| cols.iter().map(move |&c| at(r, c)))
        .collect();
    let b = values(&mut rng, k * n);
    for backend in KernelBackend::all() {
        let backend = backend.backend();
        let mut want = vec![f32::NAN; m * n];
        backend.gemm(m, k, n, &dense, &b, &mut want);
        let mut got = vec![f32::NAN; m * n];
        backend.gemm_gather(&a, n, &b, Dest::RowMajor, &mut got, &mut Vec::new());
        assert_eq!(bits(&got), bits(&want), "seed {seed}: {}", backend.name());
    }
}

/// `GatherA::with_runs` over random origins and run lengths (the rows the
/// runs name, as the contract requires), and the accepted ones' lane
/// product against the same product without runs.
fn runs_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rng.gen_range(0..48);
    let base = values(&mut rng, len);
    let (run, per_sample) = (rng.gen_range(0..6usize), rng.gen_range(1..3usize));
    let samples = rng.gen_range(0..3usize);
    let (k, n) = (rng.gen_range(0..7), rng.gen_range(1..5));
    let origins = offsets(&mut rng, samples * per_sample, base.len());
    let taps = offsets(&mut rng, k, base.len());
    let rows: Vec<u32> = origins
        .iter()
        .flat_map(|&o| (0..run as u32).map(move |x| o + x))
        .collect();
    let Ok(plain) = GatherA::new(&base, &rows, &taps) else {
        assert!(!in_bounds(&rows, &taps, 1, base.len()), "seed {seed}");
        return;
    };
    // Runs that do not cover the rows are refused, whatever their bounds.
    if let Some((_, fewer)) = origins.split_last() {
        assert!(plain.with_runs(fewer, run).is_err(), "seed {seed}");
    }
    let a = match plain.with_runs(&origins, run) {
        Ok(a) => a,
        Err(e) => {
            let typed = matches!(
                e,
                TensorError::OffsetOutOfBounds { .. } | TensorError::InvalidGeometry(_)
            );
            assert!(typed, "seed {seed}: {e}");
            assert_eq!(run, 0, "seed {seed}: in-bounds runs refused: {e}");
            return;
        }
    };
    assert!(run > 0, "seed {seed}: empty runs accepted");
    let (plane, bias) = (per_sample * run, values(&mut rng, n));
    let b = values(&mut rng, k * n);
    let dest = Dest::Nchw {
        plane,
        bias: Some(&bias),
    };
    let blocked = KernelBackend::Blocked.backend();
    let mut want = vec![f32::NAN; rows.len() * n];
    blocked.gemm_gather(&plain, n, &b, dest, &mut want, &mut Vec::new());
    let mut got = vec![f32::NAN; rows.len() * n];
    blocked.gemm_gather(&a, n, &b, dest, &mut got, &mut Vec::new());
    assert_eq!(bits(&got), bits(&want), "seed {seed}");
}

/// `GatherQuads::new` over random tables, and the accepted ones' int8
/// product against the dense product of the materialised `u8` rows.
fn quads_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let base: Vec<u8> = (0..rng.gen_range(0..48))
        .map(|_| rng.gen_range(0..=255u8))
        .collect();
    let (m, quads, n) = (
        rng.gen_range(0..7),
        rng.gen_range(0..4),
        rng.gen_range(1..5),
    );
    let rows = offsets(&mut rng, m, base.len());
    let quad_offs = offsets(&mut rng, quads, base.len());
    let fits = in_bounds(&rows, &quad_offs, 4, base.len());
    let a = match GatherQuads::new(&base, &rows, &quad_offs) {
        Ok(a) => a,
        Err(e) => {
            assert!(!fits, "seed {seed}: in-bounds tables refused: {e}");
            assert!(
                matches!(e, TensorError::OffsetOutOfBounds { .. }),
                "seed {seed}: {e}"
            );
            return;
        }
    };
    assert!(fits, "seed {seed}: out-of-bounds tables accepted");
    let k = quads * 4;
    let at = |r: u32, q: u32| &base[(r + q) as usize..][..4];
    let dense: Vec<u8> = rows
        .iter()
        .flat_map(|&r| quad_offs.iter().flat_map(move |&q| at(r, q)))
        .copied()
        .collect();
    let mut lhs = QuantizedLhs::default();
    lhs.from_rows_u8(&dense, m, k, 1.0, 0.0);
    let mut rhs = QuantizedRhs::default();
    rhs.pack_from_f32(&values(&mut rng, k * n), k, n);
    let mut want = Vec::new();
    int8::gemm_i32(&lhs, &rhs, &mut want);
    let mut got = vec![i32::MIN; m * n];
    int8::gemm_i32_gather(&a, &rhs, &mut got);
    assert_eq!(got, want, "seed {seed}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn gather_tables_are_refused_or_multiply_like_the_matrix(seed in 0u64..u64::MAX) {
        gather_case(seed);
    }

    #[test]
    fn run_tables_are_refused_or_multiply_like_the_rows(seed in 0u64..u64::MAX) {
        runs_case(seed);
    }

    #[test]
    fn quad_tables_are_refused_or_multiply_like_the_matrix(seed in 0u64..u64::MAX) {
        quads_case(seed);
    }
}
