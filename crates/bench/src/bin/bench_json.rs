//! The two gated performance artifacts: `BENCH_gemm.json` and
//! `BENCH_train_step.json`.
//!
//! End-to-end and per-stage numbers live in `BENCHMARK.json` (the repo
//! benchmark under `benchmark/`, run on every PR with a noise model). This
//! binary keeps only what that cannot express: two implementations of one
//! thing timed on identical operands with a pass/fail gate on the pair —
//! the GEMM kernels, the conv lowerings, the register tiles — and the
//! allocation and page-fault counts of a warmed-up training step. Both
//! artifacts open with the same provenance header ([`header`]).
//!
//! ```text
//! cargo run --release -p nf-bench --bin bench_json            # full shapes
//! cargo run --release -p nf-bench --bin bench_json -- --smoke # tiny shapes (CI)
//! ```
//!
//! Full runs rewrite the two committed files in the repo root; smoke runs
//! write `BENCH_*.smoke.json` (ignored) beside them. After writing, each
//! file is re-read through the `nf-cli` JSON parser and checked for its
//! required keys; a malformed artifact exits non-zero, which is what the
//! CI bench-smoke job asserts.

use nf_models::{build_aux_heads, AuxPolicy, ModelSpec};
use nf_nn::optim::Sgd;
use nf_nn::{BatchNorm2d, GlobalAvgPool, Layer, LocalStep, MaxPool2d, Mode};
use nf_tensor::{KernelBackend, Tensor};
use nf_value::{Table, Value};
use rand::SeedableRng;
use std::time::Instant;

// Measurement scaffolding, kept with the crate's tests (like the other
// crates' counting allocators) rather than in product source.
#[path = "../../tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// Repetitions behind every timing (the fused/unfused conv pair runs
/// twice as many); recorded in the artifacts' header.
const REPS: usize = 7;

/// The fastest and the median of one timing's repetitions, ns per call.
/// Host noise only ever slows a repetition, so `min` is the stable number
/// to compare two implementations by and the one every gate reads (the
/// mean of three sub-microsecond smoke-shape calls came out bimodal — 363
/// vs 635 ns for identical code — once the kernels used 512-bit
/// instructions); `median` and the interquartile range `iqr` are recorded
/// beside it so the spread shows.
#[derive(Clone, Copy, Default)]
struct Sample {
    min: u128,
    median: u128,
    iqr: u128,
}

impl Sample {
    fn of(mut reps: Vec<u128>) -> Sample {
        reps.sort_unstable();
        let at = |q: usize| reps.get(reps.len() * q / 4).copied().unwrap_or(0);
        Sample {
            min: reps.first().copied().unwrap_or(0),
            median: at(2),
            iqr: at(3) - at(1),
        }
    }

    /// Of two measurements of one thing, the one with the lower minimum.
    fn keep_min(&mut self, other: Sample) {
        if other.min < self.min {
            *self = other;
        }
    }

    /// Inserts `<name>_ns` (the minimum) and `<name>_median_ns`.
    fn insert_into(self, row: &mut Table, name: &str) {
        row.insert(&format!("{name}_ns"), int(self.min));
        row.insert(&format!("{name}_median_ns"), int(self.median));
    }
}

impl std::ops::Add for Sample {
    type Output = Sample;
    fn add(self, other: Sample) -> Sample {
        Sample {
            min: self.min + other.min,
            median: self.median + other.median,
            iqr: self.iqr + other.iqr,
        }
    }
}

/// `iters` back-to-back calls, ns per call.
#[expect(
    clippy::disallowed_methods,
    reason = "a benchmark measures real time by design"
)]
fn timed(iters: usize, mut f: impl FnMut()) -> u128 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() / iters as u128
}

/// `reps` timings of `f` after one warm-up call.
fn sample(reps: usize, iters: usize, mut f: impl FnMut()) -> Sample {
    f();
    Sample::of((0..reps).map(|_| timed(iters, &mut f)).collect())
}

/// [`sample`]'s minimum, for the columns no gate compares.
fn best_ns(reps: usize, iters: usize, f: impl FnMut()) -> u128 {
    sample(reps, iters, f).min
}

/// Implementations of one thing, their repetitions alternating (each
/// after a warm-up call of its own): a slow stretch of the host (other
/// tenants, a frequency step) lands on all of them instead of on whichever
/// ran last, which is what a gate on their ratio needs.
fn sample_alternating<const N: usize>(
    reps: usize,
    iters: usize,
    mut fs: [&mut dyn FnMut(); N],
) -> [Sample; N] {
    let mut runs: [Vec<u128>; N] = std::array::from_fn(|_| Vec::new());
    for _ in 0..reps {
        for (f, times) in fs.iter_mut().zip(&mut runs) {
            f();
            times.push(timed(iters, &mut **f));
        }
    }
    runs.map(Sample::of)
}

/// One timed GEMM configuration.
struct GemmRow {
    backend: &'static str,
    m: usize,
    k: usize,
    n: usize,
    ns: Sample,
}

impl GemmRow {
    /// `2mkn` useful FLOPs whatever the backend, so rows compare directly.
    fn gflops(&self) -> f64 {
        let flops = 2.0 * self.m as f64 * self.k as f64 * self.n as f64;
        flops / self.ns.min.max(1) as f64 // FLOP/ns == GFLOP/s
    }
}

/// The `blocked` kernel and the `naive` oracle on the same operands,
/// alternating, so the artifact records what the blocked kernel buys.
fn time_gemm(m: usize, k: usize, n: usize, iters: usize) -> [GemmRow; 2] {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let a = nf_tensor::uniform_init(&mut rng, &[m, k], -1.0, 1.0);
    let b = nf_tensor::uniform_init(&mut rng, &[k, n], -1.0, 1.0);
    // Reusable output buffers: times the steady-state `*_into` hot path.
    let (mut out, mut out_naive) = (Tensor::default(), Tensor::default());
    let [blocked, naive] = sample_alternating(
        REPS,
        iters,
        [
            &mut || nf_tensor::matmul_into(KernelBackend::Blocked, &a, &b, &mut out).unwrap(),
            &mut || nf_tensor::matmul_into(KernelBackend::Naive, &a, &b, &mut out_naive).unwrap(),
        ],
    );
    [
        (KernelBackend::Blocked, blocked),
        (KernelBackend::Naive, naive),
    ]
    .map(|(backend, ns)| GemmRow {
        backend: backend.name(),
        m,
        k,
        n,
        ns,
    })
}

/// Times the int8 frozen-block compute path in its steady state: the u8
/// activations come straight from the cache and the i8 weight panel is
/// packed once per weight version, so per iteration only the integer GEMM
/// plus the per-channel dequantize run — exactly what
/// `Conv2d::forward_quant` executes per batch.
fn time_int8_gemm(m: usize, k: usize, n: usize, iters: usize) -> GemmRow {
    use nf_tensor::kernels::int8;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let a = nf_tensor::uniform_init(&mut rng, &[m, k], -1.0, 1.0);
    let b = nf_tensor::uniform_init(&mut rng, &[k, n], -1.0, 1.0);
    let mut lhs = int8::QuantizedLhs::default();
    lhs.quantize_from_f32(a.data(), m, k);
    let mut rhs = int8::QuantizedRhs::default();
    rhs.pack_from_f32(b.data(), k, n);
    let (mut acc, mut corr) = (Vec::new(), Vec::new());
    let mut out = vec![0.0f32; m * n];
    let ns = sample(REPS, iters, || {
        int8::gemm_i32(&lhs, &rhs, &mut acc);
        int8::dequantize_into(lhs.scale, lhs.min, &rhs, &acc, None, &mut corr, &mut out);
    });
    GemmRow {
        backend: "int8",
        m,
        k,
        n,
        ns,
    }
}

/// One conv pass timed both ways: the explicit lowering the layers used to
/// run (`im2col` + GEMM, or GEMM + `col2im` for the input gradient)
/// against the gathered product that replaced it, on the same operands —
/// and, for the passes that end at an NCHW activation, the product in both
/// orientations; for the weight gradient, the whole stage both ways.
///
/// `gather_ns` is the gathered orientation (positions on the rows): for
/// the forward pass and the input gradient it ends at the NCHW tensor (the
/// GEMM emits it). For the weight gradient (`wgrad`) it is the whole
/// gathered stage, from the NCHW output gradient to `dW` and `db`
/// accumulated: the output gradient transposed to position rows, the
/// `dWᵀ` product, `dWᵀ` added into `dW`, the bias column sums.
/// `positions_ns` is the stage on the positions axis
/// (`ConvGather::wgrad_positions_into`, `kernels::positions_fit`), timed
/// alternately with `gather_ns`; 0 for the other passes. `lanes_ns` is the
/// lane orientation of an NCHW-bound product (positions on the vector
/// lanes, `kernels::lanes_fit`), 0 for `wgrad`; `orientation` names the
/// path the rules pick, which is what the layer runs. `unfused_ns` is the
/// composition the NCHW-bound passes made before the GEMM had an NCHW
/// destination — the same gathered product left as position rows, then
/// the `posrows_to_nchw_into` pass — and `transpose_ns` that pass alone (0
/// for `wgrad`, which has neither). `pad_ns` is the zero-padding of the
/// pass's NCHW operand, inside every column but `explicit`.
/// `gather_ymm_ns` / `lanes_ymm_ns` are the two orientations again with
/// every strip or run on the ymm tile (`kernels::gather_nchw_on_tile`,
/// `simd::lanes_on_tile`), timed alternately with each other, and
/// `positions_ymm_ns` the positions stage on it (`simd::positions_on_tile`):
/// what an AVX2 host runs, measured on any host that has the tile (0
/// elsewhere) — recorded, not gated. `n` is the gathered product's output
/// width, which decides its tile: `c_out` for the forward and the weight
/// gradient, `c_in` for the input gradient.
struct ConvRow {
    pass: &'static str,
    batch: usize,
    c_in: usize,
    c_out: usize,
    hw: usize,
    n: usize,
    explicit: Sample,
    gather: Sample,
    lanes: Sample,
    unfused: Sample,
    gather_ymm: Sample,
    lanes_ymm: Sample,
    positions: Sample,
    positions_ymm: Sample,
    pad_ns: u128,
    transpose_ns: u128,
}

impl ConvRow {
    /// Each timing column's better measurement of two of one row.
    fn keep_min(&mut self, other: &ConvRow) {
        self.explicit.keep_min(other.explicit);
        self.gather.keep_min(other.gather);
        self.lanes.keep_min(other.lanes);
        self.unfused.keep_min(other.unfused);
        self.gather_ymm.keep_min(other.gather_ymm);
        self.lanes_ymm.keep_min(other.lanes_ymm);
        self.positions.keep_min(other.positions);
        self.positions_ymm.keep_min(other.positions_ymm);
        self.pad_ns = self.pad_ns.min(other.pad_ns);
        self.transpose_ns = self.transpose_ns.min(other.transpose_ns);
    }

    /// Whether this pass has two orientations to choose from; the weight
    /// gradient has two paths instead.
    fn has_lanes(&self) -> bool {
        self.pass != "wgrad"
    }

    /// Whether the orientation rule sends this pass to the lanes (every
    /// timed shape is a 3×3 / stride 1 / pad 1 conv, so the product's
    /// output rows are `hw` wide).
    fn on_lanes(&self) -> bool {
        self.has_lanes() && nf_tensor::kernels::lanes_fit(1, self.hw)
    }

    /// Whether the path rule sends this weight gradient to the positions
    /// axis.
    fn on_positions(&self) -> bool {
        !self.has_lanes() && nf_tensor::kernels::positions_fit(1, self.hw, self.c_out)
    }

    /// The path or orientation the rules pick.
    fn picked(&self) -> &'static str {
        match (self.on_lanes(), self.on_positions()) {
            (true, _) => "lanes",
            (_, true) => "positions",
            _ => "gathered",
        }
    }

    /// What the layer runs for this pass: what the rules pick.
    fn layer(&self) -> Sample {
        match (self.on_lanes(), self.on_positions()) {
            (true, _) => self.lanes,
            (_, true) => self.positions,
            _ => self.gather,
        }
    }

    /// The things this table exists to hold (5 % timing-noise margin on
    /// best-of-7 timings, every ratio alike):
    ///
    /// - what the layer runs is faster than building the patch matrix; a
    ///   shape where it is not is a regression of the kernel or of the
    ///   lowering;
    /// - the NCHW destination the layer runs (the gathered product's emit,
    ///   or the lane product's direct store) is faster than the row-major
    ///   product plus the transposing pass it replaced. Until the lane
    ///   orientation the `compute` unit's rows had to win outright, and the
    ///   input gradient's read 0.90–1.03 with where the linker placed the
    ///   oracle pass (EXPERIMENTS.md "Retired generators"); that row now
    ///   runs on the lanes at about 0.7× the composition;
    /// - the orientation rule picks the faster orientation: on a row it
    ///   sends to the lanes they are not slower than the gathered product,
    ///   on a row it keeps gathered the gathered product is not slower than
    ///   the lanes. Only on a host where the rule uses the lanes at all
    ///   (16-float vectors): with 8-float vectors it keeps every product
    ///   gathered, which is slower on the ≤ 6-channel rows by design (see
    ///   `kernels::lanes_fit` and the `*_ymm_ns` columns);
    /// - the weight gradient's path rule picks the faster path: the
    ///   positions stage where `kernels::positions_fit` sends the layer to
    ///   it, the gathered stage elsewhere. On an AVX-512 host only: the rule
    ///   reads no vector width, so on an 8-float host it may pick the
    ///   slower path, which `positions_ymm_ns` records.
    ///
    /// All but the first on full shapes only: the smoke shapes are a few
    /// microseconds a call.
    fn gate(&self, smoke: bool) -> Result<(), String> {
        let ConvRow {
            pass,
            batch,
            c_in,
            c_out,
            hw,
            ..
        } = self;
        let (explicit, layer, unfused) = (self.explicit.min, self.layer().min, self.unfused.min);
        let (gather, lanes) = (self.gather.min, self.lanes.min);
        let picked = self.picked();
        let at = format!("at batch {batch} {c_in}→{c_out} @{hw}²");
        if layer as f64 > explicit as f64 * 1.05 {
            return Err(format!(
                "conv {pass} ({picked}, {layer} ns) slower than explicit lowering + GEMM \
                 ({explicit} ns) {at}"
            ));
        }
        if smoke {
            return Ok(());
        }
        if !self.has_lanes() {
            let other = if self.on_positions() {
                gather
            } else {
                self.positions.min
            };
            let zmm = nf_tensor::kernels::simd::Tile::Zmm.supported();
            if zmm && layer as f64 > other as f64 * 1.05 {
                return Err(format!(
                    "conv {pass}: the path rule picks {picked} ({layer} ns), the other path \
                     takes {other} ns {at}"
                ));
            }
            return Ok(());
        }
        if layer as f64 > unfused as f64 * 1.05 {
            return Err(format!(
                "conv {pass} emitting NCHW ({picked}, {layer} ns) against the row-major \
                 product + transposing pass ({unfused} ns, the pass alone {}) {at}",
                self.transpose_ns
            ));
        }
        let other = if self.on_lanes() { gather } else { lanes };
        let rule_uses_lanes = nf_tensor::kernels::lanes_fit(1, usize::MAX);
        if rule_uses_lanes && layer as f64 > other as f64 * 1.05 {
            return Err(format!(
                "conv {pass}: the rule picks {picked} ({layer} ns), the other orientation \
                 takes {other} ns {at}"
            ));
        }
        Ok(())
    }
}

/// The offset tables of a conv's patch matrix over its padded input —
/// `ConvGather`'s, written out: window origins `(n, oy, ox)`, the origin of
/// each output row `(n, oy)`, and taps `(c, kh, kw)`.
fn patch_tables(
    batch: usize,
    c: usize,
    g: &nf_tensor::Conv2dGeometry,
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let (hp, wp) = (g.in_h + 2 * g.pad, g.in_w + 2 * g.pad);
    let rows: Vec<u32> = (0..batch)
        .flat_map(|img| (0..g.out_h).map(move |oy| (img * c * hp * wp + oy * g.stride * wp) as u32))
        .collect();
    let pos = rows
        .iter()
        .flat_map(|&row| (0..g.out_w).map(move |ox| row + (ox * g.stride) as u32))
        .collect();
    let taps = (0..c)
        .flat_map(|ch| (0..g.k_h).flat_map(move |kh| (0..g.k_w).map(move |kw| (ch, kh, kw))))
        .map(|(ch, kh, kw)| ((ch * hp + kh) * wp + kw) as u32)
        .collect();
    (pos, rows, taps)
}

/// Times forward, weight gradient and input gradient of a 3×3 / stride 1
/// / pad 1 convolution at one shape, explicit vs gathered vs lanes, on the
/// fixed `blocked` plan. Every side starts from NCHW operands (plus the
/// output gradient as position rows, which either backward pass needs
/// anyway) and ends at what the layer consumes next: NCHW output (bias
/// added), `dWᵀ` / `dW`, NCHW `dx`.
fn time_conv(batch: usize, c_in: usize, c_out: usize, hw: usize, iters: usize) -> Vec<ConvRow> {
    use nf_tensor::kernels::simd::{lanes_on_tile, positions_on_tile, Tile};
    use nf_tensor::kernels::{gather_nchw_on_tile, Dest, GatherA};
    use nf_tensor::{
        axpy, col2im_batch_into, flip_kernel_panel_into, im2col_batch_into, matmul_at_b_into,
        matmul_into, nchw_to_posrows, nchw_to_posrows_into, pad_nchw_into, posrows_to_nchw_into,
        sum_axis0_acc, transpose2d, Conv2dGeometry, ConvGather, Tensor,
    };
    let backend = KernelBackend::Blocked;
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let geom = Conv2dGeometry::new(hw, hw, 3, 3, 1, 1).unwrap();
    let dgeom = geom.input_grad_geometry().expect("stride-1 conv");
    let x = nf_tensor::uniform_init(&mut rng, &[batch, c_in, hw, hw], -1.0, 1.0);
    let weight = nf_tensor::uniform_init(&mut rng, &[c_out, c_in * 9], -1.0, 1.0);
    let bias = nf_tensor::uniform_init(&mut rng, &[c_out], -1.0, 1.0);
    let bias = Some(bias.data());
    let grad_out = nf_tensor::uniform_init(&mut rng, &[batch, c_out, hw, hw], -1.0, 1.0);
    let wt = transpose2d(&weight).unwrap();
    let g_rows = nchw_to_posrows(&grad_out).unwrap();
    let mut flipped = Tensor::default();
    flip_kernel_panel_into(&weight, c_in, 3, 3, &mut flipped).unwrap();

    let (mut cols, mut out, mut dx) = (Tensor::default(), Tensor::default(), Tensor::default());
    let (mut padded, mut pack) = (Tensor::default(), Vec::new());
    let reps = REPS;
    let row = |pass,
               n,
               explicit,
               [gather, lanes, unfused, gather_ymm, lanes_ymm]: [Sample; 5],
               pad_ns,
               transpose_ns| ConvRow {
        pass,
        batch,
        c_in,
        c_out,
        hw,
        n,
        explicit,
        gather,
        lanes,
        unfused,
        gather_ymm,
        lanes_ymm,
        positions: Sample::default(),
        positions_ymm: Sample::default(),
        pad_ns,
        transpose_ns,
    };
    let pad_x = best_ns(reps, iters, || {
        pad_nchw_into(&x, geom.pad, &mut padded).unwrap()
    });
    let pad_g = best_ns(reps, iters, || {
        pad_nchw_into(&grad_out, dgeom.pad, &mut padded).unwrap()
    });
    // The pass the NCHW destination removed, alone: `rows` is the forward
    // product, then the input gradient's, as position rows.
    let mut rows = Tensor::zeros(&[batch * hw * hw, c_out]);
    let to_nchw_y = best_ns(reps, iters, || {
        posrows_to_nchw_into(&rows, bias, batch, c_out, hw, hw, &mut out).unwrap();
    });
    // An NCHW-bound pass three ways from the same operands, alternating:
    // pad + the gathered product emitting NCHW, pad + the lane product
    // storing NCHW, and the composition before either — pad, the gathered
    // product into position rows, the pass. Then both orientations once
    // more on the ymm tile, alternating with each other. `(gathered, lanes,
    // unfused, gathered on ymm, lanes on ymm)`.
    let mut five = |src: &Tensor, g: &Conv2dGeometry, panel: &Tensor, bias: Option<&[f32]>| {
        let (c, n, plane) = (src.shape()[1], panel.shape()[1], g.out_positions());
        let (pos, out_rows, taps) = patch_tables(batch, c, g);
        let dest = Dest::Nchw { plane, bias };
        let gemm = backend.backend();
        let mut bufs: [(Tensor, Vec<f32>, Tensor); 3] = Default::default();
        let [gathered, lanes, unfused] = &mut bufs;
        let times = sample_alternating(
            2 * reps,
            iters,
            [
                &mut || {
                    let (padded, pack, nchw) = &mut *gathered;
                    pad_nchw_into(src, g.pad, padded).unwrap();
                    let a = GatherA::new(padded.data(), &pos, &taps).unwrap();
                    nchw.reuse_as(&[batch, n, g.out_h, g.out_w]);
                    gemm.gemm_gather(&a, n, panel.data(), dest, nchw.data_mut(), pack);
                },
                &mut || {
                    let (padded, pack, nchw) = &mut *lanes;
                    pad_nchw_into(src, g.pad, padded).unwrap();
                    let a = GatherA::new(padded.data(), &pos, &taps).unwrap();
                    let a = a.with_runs(&out_rows, g.out_w).unwrap();
                    nchw.reuse_as(&[batch, n, g.out_h, g.out_w]);
                    gemm.gemm_gather(&a, n, panel.data(), dest, nchw.data_mut(), pack);
                },
                &mut || {
                    let (padded, pack, nchw) = &mut *unfused;
                    pad_nchw_into(src, g.pad, padded).unwrap();
                    let a = GatherA::new(padded.data(), &pos, &taps).unwrap();
                    rows.reuse_as(&[batch * hw * hw, n]);
                    let (b, c) = (panel.data(), rows.data_mut());
                    gemm.gemm_gather(&a, n, b, Dest::RowMajor, c, pack);
                    posrows_to_nchw_into(&rows, bias, batch, n, hw, hw, nchw).unwrap();
                },
            ],
        );
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&bufs[0].2), bits(&bufs[1].2), "lanes ≠ gathered bits");
        assert_eq!(bits(&bufs[0].2), bits(&bufs[2].2), "NCHW ≠ unfused bits");
        let mut ymm: [(Tensor, Vec<f32>, Tensor); 2] = Default::default();
        let [gathered, lanes] = &mut ymm;
        let on_ymm = if Tile::Ymm.supported() {
            sample_alternating(
                reps,
                iters,
                [
                    &mut || {
                        let (padded, pack, nchw) = &mut *gathered;
                        pad_nchw_into(src, g.pad, padded).unwrap();
                        let a = GatherA::new(padded.data(), &pos, &taps).unwrap();
                        nchw.reuse_as(&[batch, n, g.out_h, g.out_w]);
                        let (b, out) = (panel.data(), nchw.data_mut());
                        gather_nchw_on_tile(Tile::Ymm, &a, n, b, plane, bias, out, pack);
                    },
                    &mut || {
                        let (padded, _, nchw) = &mut *lanes;
                        pad_nchw_into(src, g.pad, padded).unwrap();
                        let a = GatherA::new(padded.data(), &pos, &taps).unwrap();
                        let a = a.with_runs(&out_rows, g.out_w).unwrap();
                        nchw.reuse_as(&[batch, n, g.out_h, g.out_w]);
                        let (b, out) = (panel.data(), nchw.data_mut());
                        lanes_on_tile(Tile::Ymm, &a, n, b, plane, bias, out);
                    },
                ],
            )
        } else {
            Default::default()
        };
        if Tile::Ymm.supported() {
            assert_eq!(
                bits(&bufs[0].2),
                bits(&ymm[0].2),
                "gathered on ymm ≠ gathered bits"
            );
            assert_eq!(
                bits(&bufs[0].2),
                bits(&ymm[1].2),
                "lanes on ymm ≠ gathered bits"
            );
        }
        let [gathered, lanes, unfused] = times;
        let [gathered_ymm, lanes_ymm] = on_ymm;
        [gathered, lanes, unfused, gathered_ymm, lanes_ymm]
    };
    let fwd_times = five(&x, &geom, &wt, bias);
    // (The input gradient is the forward product over the gradient's
    // geometry, with the flipped panel and no bias.)
    let dgrad_times = five(&grad_out, &dgeom, &flipped, None);
    let to_nchw_dx = best_ns(reps, iters, || {
        posrows_to_nchw_into(&rows, None, batch, c_in, hw, hw, &mut dx).unwrap();
    });
    let mut y_rows = Tensor::default();
    let fwd = row(
        "fwd",
        c_out,
        sample(reps, iters, || {
            im2col_batch_into(&x, &geom, &mut cols).unwrap();
            matmul_into(backend, &cols, &wt, &mut y_rows).unwrap();
            posrows_to_nchw_into(&y_rows, bias, batch, c_out, hw, hw, &mut out).unwrap();
        }),
        fwd_times,
        pad_x,
        to_nchw_y,
    );
    // The weight-gradient stage, from the NCHW output gradient and the
    // input to `dW` and `db` accumulated, three ways: explicit (`im2col`,
    // `gᵀ·patches` straight into `dW`'s layout), the gathered `dWᵀ` stage
    // and the positions stage — the last two alternating.
    let taps = c_in * 9;
    let zeros = || (Tensor::zeros(&[c_out, taps]), Tensor::zeros(&[c_out]));
    let (mut g_buf, mut dw_rows) = (Tensor::default(), Tensor::default());
    let (mut dw, mut db) = zeros();
    let explicit = sample(reps, iters, || {
        nchw_to_posrows_into(&grad_out, &mut g_buf).unwrap();
        im2col_batch_into(&x, &geom, &mut cols).unwrap();
        matmul_at_b_into(backend, &g_buf, &cols, &mut dw_rows, &mut pack).unwrap();
        axpy(1.0, &dw_rows, &mut dw).unwrap();
        sum_axis0_acc(&g_buf, &mut db).unwrap();
    });
    let mut stages: [(Tensor, Vec<f32>, Tensor, Tensor, ConvGather); 2] = Default::default();
    for (_, _, dw, db, _) in &mut stages {
        (*dw, *db) = zeros();
    }
    let [gathered, positions] = &mut stages;
    let [gather_stage, positions_stage] = sample_alternating(
        reps,
        iters,
        [
            &mut || {
                let (padded, pack, dw, db, patches) = &mut *gathered;
                pad_nchw_into(&x, geom.pad, padded).unwrap();
                nchw_to_posrows_into(&grad_out, &mut g_buf).unwrap();
                patches
                    .wgrad_into(backend, padded, &geom, &g_buf, pack, &mut out)
                    .unwrap();
                for (q, dwt_row) in out.data().chunks_exact(c_out).enumerate() {
                    let dw_col = dw.data_mut()[q..].iter_mut().step_by(taps);
                    for (d, &v) in dw_col.zip(dwt_row) {
                        *d += v;
                    }
                }
                sum_axis0_acc(&g_buf, db).unwrap();
            },
            &mut || {
                let (padded, pack, dw, db, patches) = &mut *positions;
                pad_nchw_into(&x, geom.pad, padded).unwrap();
                patches
                    .wgrad_positions_into(padded, &geom, &grad_out, pack, dw, db)
                    .unwrap();
            },
        ],
    );
    // The positions stage on the ymm tile, and once more dispatched, from
    // zero: equal bits.
    let (pos, out_rows, taps_tbl) = patch_tables(batch, c_in, &geom);
    let (mut dw_ymm, mut db_ymm) = zeros();
    let positions_ymm = if Tile::Ymm.supported() {
        sample(reps, iters, || {
            pad_nchw_into(&x, geom.pad, &mut padded).unwrap();
            let a = GatherA::new(padded.data(), &pos, &taps_tbl).unwrap();
            let a = a.with_runs(&out_rows, geom.out_w).unwrap();
            let (dw, db) = (dw_ymm.data_mut(), db_ymm.data_mut());
            let plane = geom.out_positions();
            positions_on_tile(Tile::Ymm, &a, grad_out.data(), plane, dw, db, &mut pack);
        })
    } else {
        Sample::default()
    };
    if Tile::Ymm.supported() {
        let (mut once, mut once_db) = zeros();
        let (mut ymm, mut ymm_db) = zeros();
        let (padded, pack, ..) = &mut stages[1];
        let mut patches = ConvGather::new();
        patches
            .wgrad_positions_into(padded, &geom, &grad_out, pack, &mut once, &mut once_db)
            .unwrap();
        let a = GatherA::new(padded.data(), &pos, &taps_tbl).unwrap();
        let a = a.with_runs(&out_rows, geom.out_w).unwrap();
        let (dw, db, plane) = (ymm.data_mut(), ymm_db.data_mut(), geom.out_positions());
        positions_on_tile(Tile::Ymm, &a, grad_out.data(), plane, dw, db, pack);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&once),
            bits(&ymm),
            "positions on ymm ≠ dispatched dW bits"
        );
        assert_eq!(
            bits(&once_db),
            bits(&ymm_db),
            "positions on ymm ≠ dispatched db bits"
        );
    }
    let mut wgrad = row(
        "wgrad",
        c_out,
        explicit,
        [
            gather_stage,
            Sample::default(),
            Sample::default(),
            Sample::default(),
            Sample::default(),
        ],
        pad_x,
        0,
    );
    (wgrad.positions, wgrad.positions_ymm) = (positions_stage, positions_ymm);
    let dgrad = row(
        "dgrad",
        c_in,
        sample(reps, iters, || {
            matmul_into(backend, &g_rows, &weight, &mut out).unwrap();
            col2im_batch_into(&out, batch, c_in, &geom, &mut dx).unwrap();
        }),
        dgrad_times,
        pad_g,
        to_nchw_dx,
    );
    vec![fwd, wgrad, dgrad]
}

/// One frozen-block entry layer timed three ways from the same
/// int8-cached activations, each ending at the layer's NCHW output: the
/// gathered integer path `Conv2d::forward_quant` runs (pad the `u8` input,
/// gathered `i32` GEMM, dequantize on the way to NCHW), the explicit
/// integer lowering it replaced (`u8` `im2col`, dense `i32` GEMM,
/// dequantize into position rows, the transposing pass), and the f32
/// alternative (decode to f32, gathered forward on the `blocked` plan).
///
/// `pad_u8_ns` is inside `gather_i32` (one `forward_quant_into` call); it
/// is timed again on its own to show the split. `dequantize` + `transpose`
/// is what `dequantize_nchw` replaced in the layer.
struct ConvInt8Row {
    batch: usize,
    c_in: usize,
    c_out: usize,
    hw: usize,
    im2col_u8: Sample,
    gemm_i32: Sample,
    pad_u8_ns: u128,
    gather_i32: Sample,
    dequantize: Sample,
    transpose: Sample,
    dequantize_nchw: Sample,
    f32_decode_ns: u128,
    f32_gather_ns: u128,
}

impl ConvInt8Row {
    /// The explicit integer lowering, stage by stage (sums of the stages'
    /// minima and of their medians).
    fn explicit(&self) -> Sample {
        self.im2col_u8 + self.gemm_i32 + self.dequantize + self.transpose
    }
    /// The gathered integer path the layer runs.
    fn int8(&self) -> Sample {
        self.gather_i32 + self.dequantize_nchw
    }
    fn f32_ns(&self) -> u128 {
        self.f32_decode_ns + self.f32_gather_ns
    }
}

fn time_conv_int8(batch: usize, c_in: usize, c_out: usize, hw: usize, iters: usize) -> ConvInt8Row {
    use nf_tensor::kernels::int8;
    use nf_tensor::{
        im2col_batch_u8_into, pad_nchw_into, pad_nchw_u8_into, posrows_to_nchw_into, transpose2d,
        Conv2dGeometry, ConvGather, QuantTensor, Tensor,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let geom = Conv2dGeometry::new(hw, hw, 3, 3, 1, 1).unwrap();
    let x = nf_tensor::uniform_init(&mut rng, &[batch, c_in, hw, hw], -1.0, 1.0);
    let weight = nf_tensor::uniform_init(&mut rng, &[c_out, c_in * 9], -1.0, 1.0);
    let wt = transpose2d(&weight).unwrap();
    let qx = QuantTensor::from_f32(&x);
    let (mut rhs, mut rhs_rows) = (int8::QuantizedRhs::default(), int8::QuantizedRhs::default());
    rhs.pack_from_f32(wt.data(), c_in * 9, c_out);
    rhs_rows.pack_runs_from_f32(wt.data(), c_in * 9, c_out, geom.k_w);
    let pad_byte = int8::zero_point(qx.min(), qx.scale());
    let mut lhs = int8::QuantizedLhs::default();
    let (mut acc, mut acc_gathered, mut corr) = (Vec::new(), Vec::new(), Vec::new());
    let bias = vec![0.25f32; c_out];
    let mut y = Tensor::zeros(&[batch * hw * hw, c_out]);
    let reps = REPS;
    let im2col_u8 = sample(reps, iters, || {
        im2col_batch_u8_into(&qx, &geom, pad_byte, &mut lhs).unwrap();
    });
    let gemm_i32 = sample(reps, iters, || int8::gemm_i32(&lhs, &rhs, &mut acc));
    let (mut padded_u8, mut patches) = (Vec::new(), ConvGather::new());
    let pad_u8_ns = best_ns(reps, iters, || {
        pad_nchw_u8_into(&qx, geom.pad, pad_byte, 1, &mut padded_u8).unwrap();
    });
    let gather_i32 = sample(reps, iters, || {
        patches
            .forward_quant_into(&qx, &geom, &rhs_rows, &mut padded_u8, &mut acc_gathered)
            .unwrap();
    });
    assert_eq!(acc_gathered, acc, "gathered int8 accumulators differ");
    let (scale, min) = (qx.scale(), qx.min());
    let dequantize = sample(reps, iters, || {
        int8::dequantize_into(scale, min, &rhs, &acc, Some(&bias), &mut corr, y.data_mut())
    });
    let (mut decoded, mut padded, mut out) =
        (Tensor::default(), Tensor::default(), Tensor::default());
    let transpose = sample(reps, iters, || {
        posrows_to_nchw_into(&y, None, batch, c_out, hw, hw, &mut out).unwrap()
    });
    let mut fused = Tensor::zeros(&[batch, c_out, hw, hw]);
    let dequantize_nchw = sample(reps, iters, || {
        let (plane, nchw) = (hw * hw, fused.data_mut());
        int8::dequantize_nchw_into(scale, min, &rhs, &acc, &bias, &mut corr, plane, nchw)
    });
    assert_eq!(
        fused, out,
        "dequantize to NCHW differs from dequantize + transpose"
    );
    let mut pack = Vec::new();
    let f32_decode_ns = best_ns(reps, iters, || qx.dequantize_into(&mut decoded).unwrap());
    let f32_gather_ns = best_ns(reps, iters, || {
        pad_nchw_into(&decoded, geom.pad, &mut padded).unwrap();
        patches
            .forward_into(
                KernelBackend::Blocked,
                &padded,
                &geom,
                &wt,
                Some(&bias),
                &mut pack,
                &mut out,
            )
            .unwrap();
    });
    ConvInt8Row {
        batch,
        c_in,
        c_out,
        hw,
        im2col_u8,
        gemm_i32,
        pad_u8_ns,
        gather_i32,
        dequantize,
        transpose,
        dequantize_nchw,
        f32_decode_ns,
        f32_gather_ns,
    }
}

/// Dense `size³` on the dispatching `blocked` backend and on each tile the
/// host has, every strip driven directly on that tile
/// (`simd::gemm_on_tile`) over the same operands: `(name, ns)` rows,
/// `blocked` first.
fn time_tiles(size: usize, iters: usize) -> Vec<(&'static str, Sample)> {
    use nf_tensor::kernels::simd::{gemm_on_tile, Tile};
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let a = nf_tensor::uniform_init(&mut rng, &[size, size], -1.0, 1.0);
    let b = nf_tensor::uniform_init(&mut rng, &[size, size], -1.0, 1.0);
    let mut out = nf_tensor::Tensor::default();
    let mut rows = vec![(
        "blocked",
        sample(REPS, iters, || {
            nf_tensor::matmul_into(KernelBackend::Blocked, &a, &b, &mut out).unwrap()
        }),
    )];
    let mut raw = vec![0.0f32; size * size];
    for tile in Tile::ALL.into_iter().filter(|t| t.supported()) {
        let ns = sample(REPS, iters, || {
            gemm_on_tile(tile, size, size, size, a.data(), b.data(), &mut raw);
        });
        rows.push((tile.name(), ns));
    }
    rows
}

/// Minor page faults of this process so far, from `/proc/self/stat`
/// (field 10); 0 when unavailable (non-Linux).
fn minor_faults() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name (field 2) may hold spaces; count from its `)`.
            let rest = &s[s.rfind(')')? + 1..];
            rest.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// The `BENCH_train_step.json` row: one full local-learning training step
/// on the quickstart-shaped model with adaptive heads, arranged as the
/// Worker arranges them — [`LocalStep::train_unit`] per unit over one
/// minibatch, the Worker's inner loop, layers writing into tensors kept
/// across steps (the timed region holds the step and nothing else). Its
/// inverse is the steps/sec the trend line tracks; a warmed-up step reuses
/// every buffer it touches, so it should not allocate and may not fault
/// more than a handful of pages (gated here).
fn time_train_step(smoke: bool) -> Table {
    let (channels, hw, classes, batch): (&[usize], usize, usize, usize) = if smoke {
        (&[4, 8], 8, 3, 8)
    } else {
        // examples/quickstart.toml: tiny preset, channels [8,16,16,32,32,32],
        // 16×16 images, 4 classes, batch_limit 32.
        (&[8, 16, 16, 32, 32, 32], 16, 4, 32)
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let spec = ModelSpec::tiny("bench", hw, channels, classes);
    let mut model = spec.build(&mut rng).unwrap();
    let mut heads = build_aux_heads(&mut rng, &spec, AuxPolicy::Adaptive).unwrap();
    model.prepare_local_learning(&mut heads, KernelBackend::default());
    let sgd = Sgd::new(0.05).with_momentum(0.9);
    let images = nf_tensor::uniform_init(&mut rng, &[batch, 3, hw, hw], -1.0, 1.0);
    let labels: Vec<usize> = (0..batch).map(|i| i % classes).collect();
    let mut step = LocalStep::default();
    let mut run = || {
        step.cur.copy_from(&images);
        for (unit, head) in model.units.iter_mut().zip(&mut heads) {
            step.train_unit(&sgd, unit, head, &labels).unwrap();
        }
    };

    let (warmup, iters) = if smoke { (2, 3) } else { (5, 40) };
    for _ in 0..warmup {
        run();
    }
    // Reading the fault count allocates; the allocation count is read
    // inside it on both ends.
    let faults = minor_faults();
    let allocs = counting_alloc::allocations();
    let ns = sample(REPS, iters, run);
    let steps = REPS * iters + 1;
    let allocs = counting_alloc::allocations() - allocs;
    let faults = (minor_faults() - faults) as f64 / steps as f64;
    assert!(
        faults <= 4.0,
        "a warmed-up training step took {faults} minor faults"
    );
    let mut row = Table::new();
    row.insert(
        "backend",
        Value::Str(KernelBackend::default().name().into()),
    );
    row.insert("steps", int(steps));
    row.insert("ns_per_step", int(ns.min));
    row.insert("median_ns_per_step", int(ns.median));
    row.insert("iqr_ns_per_step", int(ns.iqr));
    row.insert("steps_per_sec", Value::Float(round2(1e9 / ns.min as f64)));
    row.insert(
        "allocs_per_step",
        Value::Float(round2(allocs as f64 / steps as f64)),
    );
    row.insert("minor_faults_per_step", Value::Float(round2(faults)));
    row
}

/// The streaming layers around the GEMM — batch norm, 2×2 max-pool, ReLU,
/// global average pool — each pass alone through the `_into` entry points,
/// at the shapes the repo benchmark's `compute` and `quant` configs run
/// them at: a unit's layers at its batch × channels × plane (`compute`
/// units 0–1, `quant` unit 2), global average pooling — which only occurs
/// inside an auxiliary head — at that unit's head's filter count. One
/// `layers` row per pass.
fn time_layers(iters: usize) -> Vec<Value> {
    let mut rows = Vec::new();
    let mut push = |layer: &str, shape: [usize; 4], ns: Sample| {
        let mut row = Table::new();
        row.insert("layer", Value::Str(layer.into()));
        row.insert("shape", Value::Array(shape.map(int).to_vec()));
        row.insert("ns_per_iter", int(ns.min));
        row.insert("median_ns", int(ns.median));
        row.insert("iqr_ns", int(ns.iqr));
        rows.push(row.build());
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let mut time = |layer: &mut dyn Layer, shape: [usize; 4], fwd, bwd: Option<&'static str>| {
        let x = nf_tensor::uniform_init(&mut rng, &shape, -1.0, 1.0);
        let (mut y, mut dx) = (Tensor::default(), Tensor::default());
        layer.forward_into(&x, Mode::Train, &mut y).unwrap();
        let dy = nf_tensor::uniform_init(&mut rng, y.shape(), -1.0, 1.0);
        let ns = sample(REPS, iters, || {
            layer.forward_into(&x, Mode::Train, &mut y).unwrap()
        });
        push(fwd, shape, ns);
        let Some(bwd) = bwd else { return };
        // Each backward consumes a forward's cache: time the pair and
        // take the forward's minimum back out (the spread is the pair's).
        let pair = sample(REPS, iters, || {
            layer.forward_into(&x, Mode::Train, &mut y).unwrap();
            layer.backward_into(&dy, &mut dx).unwrap();
        });
        let less = |a: u128| a.saturating_sub(ns.min);
        let (min, median) = (less(pair.min), less(pair.median));
        push(
            bwd,
            shape,
            Sample {
                min,
                median,
                iqr: pair.iqr,
            },
        );
    };
    for (unit, aux_filters) in [([8usize, 16, 32, 32], 8usize), ([11, 12, 24, 24], 6)] {
        let [n, c, h, w] = unit;
        time(&mut BatchNorm2d::new(c), unit, "bn_fwd", Some("bn_bwd"));
        let pool = &mut MaxPool2d::new(2, 2);
        time(pool, unit, "maxpool2x2_fwd", Some("maxpool2x2_bwd"));
        let relu = &mut nf_nn::relu::ReLU::new();
        time(relu, unit, "relu_fwd", Some("relu_bwd"));
        let gap = &mut GlobalAvgPool::new();
        time(gap, [n, aux_filters, h, w], "gap_fwd", None);
    }
    rows
}

/// The workspace root (not the CWD).
fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Artifact path: always the workspace root, and smoke runs write
/// `*.smoke.json` so the CI variant can never clobber the committed
/// full-shape trend line.
fn artifact_path(base: &str, smoke: bool) -> std::path::PathBuf {
    let suffix = if smoke { ".smoke.json" } else { ".json" };
    repo_root().join(format!("{base}{suffix}"))
}

/// The keys [`header`] writes, required of every artifact.
const HEADER_KEYS: [&str; 5] = ["schema", "rev", "mode", "host", "reps"];

/// The provenance both artifacts open with, so two of them can be
/// compared across commits and hosts: which tree (`git describe --always
/// --dirty`, the short commit hash plus `-dirty` when tracked files
/// differ from it; `"unknown"` where git or the repository is absent),
/// which shapes (`smoke` | `full`), which machine — CPUs online, CPUs this
/// process may run on (what the kernels' fan-out rule sees; 1 under
/// `taskset -c 0`), the CPU model, the f32 and int8 tiles dispatched — and
/// how many repetitions stand behind each timing.
fn header(schema: &str, smoke: bool) -> Table {
    let rev = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--exclude=*"])
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |rev| rev.trim().to_string());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
        .map_or("unknown", |(_, name)| name.trim());
    let online = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let mut host = Table::new();
    host.insert("cores", int(online));
    host.insert("affinity_cpus", int(nf_tensor::host_cores()));
    host.insert("cpu", Value::Str(cpu.into()));
    host.insert(
        "simd",
        Value::Str(nf_tensor::kernels::simd::kernel_name().into()),
    );
    host.insert(
        "simd_int8",
        Value::Str(nf_tensor::kernels::int8::kernel_name().into()),
    );
    let mut doc = Table::new();
    doc.insert("schema", Value::Str(schema.into()));
    doc.insert("rev", Value::Str(rev));
    doc.insert(
        "mode",
        Value::Str(if smoke { "smoke" } else { "full" }.into()),
    );
    doc.insert("host", host);
    doc.insert("reps", int(REPS));
    doc
}

/// Writes `value` to `path`, re-reads it through the `nf-value` reader and
/// checks [`HEADER_KEYS`] and its `required` keys: `"key"` must be present
/// at the top level, `"table.key"` in every row of the top-level array
/// `table`.
fn write_and_check(path: &std::path::Path, value: &Value, required: &[&str]) {
    let json = value.to_json();
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    // Round-trip through the real parser: a malformed artifact must fail
    // loudly here, not downstream in whatever consumes the trend line.
    let parsed = nf_value::json::parse(&json)
        .unwrap_or_else(|e| panic!("{} malformed: {e}", path.display()));
    for key in HEADER_KEYS.iter().chain(required) {
        let present = match key.split_once('.') {
            None => parsed.get(key).is_some(),
            Some((table, column)) => parsed
                .get(table)
                .and_then(|t| t.as_array())
                .is_some_and(|rows| rows.iter().all(|row| row.get(column).is_some())),
        };
        assert!(present, "{} missing required key {key:?}", path.display());
    }
    println!("wrote {}", path.display());
}

/// A count or a nanosecond reading as a JSON integer.
fn int(v: impl TryInto<i64>) -> Value {
    Value::Int(v.try_into().unwrap_or(i64::MAX))
}

/// Rounds a throughput figure to two decimals for stable, diffable
/// artifacts.
fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    // --- Training-step throughput (first, on a fresh heap) ---
    let step = time_train_step(smoke);
    let layer_rows = time_layers(if smoke { 5 } else { 50 });

    // --- GEMM throughput ---
    let shapes: &[(usize, usize, usize)] = if smoke {
        &[(17, 33, 9), (32, 64, 32)]
    } else {
        &[(128, 1152, 256), (256, 256, 256), (512, 4608, 64)]
    };
    let iters = if smoke { 3 } else { 20 };
    let mut rows = Vec::new();
    for &(m, k, n) in shapes {
        rows.extend(time_gemm(m, k, n, iters));
        rows.push(time_int8_gemm(m, k, n, iters));
    }

    // --- Conv lowering: explicit vs gathered vs lanes ---
    // Full shapes `(batch, c_in, c_out, hw)`: the repo benchmark's
    // `compute` unit (16→16 @32²), a narrow early layer whose `c_out` lives
    // in the masked tile (3→6 @64²) and a wide late one (64→64 @8²), at
    // batch 1 (serving) and 8; then the narrow layers the lane orientation
    // is for, at the batch the benchmark trains them: `cache_io` 4→4 @64²,
    // `quant` 8→4 @48², `compute`'s aux head 16→8 @32².
    let conv_shapes: &[(usize, usize, usize, usize)] = if smoke {
        &[(1, 4, 8, 8), (8, 4, 8, 8), (1, 3, 5, 12), (8, 3, 5, 12)]
    } else {
        &[
            (1, 16, 16, 32),
            (8, 16, 16, 32),
            (1, 3, 6, 64),
            (8, 3, 6, 64),
            (1, 64, 64, 8),
            (8, 64, 64, 8),
            (3, 4, 4, 64),
            (6, 8, 4, 48),
            (8, 16, 8, 32),
        ]
    };
    // The gates on every row, see `ConvRow::gate`. Host noise only ever
    // slows a sample, and on a shared host it comes in bursts longer than
    // one shape's measurement: a shape that misses a gate is measured
    // again, twice at most, each column keeping its minimum.
    let mut conv_rows = Vec::new();
    for &(batch, c_in, c_out, hw) in conv_shapes {
        let mut rows = time_conv(batch, c_in, c_out, hw, iters);
        for _ in 0..2 {
            if rows.iter().all(|r| r.gate(smoke).is_ok()) {
                break;
            }
            for (row, again) in rows
                .iter_mut()
                .zip(time_conv(batch, c_in, c_out, hw, iters))
            {
                row.keep_min(&again);
            }
        }
        conv_rows.extend(rows);
    }
    for r in &conv_rows {
        if let Err(why) = r.gate(smoke) {
            panic!("{why}");
        }
    }

    // --- The int8 entry layer: gathered vs explicit, and vs f32 ---
    // Full shapes: the three frozen-block entry layers of the repo
    // benchmark's `quant` workload (8→8 @48², 8→12 and 12→12 @24²) at the
    // batch its regeneration runs them. Gated like the f32 `conv` table:
    // the gathered integer lowering must not be slower than the explicit
    // one it replaced (5 % margin on best-of-7). Against f32 a slower row
    // is a printed warning: what is left there is the kernel's (ROADMAP
    // item 2's next levers), not the lowering's.
    let int8_shapes: &[(usize, usize, usize, usize)] = if smoke {
        &[(2, 4, 8, 8)]
    } else {
        &[(6, 8, 8, 48), (17, 8, 12, 24), (17, 12, 12, 24)]
    };
    let conv_int8_rows: Vec<ConvInt8Row> = int8_shapes
        .iter()
        .map(|&(batch, c_in, c_out, hw)| time_conv_int8(batch, c_in, c_out, hw, iters))
        .collect();
    for r in &conv_int8_rows {
        let ConvInt8Row {
            batch,
            c_in,
            c_out,
            hw,
            ..
        } = r;
        let (int8, explicit) = (r.int8().min, r.explicit().min);
        assert!(
            int8 as f64 <= explicit as f64 * 1.05,
            "gathered int8 conv forward ({int8} ns: pad+gather, dequantize to NCHW = {:?}) slower \
             than the explicit lowering ({explicit} ns: im2col_u8, gemm_i32, dequantize, \
             transpose = {:?}) at batch {batch} {c_in}→{c_out} @{hw}²",
            [r.gather_i32.min, r.dequantize_nchw.min],
            [r.im2col_u8, r.gemm_i32, r.dequantize, r.transpose].map(|s| s.min),
        );
        if int8 > r.f32_ns() {
            println!(
                "warning: int8 conv forward {c_in}→{c_out} @{hw}² batch {batch} takes {int8} ns \
                 against {} ns in f32: {:.2}× slower (stages in the artifact's `conv_int8` row)",
                r.f32_ns(),
                int8 as f64 / r.f32_ns().max(1) as f64
            );
        }
    }

    // --- The register tile at each width the host has, dense 256³ ---
    // Where the host has AVX-512 the dispatcher must actually be using
    // it: `blocked` has to beat the ymm tile driven directly over the same
    // operands by 1.5× (5 % timing-noise margin on best-of-7 timings).
    use nf_tensor::kernels::simd::Tile;
    let tile_rows = time_tiles(256, iters);
    let tile_ns = |name: &str| tile_rows.iter().find(|r| r.0 == name).map(|r| r.1.min);
    if Tile::Zmm.supported() {
        let (blocked, ymm) = (
            tile_ns("blocked").unwrap(),
            tile_ns(Tile::Ymm.name()).unwrap(),
        );
        assert!(
            blocked as f64 * 1.5 <= ymm as f64 * 1.05,
            "blocked 256³ ({blocked} ns) is not 1.5× the ymm tile driven directly \
             ({ymm} ns) on an AVX-512 host — the zmm tiles are not being dispatched"
        );
    } else {
        println!("skipping zmm>=1.5×ymm check: host has no AVX-512F");
    }

    // Another backend's rate on a row's shape, for the ratio columns.
    let gflops_of = |backend: &str, like: &GemmRow| {
        rows.iter()
            .find(|b| b.backend == backend && (b.m, b.k, b.n) == (like.m, like.k, like.n))
            .map(GemmRow::gflops)
    };

    use nf_tensor::kernels::FAN_OUT_MIN_MACS;
    let mut gemm = header("nf-bench-gemm-v2", smoke);
    gemm.insert("fan_out_min_macs", int(FAN_OUT_MIN_MACS));
    gemm.insert(
        "results",
        Value::Array(
            rows.iter()
                .map(|r| {
                    let mut row = Table::new();
                    row.insert("backend", Value::Str(r.backend.into()));
                    row.insert("m", int(r.m));
                    row.insert("k", int(r.k));
                    row.insert("n", int(r.n));
                    row.insert("ns_per_iter", int(r.ns.min));
                    row.insert("median_ns", int(r.ns.median));
                    row.insert("gflops", Value::Float(round2(r.gflops())));
                    // The widest f32 tile a dispatched row ran on.
                    if r.backend == "blocked" {
                        let tile = Tile::for_strip(r.n).name();
                        row.insert("tile", Value::Str(tile.into()));
                    }
                    // What the blocked kernel buys over the oracle, and
                    // quantized compute over the blocked kernel, on the
                    // same operands.
                    let base = match r.backend {
                        "blocked" => "naive",
                        "int8" => "blocked",
                        _ => "",
                    };
                    if let Some(base_rate) = gflops_of(base, r) {
                        let ratio = Value::Float(round2(r.gflops() / base_rate));
                        row.insert(&format!("speedup_vs_{base}"), ratio);
                    }
                    row.build()
                })
                .collect(),
        ),
    );
    gemm.insert(
        "conv",
        Value::Array(
            conv_rows
                .iter()
                .map(|r| {
                    let mut row = Table::new();
                    row.insert("pass", Value::Str(r.pass.into()));
                    row.insert("batch", int(r.batch));
                    row.insert("c_in", int(r.c_in));
                    row.insert("c_out", int(r.c_out));
                    row.insert("hw", int(r.hw));
                    row.insert("tile", Value::Str(Tile::for_strip(r.n).name().into()));
                    row.insert("orientation", Value::Str(r.picked().into()));
                    r.explicit.insert_into(&mut row, "explicit");
                    r.gather.insert_into(&mut row, "gather");
                    r.lanes.insert_into(&mut row, "lanes");
                    r.positions.insert_into(&mut row, "positions");
                    r.unfused.insert_into(&mut row, "unfused");
                    r.gather_ymm.insert_into(&mut row, "gather_ymm");
                    r.lanes_ymm.insert_into(&mut row, "lanes_ymm");
                    row.insert("positions_ymm_ns", int(r.positions_ymm.min));
                    row.insert("pad_ns", int(r.pad_ns));
                    row.insert("transpose_ns", int(r.transpose_ns));
                    // What the layer runs against the explicit lowering,
                    // and the gathered orientation against the lanes.
                    let (explicit, layer) = (r.explicit.min as f64, r.layer().min.max(1) as f64);
                    row.insert("speedup", Value::Float(round2(explicit / layer)));
                    if r.has_lanes() {
                        let ratio = r.gather.min as f64 / r.lanes.min.max(1) as f64;
                        row.insert("lanes_speedup", Value::Float(round2(ratio)));
                        let ratio = r.gather_ymm.min as f64 / r.lanes_ymm.min.max(1) as f64;
                        row.insert("lanes_speedup_ymm", Value::Float(round2(ratio)));
                    } else {
                        let ratio = r.gather.min as f64 / r.positions.min.max(1) as f64;
                        row.insert("positions_speedup", Value::Float(round2(ratio)));
                    }
                    row.build()
                })
                .collect(),
        ),
    );
    gemm.insert(
        "conv_int8",
        Value::Array(
            conv_int8_rows
                .iter()
                .map(|r| {
                    let mut row = Table::new();
                    row.insert("batch", int(r.batch));
                    row.insert("c_in", int(r.c_in));
                    row.insert("c_out", int(r.c_out));
                    row.insert("hw", int(r.hw));
                    row.insert("im2col_u8_ns", int(r.im2col_u8.min));
                    row.insert("gemm_i32_ns", int(r.gemm_i32.min));
                    row.insert("pad_u8_ns", int(r.pad_u8_ns));
                    row.insert("gather_i32_ns", int(r.gather_i32.min));
                    row.insert("dequantize_ns", int(r.dequantize.min));
                    row.insert("transpose_ns", int(r.transpose.min));
                    row.insert("dequantize_nchw_ns", int(r.dequantize_nchw.min));
                    row.insert("f32_decode_ns", int(r.f32_decode_ns));
                    row.insert("f32_gather_ns", int(r.f32_gather_ns));
                    // The gated pair, each side the sum of its stages.
                    let (int8, explicit) = (r.int8(), r.explicit());
                    explicit.insert_into(&mut row, "explicit");
                    int8.insert_into(&mut row, "int8");
                    row.insert(
                        "speedup",
                        Value::Float(round2(explicit.min as f64 / int8.min.max(1) as f64)),
                    );
                    row.insert(
                        "int8_vs_f32",
                        Value::Float(round2(int8.min as f64 / r.f32_ns().max(1) as f64)),
                    );
                    row.build()
                })
                .collect(),
        ),
    );
    gemm.insert(
        "tiles_256",
        Value::Array(
            tile_rows
                .iter()
                .map(|&(name, ns)| {
                    let mut row = Table::new();
                    row.insert("tile", Value::Str(name.into()));
                    row.insert("ns_per_iter", int(ns.min));
                    row.insert("median_ns", int(ns.median));
                    let flops = 2.0 * 256.0f64.powi(3);
                    row.insert("gflops", Value::Float(round2(flops / ns.min.max(1) as f64)));
                    row.build()
                })
                .collect(),
        ),
    );
    write_and_check(
        &artifact_path("BENCH_gemm", smoke),
        &gemm.build(),
        &[
            "results",
            "results.median_ns",
            "conv",
            "conv.gather_ns",
            "conv.gather_median_ns",
            "conv.lanes_ns",
            "conv.lanes_ymm_ns",
            "conv.positions_ns",
            "conv.positions_median_ns",
            "conv.positions_ymm_ns",
            "conv.unfused_ns",
            "conv.transpose_ns",
            "conv.pad_ns",
            "conv_int8",
            "conv_int8.dequantize_nchw_ns",
            "conv_int8.int8_median_ns",
            "tiles_256",
            "tiles_256.median_ns",
        ],
    );

    let mut ts = header("nf-bench-train-step-v2", smoke);
    ts.insert("results", Value::Array(vec![step.build()]));
    ts.insert("layers", Value::Array(layer_rows));
    write_and_check(
        &artifact_path("BENCH_train_step", smoke),
        &ts.build(),
        &[
            "results",
            "results.allocs_per_step",
            "results.minor_faults_per_step",
            "results.iqr_ns_per_step",
            "layers",
            "layers.iqr_ns",
        ],
    );
}
