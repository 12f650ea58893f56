//! Shape-class GEMM autotuner: benchmark cache-block/thread candidates at
//! first use, cache the winning plan per process.
//!
//! The blocked kernel's `KC`/`NC` cache blocks and its thread fan-out
//! threshold are compile-time guesses; the right values depend on the
//! host's cache sizes and core count *and* on the operand shape. The
//! [`AutoGemm`] backend closes that loop: the first time a shape class is
//! seen it times a small candidate grid ([`Plan`]s — `KC × NC × {serial,
//! parallel}`) **while performing the caller's actual product**, records
//! the fastest plan in a process-global table, and re-runs the winner so
//! the call returns the winning plan's result. Every later call in the
//! class is a plain table lookup (no allocation, one uncontended mutex)
//! followed by the tuned kernel.
//!
//! Shape classes are ceil-log2 buckets of `(M, K, N)` per operand order
//! (`A·B`, `Aᵀ·B`, `A·Bᵀ`), so e.g. every conv layer of one network
//! stage shares a plan. Within a process the mapping class → plan is
//! fixed after first use, which keeps bitwise-reproducibility contracts
//! intact (same inputs → same `KC` split → same f32 rounding); across
//! processes plans may differ with host load, which is why the table can
//! be exported ([`plan_snapshot`]) into run artifacts for `nf inspect`.
//!
//! The selection rule itself ([`select_plan`]) is deterministic given the
//! measured durations (strict improvement wins, ties keep the earlier
//! candidate) and takes the timer as a closure, so tests can pin timings
//! and assert plan stability.

use super::{blocked::PAR_MIN_FLOPS, host_cores, BlockedGemm, GatherA, GemmBackend};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One tuning candidate: the cache blocking and thread strategy handed to
/// [`BlockedGemm::custom`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Plan {
    /// `K`-dimension cache block.
    pub kc: usize,
    /// `N`-dimension cache block.
    pub nc: usize,
    /// Whether row panels fan out across threads.
    pub parallel: bool,
}

impl Plan {
    /// The blocked kernel configured by this plan.
    fn kernel(self) -> BlockedGemm {
        BlockedGemm::custom(self.parallel, self.kc, self.nc)
    }
}

/// Operand order of a tuned product, part of the shape-class key (the
/// `Aᵀ·B` / `A·Bᵀ` paths pay an extra transpose, so their optima can
/// differ from plain `A·B` at the same logical shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum GemmOp {
    /// `A·B`.
    Ab,
    /// `Aᵀ·B` (weight-gradient order).
    AtB,
    /// `A·Bᵀ` (input-gradient order).
    ABt,
}

impl GemmOp {
    /// Stable short name for artifacts (`ab`, `atb`, `abt`).
    pub fn name(self) -> &'static str {
        match self {
            GemmOp::Ab => "ab",
            GemmOp::AtB => "atb",
            GemmOp::ABt => "abt",
        }
    }
}

/// Ceil-log2 bucket of one dimension (0 maps with 1 to bucket 0).
pub fn class_bits(x: usize) -> u32 {
    x.max(1).next_power_of_two().trailing_zeros()
}

/// A tuned shape class: operand order plus ceil-log2 buckets of `(M, K, N)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct ShapeClass {
    /// Operand order.
    pub op: GemmOp,
    /// `ceil(log2 M)`.
    pub m: u32,
    /// `ceil(log2 K)`.
    pub k: u32,
    /// `ceil(log2 N)`.
    pub n: u32,
}

impl ShapeClass {
    /// The class of one concrete product.
    pub fn of(op: GemmOp, m: usize, k: usize, n: usize) -> Self {
        ShapeClass {
            op,
            m: class_bits(m),
            k: class_bits(k),
            n: class_bits(n),
        }
    }
}

/// The candidate grid for one concrete shape: the `KC × NC` combinations
/// worth distinguishing on current cache hierarchies, with parallel
/// variants only where fan-out can possibly pay (multi-core host, product
/// above the spawn-overhead floor).
///
/// Plans that execute the same loop nest on this shape — a cache block
/// at least as large as the dimension it splits does not split it — are
/// listed once (the first of them), so a small product is never timed
/// against itself and its plan cannot be decided by noise.
pub fn candidates(m: usize, k: usize, n: usize) -> Vec<Plan> {
    let effective = |p: &Plan| (p.kc.min(k), p.nc.min(n), p.parallel);
    let mut plans: Vec<Plan> = Vec::new();
    for &parallel in &[false, true] {
        if parallel && !(host_cores() > 1 && m * k * n >= PAR_MIN_FLOPS) {
            continue;
        }
        for &kc in &[128usize, 256] {
            for &nc in &[128usize, 256] {
                let plan = Plan { kc, nc, parallel };
                if !plans.iter().any(|p| effective(p) == effective(&plan)) {
                    plans.push(plan);
                }
            }
        }
    }
    plans
}

/// Deterministic winner selection: times every candidate through the
/// caller's closure and returns the fastest (ties keep the earliest).
/// Exposed separately from [`AutoGemm`] so tests can inject pinned
/// timings and assert that the same durations always produce the same
/// plan.
///
/// # Panics
///
/// Panics if `candidates` is empty.
///
/// # Examples
///
/// ```
/// use nf_tensor::kernels::autotune::{select_plan, Plan};
/// use std::time::Duration;
///
/// let grid = [
///     Plan { kc: 128, nc: 128, parallel: false },
///     Plan { kc: 256, nc: 256, parallel: false },
/// ];
/// let plan = select_plan(&grid, |p| Duration::from_micros(p.kc as u64));
/// assert_eq!(plan.kc, 128);
/// ```
pub fn select_plan(candidates: &[Plan], mut time_candidate: impl FnMut(Plan) -> Duration) -> Plan {
    let mut best = candidates[0];
    let mut best_t = time_candidate(best);
    for &cand in &candidates[1..] {
        let t = time_candidate(cand);
        if t < best_t {
            best = cand;
            best_t = t;
        }
    }
    best
}

fn plans() -> &'static Mutex<HashMap<ShapeClass, Plan>> {
    static PLANS: OnceLock<Mutex<HashMap<ShapeClass, Plan>>> = OnceLock::new();
    PLANS.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock_plans() -> std::sync::MutexGuard<'static, HashMap<ShapeClass, Plan>> {
    match plans().lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Returns the cached plan for a shape class, tuning on first use.
///
/// `run` executes the caller's product under a given plan; during tuning
/// it is invoked once per candidate (plus one warm-up of the first
/// candidate so cold caches don't bias the measurement) — unless only one
/// candidate is distinguishable on this shape, which is recorded without
/// running anything. Every candidate computes the same (correct) output,
/// so the caller only needs one final run with the returned plan to make
/// results reproducible across calls within the process.
fn plan_for(class: ShapeClass, m: usize, k: usize, n: usize, run: &mut dyn FnMut(Plan)) -> Plan {
    if let Some(plan) = lock_plans().get(&class) {
        return *plan;
    }
    let cands = candidates(m, k, n);
    let plan = if let [only] = cands[..] {
        only
    } else {
        run(cands[0]); // warm-up: touch operands/outputs before timing
        select_plan(&cands, |p| {
            let t0 = Instant::now();
            run(p);
            t0.elapsed()
        })
    };
    // First tuner to finish wins; concurrent tuners of the same class
    // converge on its plan rather than racing the table.
    *lock_plans().entry(class).or_insert(plan)
}

/// One row of the exported plan table (see [`plan_snapshot`]).
#[derive(Debug, Clone, Serialize)]
pub struct PlanEntry {
    /// Operand order (`ab`, `atb`, `abt`).
    pub op: &'static str,
    /// `ceil(log2 M)` bucket.
    pub m_class: u32,
    /// `ceil(log2 K)` bucket.
    pub k_class: u32,
    /// `ceil(log2 N)` bucket.
    pub n_class: u32,
    /// Winning `K` cache block.
    pub kc: usize,
    /// Winning `N` cache block.
    pub nc: usize,
    /// Winning thread strategy.
    pub parallel: bool,
}

/// Snapshot of every plan tuned so far in this process, sorted for
/// stable artifact output. `nf train` writes this into the run directory
/// so `nf inspect` can report which kernel configuration actually
/// executed.
pub fn plan_snapshot() -> Vec<PlanEntry> {
    let mut entries: Vec<PlanEntry> = lock_plans()
        .iter()
        .map(|(class, plan)| PlanEntry {
            op: class.op.name(),
            m_class: class.m,
            k_class: class.k,
            n_class: class.n,
            kc: plan.kc,
            nc: plan.nc,
            parallel: plan.parallel,
        })
        .collect();
    entries.sort_by_key(|e| (e.op, e.m_class, e.k_class, e.n_class));
    entries
}

/// The self-tuning backend: dispatches every product through the plan
/// table, tuning unseen shape classes on first use. This is the default
/// [`super::KernelBackend`] — callers that need a fixed configuration
/// (oracle tests, reproducibility across processes) select an explicit
/// backend instead.
#[derive(Debug)]
pub struct AutoGemm;

impl GemmBackend for AutoGemm {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn gemm(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        let class = ShapeClass::of(GemmOp::Ab, m, k, n);
        let plan = plan_for(class, m, k, n, &mut |p: Plan| {
            p.kernel().gemm(m, k, n, a, b, out);
        });
        plan.kernel().gemm(m, k, n, a, b, out);
    }

    fn gemm_gather(
        &self,
        class: ShapeClass,
        a: &GatherA<'_>,
        n: usize,
        b: &[f32],
        out: &mut [f32],
        scratch: &mut Vec<f32>,
    ) {
        let plan = plan_for(class, a.rows(), a.depth(), n, &mut |p: Plan| {
            p.kernel().gemm_gather(class, a, n, b, out, scratch);
        });
        plan.kernel().gemm_gather(class, a, n, b, out, scratch);
    }

    fn gemm_at_b(&self, k: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        self.gemm_at_b_scratch(k, m, n, a, b, out, &mut Vec::new());
    }

    fn gemm_a_bt(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        self.gemm_a_bt_scratch(m, k, n, a, b, out, &mut Vec::new());
    }

    fn gemm_at_b_scratch(
        &self,
        k: usize,
        m: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        pack: &mut Vec<f32>,
    ) {
        let class = ShapeClass::of(GemmOp::AtB, m, k, n);
        let plan = plan_for(class, m, k, n, &mut |p: Plan| {
            p.kernel().gemm_at_b_scratch(k, m, n, a, b, out, pack);
        });
        plan.kernel().gemm_at_b_scratch(k, m, n, a, b, out, pack);
    }

    fn gemm_a_bt_scratch(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        pack: &mut Vec<f32>,
    ) {
        let class = ShapeClass::of(GemmOp::ABt, m, k, n);
        let plan = plan_for(class, m, k, n, &mut |p: Plan| {
            p.kernel().gemm_a_bt_scratch(m, k, n, a, b, out, pack);
        });
        plan.kernel().gemm_a_bt_scratch(m, k, n, a, b, out, pack);
    }
}

#[cfg(test)]
mod tests {
    use super::super::NaiveGemm;
    use super::*;

    #[test]
    fn select_plan_is_deterministic_under_pinned_timings() {
        // K and N both above 128, so all four cache blockings differ.
        let grid = candidates(64, 512, 512);
        assert!(grid.len() >= 4);
        // Pinned timing oracle: pretend kc=256/nc=128 is fastest.
        let pinned = |p: Plan| {
            Duration::from_micros(if p.kc == 256 && p.nc == 128 && !p.parallel {
                10
            } else {
                50
            })
        };
        let first = select_plan(&grid, pinned);
        for _ in 0..10 {
            assert_eq!(select_plan(&grid, pinned), first);
        }
        assert_eq!((first.kc, first.nc, first.parallel), (256, 128, false));
    }

    #[test]
    fn plans_that_run_the_same_loop_nest_are_listed_once() {
        // K ≤ 128 and N ≤ 128: no block splits anything — one plan (the
        // product is below the thread fan-out floor on any host).
        assert_eq!(
            candidates(512, 27, 4),
            [Plan {
                kc: 128,
                nc: 128,
                parallel: false
            }]
        );
        let serial = |m, k, n| {
            candidates(m, k, n)
                .into_iter()
                .filter(|p| !p.parallel)
                .map(|p| (p.kc, p.nc))
                .collect::<Vec<_>>()
        };
        // Only K splits / only N splits / both.
        assert_eq!(serial(64, 200, 16), [(128, 128), (256, 128)]);
        assert_eq!(serial(64, 100, 300), [(128, 128), (128, 256)]);
        assert_eq!(serial(64, 300, 300).len(), 4);
    }

    #[test]
    fn a_single_candidate_is_recorded_without_running_it() {
        // A class nothing else in this test binary uses.
        let (m, k, n) = (3usize, 5usize, 100usize);
        let class = ShapeClass::of(GemmOp::ABt, m, k, n);
        let mut runs = 0;
        let plan = plan_for(class, m, k, n, &mut |_| runs += 1);
        assert_eq!((runs, plan), (0, candidates(m, k, n)[0]));
        assert!(plan_snapshot()
            .iter()
            .any(|e| e.op == "abt" && (e.m_class, e.k_class, e.n_class) == (2, 3, 7)));
    }

    #[test]
    fn ties_keep_the_earliest_candidate() {
        let grid = candidates(8, 512, 512);
        let plan = select_plan(&grid, |_| Duration::from_micros(5));
        assert_eq!(plan, grid[0]);
    }

    #[test]
    fn auto_matches_naive_and_is_reproducible() {
        use rand::{Rng, SeedableRng};
        let (m, k, n) = (13usize, 37usize, 21usize);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut want = vec![0.0f32; m * n];
        NaiveGemm.gemm(m, k, n, &a, &b, &mut want);
        // First call tunes, second call must hit the cached plan and be
        // bitwise identical (the reproducibility contract of the worker's
        // cached-path test).
        let mut first = vec![0.0f32; m * n];
        AutoGemm.gemm(m, k, n, &a, &b, &mut first);
        let mut second = vec![0.0f32; m * n];
        AutoGemm.gemm(m, k, n, &a, &b, &mut second);
        assert_eq!(first, second);
        for (x, y) in want.iter().zip(&first) {
            assert!((x - y).abs() < 1e-4 * (1.0 + x.abs()), "{x} vs {y}");
        }
        // And the tuned class is now visible in the snapshot.
        let snap = plan_snapshot();
        assert!(snap.iter().any(|e| e.op == "ab"
            && e.m_class == class_bits(m)
            && e.k_class == class_bits(k)
            && e.n_class == class_bits(n)));
    }

    #[test]
    fn transposed_ops_match_naive() {
        use rand::{Rng, SeedableRng};
        let (m, k, n) = (9usize, 33usize, 14usize);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let at: Vec<f32> = (0..k * m).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut want = vec![0.0f32; m * n];
        let mut got = vec![0.0f32; m * n];
        NaiveGemm.gemm_at_b(k, m, n, &at, &b, &mut want);
        AutoGemm.gemm_at_b(k, m, n, &at, &b, &mut got);
        for (x, y) in want.iter().zip(&got) {
            assert!((x - y).abs() < 1e-4 * (1.0 + x.abs()), "at_b {x} vs {y}");
        }
        let bt: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        NaiveGemm.gemm_a_bt(m, k, n, &a, &bt, &mut want);
        AutoGemm.gemm_a_bt(m, k, n, &a, &bt, &mut got);
        for (x, y) in want.iter().zip(&got) {
            assert!((x - y).abs() < 1e-4 * (1.0 + x.abs()), "a_bt {x} vs {y}");
        }
    }

    #[test]
    fn parallel_candidates_require_multicore_and_size() {
        // Tiny products never get parallel candidates, regardless of host.
        assert!(candidates(2, 2, 2).iter().all(|p| !p.parallel));
        if host_cores() == 1 {
            assert!(candidates(512, 512, 512).iter().all(|p| !p.parallel));
        } else {
            assert!(candidates(512, 512, 512).iter().any(|p| p.parallel));
        }
    }
}
