//! The paper's evaluation as executable claims: each figure, table,
//! ablation and observation is a function returning a [`Figure`], its
//! tables plus the shape claims the paper makes about them, each
//! [`Claim::holds`] computed from the figure's own numbers. A claim that
//! does not hold here is not in the code; EXPERIMENTS.md records it as a
//! finding. Work several figures read (the Figure 11 sweep, the nine
//! scaled trainings of Tables 2–3, the 300 MB simulated runs) is done
//! once per process, through [`Shared`].

use crate::scaled::{workload, DATASETS};
use neuroflux_core::partitioner::{check_partition, plan};
use neuroflux_core::profiler::{profile, profiling_flops};
use neuroflux_core::simulate::{
    price_neuroflux, simulate_bp, simulate_classic_ll, simulate_neuroflux, sweep_point,
    SimulatedRun,
};
use neuroflux_core::{Block, MemoryStore, NeuroFluxConfig, NeuroFluxTrainer, RHO};
use nf_baselines::{install_feedback, train_local, BpTrainer, SpTrainer};
use nf_data::SyntheticSpec;
use nf_memsim::TrainingParadigm::{BlockLocal, LocalLearning};
use nf_memsim::{memory, timing, DeviceProfile};
use nf_models::{
    assign_aux, build_aux_heads, exit_candidates, AuxPolicy, ExitCandidate, ModelSpec,
    UnitAnalytics,
};
use rand::{rngs::StdRng, SeedableRng};
use std::cell::{OnceCell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use Source::{Measured, Simulated};

/// A figure's failure to compute (a training or planning error).
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Where a claim's numbers come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The analytic `nf-memsim` memory, timing and device models.
    Simulated,
    /// Real training on `nf-data`'s synthetic generators.
    Measured,
}

/// One shape claim the paper makes about a figure.
#[derive(Debug, Clone)]
pub struct Claim {
    /// The claim, with the figure's value where it has one.
    pub text: String,
    /// Where the numbers behind `holds` come from.
    pub source: Source,
    /// Whether the figure's numbers bear the claim out.
    pub holds: bool,
}

/// One printed table: a title line, the header and the rows.
#[derive(Debug, Clone)]
pub struct Table {
    /// Printed as `== title ==` above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Cells, row by row.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// The table as Markdown-style lines: header, separator, rows, every
    /// column right-aligned to its widest cell.
    pub fn lines(&self) -> Vec<String> {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let mut out = vec![line(&self.headers), line(&sep)];
        out.extend(self.rows.iter().map(|r| line(r)));
        out
    }
}

/// One figure, table, ablation or observation of the paper's evaluation.
#[derive(Debug, Clone)]
pub struct Figure {
    /// The name `figures` selects it by.
    pub name: &'static str,
    /// Its tables, in print order.
    pub tables: Vec<Table>,
    /// The paper's shape claims about them.
    pub claims: Vec<Claim>,
}

impl Figure {
    fn new(name: &'static str) -> Self {
        Figure {
            name,
            tables: Vec::new(),
            claims: Vec::new(),
        }
    }

    /// Adds a table; `headers` reads as the printed header, `a | b | c`.
    fn table(&mut self, title: impl Into<String>, headers: &str, rows: Vec<Vec<String>>) {
        self.tables.push(Table {
            title: title.into(),
            headers: headers.split(" | ").map(String::from).collect(),
            rows,
        });
    }

    fn claim(&mut self, source: Source, holds: bool, text: impl Into<String>) {
        self.claims.push(Claim {
            text: text.into(),
            source,
            holds,
        });
    }

    /// Every table's lines, in print order (what the digests cover).
    pub fn table_lines(&self) -> Vec<String> {
        self.tables.iter().flat_map(Table::lines).collect()
    }

    /// The claims that fail.
    pub fn failed(&self) -> impl Iterator<Item = &Claim> {
        self.claims.iter().filter(|c| !c.holds)
    }

    /// The figure as printed: each table under its title, then one line
    /// per claim marked `held` or `FAILED` with its source.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for t in &self.tables {
            let _ = writeln!(out, "== {} ==\n{}\n", t.title, t.lines().join("\n"));
        }
        for c in &self.claims {
            let mark = if c.holds { "held  " } else { "FAILED" };
            let source = if c.source == Simulated {
                "simulated"
            } else {
                "measured"
            };
            let _ = writeln!(out, "[{mark}] ({source}) {}", c.text);
        }
        out
    }
}

/// Computes one figure.
pub type MakeFigure = fn(&Shared) -> Result<Figure>;

/// Every figure by name, in the order `figures` prints them.
pub const FIGURES: [(&str, MakeFigure); 17] = [
    ("fig01", fig01),
    ("fig03", fig03),
    ("fig04", fig04),
    ("fig05", fig05),
    ("fig06", fig06),
    ("fig08", fig08),
    ("fig09", fig09),
    ("fig10", fig10),
    ("fig11", fig11),
    ("obs", obs),
    ("fig12", fig12),
    ("fig13", fig13),
    ("table2", table2),
    ("table3", table3),
    ("overheads", overheads),
    ("ablation_rho", ablation_rho),
    ("ablation_cache", ablation_cache),
];

/// One budget of a Figure 11 panel: MB, then BP, classic LL and NeuroFlux
/// (`None` where the paradigm cannot train).
type SweepPoint = (u64, [Option<SimulatedRun>; 3]);

/// A simulated NeuroFlux run and the plan it priced.
type Planned = (SimulatedRun, Vec<Block>);

/// Work more than one figure reads, done at most once per process.
#[derive(Default)]
pub struct Shared {
    /// Figure 11's panels: model, dataset, points.
    sweep: OnceCell<Vec<(&'static str, &'static str, Vec<SweepPoint>)>>,
    /// Tables 2–3's exits: dataset, model, full-size spec, exit unit.
    exits: OnceCell<Vec<(&'static str, &'static str, ModelSpec, usize)>>,
    /// NeuroFlux at 300 MB, by model name, classes and samples.
    runs_300: RefCell<BTreeMap<(String, usize, usize), Planned>>,
}

/// Builds a full-size architecture for a class count.
type MakeSpec = fn(usize) -> ModelSpec;

/// The Figure 11 architectures.
const MODELS: [(&str, MakeSpec); 3] = [
    ("vgg16", ModelSpec::vgg16),
    ("vgg19", ModelSpec::vgg19),
    ("resnet18", ModelSpec::resnet18),
];

/// The paper's datasets: name, classes, training samples.
const SAMPLES: [(&str, usize, usize); 3] = [
    ("cifar10", 10, 50_000),
    ("cifar100", 100, 50_000),
    ("tiny-imagenet", 200, 100_000),
];

/// The simulations' setting: 30 epochs, a 512 batch cap, f32 cache.
fn sim(budget_mb: u64) -> NeuroFluxConfig {
    NeuroFluxConfig::new(budget_mb * 1_000_000, 512).with_epochs(30)
}

impl Shared {
    /// Figure 11's nine panels at 100–500 MB on the AGX Orin.
    fn sweep(&self) -> &[(&'static str, &'static str, Vec<SweepPoint>)] {
        self.sweep.get_or_init(|| {
            let device = DeviceProfile::agx_orin();
            let mut panels = Vec::new();
            for (dataset, classes, samples) in SAMPLES {
                for (model, make) in MODELS {
                    let spec = make(classes);
                    let point = |mb| {
                        let (bp, ll, nf) = sweep_point(&spec, &device, &sim(mb), samples);
                        (mb, [bp, ll, nf])
                    };
                    panels.push((model, dataset, (100..=500).step_by(50).map(point).collect()));
                }
            }
            panels
        })
    }

    /// `spec` simulated under NeuroFlux at 300 MB on the AGX Orin.
    fn run_300(&self, spec: &ModelSpec, samples: usize) -> Result<Planned> {
        let key = (spec.name.clone(), spec.classes, samples);
        if let Some(run) = self.runs_300.borrow().get(&key) {
            return Ok(run.clone());
        }
        let device = DeviceProfile::agx_orin();
        let run = simulate_neuroflux(spec, &device, &sim(300), samples)?;
        self.runs_300.borrow_mut().insert(key, run.clone());
        Ok(run)
    }

    /// Tables 2–3's exits: NeuroFlux trains each channel-scaled model on
    /// its synthetic stand-in; the exit it selects transfers to full size.
    fn exits(&self) -> Result<&[(&'static str, &'static str, ModelSpec, usize)]> {
        if let Some(exits) = self.exits.get() {
            return Ok(exits);
        }
        let mut exits = Vec::new();
        for dataset in DATASETS {
            for (model, _) in MODELS {
                let w = workload(model, dataset)?;
                let config = NeuroFluxConfig::new(256 << 20, 64).with_epochs(4);
                let trainer = NeuroFluxTrainer::new(config.with_exit_tolerance(0.02));
                let outcome = trainer.train(&mut StdRng::seed_from_u64(0), &w.scaled, &w.data)?;
                let exit = outcome.selected_exit.ok_or("no exit selected")?;
                exits.push((dataset, model, w.full, exit.unit));
            }
        }
        Ok(self.exits.get_or_init(|| exits))
    }
}

/// Formats bytes as whole megabytes.
fn mb(bytes: u64) -> String {
    format!("{:.0}", bytes as f64 / 1e6)
}

/// Formats a ratio as `x.yz×`.
fn times(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats an accuracy as a percentage.
fn pct(acc: f32) -> String {
    format!("{:.1}%", acc * 100.0)
}

/// `(min, max)` of `v`.
fn band(v: &[f64]) -> (f64, f64) {
    let fold = |(lo, hi): (f64, f64), &x: &f64| (lo.min(x), hi.max(x));
    v.iter().fold((f64::INFINITY, 0.0), fold)
}

/// A row: its label, then `cells`.
fn row(label: impl ToString, cells: impl IntoIterator<Item = String>) -> Vec<String> {
    std::iter::once(label.to_string()).chain(cells).collect()
}

/// Figure 1: BP memory breakdown and relative training time for
/// ResNet-18 and VGG-19 on Tiny ImageNet at batch 4, 8 and 256.
fn fig01(_: &Shared) -> Result<Figure> {
    let device = DeviceProfile::agx_orin();
    let flops = timing::bp_train_flops_per_sample;
    let epoch_s = |spec: &ModelSpec, b| timing::epoch_time_s(&device, flops(spec), 100_000, b);
    let mut fig = Figure::new("fig01");
    let (mut dominate, mut grows, mut ratios) = (true, true, Vec::new());
    for spec in [ModelSpec::resnet18(200), ModelSpec::vgg19(200)] {
        let (mut rows, mut prev, mut rel) = (Vec::new(), 0, (0.0, 0.0));
        for batch in [4usize, 8, 256] {
            let m = memory::bp_training(&spec, batch);
            let rel_mem = m.total() as f64 / memory::inference(&spec, batch).total() as f64;
            let rel_t = epoch_s(&spec, batch) / epoch_s(&spec, 256);
            (grows, prev) = (grows && m.total() > prev, m.total());
            if batch == 4 {
                rel.1 = rel_t;
            } else if batch == 256 {
                rel.0 = rel_mem;
                dominate &= m.activations > m.model + m.optimizer;
            }
            let bytes = [m.activations, m.model, m.optimizer, m.total()].map(mb);
            let rel = [format!("x{rel_mem:.1}"), format!("x{rel_t:.1}")];
            rows.push(row(batch, bytes.into_iter().chain(rel)));
        }
        ratios.push(rel);
        let title = format!("{} on Tiny ImageNet (BP)", spec.name);
        let headers = "batch | activations (MB) | model (MB) | optimizer (MB) | total (MB) \
                       | vs inference | time vs batch 256";
        fig.table(title, headers, rows);
    }
    let [(res_mem, res_t), (vgg_mem, vgg_t)] = [ratios[0], ratios[1]];
    let text = "activations dominate BP training memory at batch 256";
    fig.claim(Simulated, dominate, text);
    fig.claim(Simulated, grows, "BP training memory grows with batch");
    let text = format!(
        "training over inference memory at batch 256 is higher for ResNet-18 than VGG-19 \
         (paper x37.6 / x22.9; here x{res_mem:.1} / x{vgg_mem:.1})"
    );
    fig.claim(Simulated, res_mem > vgg_mem, text);
    let text = format!(
        "batch 4 trains slower than batch 256, VGG-19 more so than ResNet-18 \
         (paper ~9x / ~5x; here x{vgg_t:.1} / x{res_t:.1})"
    );
    fig.claim(Simulated, vgg_t > res_t && res_t > 1.0, text);
    Ok(fig)
}

/// Figure 3: the memory-vs-accuracy quadrant of BP, classic LL, FA and SP.
/// Memory is the analytic model on full-size VGG-16 at batch 32; accuracy
/// is real training of one small CNN on one noisy synthetic task.
fn fig03(_: &Shared) -> Result<Figure> {
    let full = ModelSpec::vgg16(100);
    let classic = assign_aux(&full, AuxPolicy::CLASSIC);
    let bp_mem = memory::bp_training(&full, 32).total();
    let ll_mem = memory::ll_training_peak(&full, &classic, 32, LocalLearning)
        .0
        .total();
    let fa_mem = bp_mem; // FA retains the full activation chain like BP.
    let sp_mem = memory::inference(&full, 32).total(); // no heads, one layer live.

    let classes = 6;
    let data = SyntheticSpec::quick(classes, 8, 240)
        .with_noise(0.8)
        .generate();
    let spec = ModelSpec::tiny("fig3", 8, &[8, 16], classes);
    let (batch, epochs, lr) = (16usize, 6usize, 0.05f32);
    let (train, test) = (&data.train, &data.test);
    let mut rng = StdRng::seed_from_u64(1);
    let mut bp_model = spec.build(&mut rng)?;
    let bp = BpTrainer::new(lr, epochs, batch).train(&mut bp_model, train, test)?;
    // LL: the Worker over one block of both units, cached in memory.
    let mut ll_model = spec.build(&mut rng)?;
    let heads = &mut build_aux_heads(&mut rng, &spec, AuxPolicy::Fixed(16))?;
    let config = NeuroFluxConfig::new(u64::MAX, batch)
        .with_lr(lr)
        .with_epochs(epochs);
    let store = &mut MemoryStore::new();
    let ll = train_local(config, store, &mut ll_model, heads, batch, train, test)?;
    // FA: the BP model and trainer, the error sent back through fixed
    // random feedback matrices.
    let mut fa_model = spec.build(&mut rng)?;
    install_feedback(&mut rng, &mut fa_model);
    let fa = BpTrainer::new(lr, epochs, batch).train(&mut fa_model, train, test)?;
    let mut sp_model = spec.build(&mut rng)?;
    let sp = SpTrainer::new(0.01, epochs, batch).train(&mut sp_model, train, test)?;
    let [bp_acc, ll_acc, fa_acc, sp_acc] = [bp, ll, fa, sp].map(|r| r.final_test_accuracy());

    let mut fig = Figure::new("fig03");
    let rows = [
        ("BP", bp_mem, bp_acc),
        ("classic LL", ll_mem, ll_acc),
        ("FA", fa_mem, fa_acc),
        ("SP", sp_mem, sp_acc),
    ];
    let rows = rows.map(|(name, bytes, acc)| row(name, [mb(bytes), pct(acc)]));
    let headers = "paradigm | memory (MB, VGG-16 @ b32) | accuracy";
    fig.table("Figure 3: training-paradigm quadrant", headers, rows.into());
    let chance = 1.0 / classes as f32;
    let text = "classic LL costs more memory than BP";
    fig.claim(Simulated, ll_mem > bp_mem, text);
    let text = "SP is the most memory-frugal paradigm";
    fig.claim(Simulated, sp_mem < bp_mem.min(ll_mem), text);
    let best = [ll_acc, fa_acc, sp_acc].iter().all(|&a| a <= bp_acc);
    let text = format!("BP is the most accurate paradigm ({})", pct(bp_acc));
    fig.claim(Measured, best, text);
    let [chance_pct, fa_pct, bp_pct] = [chance, fa_acc, bp_acc].map(pct);
    let text = format!(
        "chance < FA < BP: FA pays BP's memory for less accuracy \
         ({chance_pct} < {fa_pct} < {bp_pct})"
    );
    fig.claim(Measured, chance < fa_acc && fa_acc < bp_acc, text);
    Ok(fig)
}

/// Figure 4: VGG-19 memory for inference, BP, classic LL (256-filter
/// heads) and AAN-LL at batch 10–90.
fn fig04(_: &Shared) -> Result<Figure> {
    let spec = &ModelSpec::vgg19(200);
    let [classic, aan] = [AuxPolicy::CLASSIC, AuxPolicy::Adaptive].map(|p| assign_aux(spec, p));
    let peak = |aux, b| {
        memory::ll_training_peak(spec, aux, b, LocalLearning)
            .0
            .total()
    };
    // Per batch: inference, BP, classic LL, AAN-LL.
    let column = |b| {
        let (inference, bp) = (
            memory::inference(spec, b).total(),
            memory::bp_training(spec, b).total(),
        );
        (b, [inference, bp, peak(&classic, b), peak(&aan, b)])
    };
    let cols: Vec<(usize, [u64; 4])> = (10..=90).step_by(10).map(column).collect();
    let rows = cols.iter().map(|(b, c)| row(b, c.map(mb))).collect();
    let mut fig = Figure::new("fig04");
    let headers = "batch | inference | BP | classic LL | AAN-LL";
    fig.table("Figure 4: VGG-19 memory by paradigm (MB)", headers, rows);
    let (first, last) = (cols[0].1, cols[cols.len() - 1].1);
    let slope = |i: usize| last[i] - first[i];
    let text = "AAN-LL < classic LL at every batch";
    fig.claim(Simulated, cols.iter().all(|(_, c)| c[3] < c[2]), text);
    let text = "classic LL exceeds BP at small batches (batch 10)";
    fig.claim(Simulated, first[2] > first[1], text);
    let steepest = [0, 2, 3].iter().all(|&i| slope(1) > slope(i));
    fig.claim(Simulated, steepest, "BP's slope is the steepest");
    let lowest = cols.iter().all(|(_, c)| c[0] < c[1].min(c[2]).min(c[3]));
    let flattest = (1..4).all(|i| slope(0) < slope(i));
    let text = "inference is the lowest and the flattest at every batch";
    fig.claim(Simulated, lowest && flattest, text);
    Ok(fig)
}

/// Figure 5: VGG-19's per-layer training memory at batch 30 under AAN-LL,
/// with the headroom below the peak layer.
fn fig05(_: &Shared) -> Result<Figure> {
    let spec = ModelSpec::vgg19(200);
    let aux = assign_aux(&spec, AuxPolicy::Adaptive);
    let unit = |a| memory::ll_unit_training(&spec, a, &aux, 30, BlockLocal).total();
    let per_layer: Vec<u64> = spec.analyze().iter().map(unit).collect();
    let peak = per_layer.iter().copied().max().unwrap_or(0).max(1);
    let peak_layer = per_layer.iter().position(|&v| v == peak).unwrap_or(0) + 1;
    let bar = |used| "#".repeat((used * 40 / peak) as usize);
    let rows = (1..).zip(&per_layer);
    let rows = rows.map(|(i, &used)| row(i, [mb(used), mb(peak - used), bar(used)]));
    let mut fig = Figure::new("fig05");
    let title = "Figure 5: VGG-19 per-layer training memory, batch 30, AAN-LL";
    fig.table(title, "layer | used (MB) | unused (MB) | ", rows.collect());
    let text = format!(
        "an early layer, in the first quarter of the network, dominates \
         (paper: layer 2; here layer {peak_layer}, {} MB)",
        mb(peak)
    );
    fig.claim(Simulated, peak_layer <= per_layer.len() / 4, text);
    Ok(fig)
}

/// Figure 6: the largest batch each VGG-19 layer can train at under the
/// AAN-LL peak of batch 30 (the paper's 630 MB).
fn fig06(_: &Shared) -> Result<Figure> {
    let spec = ModelSpec::vgg19(200);
    let aux = assign_aux(&spec, AuxPolicy::Adaptive);
    let budget = memory::ll_training_peak(&spec, &aux, 30, BlockLocal)
        .0
        .total();
    let line = |a| memory::ll_unit_line(&spec, a, &aux, BlockLocal);
    let max_batch = |a| line(a).max_batch(budget).unwrap_or(0);
    let batches: Vec<usize> = spec.analyze().iter().map(max_batch).collect();
    let max_b = batches.iter().copied().max().unwrap_or(1).max(1);
    let bar = |b: usize| "#".repeat((b * 40 / max_b).max(1));
    let rows = (1..)
        .zip(&batches)
        .map(|(i, &b)| row(i, [b.to_string(), bar(b)]));
    let mut fig = Figure::new("fig06");
    let budget_mb = budget / 1_000_000;
    let title = format!("Figure 6: max batch per layer of VGG-19 under a {budget_mb} MB budget");
    fig.table(title, "layer | max batch | ", rows.collect());
    let early = batches.iter().take(3).all(|b| (10..100).contains(b));
    let text = "the first layers cap the batch at tens of samples";
    fig.claim(Simulated, early, text);
    let deep = batches
        .iter()
        .rev()
        .take(batches.len() / 4)
        .all(|&b| b >= 100);
    let text = "the deepest quarter of layers takes batches in the hundreds or more";
    fig.claim(Simulated, deep, text);
    Ok(fig)
}

/// Figure 8: VGG-11's per-layer training memory is linear in batch size,
/// and the line per layer the Profiler hands the Partitioner.
fn fig08(_: &Shared) -> Result<Figure> {
    let spec = ModelSpec::vgg11(200);
    let (aux, analytics) = (assign_aux(&spec, AuxPolicy::Adaptive), spec.analyze());
    let layers = |b| {
        let unit = |a| memory::ll_unit_training(&spec, a, &aux, b, BlockLocal).total();
        analytics.iter().map(unit).collect::<Vec<u64>>()
    };
    let bytes: Vec<(usize, Vec<u64>)> = (10..=90).step_by(10).map(|b| (b, layers(b))).collect();
    let rows = bytes.iter().map(|(b, l)| row(b, l.iter().map(|&v| mb(v))));
    let names: Vec<String> = (1..=spec.num_units()).map(|i| format!("L{i}")).collect();
    let mut fig = Figure::new("fig08");
    let title = "Figure 8: per-layer memory vs batch size, VGG-11 (MB)";
    let headers = format!("batch | {}", names.join(" | "));
    fig.table(title, &headers, rows.collect());
    let lines = profile(&spec, AuxPolicy::Adaptive, BlockLocal);
    let lines = lines.into_iter().zip(&names);
    let rows = lines.map(|(line, name)| {
        let slope = format!("{:.3}", line.slope / 1e6);
        row(name, [slope, format!("{:.1}", line.intercept / 1e6)])
    });
    let headers = "layer | slope (MB/sample) | intercept (MB)";
    fig.table("Profiler lines (closed form)", headers, rows.collect());
    // Affine: every 10-sample step adds the same bytes to a layer.
    let step = |a: &[u64], b: &[u64], l: usize| b[l] - a[l];
    let equal = |w: &[(usize, Vec<u64>)]| {
        let (a, b, c) = (&w[0].1, &w[1].1, &w[2].1);
        (0..analytics.len()).all(|l| step(a, b, l) == step(b, c, l))
    };
    let text = "every layer's footprint is affine in batch size";
    fig.claim(Simulated, bytes.windows(3).all(equal), text);
    Ok(fig)
}

/// Figure 9: where every block lives at each step of a NeuroFlux run on
/// VGG-16 at 300 MB, and which forward passes the cache skips.
fn fig09(shared: &Shared) -> Result<Figure> {
    let spec = ModelSpec::vgg16(100);
    let (_, blocks) = shared.run_300(&spec, 50_000)?;
    let mut rows = Vec::new();
    for (step, training) in blocks.iter().enumerate() {
        let residency: Vec<String> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let state = match i.cmp(&step) {
                    std::cmp::Ordering::Less => "storage (trained)",
                    std::cmp::Ordering::Equal => "GPU (training)",
                    std::cmp::Ordering::Greater => "storage (untrained)",
                };
                format!("B{i}[u{}..{}]={state}", b.units.start, b.units.end)
            })
            .collect();
        let (start, prev) = (training.units.start, step.saturating_sub(1));
        let skipped = match step {
            0 => "none (reads dataset)".to_string(),
            _ => format!("forward over units 0..{start} (reads cached activations of B{prev})"),
        };
        rows.push(row(format!("t{step}"), [residency.join("  "), skipped]));
    }
    let mut fig = Figure::new("fig09");
    let (n, name) = (blocks.len(), &spec.name);
    let title = format!("Figure 9: block residency timeline ({n} blocks, {name} @ 300 MB)");
    fig.table(title, "step | residency | skipped forward passes", rows);
    let tiles = check_partition(&blocks, spec.num_units(), 512).is_ok();
    fig.claim(
        Simulated,
        tiles,
        "the blocks cover every unit once, in order",
    );
    let (aux, analytics) = (assign_aux(&spec, AuxPolicy::Adaptive), spec.analyze());
    let fits = blocks.iter().all(|b| {
        let unit = |a| memory::ll_unit_training(&spec, a, &aux, b.batch, BlockLocal).total();
        analytics[b.units.clone()]
            .iter()
            .all(|a| unit(a) <= 300_000_000)
    });
    let text = "the one block on the accelerator fits the 300 MB budget at every step";
    fig.claim(Simulated, fits, text);
    Ok(fig)
}

/// Figure 10: per-exit validation accuracy of a channel-scaled VGG-16
/// trained by NeuroFlux on the synthetic CIFAR-100 stand-in, and the exit
/// it selects.
fn fig10(_: &Shared) -> Result<Figure> {
    let w = workload("vgg16", "cifar100")?;
    let config = NeuroFluxConfig::new(256 << 20, 64)
        .with_epochs(8)
        .with_lr(0.05);
    let trainer = NeuroFluxTrainer::new(config.with_exit_tolerance(0.02));
    let outcome = trainer.train(&mut StdRng::seed_from_u64(0), &w.scaled, &w.data)?;
    let best = outcome.selected_exit.ok_or("no exit selected")?;
    let acc = |e: &ExitCandidate| e.val_accuracy.unwrap_or(0.0);
    let max_acc = outcome
        .exits
        .iter()
        .map(acc)
        .fold(0.0f32, f32::max)
        .max(1e-6);
    let rows = outcome.exits.iter().map(|e| {
        let bar = "#".repeat((acc(e) / max_acc * 30.0) as usize);
        let mark = if e.unit == best.unit {
            "  <= optimal exit"
        } else {
            ""
        };
        row(e.unit + 1, [pct(acc(e)), e.params.to_string(), bar + mark])
    });
    let mut fig = Figure::new("fig10");
    let (name, classes, scaled) = (&w.data.spec.name, w.data.spec.classes, &w.scaled.name);
    let title = format!(
        "Figure 10: per-exit validation accuracy, scaled {scaled} on {name} ({classes} classes)"
    );
    let headers = "layer | val accuracy | params (scaled) | ";
    fig.table(title, headers, rows.collect());
    let (n, deepest) = (outcome.exits.len(), outcome.exits.last().map_or(0.0, acc));
    let (layer, at, deep_at) = (best.unit + 1, pct(acc(&best)), pct(deepest));
    let text = format!(
        "overthinking: the selected exit is shallower than the deepest and no less \
         accurate (layer {layer} at {at} vs layer {n} at {deep_at})"
    );
    fig.claim(Measured, layer < n && acc(&best) >= deepest, text);
    Ok(fig)
}

/// Figure 11: training time vs memory budget (100–500 MB) for BP, classic
/// LL and NeuroFlux on every model × dataset, on the simulated AGX Orin.
fn fig11(shared: &Shared) -> Result<Figure> {
    let mut fig = Figure::new("fig11");
    let (mut fastest, mut only_nf, mut widens, mut monotone) = (true, true, true, true);
    let hours = |r: &Option<SimulatedRun>| r.as_ref().map(SimulatedRun::total_hours);
    let cell = |r| hours(r).map_or("—".to_string(), |h| format!("{h:.2}"));
    for (model, dataset, points) in shared.sweep() {
        let rows = points
            .iter()
            .map(|(mb, runs)| row(mb, runs.iter().map(cell)));
        let title = format!("Figure 11 panel: {model} on {dataset} (Nvidia AGX Orin)");
        let headers = "budget (MB) | BP (h) | classic LL (h) | NeuroFlux (h)";
        fig.table(title, headers, rows.collect());
        for (_, [bp, ll, nf]) in points {
            let (bp, ll, nf) = (hours(bp), hours(ll), hours(nf));
            fastest &= [bp, ll]
                .iter()
                .flatten()
                .all(|&b| nf.is_some_and(|n| n < b));
            only_nf &= nf.is_some();
        }
        for pair in points.windows(2) {
            let [(_, [bp0, _, nf0]), (_, [bp1, _, nf1])] = pair else {
                continue;
            };
            let (n0, n1) = (hours(nf0).unwrap_or(0.0), hours(nf1).unwrap_or(0.0));
            monotone &= n1 <= n0;
            // Over classic LL the gap narrows in places (EXPERIMENTS.md).
            if let (Some(b0), Some(b1)) = (hours(bp0), hours(bp1)) {
                widens &= b0 / n0 >= b1 / n1;
            }
        }
    }
    let text = "NeuroFlux is the lowest curve at every budget where BP or classic LL trains";
    fig.claim(Simulated, fastest, text);
    let text = "NeuroFlux trains at every budget, including those where BP or classic LL cannot";
    fig.claim(Simulated, only_nf, text);
    fig.claim(
        Simulated,
        widens,
        "the gap to BP widens as the budget tightens",
    );
    let text = "NeuroFlux's training time never rises with the budget";
    fig.claim(Simulated, monotone, text);
    Ok(fig)
}

/// Observations 1–2 over the Figure 11 sweep: NeuroFlux's speed-up bands
/// at equal budgets (150–500 MB), and NeuroFlux at 100 MB against BP and
/// classic LL at 500 MB.
fn obs(shared: &Shared) -> Result<Figure> {
    let speedup = |base: &Option<SimulatedRun>, nf: &SimulatedRun| {
        base.as_ref().map(|b| b.total_s() / nf.total_s())
    };
    let (mut obs1, mut obs2, mut bp_all, mut ll_all) = (vec![], vec![], vec![], vec![]);
    let mut only_nf_at_100 = true;
    for (model, _) in MODELS {
        for (dataset, _, _) in SAMPLES {
            let panel = shared
                .sweep()
                .iter()
                .find(|p| (p.0, p.1) == (model, dataset));
            let points = panel.map_or(&[][..], |p| &p.2);
            let label = format!("{model}/{}", dataset.trim_end_matches("-imagenet"));
            let (mut bp_s, mut ll_s) = (Vec::new(), Vec::new());
            for (_, [bp, ll, nf]) in points.iter().filter(|p| p.0 >= 150) {
                if let Some(nf) = nf {
                    bp_s.extend(speedup(bp, nf));
                    ll_s.extend(speedup(ll, nf));
                }
            }
            let bands = [band(&bp_s), band(&ll_s)];
            obs1.push(row(
                &label,
                bands.map(|(lo, hi)| format!("{}–{}", times(lo), times(hi))),
            ));
            bp_all.extend(bp_s);
            ll_all.extend(ll_s);
            let (Some((_, [bp100, ll100, nf100])), Some((_, [bp500, ll500, _]))) =
                (points.first(), points.last())
            else {
                return Err("empty sweep".into());
            };
            let nf = nf100.as_ref().ok_or("NeuroFlux infeasible at 100 MB")?;
            only_nf_at_100 &= bp100.is_none() && ll100.is_none();
            let vs = |base| speedup(base, nf).map_or("—".to_string(), times);
            obs2.push(row(label, [vs(bp500), vs(ll500)]));
        }
    }
    let mut fig = Figure::new("obs");
    let title = "Observation 1: NeuroFlux speedups at equal budgets (150–500 MB)";
    fig.table(title, "workload | vs BP | vs classic LL", obs1);
    let title = "Observation 2: NeuroFlux @ 100 MB vs baselines @ 500 MB";
    fig.table(title, "workload | BP@500 / NF@100 | LL@500 / NF@100", obs2);
    let ((bp_lo, bp_hi), (ll_lo, ll_hi)) = (band(&bp_all), band(&ll_all));
    let text = "NeuroFlux is faster than BP and classic LL at every equal budget";
    fig.claim(Simulated, bp_lo > 1.0 && ll_lo > 1.0, text);
    let (lo, hi) = (times(bp_lo), times(bp_hi));
    let text = format!("the speed-up band over BP overlaps the paper's 2.3x–6.1x (here {lo}–{hi})");
    fig.claim(Simulated, bp_lo <= 6.1 && bp_hi >= 2.3, text);
    let (lo, hi) = (times(ll_lo), times(ll_hi));
    let text = format!(
        "the speed-up band over classic LL overlaps the paper's 3.3x–10.3x (here {lo}–{hi})"
    );
    fig.claim(Simulated, ll_lo <= 10.3 && ll_hi >= 3.3, text);
    let text = "at 100 MB NeuroFlux trains every workload; neither BP nor classic LL trains any";
    fig.claim(Simulated, only_nf_at_100, text);
    Ok(fig)
}

/// Figure 12: test accuracy as training proceeds for BP, classic LL and
/// NeuroFlux. Accuracy comes from real training of channel-scaled models;
/// the time axis is the simulated wall-clock of the full-size run at
/// 300 MB on the AGX Orin, one simulated epoch per real epoch.
fn fig12(_: &Shared) -> Result<Figure> {
    let device = DeviceProfile::agx_orin();
    let epochs = 6usize;
    let mut fig = Figure::new("fig12");
    let mut cheaper = true;
    for (model, dataset) in [("vgg16", "cifar10"), ("resnet18", "cifar100")] {
        let w = workload(model, dataset)?;
        let (full, train, test) = (&w.full, &w.data.train, &w.data.test);
        let cfg = sim(300).with_epochs(1);
        let hours = |run: Option<SimulatedRun>| run.map(|r| r.total_hours());
        let bp_h = hours(simulate_bp(full, &device, &cfg, 50_000).ok());
        let ll_h = hours(simulate_classic_ll(full, &device, &cfg, 50_000).ok());
        let nf = simulate_neuroflux(full, &device, &cfg, 50_000);
        let nf_h = hours(nf.ok().map(|(run, _)| run));
        cheaper &= nf_h.is_some_and(|nf| [bp_h, ll_h].iter().flatten().all(|&b| nf < b));

        let mut rng = StdRng::seed_from_u64(0);
        let mut bp_model = w.scaled.build(&mut rng)?;
        let bp = BpTrainer::new(0.05, epochs, 32).train(&mut bp_model, train, test)?;
        let mut ll_model = w.scaled.build(&mut rng)?;
        let heads = &mut build_aux_heads(&mut rng, &w.scaled, AuxPolicy::CLASSIC)?;
        let config = NeuroFluxConfig::new(u64::MAX, 32)
            .with_lr(0.05)
            .with_epochs(epochs);
        let store = &mut MemoryStore::new();
        let ll = train_local(config, store, &mut ll_model, heads, 32, train, test)?;
        // The Worker trains blocks one after another, so NeuroFlux's
        // accuracy after `e` epochs is a whole run at `e` epochs a block.
        let mut nf = Vec::with_capacity(epochs);
        for e in 1..=epochs {
            let trainer = NeuroFluxTrainer::new(NeuroFluxConfig::new(256 << 20, 64).with_epochs(e));
            let mut outcome = trainer.train(&mut StdRng::seed_from_u64(0), &w.scaled, &w.data)?;
            nf.push(outcome.selected_exit_accuracy(test)?);
        }
        let accs = bp.test_accuracy.iter().zip(&ll.test_accuracy).zip(&nf);
        let rows = (1..).zip(accs).map(|(e, ((&bp_acc, &ll_acc), &nf_acc))| {
            let t =
                |h: Option<f64>| h.map_or("—".to_string(), |h| format!("{:.2}", h * e as f64));
            let pairs = [(bp_h, bp_acc), (ll_h, ll_acc), (nf_h, nf_acc)];
            row(e, pairs.into_iter().flat_map(|(h, acc)| [t(h), pct(acc)]))
        });
        let label = &w.label;
        let title =
            format!("Figure 12 panel: {label} (scaled training + simulated 300 MB/Orin time axis)");
        let headers = "epoch | BP t(h) | BP acc | LL t(h) | LL acc | NF t(h) | NF acc";
        fig.table(title, headers, rows.collect());
    }
    let text =
        "NeuroFlux's epochs are cheaper than BP's and classic LL's (larger adaptive batches)";
    fig.claim(Simulated, cheaper, text);
    Ok(fig)
}

/// Figure 13: activation size per unit of VGG-19 and ResNet-18 (left) and
/// their normalised cumulative auxiliary-network FLOPs (right).
fn fig13(_: &Shared) -> Result<Figure> {
    let (vgg, resnet) = (ModelSpec::vgg19(200), ModelSpec::resnet18(200));
    let (va, ra) = (vgg.analyze(), resnet.analyze());
    let rows = |v: Vec<String>, r: Vec<String>| {
        let cell = |c: &[String], i| c.get(i).cloned().unwrap_or_default();
        let units = 0..v.len().max(r.len());
        units
            .map(|i| row(i + 1, [cell(&v, i), cell(&r, i)]))
            .collect()
    };
    let elems = |a: &[UnitAnalytics]| a.iter().map(|a| a.out_elems.to_string()).collect();
    let cumulative = |spec: &ModelSpec| -> Vec<String> {
        let aux = assign_aux(spec, AuxPolicy::Adaptive);
        let running = |sum: &mut f64, a: &nf_models::AuxSpec| {
            *sum += a.flops() as f64;
            Some(*sum)
        };
        let sums: Vec<f64> = aux.iter().scan(0.0, running).collect();
        let total = sums.last().copied().unwrap_or(0.0).max(1.0);
        sums.iter().map(|s| format!("{:.2}", s / total)).collect()
    };
    let mut fig = Figure::new("fig13");
    let headers = "unit | VGG-19 | ResNet-18";
    let title = "Figure 13 (left): activation elements per unit";
    fig.table(title, headers, rows(elems(&va), elems(&ra)));
    let title = "Figure 13 (right): normalised cumulative auxiliary FLOPs";
    fig.table(title, headers, rows(cumulative(&vgg), cumulative(&resnet)));
    // The units whose output is smaller than their input: downsamplings.
    let shrinks = |a: &[UnitAnalytics]| -> Vec<usize> {
        (1..a.len())
            .filter(|&i| a[i].out_elems < a[i - 1].out_elems)
            .collect()
    };
    let (vs, rs) = (shrinks(&va), shrinks(&ra));
    let [v1, r1] = [&vs, &rs].map(|s| s.first().map_or(0, |u| u + 1));
    let (vn, rn) = (vs.len(), rs.len());
    let text = format!(
        "VGG-19 downsamples earlier and more often than ResNet-18 \
         (first at unit {v1} vs {r1}; {vn} vs {rn} times)"
    );
    fig.claim(Simulated, vs.first() < rs.first() && vn > rn, text);
    Ok(fig)
}

/// Table 2: parameter counts of the trained output models — the full
/// BP/LL model against NeuroFlux's early exit.
fn table2(shared: &Shared) -> Result<Figure> {
    let mut rows = Vec::new();
    let (mut smaller, mut vgg_min) = (true, f64::INFINITY);
    for (dataset, model, full, exit_unit) in shared.exits()? {
        let exits = exit_candidates(full, &assign_aux(full, AuxPolicy::Adaptive));
        let nf_params = exits.get(*exit_unit).ok_or("exit out of range")?.params;
        let full_params = full.total_params();
        let factor = full_params as f64 / nf_params as f64;
        smaller &= factor > 1.0;
        if model.starts_with("vgg") {
            vgg_min = vgg_min.min(factor);
        }
        let full_m = format!("{:.1}", full_params as f64 / 1e6);
        let nf_m = format!("{:.2}", nf_params as f64 / 1e6);
        let (exit, model) = (format!("unit {}", exit_unit + 1), model.to_string());
        rows.push(row(dataset, [model, full_m, nf_m, times(factor), exit]));
    }
    let mut fig = Figure::new("table2");
    let headers = "dataset | model | BP/LL (1e6) | NeuroFlux (1e6) | compression | exit";
    fig.table("Table 2: output-model parameter counts", headers, rows);
    let text = "every NeuroFlux exit model is smaller than the full model";
    fig.claim(Measured, smaller, text);
    let vgg = times(vgg_min);
    let text = format!("every VGG exit is at least the paper's 10.9x smaller (here from {vgg})");
    fig.claim(Measured, vgg_min >= 10.9, text);
    Ok(fig)
}

/// Table 3 / Figure 14: inference throughput of the full model against
/// NeuroFlux's early exit (Table 2's exits) on all four platforms.
fn table3(shared: &Shared) -> Result<Figure> {
    let devices = DeviceProfile::all();
    let mut fig = Figure::new("table3");
    let (mut faster, mut ordered, mut pi_anchor) = (true, true, false);
    for dataset in DATASETS {
        let mut rows = Vec::new();
        for (_, model, full, exit_unit) in shared.exits()?.iter().filter(|e| e.0 == dataset) {
            let exits = exit_candidates(full, &assign_aux(full, AuxPolicy::Adaptive));
            let exit_flops = exits.get(*exit_unit).ok_or("exit out of range")?.flops;
            let tp = timing::inference_throughput;
            let full_tp: Vec<f64> = devices.iter().map(|d| tp(d, full.total_flops())).collect();
            ordered &= full_tp.windows(2).all(|w| w[0] < w[1]);
            if (dataset, *model) == ("cifar10", "vgg16") {
                pi_anchor = full_tp.first().is_some_and(|&tp| (tp - 6.0).abs() < 0.5);
            }
            for (device, full_tp) in devices.iter().zip(full_tp) {
                let exit_tp = tp(device, exit_flops);
                faster &= exit_tp >= full_tp;
                let [full_s, exit_s] = [full_tp, exit_tp].map(|t| format!("{t:.0}"));
                let cells = [model.to_string(), full_s, exit_s, times(exit_tp / full_tp)];
                rows.push(row(&device.name, cells));
            }
        }
        let title = format!("Table 3: inference throughput, dataset {dataset}");
        let headers = "platform | model | BP/LL img/s | NeuroFlux img/s | speedup";
        fig.table(title, headers, rows);
    }
    let text = "full VGG-16 on CIFAR-10 runs at the paper's 6 img/s on the Raspberry Pi 4B";
    fig.claim(Simulated, pi_anchor, text);
    let text = "throughput orders Pi 4B < Nano < Xavier NX < AGX Orin for every model";
    fig.claim(Simulated, ordered, text);
    let text = "every NeuroFlux early exit serves at least as fast as the full model";
    fig.claim(Measured, faster, text);
    Ok(fig)
}

/// §6.4 system overheads: Profiler + Partitioner cost against training,
/// and activation-cache bytes against the stored (u8) dataset.
fn overheads(shared: &Shared) -> Result<Figure> {
    let device = DeviceProfile::agx_orin();
    let (mut rows, mut worst) = (Vec::new(), 0.0f64);
    for spec in MODELS.map(|(_, make)| make(100)) {
        let flops = profiling_flops(&spec, AuxPolicy::Adaptive);
        let profile_s = flops / device.effective_flops();
        let training_s = shared.run_300(&spec, 50_000)?.0.total_s();
        worst = worst.max(profile_s / training_s);
        let percent = profile_s / training_s * 100.0;
        let cells = [
            format!("{profile_s:.1} s"),
            format!("{training_s:.0} s"),
            format!("{percent:.3}%"),
        ];
        rows.push(row(&spec.name, cells));
    }
    let mut fig = Figure::new("overheads");
    let title = "§6.4: Profiler + Partitioner cost vs one training run (30 epochs)";
    fig.table(title, "model | profiling | training | fraction", rows);
    let mut rows = Vec::new();
    let specs = [
        ModelSpec::vgg16(10),
        ModelSpec::vgg19(100),
        ModelSpec::resnet18(200),
    ];
    let datasets = [
        SyntheticSpec::cifar10,
        SyntheticSpec::cifar100,
        SyntheticSpec::tiny_imagenet,
    ];
    for (spec, ds) in specs.into_iter().zip(datasets.map(|make| make(1, 1, 1))) {
        let (run, blocks) = shared.run_300(&spec, ds.reference_train_samples)?;
        let (dataset, cache) = (ds.full_scale_bytes() as f64, run.cache_bytes_written as f64);
        let [dataset_gb, cache_gb] = [dataset, cache].map(|b| format!("{:.2} GB", b / 1e9));
        let cells = [
            dataset_gb,
            cache_gb,
            times(cache / dataset),
            blocks.len().to_string(),
        ];
        rows.push(row(format!("{} / {}", spec.name, ds.name), cells));
    }
    let title = "§6.4: activation-cache storage vs dataset size (u8)";
    fig.table(
        title,
        "workload | dataset | cache written | ratio | blocks",
        rows,
    );
    let percent = worst * 100.0;
    let text = format!(
        "profiling and partitioning cost under 1.5% of training (here at most {percent:.3}%)"
    );
    fig.claim(Simulated, worst < 0.015, text);
    Ok(fig)
}

/// Ablation of the Partitioner's grouping threshold ρ (Algorithm 1) on
/// VGG-16 at 300 MB: small ρ splits the network into many blocks (cache
/// traffic, regeneration passes); large ρ merges layers whose feasible
/// batches differ, pinning each block to its smallest member's batch.
fn ablation_rho(_: &Shared) -> Result<Figure> {
    let (device, spec) = (DeviceProfile::agx_orin(), ModelSpec::vgg16(100));
    let (mut rows, mut sweep) = (Vec::new(), Vec::new()); // sweep: (ρ, blocks, hours)
    for rho in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7] {
        let cfg = sim(300).with_rho(rho);
        let blocks = plan(&spec, &cfg)?;
        let run = price_neuroflux(&spec, &device, &cfg, 50_000, &blocks);
        let batches: Vec<String> = blocks.iter().map(|b| b.batch.to_string()).collect();
        let (h, gb) = (run.total_hours(), run.cache_bytes_written as f64 / 1e9);
        let cells = [
            blocks.len().to_string(),
            format!("{h:.2}"),
            format!("{gb:.1}"),
            batches.join(","),
        ];
        rows.push(row(format!("{rho:.1}"), cells));
        sweep.push((rho, blocks.len(), h));
    }
    let mut fig = Figure::new("ablation_rho");
    let title = "Ablation: grouping threshold ρ (VGG-16, 300 MB, Orin)";
    fig.table(
        title,
        "ρ | blocks | time (h) | cache (GB) | block batches",
        rows,
    );
    let fastest = sweep.iter().map(|s| s.2).fold(f64::INFINITY, f64::min);
    let at_rho = sweep
        .iter()
        .find(|s| s.0 == RHO)
        .map_or(f64::INFINITY, |s| s.2);
    let text = format!("the paper's ρ = {RHO} trains fastest of ρ in 0–0.7");
    fig.claim(Simulated, at_rho <= fastest, text);
    let text = "the block count never rises as ρ grows (a tighter ρ, more blocks)";
    fig.claim(Simulated, sweep.windows(2).all(|w| w[1].1 <= w[0].1), text);
    Ok(fig)
}

/// Ablation of the activation cache (§3.3): the same NeuroFlux plans at
/// 300 MB priced with the cache and with every block re-running its
/// trained prefix instead.
fn ablation_cache(shared: &Shared) -> Result<Figure> {
    let (mut rows, mut helps) = (Vec::new(), true);
    for spec in MODELS.map(|(_, make)| make(100)) {
        let (run, _) = shared.run_300(&spec, 50_000)?;
        let (with, without) = (run.total_s(), run.total_s() + run.cache_saved_s);
        helps &= without > with;
        let [with_h, without_h] = [with, without].map(|s| format!("{:.2}", s / 3600.0));
        rows.push(row(&spec.name, [with_h, without_h, times(without / with)]));
    }
    let mut fig = Figure::new("ablation_cache");
    let title = "Ablation: activation cache on vs off (300 MB, Orin, 30 epochs)";
    let headers = "model | with cache (h) | without cache (h) | cache speedup";
    fig.table(title, headers, rows);
    let text = "skipping the trained prefix's forward passes shortens training for every model";
    fig.claim(Simulated, helps, text);
    Ok(fig)
}
