//! The three workloads and every constant that fixes their work.
//!
//! Work per repetition or slice never depends on `--seconds` or on the
//! commit under test: sample counts, epochs, request rates, in-flight
//! windows and the latency limit are frozen here, sized once on the seed
//! commit (the sizing run is recorded in `README.md`). `--seed` changes
//! only the *values* — dataset pixels, model initialisation, the request
//! stream — never the shapes.

/// The `nf train` side of a workload.
#[derive(Debug, Clone, Copy)]
pub struct TrainShape {
    /// `tiny` preset conv channels, one unit each.
    pub channels: &'static [usize],
    /// Square input size.
    pub image_hw: usize,
    /// Classes of the synthetic dataset.
    pub classes: usize,
    /// Training / validation / test split sizes.
    pub samples: (usize, usize, usize),
    /// Memory budget in MB (10⁶ bytes); with `batch_limit` it decides the
    /// block plan.
    pub budget_mb: f64,
    /// Batch-size cap.
    pub batch_limit: usize,
    /// Epochs per block.
    pub epochs: usize,
    /// `[cache] codec`.
    pub codec: &'static str,
    /// `[train] int8_compute`.
    pub int8_compute: bool,
    /// Blocks the partitioner must produce (checked in the run: a plan
    /// change silently changes what the workload stresses).
    pub blocks: usize,
    /// Floor for the selected exit's test accuracy.
    pub acc_floor: f64,
}

/// The `nf serve` side of a workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    /// Conv channels of the served `tiny` model (one exit head per unit).
    pub channels: &'static [usize],
    /// Square input size of a request.
    pub image_hw: usize,
    /// Classes.
    pub classes: usize,
    /// Pixel noise of the dataset the served model trains on at start-up.
    pub noise: f64,
    /// Training samples / epochs of that start-up training.
    pub train: (usize, usize),
    /// Cascade exit threshold.
    pub threshold: f64,
    /// Micro-batch cap.
    pub max_batch: usize,
    /// Relative weights of the `fast` / `balanced` / `exact` tiers.
    pub tier_weights: [u32; 3],
    /// Closed-loop requests in flight, over both connections.
    pub window: usize,
    /// Open-loop rate `lo` (≈25 % of seed-commit capacity), requests/s.
    pub lo_rps: f64,
    /// Open-loop rate `hi` (≈60 % of seed-commit capacity), requests/s.
    pub hi_rps: f64,
    /// Latency limit at `hi` (4 × the seed commit's p50 there), µs.
    pub slo_us: f64,
}

/// One workload: a name, why it exists, and its frozen shapes.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Which layers it stresses and which it must leave alone.
    pub why: &'static str,
    /// Training shape.
    pub train: TrainShape,
    /// Serving shape.
    pub serve: ServeShape,
}

/// Distinct images the request stream cycles through (each paired with
/// every tier, so the offline reference table has `POOL × 3` rows).
pub const REQUEST_POOL: usize = 64;

/// Generous queue deadline for every tier (µs): at the frozen rates no
/// request should ever be shed, so every rejection is a failure the run
/// reports, and lateness shows in `serve_slo_share.hi` instead.
pub const DEADLINE_US: u64 = 2_000_000;

const EIGHT_UNITS: &[usize] = &[16, 16, 32, 32, 48, 48, 64, 64];

/// All workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "compute",
        why: "8-unit wide model in one block, several epochs, f32 cache; exact-heavy full-depth serving: GEMM/conv/layer time dominates, cache and wire work must not show",
        train: TrainShape {
            channels: EIGHT_UNITS,
            image_hw: 32,
            classes: 4,
            samples: (48, 8, 16),
            budget_mb: 200.0,
            batch_limit: 8,
            epochs: 3,
            codec: "f32",
            int8_compute: false,
            blocks: 1,
            acc_floor: 0.4,
        },
        serve: ServeShape {
            channels: EIGHT_UNITS,
            image_hw: 32,
            classes: 10,
            noise: 0.6,
            train: (32, 1),
            threshold: 0.95,
            max_batch: 8,
            tier_weights: [1, 1, 6],
            window: 2,
            lo_rps: 80.0,
            hi_rps: 170.0,
            slo_us: 16_000.0,
        },
    },
    Workload {
        name: "cache_io",
        why: "narrow 4-unit model on 64x64 images, one block per unit, 1 epoch, f32 DiskStore; tiny 3-unit fast-heavy serving, 8 in flight: cache, regeneration, checkpoint, proto and reactor work show, GEMM barely",
        train: TrainShape {
            channels: &[4, 4, 6, 6],
            image_hw: 64,
            classes: 4,
            samples: (112, 4, 8),
            budget_mb: 2.0,
            batch_limit: 32,
            epochs: 1,
            codec: "f32",
            int8_compute: false,
            blocks: 4,
            acc_floor: 0.25,
        },
        serve: ServeShape {
            channels: &[2, 4, 6],
            image_hw: 8,
            classes: 4,
            noise: 0.15,
            train: (32, 1),
            threshold: 0.85,
            max_batch: 8,
            tier_weights: [6, 1, 1],
            window: 8,
            lo_rps: 3000.0,
            hi_rps: 6000.0,
            slo_us: 1_500.0,
        },
    },
    Workload {
        name: "quant",
        why: "cache_io's block plan, medium width, int8 codec and int8 frozen-block compute; fast-only exit-0 serving of the 8-exit model: the same layers used the other way, so an f32 gain that costs int8 shows",
        train: TrainShape {
            channels: &[8, 8, 12, 12],
            image_hw: 48,
            classes: 4,
            samples: (128, 4, 8),
            budget_mb: 4.0,
            batch_limit: 32,
            epochs: 1,
            codec: "int8",
            int8_compute: true,
            blocks: 4,
            acc_floor: 0.25,
        },
        serve: ServeShape {
            channels: EIGHT_UNITS,
            image_hw: 32,
            classes: 4,
            noise: 0.15,
            train: (32, 1),
            threshold: 0.2,
            max_batch: 8,
            tier_weights: [1, 0, 0],
            window: 4,
            lo_rps: 300.0,
            hi_rps: 600.0,
            slo_us: 5_000.0,
        },
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn list(items: &[usize]) -> String {
    let items: Vec<String> = items.iter().map(usize::to_string).collect();
    format!("[{}]", items.join(", "))
}

impl Workload {
    /// The `nf train` config of this workload for `seed`, as the TOML a
    /// user would write. Everything not named keeps the program's default
    /// (kernel backend, aux policy, ρ, learning rate, …).
    pub fn train_toml(&self, seed: u64, out_dir: &str, run_name: &str) -> String {
        let t = &self.train;
        format!(
            "[run]\nname = \"{run_name}\"\nseed = {seed}\nout_dir = \"{out_dir}\"\n\n\
             [model]\npreset = \"tiny\"\nchannels = {channels}\n\n\
             [dataset]\npreset = \"quick\"\nclasses = {classes}\nimage_hw = {hw}\n\
             train = {train}\nval = {val}\ntest = {test}\nseed = {seed}\n\n\
             [train]\nbudget_mb = {budget}\nbatch_limit = {batch}\nepochs_per_block = {epochs}\n\
             int8_compute = {int8}\n\n\
             [cache]\ncodec = \"{codec}\"\n",
            channels = list(t.channels),
            classes = t.classes,
            hw = t.image_hw,
            train = t.samples.0,
            val = t.samples.1,
            test = t.samples.2,
            budget = t.budget_mb,
            batch = t.batch_limit,
            epochs = t.epochs,
            int8 = t.int8_compute,
            codec = t.codec,
        )
    }

    /// The `nf serve` config of this workload for `seed`. The served model
    /// is trained from it at server start-up, as `nf serve` does.
    pub fn serve_toml(&self, seed: u64, out_dir: &str) -> String {
        let s = &self.serve;
        format!(
            "[run]\nname = \"{name}-serve\"\nseed = {seed}\nout_dir = \"{out_dir}\"\n\n\
             [model]\npreset = \"tiny\"\nchannels = {channels}\n\n\
             [dataset]\npreset = \"quick\"\nclasses = {classes}\nimage_hw = {hw}\n\
             train = {train}\nval = {classes}\ntest = {pool}\nnoise = {noise}\nseed = {seed}\n\n\
             [train]\nbudget_mb = 400\nbatch_limit = 8\nepochs_per_block = {epochs}\n\n\
             [serve]\naddr = \"127.0.0.1:0\"\nthreshold = {threshold}\nmax_batch = {max_batch}\n\
             queue_capacity = 16384\nfast_deadline_us = {dl}\nbalanced_deadline_us = {dl}\n\
             exact_deadline_us = {dl}\n",
            name = self.name,
            channels = list(s.channels),
            classes = s.classes,
            hw = s.image_hw,
            train = s.train.0,
            pool = REQUEST_POOL,
            noise = s.noise,
            epochs = s.train.1,
            threshold = s.threshold,
            max_batch = s.max_batch,
            dl = DEADLINE_US,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in &WORKLOADS {
            assert_eq!(by_name(w.name).map(|f| f.name), Some(w.name));
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(w.serve.lo_rps < w.serve.hi_rps);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn configs_carry_the_seed_and_the_frozen_shapes() {
        let w = by_name("quant").unwrap();
        let toml = w.train_toml(7, "out/x", "rep0");
        assert!(toml.contains("seed = 7"));
        assert!(toml.contains("codec = \"int8\""));
        assert!(toml.contains("int8_compute = true"));
        assert!(toml.contains("channels = [8, 8, 12, 12]"));
        let toml = w.serve_toml(9, "out/x");
        assert!(toml.contains("threshold = 0.2"));
        assert!(toml.contains("test = 64"));
    }
}
