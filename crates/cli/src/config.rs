//! The `nf` config schema, declared once.
//!
//! Every key is one entry of the `sections!` block below: name, type,
//! default or required, [`Bound`], and doc. That declaration *is* the typed
//! section struct and its `Default`, the reader (unknown keys and sections
//! rejected, every error a [`CliError::Config`] at `section.key`), the
//! writer (the `runs/<name>/config.toml` snapshot, which re-parses to an
//! identical [`RunConfig`]) and the key's [`Row`] in [`RunConfig::schema`],
//! which `DESIGN.md` §6 renders; [`crate::schema`] holds the machinery.
//! Defaults core owns are read from there. Below the table sit the checks
//! no single key can make, and resolution into workspace types.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::error::{CliError, Result};
use crate::schema::{sections, string_enum, wrong_type, Bound, Kind, Row};
use neuroflux_core::{CodecKind, NeuroFluxConfig, ServePolicy, SloTier, MAX_REPLICAS};
use nf_data::SyntheticSpec;
use nf_models::{AuxPolicy, LayerKind, ModelSpec, UnitSpec};
use nf_tensor::KernelBackend;
use nf_value::Value;

pub use crate::schema::Field;

string_enum! {
    KernelBackend = "blocked | naive";
    AuxPolicy = "adaptive | classic | fixed:<n>";
    CodecKind = "f32 | f16 | int8";
}

/// Core's loop-knob defaults (the two arguments are the required keys).
fn core_train() -> NeuroFluxConfig {
    NeuroFluxConfig::new(0, 0)
}

/// An `f32` default of core's as the `f64` a config file would spell
/// (`0.05_f32` is `0.05`, not `0.05000000074505806`); narrowing it back
/// gives core's bits.
fn widen(x: f32) -> f64 {
    x.to_string().parse().unwrap_or(f64::from(x))
}

sections! {
    /// `[run]`: identity and placement of the run.
    pub struct RunSection {
        /// Run name; the run directory is `<out_dir>/<name>`.
        pub name: String, Bound::DirName;
        /// Master seed for model init and planning (the dataset has its own).
        pub seed: u64 = 0;
        /// Directory run artifacts are written under.
        pub out_dir: String = "runs".to_string();
    }

    /// `[model]`: which architecture to train.
    pub struct ModelSection {
        /// `vgg11 | vgg16 | vgg19 | resnet18 | mobilenet` (`nf sweep` only: nothing builds it), or `tiny` (built from `channels`).
        pub preset: String;
        /// Conv channels per unit; required by (and only read for) `tiny`.
        pub channels: Option<Vec<usize>> = None, Bound::AllPositive;
        /// Channel scale for a named preset, rounded to multiples of 4 (`DESIGN.md` §2).
        pub scale: Option<f64> = None, Bound::Positive;
        /// Square input size the model is re-headed to; defaults to the dataset's `image_hw`.
        pub input_size: Option<usize> = None;
    }

    /// `[dataset]`: which synthetic dataset to generate.
    pub struct DatasetSection {
        /// `cifar10 | cifar100 | tiny-imagenet`, or `quick` (sized by `classes` and `image_hw`).
        pub preset: String;
        /// Class count; required by (and only read for) `quick`.
        pub classes: Option<usize> = None;
        /// Square image size; required by (and only read for) `quick`.
        pub image_hw: Option<usize> = None;
        /// Training-split size.
        pub train: usize, Bound::Positive;
        /// Validation-split size; defaults to `train / 4`.
        pub val: Option<usize> = None;
        /// Test-split size; defaults to `train / 4`.
        pub test: Option<usize> = None;
        /// Pixel-noise difficulty knob; defaults to the preset's.
        pub noise: Option<f64> = None;
        /// Dataset seed; defaults to the preset's.
        pub seed: Option<u64> = None;
    }

    /// `[train]`: the NeuroFlux run configuration (the paper's §0 inputs plus the loop knobs).
    pub struct TrainSection {
        /// GPU memory budget in MB (10⁶ bytes, the paper's unit), as configs write it;
        /// folded into `budget_bytes` at load, so never set in a loaded config or a snapshot.
        pub budget_mb: Option<f64> = None, Bound::Positive;
        /// GPU memory budget in bytes, as snapshots carry it; `0` takes `budget_mb` (one is needed).
        pub budget_bytes: u64 = 0;
        /// Batch-size cap (Algorithm 1, line 4).
        pub batch_limit: usize, Bound::Positive;
        /// Block-grouping threshold ρ.
        pub rho: f64 = core_train().rho, Bound::Unit;
        /// Learning rate.
        pub lr: f64 = widen(core_train().lr);
        /// SGD momentum.
        pub momentum: f64 = widen(core_train().momentum);
        /// Epochs each block trains for.
        pub epochs_per_block: usize = core_train().epochs_per_block, Bound::Positive;
        /// Early-exit selection tolerance (accuracy points, 0–1).
        pub exit_tolerance: f64 = widen(core_train().exit_tolerance);
        /// GEMM kernel: `blocked`, the one production kernel (`DESIGN.md` §11), or the `naive` oracle.
        pub kernel_backend: KernelBackend = core_train().kernel_backend;
        /// Auxiliary-head sizing policy.
        pub aux_policy: AuxPolicy = core_train().aux_policy;
        /// Frozen blocks run int8-cached activations through the integer GEMM path without
        /// decoding to f32 (takes effect with `[cache] codec = "int8"`; training stays f32).
        pub int8_compute: bool = core_train().int8_compute;
    }

    /// `[cache]`: how the activation cache stores block outputs.
    pub struct CacheSection: Default {
        /// `f32` is bit-exact, `f16` 2× smaller, per-channel `int8` ~4× smaller (`DESIGN.md` §10).
        pub codec: CodecKind = core_train().cache_codec;
    }

    /// `[sweep]`: the device-budget sweep `nf sweep` runs on the analytic `nf-memsim` models.
    pub struct SweepSection {
        /// `pi4b | jetson-nano | xavier-nx | agx-orin`, or `host`: this machine, profiled live.
        pub devices: Vec<String>, Bound::NonEmpty;
        /// Memory budgets to sweep, in MB (10⁶ bytes); each replaces `[train]`'s budget.
        pub budgets_mb: Vec<u64>, Bound::AllPositive;
    }

    /// `[serve]`: knobs for `nf serve` and the server `nf loadgen` hosts (`DESIGN.md` §12).
    pub struct ServeSection: Default {
        /// Listen address; port 0 picks a free port (printed at startup).
        pub addr: String = "127.0.0.1:0".to_string();
        /// Cascade exit threshold (max softmax probability).
        pub threshold: f64 = widen(ServePolicy::default().threshold), Bound::Positive;
        /// Largest micro-batch formed per inference pass.
        pub max_batch: usize = ServePolicy::default().max_batch, Bound::Positive;
        /// Bounded request-queue capacity; beyond it requests are rejected `queue-full`.
        pub queue_capacity: usize = ServePolicy::default().queue_capacity, Bound::Positive;
        /// Queue deadline for `fast`-tier requests (µs).
        pub fast_deadline_us: u64 = ServePolicy::default().deadline_us(SloTier::Fast);
        /// Queue deadline for `balanced`-tier requests (µs).
        pub balanced_deadline_us: u64 = ServePolicy::default().deadline_us(SloTier::Balanced);
        /// Queue deadline for `exact`-tier requests (µs).
        pub exact_deadline_us: u64 = ServePolicy::default().deadline_us(SloTier::Exact);
        /// Batcher replicas sharing the queue, each a bit-identical model clone; `0`: one per core.
        pub replicas: usize = ServePolicy::default().replicas, Bound::AtMost(MAX_REPLICAS);
        /// Whether a shutdown frame stops the server (the loadgen/test harness turns this on).
        pub allow_shutdown: bool = false;
    }

    /// `[loadgen]`: the deterministic load `nf loadgen` drives the server with (`DESIGN.md` §12).
    pub struct LoadgenSection: Default {
        /// Total requests to send.
        pub requests: usize = 256, Bound::Positive;
        /// Concurrent keep-alive client connections.
        pub connections: usize = 4, Bound::Positive;
        /// Requests in flight over all connections: `0` is one each (closed loop), else ≥ `connections`.
        pub inflight: usize = 0;
        /// Relative traffic weights of the `fast : balanced : exact` tiers.
        pub tier_weights: [usize; 3] = [1, 1, 1], Bound::NotAllZero;
        /// Request-stream seed; defaults to `[run].seed`.
        pub seed: Option<u64> = None;
    }

    /// A fully-parsed `nf` config file: one TOML or JSON document drives every subcommand.
    pub struct RunConfig {
        /// Identity and placement of the run.
        pub run: RunSection;
        /// Which architecture to train.
        pub model: ModelSection;
        /// Which synthetic dataset to generate.
        pub dataset: DatasetSection;
        /// The NeuroFlux run configuration (validated by every subcommand).
        pub train: TrainSection;
        /// Activation-cache storage; always spelled out in snapshots.
        pub cache: CacheSection = CacheSection::default();
        /// Required by `nf sweep` only: the devices and budgets it prices `[train]` at, over `[dataset] train` samples.
        pub sweep: Option<SweepSection> = None;
        /// Used by `nf serve` / `nf loadgen`; its defaults apply without it.
        pub serve: Option<ServeSection> = None;
        /// Used by `nf loadgen`; its defaults apply without it.
        pub loadgen: Option<LoadgenSection> = None;
    }
}

/// Reads the document at `path` with `parse`; every error names the file.
pub(crate) fn read_file(
    path: &std::path::Path,
    parse: fn(&str) -> std::result::Result<Value, nf_value::Error>,
) -> Result<Value> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::new(format!("reading {}: {e}", path.display())))?;
    let named = |e| CliError::new(format!("{}: {}", path.display(), CliError::from(e)));
    parse(&text).map_err(named)
}

impl RunConfig {
    /// Loads a config from a `.toml` or `.json` file (decided by
    /// extension; anything other than `.json` parses as TOML).
    pub fn load(path: &std::path::Path) -> Result<RunConfig> {
        let value = if path.extension().is_some_and(|e| e == "json") {
            read_file(path, nf_value::json::parse)?
        } else {
            read_file(path, nf_value::toml::parse)?
        };
        Self::from_value(&value)
    }

    /// Reads a config out of a parsed document tree; resolution validates
    /// the cross-section constraints (model fits dataset geometry) up front.
    /// A model only `nf sweep` can price loads here; [`RunConfig::resolve`]
    /// rejects it.
    pub fn from_value(root: &Value) -> Result<RunConfig> {
        let config = Self::read_document(root)?;
        config.resolve_model(&config.resolve_dataset()?)?;
        config.resolve_train()?;
        Ok(config)
    }

    /// Everything `from_value` checks short of resolution.
    fn read_document(root: &Value) -> Result<RunConfig> {
        let mut config = RunConfig::read(root, "")?;
        let train = &mut config.train;
        if let (0, Some(mb)) = (train.budget_bytes, train.budget_mb) {
            // `as` saturates, so an overflowing product fails the range check.
            train.budget_bytes = (mb * 1e6) as u64;
            if i64::try_from(train.budget_bytes).is_err() {
                let message = "too large: the budget in bytes must fit a 64-bit signed integer";
                return Err(CliError::config("train.budget_mb", message));
            }
        }
        train.budget_mb = None;
        if train.budget_bytes == 0 {
            let message = "missing, and required (a budget > 0, here or as budget_bytes)";
            return Err(CliError::config("train.budget_mb", message));
        }
        if let Some(l) = config.loadgen.as_ref() {
            if l.inflight != 0 && l.inflight < l.connections {
                let message = "must be 0 (= connections) or ≥ connections \
                               (every connection keeps at least one request in flight)";
                return Err(CliError::config("loadgen.inflight", message));
            }
        }
        Ok(config)
    }

    /// Renders the resolved config back into a document tree: the snapshot
    /// written to `runs/<name>/config.toml`.
    pub fn to_value(&self) -> Value {
        self.write()
    }

    /// Every declared section and key, in declaration order.
    pub fn schema() -> Vec<Row> {
        let mut rows = Vec::new();
        RunConfig::rows("", &mut rows);
        rows
    }

    /// Resolves the dataset section into a generator spec.
    pub fn resolve_dataset(&self) -> Result<SyntheticSpec> {
        let d = &self.dataset;
        let val = d.val.unwrap_or(d.train / 4);
        let test = d.test.unwrap_or(d.train / 4);
        let quick_needs = |key: &str| CliError::config(key, "required for preset \"quick\"");
        let mut spec = match d.preset.as_str() {
            "quick" => {
                let classes = d.classes.ok_or_else(|| quick_needs("dataset.classes"))?;
                let image_hw = d.image_hw.ok_or_else(|| quick_needs("dataset.image_hw"))?;
                let mut s = SyntheticSpec::quick(classes, image_hw, d.train);
                s.val = val.max(classes);
                s.test = test.max(classes);
                s
            }
            name => {
                SyntheticSpec::by_name(name, d.train, val.max(1), test.max(1)).ok_or_else(|| {
                    let presets = SyntheticSpec::preset_names().join(", ");
                    let message =
                        format!("unknown dataset preset {name:?} (expected quick, {presets})");
                    CliError::config("dataset.preset", message)
                })?
            }
        };
        if let Some(noise) = d.noise {
            spec = spec.with_noise(noise as f32);
        }
        if let Some(seed) = d.seed {
            spec = spec.with_seed(seed);
        }
        Ok(spec)
    }

    /// Resolves the model section against the dataset geometry.
    pub fn resolve_model(&self, dataset: &SyntheticSpec) -> Result<ModelSpec> {
        let m = &self.model;
        let target_hw = m.input_size.unwrap_or(dataset.image_hw);
        let spec = match m.preset.as_str() {
            "tiny" => {
                let channels = m.channels.as_ref().ok_or_else(|| {
                    CliError::config("model.channels", "required for preset \"tiny\"")
                })?;
                ModelSpec::tiny("tiny", target_hw, channels, dataset.classes)
            }
            name => {
                let mut spec = ModelSpec::by_name(name, dataset.classes).ok_or_else(|| {
                    let presets = ModelSpec::preset_names().join(", ");
                    let message =
                        format!("unknown model preset {name:?} (expected tiny, {presets})");
                    CliError::config("model.preset", message)
                })?;
                if let Some(scale) = m.scale {
                    spec = spec.scale_channels(scale, 4);
                }
                if spec.input.1 != target_hw {
                    // The typed resize path, anchored at the keys that
                    // chose the resolution.
                    spec = spec.try_with_input_size(target_hw).map_err(|e| {
                        let hint = "raise [dataset].image_hw or set [model].input_size";
                        CliError::config("model.input_size", format!("{e}; {hint}"))
                    })?;
                }
                spec
            }
        };
        let (_, h, w) = spec.final_feature_shape();
        if h == 0 || w == 0 {
            let message = format!(
                "model {} collapses to zero spatial extent at input {target_hw}×{target_hw}",
                spec.name
            );
            return Err(CliError::config("model.input_size", message));
        }
        Ok(spec)
    }

    /// Resolves the `[train]` section into a [`NeuroFluxConfig`].
    pub fn resolve_train(&self) -> Result<NeuroFluxConfig> {
        let t = &self.train;
        let mut config = NeuroFluxConfig::new(t.budget_bytes, t.batch_limit)
            .with_rho(t.rho)
            .with_lr(t.lr as f32)
            .with_epochs(t.epochs_per_block)
            .with_exit_tolerance(t.exit_tolerance as f32)
            .with_aux_policy(t.aux_policy)
            .with_kernel_backend(t.kernel_backend)
            .with_cache_codec(self.cache.codec)
            .with_int8_compute(t.int8_compute);
        config.momentum = t.momentum as f32;
        config.validate()?;
        Ok(config)
    }

    /// Resolves all three training inputs at once, for the subcommands
    /// that build the model: its every unit must have a runnable layer.
    pub fn resolve(&self) -> Result<(ModelSpec, SyntheticSpec, NeuroFluxConfig)> {
        let dataset = self.resolve_dataset()?;
        let model = self.resolve_model(&dataset)?;
        let depthwise = |u: &UnitSpec| matches!(u.kind, LayerKind::DepthwiseSeparable { .. });
        if model.units.iter().any(depthwise) {
            let message = "cannot be built: its depthwise-separable units need channel-grouped \
                           convolution, which nf-nn does not implement (`nf sweep` prices it)";
            return Err(CliError::config("model.preset", message));
        }
        let config = self.resolve_train()?;
        Ok((model, dataset, config))
    }

    /// The `[serve]` section, or its documented defaults.
    pub fn serve(&self) -> ServeSection {
        self.serve.clone().unwrap_or_default()
    }

    /// The `[loadgen]` section, or its documented defaults.
    pub fn loadgen(&self) -> LoadgenSection {
        self.loadgen.clone().unwrap_or_default()
    }

    /// Resolves the `[serve]` section (or its defaults) into the core
    /// serving policy.
    pub fn resolve_serve(&self) -> Result<ServePolicy> {
        let s = self.serve();
        let policy = ServePolicy {
            threshold: s.threshold as f32,
            max_batch: s.max_batch,
            queue_capacity: s.queue_capacity,
            deadline_us: [
                s.fast_deadline_us,
                s.balanced_deadline_us,
                s.exact_deadline_us,
            ],
            replicas: s.replicas,
        };
        policy
            .validate()
            .map_err(|e| CliError::config("serve", e.to_string()))?;
        Ok(policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_value::Table;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn quickstart_toml() -> &'static str {
        r#"
[run]
name = "qs"
seed = 42

[model]
preset = "tiny"
channels = [8, 16]

[dataset]
preset = "quick"
classes = 3
image_hw = 8
train = 64

[train]
budget_mb = 32
batch_limit = 16
epochs_per_block = 2
"#
    }

    fn try_parse(text: &str) -> Result<RunConfig> {
        RunConfig::from_value(&nf_value::toml::parse(text)?)
    }

    fn parse_config(text: &str) -> RunConfig {
        try_parse(text).unwrap()
    }

    /// The typed error `text` fails to load with, as `(path, message)`.
    fn config_error(text: &str) -> (String, String) {
        match try_parse(text).unwrap_err() {
            CliError::Config { path, message } => (path, message),
            other => panic!("expected a typed config error, got {other}"),
        }
    }

    // ---- the table-driven property --------------------------------------

    /// `doc` with `value` at `path` (`section.key`, or a bare `section`);
    /// `None` removes the entry.
    fn with(doc: &Value, path: &str, value: Option<Value>) -> Value {
        let (head, rest) = match path.split_once('.') {
            Some((head, rest)) => (head, Some(rest)),
            None => (path, None),
        };
        let mut table = Table::new();
        for (k, v) in doc.entries().unwrap() {
            if k != head {
                table.insert(k, v.clone());
            }
        }
        let value = match rest {
            None => value,
            Some(rest) => Some(with(doc.get(head).unwrap_or(&Value::table()), rest, value)),
        };
        if let Some(value) = value {
            table.insert(head, value);
        }
        table.build()
    }

    fn at<'v>(doc: &'v Value, path: &str) -> Option<&'v Value> {
        path.split('.').try_fold(doc, |v, part| v.get(part))
    }

    /// A random value of `row`'s kind inside its bound.
    fn in_bound(row: &Row, rng: &mut StdRng) -> Value {
        let int = |rng: &mut StdRng| match row.bound {
            Some(Bound::AtMost(max)) => Value::Int(rng.gen_range(0..=max as i64)),
            Some(Bound::Positive) => Value::Int(rng.gen_range(1..=1_000_000)),
            _ if rng.gen_bool(0.1) => Value::Int(i64::MAX),
            _ => Value::Int(rng.gen_range(0..=1_000_000)),
        };
        match row.kind {
            Kind::Str if row.bound == Some(Bound::DirName) => {
                Value::Str(format!("run-{}_x", rng.gen_range(0..100)))
            }
            Kind::Str => Value::Str(format!("s{} \"q\" \\ # é\n", rng.gen_range(0..100))),
            Kind::Int => int(rng),
            Kind::F64 => Value::Float(match row.bound {
                Some(Bound::Unit) => rng.gen_range(0.0..=1.0),
                Some(Bound::Positive) => rng.gen_range(1e-6..1e6),
                _ => rng.gen_range(-1e6..1e6),
            }),
            Kind::Bool => Value::Bool(rng.gen_bool(0.5)),
            // The one `NotAllZero` list is the three tier weights.
            Kind::IntList if row.bound == Some(Bound::NotAllZero) => Value::Array(vec![
                Value::Int(rng.gen_range(1..9)),
                Value::Int(rng.gen_range(0..9)),
                Value::Int(0),
            ]),
            Kind::IntList => Value::Array(
                (0..rng.gen_range(1..5))
                    .map(|_| Value::Int(rng.gen_range(1..99)))
                    .collect(),
            ),
            Kind::StrList => Value::Array(
                (0..rng.gen_range(1..4))
                    .map(|i| Value::Str(format!("dev-{i}")))
                    .collect(),
            ),
            Kind::Enum(grammar) => {
                let names: Vec<&str> = grammar.split(" | ").collect();
                let name = names[rng.gen_range(0..names.len())];
                Value::Str(name.replace("<n>", "3").replace("<alpha>", "0.5"))
            }
            Kind::Table => panic!("a section's sample is the section itself"),
        }
    }

    fn wrong_typed(kind: Kind) -> Value {
        match kind {
            Kind::Str | Kind::Enum(_) | Kind::Table => Value::Int(3),
            Kind::Int => Value::Int(-1),
            Kind::IntList => Value::Array(vec![Value::Int(1), Value::Str("x".into())]),
            _ => Value::Str("yes".into()),
        }
    }

    fn out_of_bound(row: &Row) -> Option<Value> {
        Some(match row.bound? {
            Bound::Positive => Value::Int(0),
            Bound::AllPositive => Value::Array(vec![Value::Int(4), Value::Int(0)]),
            Bound::Unit => Value::Float(1.5),
            Bound::AtMost(max) => Value::Int(max as i64 + 1),
            Bound::NonEmpty => Value::Array(Vec::new()),
            Bound::NotAllZero => Value::Array(vec![Value::Int(0); 3]),
            Bound::DirName => Value::Str("a/b".into()),
        })
    }

    /// Loads `doc` short of resolution, whose cross-section constraints (a
    /// model that fits the image) no single row knows.
    fn read(doc: &Value) -> Result<RunConfig> {
        RunConfig::read_document(doc)
    }

    fn error_path(doc: &Value) -> String {
        match read(doc) {
            Err(CliError::Config { path, .. }) => path,
            other => panic!("expected a typed config error, got {other:?}\n{doc:?}"),
        }
    }

    /// What the declaration promises of one row, checked on a document
    /// that has the row's section with its required keys filled in.
    fn check_row(
        row: &Row,
        rows: &[Row],
        rng: &mut StdRng,
    ) -> std::result::Result<(), TestCaseError> {
        let minimal = nf_value::toml::parse(quickstart_toml()).unwrap();
        let section = row.path.split('.').next().unwrap();
        let mut base = match at(&minimal, section) {
            Some(_) => minimal,
            None => with(&minimal, section, Some(Value::table())),
        };
        for sibling in rows {
            let required =
                sibling.default.is_none() && sibling.path.starts_with(&format!("{section}."));
            if required && at(&base, &sibling.path).is_none() {
                base = with(&base, &sibling.path, Some(in_bound(sibling, rng)));
            }
        }
        let omitted = with(&base, &row.path, None);

        // (i) Omitted means the declared default, which the snapshot
        // spells out (an unset optional key stays out of it). The budget
        // pair is the exception: each stands in for the other
        // (`a_budget_that_cannot_round_trip_is_rejected_at_load`).
        match &row.default {
            None => prop_assert_eq!(&error_path(&omitted), &row.path),
            Some(_) if row.path.starts_with("train.budget_") || row.kind == Kind::Table => {}
            Some(default) => {
                let snapshot = read(&omitted).unwrap().to_value();
                let declared = Some(default).filter(|d| **d != Value::Null);
                prop_assert!(
                    at(&snapshot, &row.path) == declared,
                    "{}: {snapshot:?}",
                    row.path
                );
            }
        }

        // (ii) A random in-bound value survives parse → snapshot → parse
        // with `==`, and the snapshot text is a fixed point, through TOML
        // and through JSON.
        let sample = match row.kind {
            Kind::Table => at(&base, &row.path).cloned().unwrap(),
            _ => in_bound(row, rng),
        };
        let doc = with(&base, &row.path, Some(sample.clone()));
        let (toml, json) = (doc.to_toml().unwrap(), doc.to_json());
        let cfg =
            read(&nf_value::toml::parse(&toml).unwrap()).unwrap_or_else(|e| panic!("{e}\n{toml}"));
        prop_assert!(
            read(&nf_value::json::parse(&json).unwrap()).unwrap() == cfg,
            "{json}"
        );
        let (toml, json) = (cfg.to_value().to_toml().unwrap(), cfg.to_value().to_json());
        let back = read(&nf_value::toml::parse(&toml).unwrap()).unwrap();
        prop_assert!(back == cfg, "snapshot:\n{toml}");
        prop_assert_eq!(back.to_value().to_toml().unwrap(), toml);
        let back = read(&nf_value::json::parse(&json).unwrap()).unwrap();
        prop_assert!(back == cfg, "snapshot:\n{json}");
        prop_assert_eq!(back.to_value().to_json(), json);

        // (iii) Every way of getting the row wrong is a typed error at
        // the row: a wrong-typed value, an out-of-bound one, and a
        // one-letter misspelling (whose message lists the right key).
        let wrong = with(&base, &row.path, Some(wrong_typed(row.kind)));
        prop_assert_eq!(&error_path(&wrong), &row.path);
        if let Some(bad) = out_of_bound(row) {
            prop_assert_eq!(&error_path(&with(&base, &row.path, Some(bad))), &row.path);
        }
        let key_start = row.path.rfind('.').map_or(0, |dot| dot + 1);
        let key = &row.path[key_start..];
        let mut typo = row.path.clone();
        typo.remove(rng.gen_range(key_start..row.path.len()));
        if typo.len() > key_start && rows.iter().all(|r| r.path != typo) {
            match read(&with(&omitted, &typo, Some(sample))) {
                Err(CliError::Config { path, message }) => {
                    prop_assert_eq!(&path, &typo);
                    prop_assert!(message.contains(key), "{message} should list {key}");
                }
                other => prop_assert!(false, "{typo} must be rejected, got {other:?}"),
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn every_row_holds_its_declaration(seed in 0u64..u64::MAX) {
            let rng = &mut StdRng::seed_from_u64(seed);
            let rows = RunConfig::schema();
            for row in &rows {
                check_row(row, &rows, rng)?;
            }
        }
    }

    /// The §6 listing: one line per row — key, default in parentheses,
    /// kind, bound, doc.
    fn render_schema() -> String {
        let mut out = String::new();
        for row in RunConfig::schema() {
            let presence = match &row.default {
                None => "required".to_string(),
                Some(Value::Null) => "optional".to_string(),
                Some(Value::Table(_)) => "optional, defaults below".to_string(),
                Some(default) => {
                    let mut doc = Table::new();
                    doc.insert("x", default.clone());
                    let text = doc.build().to_toml().unwrap();
                    text.trim_start_matches("x = ").trim_end().to_string()
                }
            };
            if row.kind == Kind::Table {
                out.push_str(&format!("\n[{}] ({presence}): {}\n", row.path, row.doc));
                continue;
            }
            let kind = match row.kind {
                Kind::Enum(grammar) => grammar.to_string(),
                kind => kind.expected().split_once(' ').unwrap().1.to_string(),
            };
            let bound = row
                .bound
                .map_or(String::new(), |b| format!(", {}", b.describe()));
            let key = row.path.split_once('.').unwrap().1;
            out.push_str(&format!(
                "  {key} ({presence}): {kind}{bound}. {}\n",
                row.doc
            ));
        }
        out.trim_start().to_string()
    }

    #[test]
    fn design_section_6_is_the_schema_rendered() {
        let design = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
        let design = std::fs::read_to_string(design).unwrap();
        let section = design
            .split("\n## §6 Config schema\n")
            .nth(1)
            .expect("DESIGN.md §6");
        let listed = section
            .split("```text\n")
            .nth(1)
            .and_then(|s| s.split("```").next());
        let expected = render_schema();
        assert!(
            listed == Some(&expected),
            "DESIGN.md §6 has drifted from the schema table in config.rs; \
             its ```text block must read:\n\n{expected}"
        );
    }

    // ---- regressions and resolution --------------------------------------

    #[test]
    fn unknown_keys_and_sections_are_rejected() {
        // The reproduction: quickstart with `epochs_per_block` misspelled
        // used to train 3 epochs (the default) without a word.
        let quickstart = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/quickstart.toml"
        );
        let quickstart = std::fs::read_to_string(quickstart).unwrap();
        assert_eq!(parse_config(&quickstart).train.epochs_per_block, 5);
        let typo = quickstart.replace("epochs_per_block = 5", "epoch_per_block = 5");
        let (path, message) = config_error(&typo);
        assert_eq!(path, "train.epoch_per_block");
        assert!(message.contains("epochs_per_block"), "{message}");

        // Deleted keys get no alias (a pre-table snapshot carrying them
        // cannot be resumed as if nothing had changed), nor does the old
        // `[sweep] device`, nor `[sweep]`'s copies of `[train] batch_limit`,
        // `[train] epochs_per_block` and `[dataset] train`.
        for (section, gone) in [
            ("train", "evict_params = true"),
            ("model", "granularity = 4"),
        ] {
            let doc = quickstart_toml()
                .replace(&format!("[{section}]\n"), &format!("[{section}]\n{gone}\n"));
            let key = gone.split(' ').next().unwrap();
            assert_eq!(config_error(&doc).0, format!("{section}.{key}"));
        }
        for gone in ["device", "batch_limit", "epochs", "samples"] {
            let sweep =
                format!("\n[sweep]\ndevices = [\"agx-orin\"]\nbudgets_mb = [100]\n{gone} = 1\n");
            assert_eq!(
                config_error(&format!("{}{sweep}", quickstart_toml())).0,
                format!("sweep.{gone}")
            );
        }
        for gone in ["batch_window_us", "outbox_kib"] {
            let doc = format!("{}\n[serve]\n{gone} = 1\n", quickstart_toml());
            assert_eq!(config_error(&doc).0, format!("serve.{gone}"));
        }
        for gone in ["federated", "baseline"] {
            let doc = format!("{}\n[{gone}]\nlr = 0.1\n", quickstart_toml());
            assert_eq!(config_error(&doc).0, gone);
        }

        // Unknown sections, and the same through JSON.
        let (path, message) = config_error(&format!("{}\n[trian]\nlr = 0.1\n", quickstart_toml()));
        assert_eq!(path, "trian");
        assert!(message.contains("train"), "{message}");
        for (json, at, found) in [
            (
                r#"{"run": {"name": "j", "sed": 1}}"#,
                "run.sed",
                "unknown key",
            ),
            (
                r#"{"run": [{"name": "j"}]}"#,
                "run",
                "must be a table, found an array",
            ),
        ] {
            match RunConfig::from_value(&nf_value::json::parse(json).unwrap()).unwrap_err() {
                CliError::Config { path, message } => {
                    assert!(path == at && message.contains(found), "{path}: {message}")
                }
                other => panic!("expected Config error, got {other}"),
            }
        }
    }

    #[test]
    fn a_budget_that_cannot_round_trip_is_rejected_at_load() {
        // `budget_mb = 1e13` used to load, train, and snapshot
        // `budget_bytes = -8446744073709551616`, which no `--resume` could
        // read back.
        let doc = quickstart_toml().replace("budget_mb = 32", "budget_mb = 1e13");
        assert_eq!(config_error(&doc).0, "train.budget_mb");
        // The largest budget that loads snapshots to itself.
        let doc = quickstart_toml().replace("budget_mb = 32", "budget_mb = 9.2e12");
        let cfg = parse_config(&doc);
        assert_eq!(cfg.train.budget_bytes, 9_200_000_000_000_000_000);
        assert_eq!(parse_config(&cfg.to_value().to_toml().unwrap()), cfg);
        // Bytes win over MB, neither is an error at the key users write.
        let doc = quickstart_toml().replace("budget_mb = 32", "budget_mb = 32\nbudget_bytes = 7");
        assert_eq!(parse_config(&doc).train.budget_bytes, 7);
        let doc = quickstart_toml().replace("budget_mb = 32\n", "");
        assert_eq!(config_error(&doc).0, "train.budget_mb");
    }

    #[test]
    fn benchmark_workload_shapes_load() {
        // The two documents `benchmark/src/workloads.rs` writes, keys and
        // spellings verbatim: `train_toml` at the `quant` shape and
        // `serve_toml` at the `compute` shape (16 384-deep queue, 2 s
        // deadlines).
        let train = "[run]\nname = \"quant\"\nseed = 1\nout_dir = \"out\"\n\n\
             [model]\npreset = \"tiny\"\nchannels = [8, 8, 12, 12]\n\n\
             [dataset]\npreset = \"quick\"\nclasses = 4\nimage_hw = 48\n\
             train = 128\nval = 4\ntest = 8\nseed = 1\n\n\
             [train]\nbudget_mb = 4\nbatch_limit = 32\nepochs_per_block = 1\n\
             int8_compute = true\n\n\
             [cache]\ncodec = \"int8\"\n";
        let cfg = parse_config(train);
        assert_eq!(cfg.train.budget_bytes, 4_000_000);
        assert!(cfg.train.int8_compute);
        assert_eq!(cfg.cache.codec, CodecKind::Int8Affine);
        let serve = "[run]\nname = \"compute-serve\"\nseed = 1\nout_dir = \"out\"\n\n\
             [model]\npreset = \"tiny\"\nchannels = [16, 16, 32, 32, 48, 48, 64, 64]\n\n\
             [dataset]\npreset = \"quick\"\nclasses = 10\nimage_hw = 32\n\
             train = 32\nval = 10\ntest = 64\nnoise = 0.6\nseed = 1\n\n\
             [train]\nbudget_mb = 400\nbatch_limit = 8\nepochs_per_block = 1\n\n\
             [serve]\naddr = \"127.0.0.1:0\"\nthreshold = 0.95\nmax_batch = 8\n\
             queue_capacity = 16384\nfast_deadline_us = 2000000\nbalanced_deadline_us = 2000000\n\
             exact_deadline_us = 2000000\n";
        let cfg = parse_config(serve);
        assert_eq!(cfg.serve().queue_capacity, 16384);
        assert_eq!(cfg.resolve_serve().unwrap().deadline_us, [2_000_000; 3]);
    }

    #[test]
    fn quickstart_parses_and_resolves() {
        let cfg = parse_config(quickstart_toml());
        assert_eq!(cfg.run.name, "qs");
        assert_eq!(cfg.run.out_dir, "runs");
        let (model, dataset, nf) = cfg.resolve().unwrap();
        assert_eq!(model.num_units(), 2);
        assert_eq!(model.classes, 3);
        assert_eq!(dataset.classes, 3);
        assert_eq!(nf.budget_bytes, 32_000_000);
        assert_eq!(nf.batch_limit, 16);
        assert_eq!(nf.epochs_per_block, 2);
        // Everything the document leaves out resolves to core's own
        // defaults, bit for bit (`lr` and friends cross f32 → f64 → f32).
        assert!(nf.evict_params);
        assert_eq!(
            NeuroFluxConfig {
                epochs_per_block: 3,
                ..nf
            },
            NeuroFluxConfig::new(32_000_000, 16)
        );
        assert_eq!(
            (cfg.train.lr, cfg.train.momentum, cfg.train.exit_tolerance),
            (0.05, 0.9, 0.005)
        );
    }

    #[test]
    fn snapshot_round_trips_to_identical_config() {
        let cfg = parse_config(quickstart_toml());
        let rendered = cfg.to_value().to_toml().unwrap();
        let back = parse_config(&rendered);
        assert_eq!(cfg, back, "snapshot:\n{rendered}");
        // And again, to make sure the snapshot is a fixed point.
        assert_eq!(back.to_value().to_toml().unwrap(), rendered);
        // What users write is `budget_mb`; the snapshot carries exact bytes.
        assert!(rendered.contains("budget_bytes = 32000000") && !rendered.contains("budget_mb"));
    }

    #[test]
    fn preset_model_scales_and_resizes() {
        let cfg = parse_config(
            r#"
[run]
name = "vgg"

[model]
preset = "vgg11"
scale = 0.25

[dataset]
preset = "cifar10"
train = 128

[train]
budget_mb = 64
batch_limit = 32
aux_policy = "classic"
kernel_backend = "naive"
"#,
        );
        let (model, dataset, nf) = cfg.resolve().unwrap();
        assert!(model.name.starts_with("vgg11"));
        assert_eq!(model.classes, 10);
        assert!(model.total_params() < ModelSpec::vgg11(10).total_params() / 4);
        assert_eq!(dataset.val, 32);
        assert_eq!(nf.aux_policy, AuxPolicy::CLASSIC);
        assert_eq!(nf.kernel_backend, KernelBackend::Naive);

        // MobileNet loads (`nf sweep` prices it), but nothing builds it.
        let doc = cfg.to_value().to_toml().unwrap();
        let doc = doc.replace("\"vgg11\"", "\"mobilenet\"");
        let Err(CliError::Config { path, message }) = parse_config(&doc).resolve() else {
            panic!("mobilenet resolved for training");
        };
        assert_eq!(
            (path.as_str(), message.contains("depthwise")),
            ("model.preset", true)
        );
    }

    #[test]
    fn config_errors_name_the_field() {
        let body = "[model]\npreset=\"tiny\"\nchannels=[4]\n[dataset]\npreset=\"quick\"\n\
                    classes=2\nimage_hw=8\ntrain=8\n[train]\nbudget_mb=1\nbatch_limit=1";
        let must_fail = [
            (String::new(), "run", "missing, and required"),
            (
                "[run]\nseed = 1".into(),
                "run.name",
                "missing, and required",
            ),
            (
                format!("[run]\nname = \"a/b\"\n{body}"),
                "run.name",
                "path separators",
            ),
            (
                format!("run = 3\n{body}"),
                "run",
                "must be a table, found an integer",
            ),
            (
                format!("[run]\nname=\"x\"\n{body}").replace("budget_mb=1\n", ""),
                "train.budget_mb",
                "budget_bytes",
            ),
            (
                format!("[run]\nname=\"x\"\n{body}").replace("\"tiny\"", "\"nope\""),
                "model.preset",
                "unknown model preset",
            ),
            (
                format!("[run]\nname=\"x\"\n{body}").replace("\"quick\"", "\"nope\""),
                "dataset.preset",
                "unknown dataset preset",
            ),
            (
                format!("[run]\nname=\"x\"\n{body}").replace("\"tiny\"", "\"vgg19\""),
                "model.input_size",
                "downsampling",
            ),
            (
                format!("[run]\nname=\"x\"\n{body}\nkernel_backend=\"cuda\""),
                "train.kernel_backend",
                "kernel backend",
            ),
            (
                format!("[run]\nname=\"x\"\n{body}\naux_policy=\"fixed:0\""),
                "train.aux_policy",
                "> 0",
            ),
            (
                format!("[run]\nname=\"x\"\n{body}\nlr=nan"),
                "train.lr",
                "a finite number",
            ),
            (
                format!("[run]\nname=\"x\"\n{body}").replace("classes=2\n", ""),
                "dataset.classes",
                "quick",
            ),
        ];
        for (doc, path, needle) in must_fail {
            let (at, message) = config_error(&doc);
            assert_eq!(at, path, "{doc:?} -> {message}");
            assert!(message.contains(needle), "{doc:?} -> {message}");
        }
    }

    #[test]
    fn cache_section_parses_resolves_and_round_trips() {
        // Default: no [cache] section means the bit-exact f32 codec, and
        // the snapshot still renders the section explicitly.
        let cfg = parse_config(quickstart_toml());
        assert_eq!(cfg.cache.codec, CodecKind::F32Raw);
        assert_eq!(cfg.resolve_train().unwrap().cache_codec, CodecKind::F32Raw);
        assert!(cfg.to_value().to_toml().unwrap().contains("[cache]"));

        // Explicit codecs parse and resolve.
        for (name, kind) in [
            ("f32", CodecKind::F32Raw),
            ("f16", CodecKind::F16),
            ("int8", CodecKind::Int8Affine),
        ] {
            let doc = format!("{}\n[cache]\ncodec = \"{name}\"\n", quickstart_toml());
            let cfg = parse_config(&doc);
            assert_eq!(cfg.cache.codec, kind);
            assert_eq!(cfg.resolve_train().unwrap().cache_codec, kind);
        }

        // A typo'd codec is a typed config error carrying the key path.
        let doc = format!("{}\n[cache]\ncodec = \"f64\"\n", quickstart_toml());
        let (path, message) = config_error(&doc);
        assert_eq!(path, "cache.codec");
        assert!(message.contains("f64"), "{message}");
    }

    #[test]
    fn deleted_kernel_backends_are_typed_errors_naming_the_remaining_two() {
        // No alias keeps the autotuner or the parallel variant alive — a
        // pre-one-plan snapshot saying `auto` must not resume as if its
        // earlier blocks had been computed on today's `KC` split.
        for gone in ["auto", "blocked-parallel"] {
            let doc = format!("{}\nkernel_backend = \"{gone}\"\n", quickstart_toml());
            let (path, message) = config_error(&doc);
            assert_eq!(path, "train.kernel_backend");
            assert!(message.contains(gone), "{message}");
            assert!(message.contains("blocked | naive"), "{message}");
        }
    }

    #[test]
    fn default_backend_and_int8_compute_parse_and_round_trip() {
        let doc = format!(
            "{}\nint8_compute = true\n[cache]\ncodec = \"int8\"\n",
            quickstart_toml()
        );
        let cfg = parse_config(&doc);
        let nf = cfg.resolve_train().unwrap();
        assert_eq!(nf.kernel_backend, KernelBackend::Blocked);
        assert!(nf.int8_compute);
        assert_eq!(nf.cache_codec, CodecKind::Int8Affine);
        // The run-directory snapshot spells the default out.
        let rendered = cfg.to_value().to_toml().unwrap();
        assert!(
            rendered.contains("kernel_backend = \"blocked\""),
            "{rendered}"
        );
        // Default: off.
        assert!(
            !parse_config(quickstart_toml())
                .resolve_train()
                .unwrap()
                .int8_compute
        );
    }

    #[test]
    fn serve_and_loadgen_sections_parse_resolve_and_round_trip() {
        let doc = format!(
            "{}\n[serve]\naddr = \"127.0.0.1:9000\"\nthreshold = 0.9\nmax_batch = 4\n\
             queue_capacity = 16\nfast_deadline_us = 1000\n\
             balanced_deadline_us = 2000\nexact_deadline_us = 3000\nreplicas = 2\n\
             allow_shutdown = true\n\
             \n[loadgen]\nrequests = 32\nconnections = 2\ninflight = 6\n\
             tier_weights = [2, 1, 1]\nseed = 7\n",
            quickstart_toml()
        );
        let cfg = parse_config(&doc);
        let s = cfg.serve();
        assert_eq!(s.addr, "127.0.0.1:9000");
        assert!(s.allow_shutdown);
        let policy = cfg.resolve_serve().unwrap();
        assert_eq!(policy.threshold, 0.9f32);
        assert_eq!((policy.max_batch, policy.queue_capacity), (4, 16));
        assert_eq!(policy.deadline_us, [1000, 2000, 3000]);
        assert_eq!(policy.effective_replicas(8), 2);
        let lg = cfg.loadgen();
        assert_eq!((lg.requests, lg.connections, lg.inflight), (32, 2, 6));
        assert_eq!(lg.tier_weights, [2, 1, 1]);
        assert_eq!(lg.seed, Some(7));
        // No sections → they stay out of the snapshot, and the accessors
        // hand out core's serving defaults, bit for bit.
        let cfg = parse_config(quickstart_toml());
        assert!(cfg.serve.is_none() && cfg.loadgen.is_none());
        assert_eq!(cfg.resolve_serve().unwrap(), ServePolicy::default());
        assert_eq!(
            cfg.serve().replicas,
            0,
            "replicas default to auto (one per core)"
        );
        assert_eq!(cfg.loadgen(), LoadgenSection::default());
        assert_eq!(
            cfg.loadgen().inflight,
            0,
            "inflight defaults to the plain closed loop"
        );
    }

    #[test]
    fn serve_and_loadgen_bad_values_are_typed_errors() {
        // The cases the table-driven property does not draw: a second
        // out-of-bound threshold, the cross-key `inflight` rule, and a
        // weight list of the wrong length.
        for (snippet, path) in [
            ("[serve]\nthreshold = 0.0\n", "serve.threshold"),
            ("[serve]\nthreshold = -1.5\n", "serve.threshold"),
            ("[serve]\nreplicas = 65\n", "serve.replicas"),
            (
                "[loadgen]\nconnections = 4\ninflight = 2\n",
                "loadgen.inflight",
            ),
            ("[loadgen]\ntier_weights = [1, 2]\n", "loadgen.tier_weights"),
        ] {
            let doc = format!("{}\n{snippet}", quickstart_toml());
            assert_eq!(config_error(&doc).0, path);
        }
    }

    #[test]
    fn tiny_preset_requires_channels() {
        let doc = quickstart_toml().replace("channels = [8, 16]\n", "");
        assert_eq!(config_error(&doc).0, "model.channels");
    }
}
