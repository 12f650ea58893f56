//! The `nf` config schema: typed sections, TOML/JSON loading, resolution
//! into workspace types, and snapshot rendering.
//!
//! A run config has five sections — `[run]`, `[model]`, `[dataset]`,
//! `[train]`, and optionally `[baseline]` / `[sweep]` — documented field
//! by field in `DESIGN.md` §6. [`RunConfig::from_value`] reads a parsed
//! [`Value`] tree with per-field error messages;
//! [`RunConfig::to_value`] renders the *resolved* config back out, which
//! is what `runs/<name>/config.toml` snapshots (a snapshot re-parses to an
//! identical `RunConfig`, the round-trip property the tests pin).

use crate::error::{CliError, Result};
use crate::value::{Table, Value};
use neuroflux_core::{CodecKind, NeuroFluxConfig};
use nf_data::SyntheticSpec;
use nf_models::{AuxPolicy, ModelSpec};
use nf_tensor::KernelBackend;
use serde::{Deserialize, Serialize};

/// `[run]`: identity and placement of the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSection {
    /// Run name; the run directory is `<out_dir>/<name>`.
    pub name: String,
    /// Master seed for model init and planning (dataset has its own).
    pub seed: u64,
    /// Directory run artifacts are written under.
    pub out_dir: String,
}

/// `[model]`: which architecture to train.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSection {
    /// `vgg11|vgg16|vgg19|resnet18|mobilenet` or `tiny`.
    pub preset: String,
    /// Conv channels per unit (`tiny` only).
    pub channels: Option<Vec<usize>>,
    /// Channel-scale factor applied to a named preset (e.g. `0.25` for
    /// CPU-sized runs; `DESIGN.md` §2).
    pub scale: Option<f64>,
    /// Rounding granularity for `scale` (default 4).
    pub granularity: usize,
    /// Square input resolution override. Defaults to the dataset's
    /// `image_hw`; the model is re-headed to match.
    pub input_size: Option<usize>,
}

/// `[dataset]`: which synthetic dataset to generate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSection {
    /// `cifar10|cifar100|tiny-imagenet` or `quick`.
    pub preset: String,
    /// Class count (`quick` only).
    pub classes: Option<usize>,
    /// Square image size (`quick` only).
    pub image_hw: Option<usize>,
    /// Training-split size.
    pub train: usize,
    /// Validation-split size (default `train / 4`).
    pub val: Option<usize>,
    /// Test-split size (default `train / 4`).
    pub test: Option<usize>,
    /// Pixel-noise override.
    pub noise: Option<f64>,
    /// Dataset seed override.
    pub seed: Option<u64>,
}

/// `[train]`: the NeuroFlux run configuration (§0 inputs + loop knobs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainSection {
    /// GPU memory budget in bytes (configs may write `budget_mb` instead;
    /// 1 MB = 10⁶ bytes, the paper's unit).
    pub budget_bytes: u64,
    /// Batch-size cap (Algorithm 1, line 4).
    pub batch_limit: usize,
    /// Grouping threshold ρ.
    pub rho: f64,
    /// Learning rate.
    pub lr: f64,
    /// SGD momentum.
    pub momentum: f64,
    /// Epochs per block.
    pub epochs_per_block: usize,
    /// Early-exit selection tolerance (accuracy points, 0–1).
    pub exit_tolerance: f64,
    /// Whether trained blocks round-trip through serialised storage.
    pub evict_params: bool,
    /// GEMM kernel backend (`blocked|naive`; `blocked` — the default and
    /// the only production kernel — has one fixed plan, `naive` is the
    /// oracle).
    pub kernel_backend: KernelBackend,
    /// Auxiliary-head policy (`adaptive|classic|fixed:<n>`).
    pub aux_policy: AuxPolicy,
    /// Whether frozen blocks consume int8-cached activations through the
    /// integer GEMM path without decoding to f32 (requires
    /// `[cache].codec = "int8"` to take effect; training stays f32).
    pub int8_compute: bool,
}

/// `[cache]`: how the activation cache stores block outputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheSection {
    /// Activation-cache codec: `f32` (bit-exact, the default), `f16`
    /// (half precision, 2× smaller), or `int8` (per-channel quantized,
    /// ~4× smaller). See `DESIGN.md` §10.
    pub codec: CodecKind,
}

impl Default for CacheSection {
    fn default() -> Self {
        CacheSection {
            codec: CodecKind::F32Raw,
        }
    }
}

/// `[baseline]`: knobs for `nf baseline <bp|ll|fa|sp>`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineSection {
    /// Training epochs.
    pub epochs: usize,
    /// Fixed batch size.
    pub batch: usize,
    /// Learning rate.
    pub lr: f64,
}

/// `[federated]`: knobs for `nf federated` (the parallel multi-client
/// FedAvg engine in `neuroflux-core`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederatedSection {
    /// Number of clients the training split is sharded across.
    pub clients: usize,
    /// Synchronous FedAvg rounds.
    pub rounds: usize,
    /// Client-training worker threads (`0` = one per core, `1` =
    /// sequential; results are bit-identical either way).
    pub threads: usize,
    /// Shard strategy: `round-robin`, `by-label`, or `dirichlet:<alpha>`.
    pub strategy: String,
    /// Sharding/client-stream seed override (defaults to `[run].seed`).
    pub seed: Option<u64>,
}

/// `[serve]`: knobs for the `nf serve` inference service (and the
/// in-process server `nf loadgen` spins up). Every key has a default, so
/// the section is optional.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeSection {
    /// Listen address; port 0 picks a free port (printed at startup).
    pub addr: String,
    /// Cascade exit threshold (max softmax probability).
    pub threshold: f64,
    /// Largest micro-batch formed per inference pass.
    pub max_batch: usize,
    /// Bounded request-queue capacity (admission control).
    pub queue_capacity: usize,
    /// How long the batcher waits for a batch to fill (µs), measured from
    /// the oldest queued arrival.
    pub batch_window_us: u64,
    /// Queue deadline for `fast`-tier requests (µs).
    pub fast_deadline_us: u64,
    /// Queue deadline for `balanced`-tier requests (µs).
    pub balanced_deadline_us: u64,
    /// Queue deadline for `exact`-tier requests (µs).
    pub exact_deadline_us: u64,
    /// Batcher/model replicas sharing the admission queue; 0 = one per
    /// host core. Each replica owns a bit-identical model clone.
    pub replicas: usize,
    /// Per-connection reply-outbox cap (KiB): a client that stops reading
    /// while this many reply bytes pile up is disconnected (backpressure).
    pub outbox_kib: usize,
    /// Whether a client may stop the server with a shutdown frame (the
    /// in-process loadgen/test harness turns this on; defaults to off).
    pub allow_shutdown: bool,
}

impl Default for ServeSection {
    fn default() -> Self {
        let p = neuroflux_core::ServePolicy::default();
        ServeSection {
            addr: "127.0.0.1:0".to_string(),
            threshold: p.threshold as f64,
            max_batch: p.max_batch,
            queue_capacity: p.queue_capacity,
            batch_window_us: p.batch_window_us,
            fast_deadline_us: p.deadline_us[0],
            balanced_deadline_us: p.deadline_us[1],
            exact_deadline_us: p.deadline_us[2],
            replicas: p.replicas,
            outbox_kib: p.outbox_kib,
            allow_shutdown: false,
        }
    }
}

/// `[loadgen]`: the deterministic load generator `nf loadgen` drives the
/// server with. Every key has a default, so the section is optional.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadgenSection {
    /// Total requests to send.
    pub requests: usize,
    /// Concurrent client connections (closed-loop each).
    pub connections: usize,
    /// Total requests in flight across all connections (keep-alive
    /// pipelining); 0 = `connections`, i.e. one in flight per connection
    /// (plain closed loop). Must be ≥ `connections` when set.
    pub inflight: usize,
    /// Relative traffic weights for the `fast`/`balanced`/`exact` tiers.
    pub tier_weights: [usize; 3],
    /// Request-stream seed override (defaults to `[run].seed`).
    pub seed: Option<u64>,
}

impl Default for LoadgenSection {
    fn default() -> Self {
        LoadgenSection {
            requests: 256,
            connections: 4,
            inflight: 0,
            tier_weights: [1, 1, 1],
            seed: None,
        }
    }
}

/// `[sweep]`: device-budget sweep for `nf sweep` (runs the analytic
/// `nf-memsim` models, not real training).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSection {
    /// Device slugs (`pi4b|jetson-nano|xavier-nx|agx-orin`, or `host` —
    /// *this* machine, profiled live from measured GEMM/codec primitives).
    pub devices: Vec<String>,
    /// Memory budgets to sweep, in MB (10⁶ bytes).
    pub budgets_mb: Vec<u64>,
    /// Batch-size cap.
    pub batch_limit: usize,
    /// Simulated training epochs.
    pub epochs: usize,
    /// Simulated training-set size.
    pub samples: usize,
}

/// A fully-parsed `nf` config file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// `[run]` section.
    pub run: RunSection,
    /// `[model]` section.
    pub model: ModelSection,
    /// `[dataset]` section.
    pub dataset: DatasetSection,
    /// `[train]` section.
    pub train: TrainSection,
    /// `[cache]` section (optional in the document; defaults to the
    /// bit-exact `f32` codec and always appears in snapshots).
    pub cache: CacheSection,
    /// `[baseline]` section (optional; defaults used by `nf baseline`).
    pub baseline: Option<BaselineSection>,
    /// `[sweep]` section (required by `nf sweep` only).
    pub sweep: Option<SweepSection>,
    /// `[federated]` section (required by `nf federated` only).
    pub federated: Option<FederatedSection>,
    /// `[serve]` section (optional; defaults used by `nf serve`).
    pub serve: Option<ServeSection>,
    /// `[loadgen]` section (optional; defaults used by `nf loadgen`).
    pub loadgen: Option<LoadgenSection>,
}

/// A table wrapper producing `[section].key`-qualified error messages.
struct Section<'v> {
    name: &'static str,
    table: Option<&'v Value>,
}

impl<'v> Section<'v> {
    fn of(root: &'v Value, name: &'static str) -> Self {
        Section {
            name,
            table: root.get(name),
        }
    }

    fn required(root: &'v Value, name: &'static str) -> Result<Self> {
        if root.get(name).is_none() {
            return Err(CliError::new(format!("missing [{name}] section")));
        }
        Ok(Self::of(root, name))
    }

    fn exists(&self) -> bool {
        self.table.is_some()
    }

    fn get(&self, key: &str) -> Option<&'v Value> {
        self.table.and_then(|t| t.get(key))
    }

    fn missing(&self, key: &str) -> CliError {
        CliError::new(format!("missing required key [{}].{key}", self.name))
    }

    fn bad(&self, key: &str, expected: &str) -> CliError {
        CliError::new(format!("[{}].{key} must be {expected}", self.name))
    }

    fn str_req(&self, key: &str) -> Result<String> {
        self.get(key)
            .ok_or_else(|| self.missing(key))?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| self.bad(key, "a string"))
    }

    fn usize_req(&self, key: &str) -> Result<usize> {
        self.usize_opt(key)?.ok_or_else(|| self.missing(key))
    }

    fn usize_opt(&self, key: &str) -> Result<Option<usize>> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => {
                let i = v.as_int().ok_or_else(|| self.bad(key, "an integer"))?;
                usize::try_from(i)
                    .map(Some)
                    .map_err(|_| self.bad(key, "a non-negative integer"))
            }
        }
    }

    fn u64_opt(&self, key: &str) -> Result<Option<u64>> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => {
                let i = v.as_int().ok_or_else(|| self.bad(key, "an integer"))?;
                u64::try_from(i)
                    .map(Some)
                    .map_err(|_| self.bad(key, "a non-negative integer"))
            }
        }
    }

    fn f64_opt(&self, key: &str) -> Result<Option<f64>> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_float()
                .map(Some)
                .ok_or_else(|| self.bad(key, "a number")),
        }
    }

    fn bool_or(&self, key: &str, default: bool) -> Result<bool> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.as_bool().ok_or_else(|| self.bad(key, "a boolean")),
        }
    }

    fn usize_array_opt(&self, key: &str) -> Result<Option<Vec<usize>>> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => {
                let items = v
                    .as_array()
                    .ok_or_else(|| self.bad(key, "an array of integers"))?;
                items
                    .iter()
                    .map(|item| {
                        item.as_int()
                            .and_then(|i| usize::try_from(i).ok())
                            .ok_or_else(|| self.bad(key, "an array of non-negative integers"))
                    })
                    .collect::<Result<Vec<_>>>()
                    .map(Some)
            }
        }
    }

    fn str_array_opt(&self, key: &str) -> Result<Option<Vec<String>>> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => {
                let items = v
                    .as_array()
                    .ok_or_else(|| self.bad(key, "an array of strings"))?;
                items
                    .iter()
                    .map(|item| {
                        item.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| self.bad(key, "an array of strings"))
                    })
                    .collect::<Result<Vec<_>>>()
                    .map(Some)
            }
        }
    }
}

impl RunConfig {
    /// Loads a config from a `.toml` or `.json` file (decided by
    /// extension; anything other than `.json` parses as TOML).
    pub fn load(path: &std::path::Path) -> Result<RunConfig> {
        let value = if path.extension().is_some_and(|e| e == "json") {
            crate::json::parse_file(path)?
        } else {
            crate::toml::parse_file(path)?
        };
        Self::from_value(&value)
    }

    /// Reads a config out of a parsed document tree.
    pub fn from_value(root: &Value) -> Result<RunConfig> {
        let run = Section::required(root, "run")?;
        let run = RunSection {
            name: run.str_req("name")?,
            seed: run.u64_opt("seed")?.unwrap_or(0),
            out_dir: run
                .get("out_dir")
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| run.bad("out_dir", "a string"))
                })
                .transpose()?
                .unwrap_or_else(|| "runs".to_string()),
        };
        if run.name.is_empty() || run.name.contains(['/', '\\', '.']) {
            return Err(CliError::new(
                "[run].name must be non-empty and free of path separators and dots",
            ));
        }

        let model = Section::required(root, "model")?;
        let model = ModelSection {
            preset: model.str_req("preset")?,
            channels: model.usize_array_opt("channels")?,
            scale: model.f64_opt("scale")?,
            granularity: model.usize_opt("granularity")?.unwrap_or(4).max(1),
            input_size: model.usize_opt("input_size")?,
        };

        let dataset = Section::required(root, "dataset")?;
        let dataset = DatasetSection {
            preset: dataset.str_req("preset")?,
            classes: dataset.usize_opt("classes")?,
            image_hw: dataset.usize_opt("image_hw")?,
            train: dataset.usize_req("train")?,
            val: dataset.usize_opt("val")?,
            test: dataset.usize_opt("test")?,
            noise: dataset.f64_opt("noise")?,
            seed: dataset.u64_opt("seed")?,
        };

        let train = Section::required(root, "train")?;
        let budget_bytes = match (train.u64_opt("budget_bytes")?, train.f64_opt("budget_mb")?) {
            (Some(b), _) => b,
            (None, Some(mb)) => (mb * 1e6) as u64,
            (None, None) => return Err(train.missing("budget_mb (or budget_bytes)")),
        };
        let kernel_backend = match train.get("kernel_backend") {
            None => KernelBackend::default(),
            Some(v) => v
                .as_str()
                .ok_or_else(|| train.bad("kernel_backend", "a string"))?
                .parse::<KernelBackend>()
                .map_err(|e| CliError::config("train.kernel_backend", e))?,
        };
        let aux_policy = match train.get("aux_policy") {
            None => AuxPolicy::Adaptive,
            Some(v) => v
                .as_str()
                .ok_or_else(|| train.bad("aux_policy", "a string"))?
                .parse::<AuxPolicy>()
                .map_err(|e| CliError::new(format!("[train].aux_policy: {e}")))?,
        };
        let train = TrainSection {
            budget_bytes,
            batch_limit: train.usize_req("batch_limit")?,
            rho: train.f64_opt("rho")?.unwrap_or(0.4),
            lr: train.f64_opt("lr")?.unwrap_or(0.05),
            momentum: train.f64_opt("momentum")?.unwrap_or(0.9),
            epochs_per_block: train.usize_opt("epochs_per_block")?.unwrap_or(3),
            exit_tolerance: train.f64_opt("exit_tolerance")?.unwrap_or(0.005),
            evict_params: train.bool_or("evict_params", true)?,
            kernel_backend,
            aux_policy,
            int8_compute: train.bool_or("int8_compute", false)?,
        };

        let cache = Section::of(root, "cache");
        let cache = CacheSection {
            codec: match cache.get("codec") {
                None => CodecKind::default(),
                Some(v) => v
                    .as_str()
                    .ok_or_else(|| cache.bad("codec", "a string"))?
                    .parse::<CodecKind>()
                    // A typo'd codec is a typed config error carrying the
                    // key path, so scripts can tell "your config is wrong"
                    // from "the run failed".
                    .map_err(|e| CliError::config("cache.codec", e))?,
            },
        };

        let baseline = Section::of(root, "baseline");
        let baseline = if baseline.exists() {
            Some(BaselineSection {
                epochs: baseline.usize_opt("epochs")?.unwrap_or(5),
                batch: baseline.usize_opt("batch")?.unwrap_or(16),
                lr: baseline.f64_opt("lr")?.unwrap_or(0.05),
            })
        } else {
            None
        };

        let sweep = Section::of(root, "sweep");
        let sweep = if sweep.exists() {
            let devices = sweep
                .str_array_opt("devices")?
                .or_else(|| {
                    sweep
                        .get("device")
                        .and_then(Value::as_str)
                        .map(|d| vec![d.to_string()])
                })
                .ok_or_else(|| sweep.missing("devices"))?;
            let budgets_mb = sweep
                .usize_array_opt("budgets_mb")?
                .ok_or_else(|| sweep.missing("budgets_mb"))?
                .into_iter()
                .map(|b| b as u64)
                .collect();
            Some(SweepSection {
                devices,
                budgets_mb,
                batch_limit: sweep.usize_opt("batch_limit")?.unwrap_or(512),
                epochs: sweep.usize_opt("epochs")?.unwrap_or(30),
                samples: sweep.usize_opt("samples")?.unwrap_or(50_000),
            })
        } else {
            None
        };

        let federated = Section::of(root, "federated");
        let federated = if federated.exists() {
            let strategy = match federated.get("strategy") {
                None => "round-robin".to_string(),
                Some(v) => v
                    .as_str()
                    .ok_or_else(|| federated.bad("strategy", "a string"))?
                    .to_string(),
            };
            // Validate eagerly so a typo fails at parse time, with the
            // offending key path.
            strategy
                .parse::<nf_data::ShardStrategy>()
                .map_err(|e| CliError::config("federated.strategy", e))?;
            Some(FederatedSection {
                clients: federated.usize_opt("clients")?.unwrap_or(4),
                rounds: federated.usize_opt("rounds")?.unwrap_or(3),
                threads: federated.usize_opt("threads")?.unwrap_or(0),
                strategy,
                seed: federated.u64_opt("seed")?,
            })
        } else {
            None
        };

        let serve = Section::of(root, "serve");
        let serve = if serve.exists() {
            let d = ServeSection::default();
            let section = ServeSection {
                addr: serve
                    .get("addr")
                    .map(|v| {
                        v.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| serve.bad("addr", "a string"))
                    })
                    .transpose()?
                    .unwrap_or(d.addr),
                threshold: serve.f64_opt("threshold")?.unwrap_or(d.threshold),
                max_batch: serve.usize_opt("max_batch")?.unwrap_or(d.max_batch),
                queue_capacity: serve
                    .usize_opt("queue_capacity")?
                    .unwrap_or(d.queue_capacity),
                batch_window_us: serve
                    .u64_opt("batch_window_us")?
                    .unwrap_or(d.batch_window_us),
                fast_deadline_us: serve
                    .u64_opt("fast_deadline_us")?
                    .unwrap_or(d.fast_deadline_us),
                balanced_deadline_us: serve
                    .u64_opt("balanced_deadline_us")?
                    .unwrap_or(d.balanced_deadline_us),
                exact_deadline_us: serve
                    .u64_opt("exact_deadline_us")?
                    .unwrap_or(d.exact_deadline_us),
                replicas: serve.usize_opt("replicas")?.unwrap_or(d.replicas),
                outbox_kib: serve.usize_opt("outbox_kib")?.unwrap_or(d.outbox_kib),
                allow_shutdown: serve.bool_or("allow_shutdown", false)?,
            };
            if !(section.threshold.is_finite() && section.threshold > 0.0) {
                return Err(CliError::config(
                    "serve.threshold",
                    "must be a finite number > 0",
                ));
            }
            if section.max_batch == 0 {
                return Err(CliError::config("serve.max_batch", "must be > 0"));
            }
            if section.queue_capacity == 0 {
                return Err(CliError::config("serve.queue_capacity", "must be > 0"));
            }
            if section.replicas > neuroflux_core::MAX_REPLICAS {
                return Err(CliError::config(
                    "serve.replicas",
                    format!(
                        "must be ≤ {} (0 = one per core)",
                        neuroflux_core::MAX_REPLICAS
                    ),
                ));
            }
            if section.outbox_kib == 0 {
                return Err(CliError::config("serve.outbox_kib", "must be > 0"));
            }
            Some(section)
        } else {
            None
        };

        let loadgen = Section::of(root, "loadgen");
        let loadgen = if loadgen.exists() {
            let d = LoadgenSection::default();
            let weights = match loadgen.usize_array_opt("tier_weights")? {
                None => d.tier_weights,
                Some(w) => {
                    if w.len() != 3 || w.iter().sum::<usize>() == 0 {
                        return Err(CliError::config(
                            "loadgen.tier_weights",
                            "must be three non-negative integers (fast, balanced, exact) \
                             that do not all vanish",
                        ));
                    }
                    [w[0], w[1], w[2]]
                }
            };
            let section = LoadgenSection {
                requests: loadgen.usize_opt("requests")?.unwrap_or(d.requests),
                connections: loadgen.usize_opt("connections")?.unwrap_or(d.connections),
                inflight: loadgen.usize_opt("inflight")?.unwrap_or(d.inflight),
                tier_weights: weights,
                seed: loadgen.u64_opt("seed")?,
            };
            if section.requests == 0 {
                return Err(CliError::config("loadgen.requests", "must be > 0"));
            }
            if section.connections == 0 {
                return Err(CliError::config("loadgen.connections", "must be > 0"));
            }
            if section.inflight != 0 && section.inflight < section.connections {
                return Err(CliError::config(
                    "loadgen.inflight",
                    "must be 0 (= connections) or ≥ connections \
                     (every connection keeps at least one request in flight)",
                ));
            }
            Some(section)
        } else {
            None
        };

        let config = RunConfig {
            run,
            model,
            dataset,
            train,
            cache,
            baseline,
            sweep,
            federated,
            serve,
            loadgen,
        };
        // Resolution validates the cross-section constraints (model fits
        // dataset geometry, NeuroFlux config sanity) up front.
        config.resolve()?;
        Ok(config)
    }

    /// Renders the resolved config back into a document tree; the snapshot
    /// written to `runs/<name>/config.toml`.
    pub fn to_value(&self) -> Value {
        let mut root = Table::new();
        let mut run = Table::new();
        run.insert("name", Value::Str(self.run.name.clone()));
        run.insert("seed", Value::Int(self.run.seed as i64));
        run.insert("out_dir", Value::Str(self.run.out_dir.clone()));
        root.insert("run", run);

        let mut model = Table::new();
        model.insert("preset", Value::Str(self.model.preset.clone()));
        if let Some(channels) = &self.model.channels {
            model.insert(
                "channels",
                Value::Array(channels.iter().map(|&c| Value::Int(c as i64)).collect()),
            );
        }
        if let Some(scale) = self.model.scale {
            model.insert("scale", Value::Float(scale));
        }
        model.insert("granularity", Value::Int(self.model.granularity as i64));
        if let Some(hw) = self.model.input_size {
            model.insert("input_size", Value::Int(hw as i64));
        }
        root.insert("model", model);

        let mut dataset = Table::new();
        dataset.insert("preset", Value::Str(self.dataset.preset.clone()));
        if let Some(classes) = self.dataset.classes {
            dataset.insert("classes", Value::Int(classes as i64));
        }
        if let Some(hw) = self.dataset.image_hw {
            dataset.insert("image_hw", Value::Int(hw as i64));
        }
        dataset.insert("train", Value::Int(self.dataset.train as i64));
        if let Some(val) = self.dataset.val {
            dataset.insert("val", Value::Int(val as i64));
        }
        if let Some(test) = self.dataset.test {
            dataset.insert("test", Value::Int(test as i64));
        }
        if let Some(noise) = self.dataset.noise {
            dataset.insert("noise", Value::Float(noise));
        }
        if let Some(seed) = self.dataset.seed {
            dataset.insert("seed", Value::Int(seed as i64));
        }
        root.insert("dataset", dataset);

        let mut train = Table::new();
        train.insert("budget_bytes", Value::Int(self.train.budget_bytes as i64));
        train.insert("batch_limit", Value::Int(self.train.batch_limit as i64));
        train.insert("rho", Value::Float(self.train.rho));
        train.insert("lr", Value::Float(self.train.lr));
        train.insert("momentum", Value::Float(self.train.momentum));
        train.insert(
            "epochs_per_block",
            Value::Int(self.train.epochs_per_block as i64),
        );
        train.insert("exit_tolerance", Value::Float(self.train.exit_tolerance));
        train.insert("evict_params", Value::Bool(self.train.evict_params));
        train.insert(
            "kernel_backend",
            Value::Str(self.train.kernel_backend.name().to_string()),
        );
        train.insert("aux_policy", Value::Str(self.train.aux_policy.name()));
        train.insert("int8_compute", Value::Bool(self.train.int8_compute));
        root.insert("train", train);

        let mut cache = Table::new();
        cache.insert("codec", Value::Str(self.cache.codec.name().to_string()));
        root.insert("cache", cache);

        if let Some(b) = &self.baseline {
            let mut baseline = Table::new();
            baseline.insert("epochs", Value::Int(b.epochs as i64));
            baseline.insert("batch", Value::Int(b.batch as i64));
            baseline.insert("lr", Value::Float(b.lr));
            root.insert("baseline", baseline);
        }
        if let Some(s) = &self.sweep {
            let mut sweep = Table::new();
            sweep.insert(
                "devices",
                Value::Array(s.devices.iter().map(|d| Value::Str(d.clone())).collect()),
            );
            sweep.insert(
                "budgets_mb",
                Value::Array(s.budgets_mb.iter().map(|&b| Value::Int(b as i64)).collect()),
            );
            sweep.insert("batch_limit", Value::Int(s.batch_limit as i64));
            sweep.insert("epochs", Value::Int(s.epochs as i64));
            sweep.insert("samples", Value::Int(s.samples as i64));
            root.insert("sweep", sweep);
        }
        if let Some(f) = &self.federated {
            let mut federated = Table::new();
            federated.insert("clients", Value::Int(f.clients as i64));
            federated.insert("rounds", Value::Int(f.rounds as i64));
            federated.insert("threads", Value::Int(f.threads as i64));
            federated.insert("strategy", Value::Str(f.strategy.clone()));
            if let Some(seed) = f.seed {
                federated.insert("seed", Value::Int(seed as i64));
            }
            root.insert("federated", federated);
        }
        if let Some(s) = &self.serve {
            let mut serve = Table::new();
            serve.insert("addr", Value::Str(s.addr.clone()));
            serve.insert("threshold", Value::Float(s.threshold));
            serve.insert("max_batch", Value::Int(s.max_batch as i64));
            serve.insert("queue_capacity", Value::Int(s.queue_capacity as i64));
            serve.insert("batch_window_us", Value::Int(s.batch_window_us as i64));
            serve.insert("fast_deadline_us", Value::Int(s.fast_deadline_us as i64));
            serve.insert(
                "balanced_deadline_us",
                Value::Int(s.balanced_deadline_us as i64),
            );
            serve.insert("exact_deadline_us", Value::Int(s.exact_deadline_us as i64));
            serve.insert("replicas", Value::Int(s.replicas as i64));
            serve.insert("outbox_kib", Value::Int(s.outbox_kib as i64));
            serve.insert("allow_shutdown", Value::Bool(s.allow_shutdown));
            root.insert("serve", serve);
        }
        if let Some(l) = &self.loadgen {
            let mut loadgen = Table::new();
            loadgen.insert("requests", Value::Int(l.requests as i64));
            loadgen.insert("connections", Value::Int(l.connections as i64));
            loadgen.insert("inflight", Value::Int(l.inflight as i64));
            loadgen.insert(
                "tier_weights",
                Value::Array(
                    l.tier_weights
                        .iter()
                        .map(|&w| Value::Int(w as i64))
                        .collect(),
                ),
            );
            if let Some(seed) = l.seed {
                loadgen.insert("seed", Value::Int(seed as i64));
            }
            root.insert("loadgen", loadgen);
        }
        root.build()
    }

    /// Resolves the dataset section into a generator spec.
    pub fn resolve_dataset(&self) -> Result<SyntheticSpec> {
        let d = &self.dataset;
        let val = d.val.unwrap_or(d.train / 4);
        let test = d.test.unwrap_or(d.train / 4);
        let mut spec = match d.preset.as_str() {
            "quick" => {
                let classes = d.classes.ok_or_else(|| {
                    CliError::new("[dataset].classes is required for preset \"quick\"")
                })?;
                let image_hw = d.image_hw.ok_or_else(|| {
                    CliError::new("[dataset].image_hw is required for preset \"quick\"")
                })?;
                let mut s = SyntheticSpec::quick(classes, image_hw, d.train);
                s.val = val.max(classes);
                s.test = test.max(classes);
                s
            }
            name => {
                SyntheticSpec::by_name(name, d.train, val.max(1), test.max(1)).ok_or_else(|| {
                    CliError::new(format!(
                        "unknown dataset preset {name:?} (expected quick, {})",
                        SyntheticSpec::preset_names().join(", ")
                    ))
                })?
            }
        };
        if let Some(noise) = d.noise {
            spec = spec.with_noise(noise as f32);
        }
        if let Some(seed) = d.seed {
            spec = spec.with_seed(seed);
        }
        if spec.train == 0 {
            return Err(CliError::new("[dataset].train must be > 0"));
        }
        Ok(spec)
    }

    /// Resolves the model section against the dataset geometry.
    pub fn resolve_model(&self, dataset: &SyntheticSpec) -> Result<ModelSpec> {
        let m = &self.model;
        let target_hw = m.input_size.unwrap_or(dataset.image_hw);
        let spec = match m.preset.as_str() {
            "tiny" => {
                let channels = m.channels.clone().ok_or_else(|| {
                    CliError::new("[model].channels is required for preset \"tiny\"")
                })?;
                if channels.is_empty() || channels.contains(&0) {
                    return Err(CliError::new("[model].channels must be non-empty, all > 0"));
                }
                ModelSpec::tiny("tiny", target_hw, &channels, dataset.classes)
            }
            name => {
                let mut spec = ModelSpec::by_name(name, dataset.classes).ok_or_else(|| {
                    CliError::new(format!(
                        "unknown model preset {name:?} (expected tiny, {})",
                        ModelSpec::preset_names().join(", ")
                    ))
                })?;
                if let Some(scale) = m.scale {
                    if scale <= 0.0 || !scale.is_finite() {
                        return Err(CliError::new("[model].scale must be a finite number > 0"));
                    }
                    spec = spec.scale_channels(scale, m.granularity);
                }
                if spec.input.1 != target_hw {
                    spec = safe_with_input_size(&spec, target_hw)?;
                }
                spec
            }
        };
        let (_, h, w) = spec.final_feature_shape();
        if h == 0 || w == 0 {
            return Err(CliError::new(format!(
                "model {} collapses to zero spatial extent at input {target_hw}×{target_hw}",
                spec.name
            )));
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
        config.evict_params = t.evict_params;
        config.validate()?;
        Ok(config)
    }

    /// Resolves the `[federated]` section into an engine configuration
    /// (without a cache dir; `nf federated` points that at the run
    /// directory).
    pub fn resolve_federated(&self) -> Result<neuroflux_core::FederatedConfig> {
        let f = self.federated.as_ref().ok_or_else(|| {
            CliError::new("config has no [federated] section (required by `nf federated`)")
        })?;
        if f.clients == 0 {
            return Err(CliError::config("federated.clients", "must be > 0"));
        }
        if f.rounds == 0 {
            return Err(CliError::config("federated.rounds", "must be > 0"));
        }
        let strategy = f
            .strategy
            .parse::<nf_data::ShardStrategy>()
            .map_err(|e| CliError::config("federated.strategy", e))?;
        Ok(
            neuroflux_core::FederatedConfig::new(f.clients, f.rounds, self.resolve_train()?)
                .with_threads(f.threads)
                .with_strategy(strategy)
                .with_seed(f.seed.unwrap_or(self.run.seed)),
        )
    }

    /// Resolves all three training inputs at once.
    pub fn resolve(&self) -> Result<(ModelSpec, SyntheticSpec, NeuroFluxConfig)> {
        let dataset = self.resolve_dataset()?;
        let model = self.resolve_model(&dataset)?;
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
    pub fn resolve_serve(&self) -> Result<neuroflux_core::ServePolicy> {
        let s = self.serve();
        let policy = neuroflux_core::ServePolicy {
            threshold: s.threshold as f32,
            max_batch: s.max_batch,
            queue_capacity: s.queue_capacity,
            batch_window_us: s.batch_window_us,
            deadline_us: [
                s.fast_deadline_us,
                s.balanced_deadline_us,
                s.exact_deadline_us,
            ],
            replicas: s.replicas,
            outbox_kib: s.outbox_kib,
        };
        policy
            .validate()
            .map_err(|e| CliError::config("serve", e.to_string()))?;
        Ok(policy)
    }

    /// The `[baseline]` section, or its documented defaults.
    pub fn baseline(&self) -> BaselineSection {
        self.baseline.clone().unwrap_or(BaselineSection {
            epochs: 5,
            batch: 16,
            lr: 0.05,
        })
    }
}

/// Resizes through the typed [`ModelSpec::try_with_input_size`] path,
/// anchoring the error at the config keys that chose the resolution.
fn safe_with_input_size(spec: &ModelSpec, hw: usize) -> Result<ModelSpec> {
    spec.try_with_input_size(hw).map_err(|e| {
        CliError::config(
            "model.input_size",
            format!("{e}; raise [dataset].image_hw or set [model].input_size"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn parse_config(text: &str) -> RunConfig {
        RunConfig::from_value(&crate::toml::parse(text).unwrap()).unwrap()
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
        assert_eq!(nf.kernel_backend, KernelBackend::Blocked);
        assert_eq!(nf.aux_policy, AuxPolicy::Adaptive);
    }

    #[test]
    fn snapshot_round_trips_to_identical_config() {
        let cfg = parse_config(quickstart_toml());
        let rendered = cfg.to_value().to_toml();
        let back = parse_config(&rendered);
        assert_eq!(cfg, back, "snapshot:\n{rendered}");
        // And again, to make sure the snapshot is a fixed point.
        assert_eq!(back.to_value().to_toml(), rendered);
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
    }

    #[test]
    fn config_errors_name_the_field() {
        let must_fail = [
            ("", "missing [run] section"),
            ("[run]\nseed = 1", "missing required key [run].name"),
            (
                "[run]\nname = \"a/b\"\n[model]\npreset=\"tiny\"\n[dataset]\npreset=\"quick\"\ntrain=8\n[train]\nbudget_mb=1\nbatch_limit=1",
                "path separators",
            ),
            (
                "[run]\nname=\"x\"\n[model]\npreset=\"tiny\"\n[dataset]\npreset=\"quick\"\nclasses=2\nimage_hw=8\ntrain=8\n[train]\nbatch_limit=1",
                "budget_mb",
            ),
            (
                "[run]\nname=\"x\"\n[model]\npreset=\"nope\"\n[dataset]\npreset=\"quick\"\nclasses=2\nimage_hw=8\ntrain=8\n[train]\nbudget_mb=1\nbatch_limit=1",
                "unknown model preset",
            ),
            (
                "[run]\nname=\"x\"\n[model]\npreset=\"tiny\"\nchannels=[4]\n[dataset]\npreset=\"nope\"\ntrain=8\n[train]\nbudget_mb=1\nbatch_limit=1",
                "unknown dataset preset",
            ),
            (
                "[run]\nname=\"x\"\n[model]\npreset=\"vgg19\"\n[dataset]\npreset=\"quick\"\nclasses=2\nimage_hw=8\ntrain=8\n[train]\nbudget_mb=64\nbatch_limit=8",
                "downsampling",
            ),
            (
                "[run]\nname=\"x\"\n[model]\npreset=\"tiny\"\nchannels=[4]\n[dataset]\npreset=\"quick\"\nclasses=2\nimage_hw=8\ntrain=8\n[train]\nbudget_mb=1\nbatch_limit=1\nkernel_backend=\"cuda\"",
                "kernel backend",
            ),
        ];
        for (doc, needle) in must_fail {
            let err = crate::toml::parse(doc)
                .and_then(|v| RunConfig::from_value(&v))
                .unwrap_err()
                .to_string();
            assert!(err.contains(needle), "{doc:?} -> {err}");
        }
    }

    #[test]
    fn federated_section_parses_resolves_and_round_trips() {
        let doc = format!(
            "{}\n[federated]\nclients = 3\nrounds = 2\nthreads = 4\nstrategy = \"dirichlet:0.5\"\nseed = 9\n",
            quickstart_toml()
        );
        let cfg = parse_config(&doc);
        let f = cfg.federated.clone().unwrap();
        assert_eq!((f.clients, f.rounds, f.threads), (3, 2, 4));
        assert_eq!(f.strategy, "dirichlet:0.5");
        let fed = cfg.resolve_federated().unwrap();
        assert_eq!(fed.clients, 3);
        assert_eq!(fed.seed, 9);
        assert_eq!(fed.strategy, nf_data::ShardStrategy::Dirichlet(0.5),);
        // Snapshot round-trip covers the new section.
        let rendered = cfg.to_value().to_toml();
        assert_eq!(parse_config(&rendered), cfg, "snapshot:\n{rendered}");
        // Defaults and the [run].seed fallback.
        let cfg = parse_config(&format!("{}\n[federated]\n", quickstart_toml()));
        let fed = cfg.resolve_federated().unwrap();
        assert_eq!((fed.clients, fed.rounds, fed.threads), (4, 3, 0));
        assert_eq!(fed.seed, cfg.run.seed);
        // A typo'd strategy fails at parse time with the key path.
        let err = crate::toml::parse(&format!(
            "{}\n[federated]\nstrategy = \"zipf\"\n",
            quickstart_toml()
        ))
        .and_then(|v| RunConfig::from_value(&v))
        .unwrap_err()
        .to_string();
        assert!(err.contains("federated.strategy"), "{err}");
        // No [federated] section: `nf federated` refuses with a hint.
        let err = parse_config(quickstart_toml())
            .resolve_federated()
            .unwrap_err()
            .to_string();
        assert!(err.contains("[federated]"), "{err}");
    }

    #[test]
    fn cache_section_parses_resolves_and_round_trips() {
        // Default: no [cache] section means the bit-exact f32 codec, and
        // the snapshot still renders the section explicitly.
        let cfg = parse_config(quickstart_toml());
        assert_eq!(cfg.cache.codec, CodecKind::F32Raw);
        assert_eq!(cfg.resolve_train().unwrap().cache_codec, CodecKind::F32Raw);
        let rendered = cfg.to_value().to_toml();
        assert!(rendered.contains("[cache]"), "{rendered}");
        assert_eq!(parse_config(&rendered), cfg);

        // Explicit codecs parse, resolve, and round-trip.
        for (name, kind) in [
            ("f32", CodecKind::F32Raw),
            ("f16", CodecKind::F16),
            ("int8", CodecKind::Int8Affine),
        ] {
            let doc = format!("{}\n[cache]\ncodec = \"{name}\"\n", quickstart_toml());
            let cfg = parse_config(&doc);
            assert_eq!(cfg.cache.codec, kind);
            assert_eq!(cfg.resolve_train().unwrap().cache_codec, kind);
            let rendered = cfg.to_value().to_toml();
            assert_eq!(parse_config(&rendered), cfg, "snapshot:\n{rendered}");
        }

        // A typo'd codec is a typed config error carrying the key path.
        let err = crate::toml::parse(&format!(
            "{}\n[cache]\ncodec = \"f64\"\n",
            quickstart_toml()
        ))
        .and_then(|v| RunConfig::from_value(&v))
        .unwrap_err();
        match &err {
            CliError::Config { path, .. } => assert_eq!(path, "cache.codec"),
            other => panic!("expected Config error, got {other}"),
        }
        assert!(err.to_string().contains("f64"), "{err}");
    }

    #[test]
    fn deleted_kernel_backends_are_typed_errors_naming_the_remaining_two() {
        // No alias keeps the autotuner or the parallel variant alive — a
        // pre-one-plan snapshot saying `auto` must not resume as if its
        // earlier blocks had been computed on today's `KC` split.
        for gone in ["auto", "blocked-parallel"] {
            let doc = format!("{}\nkernel_backend = \"{gone}\"\n", quickstart_toml());
            let err = crate::toml::parse(&doc)
                .and_then(|v| RunConfig::from_value(&v))
                .unwrap_err();
            match &err {
                CliError::Config { path, message } => {
                    assert_eq!(path, "train.kernel_backend");
                    assert!(message.contains(gone), "{message}");
                    assert!(message.contains("blocked | naive"), "{message}");
                }
                other => panic!("expected Config error, got {other}"),
            }
        }
    }

    #[test]
    fn default_backend_and_int8_compute_parse_and_round_trip() {
        let doc = format!(
            "{}\nint8_compute = true\n[cache]\ncodec = \"int8\"\n",
            quickstart_toml()
        );
        let cfg = parse_config(&doc);
        assert_eq!(cfg.train.kernel_backend, KernelBackend::Blocked);
        assert!(cfg.train.int8_compute);
        let nf = cfg.resolve_train().unwrap();
        assert_eq!(nf.kernel_backend, KernelBackend::Blocked);
        assert!(nf.int8_compute);
        assert_eq!(nf.cache_codec, CodecKind::Int8Affine);
        // The run-directory snapshot spells the default out and re-parses
        // to the same config.
        let rendered = cfg.to_value().to_toml();
        assert!(
            rendered.contains("kernel_backend = \"blocked\""),
            "{rendered}"
        );
        assert_eq!(parse_config(&rendered), cfg, "snapshot:\n{rendered}");

        // Default: off.
        let cfg = parse_config(quickstart_toml());
        assert!(!cfg.train.int8_compute);
        assert!(!cfg.resolve_train().unwrap().int8_compute);

        // Non-boolean values are typed config errors naming the key.
        let err = crate::toml::parse(&format!("{}\nint8_compute = \"yes\"\n", quickstart_toml()))
            .and_then(|v| RunConfig::from_value(&v))
            .unwrap_err()
            .to_string();
        assert!(err.contains("int8_compute"), "{err}");
    }

    #[test]
    fn serve_and_loadgen_sections_parse_resolve_and_round_trip() {
        let doc = format!(
            "{}\n[serve]\naddr = \"127.0.0.1:9000\"\nthreshold = 0.9\nmax_batch = 4\n\
             queue_capacity = 16\nbatch_window_us = 250\nfast_deadline_us = 1000\n\
             balanced_deadline_us = 2000\nexact_deadline_us = 3000\nreplicas = 2\n\
             allow_shutdown = true\n\
             \n[loadgen]\nrequests = 32\nconnections = 2\ninflight = 6\n\
             tier_weights = [2, 1, 1]\nseed = 7\n",
            quickstart_toml()
        );
        let cfg = parse_config(&doc);
        let s = cfg.serve();
        assert_eq!(s.addr, "127.0.0.1:9000");
        assert_eq!(
            (s.max_batch, s.queue_capacity, s.batch_window_us),
            (4, 16, 250)
        );
        assert_eq!(s.replicas, 2);
        assert!(s.allow_shutdown);
        let policy = cfg.resolve_serve().unwrap();
        assert_eq!(policy.threshold, 0.9f32);
        assert_eq!(policy.deadline_us, [1000, 2000, 3000]);
        assert_eq!(policy.replicas, 2);
        assert_eq!(policy.effective_replicas(8), 2);
        let lg = cfg.loadgen();
        assert_eq!((lg.requests, lg.connections), (32, 2));
        assert_eq!(lg.inflight, 6);
        assert_eq!(lg.tier_weights, [2, 1, 1]);
        assert_eq!(lg.seed, Some(7));
        // Snapshot round-trip covers both sections.
        let rendered = cfg.to_value().to_toml();
        assert_eq!(parse_config(&rendered), cfg, "snapshot:\n{rendered}");
        // No sections → defaults, and the snapshot fixed point holds.
        let cfg = parse_config(quickstart_toml());
        assert!(cfg.serve.is_none() && cfg.loadgen.is_none());
        let s = cfg.serve();
        assert_eq!(
            s.max_batch,
            neuroflux_core::ServePolicy::default().max_batch
        );
        assert_eq!(s.replicas, 0, "replicas default to auto (one per core)");
        assert_eq!(cfg.loadgen().seed, None);
        assert_eq!(
            cfg.loadgen().inflight,
            0,
            "inflight defaults to the plain closed loop"
        );
        let rendered = cfg.to_value().to_toml();
        assert_eq!(parse_config(&rendered), cfg, "snapshot:\n{rendered}");
    }

    #[test]
    fn serve_and_loadgen_bad_values_are_typed_errors() {
        for (snippet, path) in [
            ("[serve]\nthreshold = 0.0\n", "serve.threshold"),
            ("[serve]\nthreshold = -1.5\n", "serve.threshold"),
            ("[serve]\nmax_batch = 0\n", "serve.max_batch"),
            ("[serve]\nqueue_capacity = 0\n", "serve.queue_capacity"),
            ("[serve]\nreplicas = 65\n", "serve.replicas"),
            ("[loadgen]\nrequests = 0\n", "loadgen.requests"),
            ("[loadgen]\nconnections = 0\n", "loadgen.connections"),
            (
                "[loadgen]\nconnections = 4\ninflight = 2\n",
                "loadgen.inflight",
            ),
            ("[loadgen]\ntier_weights = [1, 2]\n", "loadgen.tier_weights"),
            (
                "[loadgen]\ntier_weights = [0, 0, 0]\n",
                "loadgen.tier_weights",
            ),
        ] {
            let err = crate::toml::parse(&format!("{}\n{snippet}", quickstart_toml()))
                .and_then(|v| RunConfig::from_value(&v))
                .unwrap_err();
            match &err {
                CliError::Config { path: p, .. } => assert_eq!(p, path, "{err}"),
                other => panic!("expected typed config error for {path}, got {other}"),
            }
        }
    }

    #[test]
    fn tiny_preset_requires_channels() {
        let err = crate::toml::parse(
            "[run]\nname=\"x\"\n[model]\npreset=\"tiny\"\n[dataset]\npreset=\"quick\"\nclasses=2\nimage_hw=8\ntrain=8\n[train]\nbudget_mb=1\nbatch_limit=1",
        )
        .and_then(|v| RunConfig::from_value(&v))
        .unwrap_err()
        .to_string();
        assert!(err.contains("[model].channels"), "{err}");
    }
}
