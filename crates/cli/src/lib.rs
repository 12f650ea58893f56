//! `nf` — the config-driven NeuroFlux experiment runner.
//!
//! Everything the workspace can do — the full NeuroFlux pipeline, all four
//! baseline paradigms, and the analytic device sweeps — driven from one
//! declarative TOML/JSON config file instead of bespoke `main`s, with
//! every run persisted as a durable, inspectable artifact:
//!
//! ```text
//! nf train     <config> [--resume|--force] [--quiet]  # NeuroFlux pipeline
//! nf baseline  <bp|ll|fa|sp> <config> [--quiet]       # comparison trainers
//! nf sweep     <config> [--quiet]                     # nf-memsim budget sweep
//! nf serve     <config> [--quiet]                     # early-exit inference service
//! nf loadgen   <config> [--addr=..]                   # deterministic load generator
//! nf inspect   <run-dir>                              # paper-vs-measured report
//! ```
//!
//! Runs live in `runs/<name>/` — resolved config snapshot, `metrics.json`,
//! a per-block checkpoint, and the on-disk activation cache — see
//! [`rundir`] for the layout and `DESIGN.md` §6 for the config schema.
//! Documents are [`Value`] trees from `nf-value`, the workspace's one
//! TOML/JSON reader and writer.
//! Interrupted runs (crash, kill, cancellation) restart from the last
//! completed block with `--resume` and finish with the same final metrics
//! as an uninterrupted run.
//!
//! The library portion exists so integration tests (and other tools) can
//! drive commands in-process; `src/main.rs` is a thin argv wrapper.

// deny (not forbid) solely so `net::sys` can opt back in with its
// reasoned `#![expect(unsafe_code)]` — the epoll/eventfd bindings are
// the crate's one unsafe surface (`tests/invariants.rs` pins it).
// Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![deny(missing_docs)]
// No panic path: every failure a command can meet is a `CliError`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod baseline;
pub mod config;
pub mod error;
pub mod inspect;
pub mod loadgen;
pub mod net;
pub mod progress;
pub mod proto;
pub mod rundir;
pub mod schema;
pub mod serve;
pub mod sweep;
pub mod train;

pub use baseline::{run_baseline, Paradigm};
pub use config::RunConfig;
pub use error::{CliError, Result};
pub use inspect::run_inspect;
pub use loadgen::{run_loadgen, LoadgenOptions, LoadgenReport};
pub use nf_value::{Table, Value};
pub use rundir::RunDir;
pub use serve::{
    build_engines, replicate_engines, run_serve, start_server, start_server_with_engines,
    ReplicaSnapshot, ServerHandle,
};
pub use sweep::run_sweep;
pub use train::{run_train, TrainOptions, TrainSummary};
