//! CLI error type: a message, plus a structured case for interruptions so
//! the kill-and-resume tests (and scripts) can distinguish "cancelled, run
//! dir is resumable" from real failures.

use std::fmt;

/// Errors surfaced by `nf` commands.
#[derive(Debug)]
pub enum CliError {
    /// A failure with a human-readable message.
    Msg(String),
    /// A malformed configuration document, with the offending key path
    /// (e.g. `model.name`) — the typed form parse/validation errors take
    /// so scripts can tell "your config is wrong" from "the run failed".
    Config {
        /// Dotted path of the offending key or section.
        path: String,
        /// What is wrong at that path.
        message: String,
    },
    /// The run was interrupted (progress hook requested cancellation);
    /// the run directory holds a checkpoint covering this many blocks and
    /// can be finished with `--resume`.
    Interrupted {
        /// Blocks fully trained (and checkpointed) before the cancellation.
        completed_blocks: usize,
    },
}

impl CliError {
    /// Creates a message error.
    pub fn new(msg: impl Into<String>) -> Self {
        CliError::Msg(msg.into())
    }

    /// Creates a typed config error anchored at a key path.
    pub fn config(path: impl Into<String>, message: impl Into<String>) -> Self {
        CliError::Config {
            path: path.into(),
            message: message.into(),
        }
    }

    /// A planning error of `who`'s: a budget no batch fits is the
    /// config's fault, at `train.budget_mb`; anything else converts as
    /// usual.
    pub fn from_plan(who: &str, e: neuroflux_core::NfError) -> Self {
        match e {
            e @ neuroflux_core::NfError::InfeasibleBudget { .. } => {
                CliError::config("train.budget_mb", format!("{who} cannot train: {e}"))
            }
            other => other.into(),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Msg(m) => f.write_str(m),
            CliError::Config { path, message } => {
                write!(f, "config error at `{path}`: {message}")
            }
            CliError::Interrupted { completed_blocks } => write!(
                f,
                "run interrupted after {completed_blocks} completed block(s); \
                 finish it with `nf train <config> --resume`"
            ),
        }
    }
}

impl std::error::Error for CliError {}

impl From<neuroflux_core::NfError> for CliError {
    fn from(e: neuroflux_core::NfError) -> Self {
        match e {
            neuroflux_core::NfError::Interrupted { completed_blocks } => {
                CliError::Interrupted { completed_blocks }
            }
            other => CliError::Msg(other.to_string()),
        }
    }
}

/// A document's typed error stays typed; a syntax error is a message.
impl From<nf_value::Error> for CliError {
    fn from(e: nf_value::Error) -> Self {
        match e {
            nf_value::Error::At { path, message } => CliError::Config { path, message },
            syntax => CliError::Msg(syntax.to_string()),
        }
    }
}

impl From<nf_nn::NnError> for CliError {
    fn from(e: nf_nn::NnError) -> Self {
        CliError::Msg(e.to_string())
    }
}

impl From<nf_tensor::TensorError> for CliError {
    fn from(e: nf_tensor::TensorError) -> Self {
        CliError::Msg(e.to_string())
    }
}

/// Convenience alias for fallible CLI operations.
pub type Result<T> = std::result::Result<T, CliError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interrupted_maps_from_core() {
        let e: CliError = neuroflux_core::NfError::Interrupted {
            completed_blocks: 2,
        }
        .into();
        assert!(matches!(
            e,
            CliError::Interrupted {
                completed_blocks: 2
            }
        ));
        assert!(e.to_string().contains("--resume"));
    }
}
