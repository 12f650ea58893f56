//! `nf-value`: the workspace's one document model. `nf` reads its run
//! configs ([`toml`] or [`json`]) into a [`Value`] tree, reads the typed
//! schema out of it and renders run artifacts from one ([`Value::to_json`],
//! [`Value::to_toml`]). The build is offline, so the readers cover the
//! subset those documents use and reject the rest with an [`Error`]. A
//! document is input from outside the program: nothing here panics on it
//! (the crate denies clippy's panicking constructs and slice indexing).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod json;
mod scan;
pub mod toml;
mod value;

pub use value::{Table, Value};

use std::fmt;

/// Why a document could not be read or rendered.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Malformed text: the `format` reader (`"TOML"` / `"JSON"`) stopped
    /// on 1-based `line`.
    Syntax {
        /// Which reader failed.
        format: &'static str,
        /// Where it failed.
        line: usize,
        /// What it found.
        message: String,
    },
    /// A value of the wrong shape at a dotted key path, e.g. a scalar where
    /// a table is required (`model = 3`, then `model.name = "x"`).
    At {
        /// Dotted path of the offending key.
        path: String,
        /// What is wrong there.
        message: String,
    },
}

impl Error {
    /// A typed error anchored at `path`.
    pub fn at(path: impl Into<String>, message: impl Into<String>) -> Error {
        Error::At {
            path: path.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Syntax {
                format,
                line,
                message,
            } => write!(f, "{format} parse error on line {line}: {message}"),
            Error::At { path, message } => write!(f, "at `{path}`: {message}"),
        }
    }
}

impl std::error::Error for Error {}

/// `key` beneath the dotted `path` (which is empty at the document root).
pub fn join(path: &str, key: &str) -> String {
    match path {
        "" => key.to_string(),
        _ => format!("{path}.{key}"),
    }
}
