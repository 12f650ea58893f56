//! Standalone `nf-lint` binary.
//!
//! Exit codes: 0 = clean, 1 = findings, unused allows or stale scope
//! paths, 2 = tool/config error.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: nf-lint [--root DIR] [--format human|json]\n\
     \n\
     Lints the workspace at DIR (default: current directory) against the\n\
     committed lint.toml. Options take their value as `--opt VALUE` or\n\
     `--opt=VALUE`. Exit 0 when clean; 1 on findings, unused [[allow]]\n\
     entries or scope paths that match no file; 2 on error."
}

/// What the command line asked for.
#[derive(Debug, PartialEq)]
enum Command {
    Help,
    Lint { root: PathBuf, json: bool },
}

/// Parses the arguments after the program name. Both `--opt VALUE` and
/// `--opt=VALUE` are accepted; anything else is an error naming the
/// offending argument, so a misspelt invocation can never pass as a clean
/// run.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(Command::Help);
        }
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        if name != "--root" && name != "--format" {
            return Err(format!("unknown argument `{arg}`"));
        }
        let value = inline
            .or_else(|| args.next())
            .ok_or_else(|| format!("{name} needs a value"))?;
        if name == "--root" {
            root = PathBuf::from(value);
        } else {
            json = match value.as_str() {
                "json" => true,
                "human" => false,
                _ => return Err("--format must be human or json".to_string()),
            };
        }
    }
    Ok(Command::Lint { root, json })
}

fn main() -> ExitCode {
    let (root, json) = match parse_args(std::env::args().skip(1)) {
        Ok(Command::Help) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Ok(Command::Lint { root, json }) => (root, json),
        Err(e) => {
            eprintln!("nf-lint: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = match nf_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("nf-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let rendered = if json {
        nf_lint::render_json(&result)
    } else {
        nf_lint::render_human(&result)
    };
    print!("{rendered}");
    if result.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    fn lint(root: &str, json: bool) -> Result<Command, String> {
        Ok(Command::Lint {
            root: PathBuf::from(root),
            json,
        })
    }

    #[test]
    fn both_option_spellings_parse_alike() {
        assert_eq!(parse(&[]), lint(".", false));
        // The CI job's spelling, and the one the usage text used to show.
        assert_eq!(parse(&["--format", "json"]), lint(".", true));
        assert_eq!(parse(&["--format=json"]), lint(".", true));
        assert_eq!(parse(&["--root", "w", "--format=human"]), lint("w", false));
        assert_eq!(
            parse(&["--format", "json", "--root=a=b"]),
            lint("a=b", true)
        );
        assert_eq!(parse(&["--root", "w", "-h"]), Ok(Command::Help));
    }

    #[test]
    fn malformed_invocations_are_errors_not_clean_runs() {
        for bad in [
            &["--format"][..],
            &["--root"],
            &["--format", "xml"],
            &["--format=xml"],
            &["json"],
            &["--formt=json"],
            &["--format", "json", "extra"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
