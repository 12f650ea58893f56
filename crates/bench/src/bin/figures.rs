//! Prints the paper's figures and tables and checks their shape claims:
//! `cargo run --release -p nf-bench --bin figures [name…]`, every figure
//! of `nf_bench::figures::FIGURES` when no name is given. Exits 1 if a
//! claim fails, 2 on an unknown name or a figure that cannot be computed.

use nf_bench::figures::{Shared, FIGURES};
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let known: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    if let Some(unknown) = names.iter().find(|n| !known.contains(&n.as_str())) {
        eprintln!(
            "unknown figure {unknown:?} (expected any of {})",
            known.join(", ")
        );
        return ExitCode::from(2);
    }
    let chosen = FIGURES
        .iter()
        .filter(|(f, _)| names.is_empty() || names.iter().any(|n| n == f));
    let (shared, mut failed) = (Shared::default(), 0);
    for (name, figure) in chosen {
        match figure(&shared) {
            Ok(fig) => {
                println!("{}", fig.render());
                failed += fig.failed().count();
            }
            Err(e) => {
                eprintln!("error: {name}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if failed > 0 {
        eprintln!("{failed} claim(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
