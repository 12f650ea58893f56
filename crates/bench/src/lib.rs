//! Shared helpers for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md §7 for the index) and prints the same
//! rows/series the paper plots. Helpers here keep the output format
//! consistent and hold the scaled-training harness that accuracy figures
//! share. The training step `bench_json` times is the product's own,
//! `nf_nn::LocalStep`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod scaled;

/// Unwraps a bench-setup result, printing the error and exiting with a
/// nonzero status — figure binaries have no meaningful partial output, but
/// they should fail as diagnosable processes, not via `panic!`.
pub fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Prints a Markdown-style table: header row, separator, then rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        format!("| {} |", padded.join(" | "))
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", fmt_row(&sep));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats bytes as whole megabytes.
pub fn mb(bytes: u64) -> String {
    format!("{:.0}", bytes as f64 / 1e6)
}

/// Formats a ratio as `x.yz×`.
pub fn times(x: f64) -> String {
    format!("{x:.2}x")
}
