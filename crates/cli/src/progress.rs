//! Terminal output: every line `nf` prints to stdout goes through
//! [`say`], and [`print_event`] renders [`TrainEvent`]s with it.

use crate::error::{CliError, Result};
use neuroflux_core::TrainEvent;
use std::io::{self, Write};

/// Writes `text` and a newline to `out`, flushed. A reader that has gone
/// away (`nf inspect <run> | head`) ends the output quietly: the rest has
/// nowhere to go, and the command itself did not fail.
fn print_to(out: &mut impl Write, text: &str) -> io::Result<()> {
    match writeln!(out, "{text}").and_then(|()| out.flush()) {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        written => written,
    }
}

/// `print_to` on stdout, one flush per line (a parent process reading
/// `nf train`'s `block 1/N` lines sees each as it happens).
pub fn say(text: &str) -> Result<()> {
    print_to(&mut io::stdout().lock(), text)
        .map_err(|e| CliError::new(format!("writing to stdout: {e}")))
}

/// Prints one training progress line for `event`.
pub fn print_event(event: &TrainEvent) -> Result<()> {
    say(&match event {
        TrainEvent::BlockSkipped { block, total } => {
            format!(
                "block {}/{total}: already complete in checkpoint, skipping",
                block + 1
            )
        }
        TrainEvent::BlockStarted {
            block,
            total,
            units,
            batch,
        } => {
            format!(
                "block {}/{total}: units {}..{} at batch {batch}",
                block + 1,
                units.0,
                units.1
            )
        }
        TrainEvent::EpochFinished {
            block,
            epoch,
            epochs,
            mean_loss,
        } => {
            format!(
                "  block {} epoch {}/{epochs}: loss {mean_loss:.4}",
                block + 1,
                epoch + 1
            )
        }
        TrainEvent::BlockFinished { block, total } => {
            format!(
                "block {}/{total}: done (activations cached, params checkpointed)",
                block + 1
            )
        }
        TrainEvent::HeadTrained => "deep head trained".to_string(),
        TrainEvent::ExitMeasured { exit, val_accuracy } => {
            format!(
                "exit {exit}: validation accuracy {:.1}%",
                val_accuracy * 100.0
            )
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_closed_pipe_ends_output_quietly() {
        let mut out = Vec::new();
        print_to(&mut out, "report").unwrap();
        assert_eq!(out, b"report\n");
        // The reader has exited: the write fails `BrokenPipe`, quietly.
        let (reader, mut closed) = io::pipe().unwrap();
        drop(reader);
        let err = closed.write(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        print_to(&mut closed, "report").unwrap();
        // Any other write failure is still an error.
        let mut full = [0u8; 2];
        let err = print_to(&mut &mut full[..], "report").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }
}
