//! Per-epoch training telemetry shared by all trainers.

/// Loss/accuracy history of one training run.
///
/// One entry per epoch; `test_accuracy` is measured after each epoch so
/// accuracy-versus-time curves (the paper's Figure 12) can be rebuilt by
/// pairing entries with simulated epoch durations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_loss: Vec<f32>,
    /// Training-split accuracy per epoch.
    pub train_accuracy: Vec<f32>,
    /// Test-split accuracy per epoch.
    pub test_accuracy: Vec<f32>,
}

impl TrainReport {
    /// Final test accuracy (0.0 if no epochs ran).
    pub fn final_test_accuracy(&self) -> f32 {
        self.test_accuracy.last().copied().unwrap_or(0.0)
    }

    /// Whether loss decreased from the first to the last epoch.
    pub fn loss_improved(&self) -> bool {
        match (self.epoch_loss.first(), self.epoch_loss.last()) {
            (Some(first), Some(last)) => last < first,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_handle_empty_and_filled() {
        let empty = TrainReport::default();
        assert_eq!(empty.final_test_accuracy(), 0.0);
        assert!(!empty.loss_improved());

        let r = TrainReport {
            epoch_loss: vec![2.0, 1.0],
            train_accuracy: vec![0.3, 0.6],
            test_accuracy: vec![0.25, 0.55],
        };
        assert_eq!(r.final_test_accuracy(), 0.55);
        assert!(r.loss_improved());
    }
}
