//! The training side of a run: fresh `nf train` children, one per
//! repetition, timed from outside.

use crate::proc::{fact, Ctx, Proc};
use crate::workloads::Workload;

/// What one fresh-process `nf train` repetition measured.
#[derive(Debug, Clone)]
pub struct TrainRep {
    /// Child start → first training step (`block 1/N` line): process
    /// start, config parse, data generation, model build, profile and
    /// partition.
    pub setup_s: f64,
    /// First training step → `metrics.json` written.
    pub wall_s: f64,
    /// Selected-exit test accuracy.
    pub acc: f64,
    /// `WorkerReport.cache_peak_bytes` (encoded).
    pub cache_peak_bytes: f64,
    /// Blocks in the plan the child trained.
    pub blocks: usize,
    /// The child's `VmHWM` at exit, kB.
    pub hwm_kb: f64,
    /// Digest of every epoch loss's f32 bits.
    pub loss_digest: String,
    /// Final epoch loss of the last block (for the near-equality check
    /// between repetitions whose kernel plans differ).
    pub last_loss: f64,
    /// Digest of the autotuner's plan table after the run.
    pub plan_digest: String,
}

/// Runs repetition `rep` of `w`'s training in a fresh pinned child.
pub fn run_rep(ctx: &Ctx, w: &Workload, seed: u64, rep: usize) -> Result<TrainRep, String> {
    let name = format!("train{rep}");
    let config = ctx.out_dir.join(format!("{name}.toml"));
    let out_dir = ctx.out_dir.to_string_lossy();
    std::fs::write(&config, w.train_toml(seed, &out_dir, &name))
        .map_err(|e| format!("writing {}: {e}", config.display()))?;
    let mut child = Proc::spawn(ctx, "train", &config, &[]).map_err(|e| e.to_string())?;
    let spawned = child.spawned;
    let (_, first_step) = child.wait_for("block 1/").map_err(|e| e.to_string())?;
    let (_, done) = child.wait_for("@done").map_err(|e| e.to_string())?;
    let facts = child.finish().map_err(|e| e.to_string())?;
    // The run directory holds the activation cache; drop it now so reps
    // do not pile up on disk.
    let _ = std::fs::remove_dir_all(ctx.out_dir.join(&name));
    Ok(TrainRep {
        setup_s: first_step.duration_since(spawned).as_secs_f64(),
        wall_s: done.duration_since(first_step).as_secs_f64(),
        acc: fact(&facts, "acc")?,
        cache_peak_bytes: fact(&facts, "cache_peak_bytes")?,
        blocks: fact(&facts, "blocks")?,
        hwm_kb: fact(&facts, "hwm_kb")?,
        loss_digest: fact(&facts, "loss_digest")?,
        last_loss: fact(&facts, "last_loss")?,
        plan_digest: fact(&facts, "plan_digest")?,
    })
}

/// What the repetitions say about correctness, beyond each having run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TrainVerdict {
    /// Human-readable problems; empty means correct.
    pub problems: Vec<String>,
    /// Repetitions disagreed on the autotuned kernel plan — not an error,
    /// but the likeliest hidden source of bimodal `train_wall_s`.
    pub plan_unstable: bool,
}

/// Checks the repetitions against each other and the workload's floors:
/// the plan has the frozen block count, accuracy clears its floor, and
/// repetitions that tuned the same kernel plan computed the same losses
/// bit for bit (a plan's `KC` split legitimately changes f32 rounding,
/// so across plans the final loss only has to agree to 1 %).
pub fn verdict(w: &Workload, reps: &[TrainRep]) -> TrainVerdict {
    let mut v = TrainVerdict::default();
    let Some(first) = reps.first() else {
        v.problems.push("no training repetition completed".into());
        return v;
    };
    for (i, r) in reps.iter().enumerate() {
        if r.blocks != w.train.blocks {
            v.problems.push(format!(
                "rep {i}: plan has {} blocks, workload is sized for {}",
                r.blocks, w.train.blocks
            ));
        }
        if r.acc.is_nan() || r.acc < w.train.acc_floor {
            v.problems.push(format!(
                "rep {i}: test accuracy {} below the floor {}",
                r.acc, w.train.acc_floor
            ));
        }
        if r.plan_digest != first.plan_digest {
            v.plan_unstable = true;
        }
        let same_plan = r.plan_digest == first.plan_digest;
        if same_plan && r.loss_digest != first.loss_digest {
            v.problems.push(format!(
                "rep {i}: same kernel plan as rep 0 but different loss bits ({} vs {})",
                r.loss_digest, first.loss_digest
            ));
        }
        let rel = (r.last_loss - first.last_loss).abs() / first.last_loss.abs().max(1e-12);
        if r.last_loss.is_nan() || rel > 0.01 {
            v.problems.push(format!(
                "rep {i}: final loss {} differs from rep 0's {} by more than 1 %",
                r.last_loss, first.last_loss
            ));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::by_name;

    fn rep(plan: &str, loss: &str, last: f64, acc: f64) -> TrainRep {
        TrainRep {
            setup_s: 0.1,
            wall_s: 1.0,
            acc,
            cache_peak_bytes: 1e6,
            blocks: 1,
            hwm_kb: 5e4,
            loss_digest: loss.into(),
            last_loss: last,
            plan_digest: plan.into(),
        }
    }

    #[test]
    fn identical_reps_are_correct_and_stable() {
        let w = by_name("compute").unwrap();
        let v = verdict(w, &[rep("p", "l", 0.5, 0.9), rep("p", "l", 0.5, 0.9)]);
        assert_eq!(v, TrainVerdict::default());
    }

    #[test]
    fn a_different_plan_may_change_bits_but_not_the_loss() {
        let w = by_name("compute").unwrap();
        let v = verdict(w, &[rep("p", "l", 0.5, 0.9), rep("q", "m", 0.5001, 0.9)]);
        assert!(v.plan_unstable && v.problems.is_empty(), "{v:?}");
        let v = verdict(w, &[rep("p", "l", 0.5, 0.9), rep("q", "m", 0.6, 0.9)]);
        assert_eq!(v.problems.len(), 1, "{v:?}");
    }

    #[test]
    fn same_plan_different_bits_low_accuracy_and_wrong_plan_all_fail() {
        let w = by_name("compute").unwrap();
        let v = verdict(w, &[rep("p", "l", 0.5, 0.9), rep("p", "x", 0.5, 0.1)]);
        assert_eq!(v.problems.len(), 2, "{v:?}");
        let mut wrong = rep("p", "l", 0.5, 0.9);
        wrong.blocks = 3;
        assert_eq!(verdict(w, &[wrong]).problems.len(), 1);
        assert_eq!(verdict(w, &[]).problems.len(), 1);
    }
}
