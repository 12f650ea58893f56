//! Figure 3: memory-vs-accuracy quadrant for BP, classic LL, FA, and SP.
//!
//! Memory comes from the analytic model on the full-size VGG-16 (batch 32);
//! accuracy from real training of a scaled model on a synthetic task.
//!
//! Regenerate with: `cargo run -p nf-bench --release --bin fig03_paradigms`

use nf_baselines::{install_feedback, BpTrainer, LocalLearningTrainer, SpTrainer};
use nf_bench::{mb, print_table};
use nf_data::SyntheticSpec;
use nf_memsim::{MemoryModel, TrainingParadigm};
use nf_models::{assign_aux, AuxPolicy, ModelSpec};
use rand::SeedableRng;

fn main() {
    // Memory axis: full-size VGG-16 at a training batch of 32.
    let full = ModelSpec::vgg16(100);
    let mem = MemoryModel::default();
    let classic = assign_aux(&full, AuxPolicy::CLASSIC);
    let batch_full = 32;
    let bp_mem = mem.bp_training(&full, batch_full).total();
    let ll_mem = mem
        .ll_training_peak(&full, &classic, batch_full, TrainingParadigm::LocalLearning)
        .0
        .total();
    let fa_mem = bp_mem; // FA retains the full activation chain like BP.
    let sp_mem = mem.inference(&full, batch_full).total(); // no heads, one layer live.

    // Accuracy axis: real training of a small CNN on a noisy synthetic task.
    let data = SyntheticSpec::quick(6, 8, 240).with_noise(0.8).generate();
    let spec = ModelSpec::tiny("fig3", 8, &[8, 16], 6);
    let (batch, epochs, lr) = (16usize, 6usize, 0.05f32);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);

    let mut bp_model = spec.build(&mut rng).unwrap();
    let bp_acc = BpTrainer::new(lr, epochs, batch)
        .train(&mut bp_model, &data.train, &data.test)
        .unwrap()
        .final_test_accuracy();

    let ll_model = spec.build(&mut rng).unwrap();
    let trainer = LocalLearningTrainer {
        policy: AuxPolicy::Fixed(16),
        ..LocalLearningTrainer::classic(lr, epochs, batch)
    };
    let (_, ll_report) = trainer
        .train(&mut rng, ll_model, &data.train, &data.test)
        .unwrap();
    let ll_acc = ll_report.final_test_accuracy();

    // FA: the same model and trainer as BP, error sent back through fixed
    // random feedback matrices.
    let mut fa_model = spec.build(&mut rng).unwrap();
    install_feedback(&mut rng, &mut fa_model);
    let fa_acc = BpTrainer::new(lr, epochs, batch)
        .train(&mut fa_model, &data.train, &data.test)
        .unwrap()
        .final_test_accuracy();

    let mut sp_model = spec.build(&mut rng).unwrap();
    let (sp_report, _) = SpTrainer::new(0.01, epochs, batch)
        .train(&mut sp_model, &data.train, &data.test)
        .unwrap();
    let sp_acc = sp_report.final_test_accuracy();

    println!("== Figure 3: training-paradigm quadrant ==");
    let rows = vec![
        vec!["BP".into(), mb(bp_mem), format!("{:.1}%", bp_acc * 100.0)],
        vec![
            "classic LL".into(),
            mb(ll_mem),
            format!("{:.1}%", ll_acc * 100.0),
        ],
        vec!["FA".into(), mb(fa_mem), format!("{:.1}%", fa_acc * 100.0)],
        vec!["SP".into(), mb(sp_mem), format!("{:.1}%", sp_acc * 100.0)],
    ];
    print_table(
        &["paradigm", "memory (MB, VGG-16 @ b32)", "accuracy"],
        &rows,
    );
    println!(
        "\nPaper's shape: BP and LL in the high-accuracy half (LL costs even more\n\
         memory than BP); FA pays BP's memory for less accuracy on CNNs; SP is\n\
         memory-cheap but least accurate. The empty low-memory/high-accuracy\n\
         quadrant is where NeuroFlux aims."
    );
}
