//! Paradigm comparison: BP vs classic LL vs FA vs SP on one task —
//! the memory/accuracy quadrant of the paper's Figure 3.
//!
//! ```sh
//! cargo run --example paradigm_comparison --release
//! ```
//!
//! Each paradigm trains the same small CNN on the same synthetic dataset;
//! accuracy is measured, memory comes from the analytic model at the
//! training batch size.

use nf_baselines::{install_feedback, BpTrainer, LocalLearningTrainer, SpTrainer};
use nf_data::SyntheticSpec;
use nf_memsim::{MemoryModel, TrainingParadigm};
use nf_models::{assign_aux, AuxPolicy, ModelSpec};
use rand::SeedableRng;

fn main() {
    let data = SyntheticSpec::quick(6, 8, 240).with_noise(0.8).generate();
    let spec = ModelSpec::tiny("fig3-cnn", 8, &[8, 16], 6);
    let mem = MemoryModel::default();
    let batch = 16usize;
    let epochs = 6usize;
    let lr = 0.05;

    // Memory footprints at the training batch size (per Figure 3's x-axis,
    // computed on the full-size architecture semantics).
    let aux = assign_aux(&spec, AuxPolicy::CLASSIC);
    let bp_mem = mem.bp_training(&spec, batch).total();
    let ll_mem = mem
        .ll_training_peak(&spec, &aux, batch, TrainingParadigm::LocalLearning)
        .0
        .total();
    let fa_mem = bp_mem; // FA backprops through the whole graph too.
    let sp_mem = mem.inference(&spec, batch).total(); // one layer at a time, no heads.

    // Accuracy: actually train each paradigm.
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

    println!("Figure-3 quadrant (memory at batch {batch}, accuracy after {epochs} epochs):\n");
    println!(
        "{:<12} {:>12} {:>10}",
        "paradigm", "memory (MB)", "accuracy"
    );
    for (name, mem, acc) in [
        ("BP", bp_mem, bp_acc),
        ("classic LL", ll_mem, ll_acc),
        ("FA", fa_mem, fa_acc),
        ("SP", sp_mem, sp_acc),
    ] {
        println!(
            "{:<12} {:>12.2} {:>9.1}%",
            name,
            mem as f64 / 1e6,
            acc * 100.0
        );
    }
    println!(
        "\nBP and LL sit in the high-accuracy column (LL at even higher memory);\n\
         FA pays BP's memory for less accuracy; SP is cheap but weak. NeuroFlux's\n\
         goal (Figure 3's shaded quadrant) is LL-grade accuracy at low memory —\n\
         see the quickstart example."
    );
}
