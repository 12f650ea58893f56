//! Early-exit deployment: train with NeuroFlux, ship the streamlined
//! model, and estimate inference throughput on each edge device
//! (the scenario behind the paper's Table 2 / Table 3 / Figure 14).
//!
//! ```sh
//! cargo run --example early_exit_deployment --release
//! ```

use neuroflux_core::{NeuroFluxConfig, NeuroFluxTrainer};
use nf_data::SyntheticSpec;
use nf_memsim::{timing, DeviceProfile};
use nf_models::ModelSpec;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // Train a small CNN with NeuroFlux on a synthetic task; the exit the
    // system picks is where validation accuracy saturates ("overthinking",
    // Figure 10).
    let data = SyntheticSpec::quick(4, 16, 256).generate();
    let spec = ModelSpec::tiny("edge-cnn", 16, &[8, 16, 16, 32], 4);
    let config = NeuroFluxConfig::new(32 << 20, 32).with_epochs(5);
    let mut outcome = NeuroFluxTrainer::new(config)
        .train(&mut rng, &spec, &data)
        .expect("training failed");
    let exit = outcome.selected_exit.expect("exit selected");
    let acc = outcome.selected_exit_accuracy(&data.test).unwrap();

    println!(
        "trained {}: selected exit = unit {} (test accuracy {:.1}%)",
        spec.name,
        exit.unit,
        acc * 100.0
    );
    println!(
        "deployed model: {} params vs {} full ({:.1}x compression)\n",
        exit.params,
        spec.total_params(),
        outcome.compression_factor().unwrap()
    );

    // Throughput of full vs streamlined model on the paper's platforms,
    // priced by the FLOPs-based device model (Table 3's methodology).
    let full_flops = spec.total_flops();
    let exit_flops = exit.flops;
    println!(
        "{:<18} {:>14} {:>14} {:>8}",
        "platform", "full (img/s)", "exit (img/s)", "gain"
    );
    for device in DeviceProfile::all() {
        let full = timing::inference_throughput(&device, full_flops);
        let early = timing::inference_throughput(&device, exit_flops);
        println!(
            "{:<18} {:>14.0} {:>14.0} {:>7.2}x",
            device.name,
            full,
            early,
            early / full
        );
    }
    println!(
        "\nThe gain column is architecture-determined (FLOPs ratio), so it is the\n\
         same on every platform — the absolute img/s scale with device throughput,\n\
         as in the paper's Table 3."
    );
}
