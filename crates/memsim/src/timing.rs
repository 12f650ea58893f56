//! FLOP-based training and inference timing.
//!
//! `time = compute + per-batch overhead + storage I/O`, where compute is
//! `FLOPs / (efficiency · peak)`, the backward pass costs
//! [`BACKWARD_FACTOR`] × the forward pass (the paper says "up to 3×"; 2× is
//! used, the standard estimate for convolutions), and the per-batch
//! overhead is a device constant. The overhead term is what makes
//! small-batch training slow (Figure 1: batch 4 ≈ 9× slower than 256) and
//! larger adaptive batches fast (Observation 3).

use crate::device::DeviceProfile;
use nf_models::{AuxSpec, ModelSpec};

/// Backward-pass FLOPs as a multiple of forward FLOPs.
pub const BACKWARD_FACTOR: f64 = 2.0;

/// FLOPs to run one *training* sample through one unit + its auxiliary
/// head (forward + backward of both).
pub fn unit_train_flops(spec: &ModelSpec, unit: usize, aux: &AuxSpec) -> f64 {
    let a = &spec.analyze()[unit];
    (a.flops as f64 + aux.flops() as f64) * (1.0 + BACKWARD_FACTOR)
}

/// FLOPs for one BP training sample (forward + backward over the whole
/// model and head).
pub fn bp_train_flops_per_sample(spec: &ModelSpec) -> f64 {
    spec.total_flops() as f64 * (1.0 + BACKWARD_FACTOR)
}

/// FLOPs for one classic-LL training sample: each unit does its own
/// forward + aux forward + local backward while the batch flows through
/// the whole model.
pub fn ll_train_flops_per_sample(spec: &ModelSpec, aux: &[AuxSpec]) -> f64 {
    spec.analyze()
        .iter()
        .zip(aux)
        .map(|(a, x)| (a.flops as f64 + x.flops() as f64) * (1.0 + BACKWARD_FACTOR))
        .sum()
}

/// Wall-clock seconds for one epoch of `samples` at `batch`, each sample
/// costing `flops_per_sample` (e.g. [`bp_train_flops_per_sample`]): compute
/// at the device's sustained rate plus one overhead per batch.
pub fn epoch_time_s(
    device: &DeviceProfile,
    flops_per_sample: f64,
    samples: usize,
    batch: usize,
) -> f64 {
    let compute = flops_per_sample * samples as f64 / device.effective_flops();
    let batches = samples.div_ceil(batch.max(1)) as f64;
    compute + batches * device.per_batch_overhead_s
}

/// Inference throughput in images/second for a model that costs
/// `flops_per_image` per forward pass (Table 3).
pub fn inference_throughput(device: &DeviceProfile, flops_per_image: u64) -> f64 {
    device.effective_flops() / flops_per_image.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_batches_are_much_slower() {
        // Figure 1 (bottom right): VGG-19 at batch 4 is ~9x slower than at
        // batch 256 on the Tiny ImageNet-scale workload.
        let d = DeviceProfile::agx_orin();
        let spec = ModelSpec::vgg19(200);
        let n = 100_000;
        let flops = bp_train_flops_per_sample(&spec);
        let slow = epoch_time_s(&d, flops, n, 4);
        let fast = epoch_time_s(&d, flops, n, 256);
        let ratio = slow / fast;
        assert!(
            (5.0..14.0).contains(&ratio),
            "batch-4/batch-256 ratio {ratio}, expected ≈9"
        );
    }

    #[test]
    fn resnet18_batch_ratio_matches_fig1() {
        // Figure 1 (bottom left): ResNet-18 batch 4 ≈ 5x slower than 256.
        let d = DeviceProfile::agx_orin();
        let spec = ModelSpec::resnet18(200);
        let flops = bp_train_flops_per_sample(&spec);
        let ratio = epoch_time_s(&d, flops, 100_000, 4) / epoch_time_s(&d, flops, 100_000, 256);
        assert!((3.0..10.0).contains(&ratio), "ratio {ratio}, expected ≈5");
    }

    #[test]
    fn table3_bp_throughput_anchors() {
        // The per-device efficiency calibration should land the BP VGG-16
        // CIFAR-10 throughput near the paper's Table 3 column.
        let spec = ModelSpec::vgg16(10);
        let flops = spec.total_flops();
        let expect = [
            (DeviceProfile::pi4b(), 6.0),
            (DeviceProfile::jetson_nano(), 213.0),
            (DeviceProfile::xavier_nx(), 1278.0),
            (DeviceProfile::agx_orin(), 3706.0),
        ];
        for (device, paper) in expect {
            let ours = inference_throughput(&device, flops);
            let rel = (ours - paper).abs() / paper;
            assert!(
                rel < 0.5,
                "{}: {ours:.0} img/s vs paper {paper} (rel {rel:.2})",
                device.name
            );
        }
    }

    #[test]
    fn throughput_scales_inverse_to_flops() {
        let d = DeviceProfile::jetson_nano();
        let a = inference_throughput(&d, 1_000_000);
        let b = inference_throughput(&d, 2_000_000);
        assert!((a / b - 2.0).abs() < 1e-9);
    }
}
