//! Integration tests over the simulation path: the paper's macroscopic
//! orderings must hold across models, datasets, and devices.

use neuroflux::core::simulate::{simulate_neuroflux, sweep_point};
use neuroflux::core::NeuroFluxConfig;
use neuroflux::memsim::DeviceProfile;
use neuroflux::models::ModelSpec;

const MB: u64 = 1_000_000;

fn cfg(budget_mb: u64) -> NeuroFluxConfig {
    NeuroFluxConfig::new(budget_mb * MB, 512).with_epochs(30)
}

/// Figure 11, all nine panels: wherever BP or classic LL is feasible,
/// NeuroFlux is at least as fast; and NeuroFlux runs at every budget from
/// 100 MB up.
#[test]
fn figure11_orderings_hold_for_all_nine_panels() {
    let device = DeviceProfile::agx_orin();
    let specs = [
        ("vgg16", ModelSpec::vgg16(10), 50_000),
        ("vgg16", ModelSpec::vgg16(100), 50_000),
        ("vgg16", ModelSpec::vgg16(200), 100_000),
        ("vgg19", ModelSpec::vgg19(10), 50_000),
        ("vgg19", ModelSpec::vgg19(100), 50_000),
        ("vgg19", ModelSpec::vgg19(200), 100_000),
        ("resnet18", ModelSpec::resnet18(10), 50_000),
        ("resnet18", ModelSpec::resnet18(100), 50_000),
        ("resnet18", ModelSpec::resnet18(200), 100_000),
    ];
    for (name, spec, samples) in specs {
        for budget in [100u64, 200, 300, 400, 500] {
            let (bp, ll, nf) = sweep_point(&spec, &device, &cfg(budget), samples);
            let nf = nf.unwrap_or_else(|| {
                panic!("{name}/{samples} @ {budget}MB: NeuroFlux must be feasible")
            });
            if let Some(bp) = bp {
                assert!(
                    nf.total_s() <= bp.total_s() * 1.001,
                    "{name} @ {budget}MB: NF {:.0}s !<= BP {:.0}s",
                    nf.total_s(),
                    bp.total_s()
                );
            }
            if let Some(ll) = ll {
                assert!(
                    nf.total_s() < ll.total_s(),
                    "{name} @ {budget}MB: NF !< classic LL"
                );
            }
        }
    }
}

/// The infeasibility pattern of Figure 11: BP/LL have hard floors; the
/// VGG-19 floor is higher than VGG-16's (paper: 300 MB vs 250 MB).
#[test]
fn infeasibility_floors_are_ordered_like_the_paper() {
    let device = DeviceProfile::agx_orin();
    let floor = |spec: &ModelSpec| -> u64 {
        for budget in (50..2000).step_by(10) {
            let (bp, _, _) = sweep_point(spec, &device, &cfg(budget), 50_000);
            if bp.is_some() {
                return budget;
            }
        }
        u64::MAX
    };
    let vgg16_floor = floor(&ModelSpec::vgg16(10));
    let vgg19_floor = floor(&ModelSpec::vgg19(10));
    assert!(
        vgg19_floor > vgg16_floor,
        "VGG-19 BP floor {vgg19_floor}MB !> VGG-16 floor {vgg16_floor}MB"
    );
    // Both floors sit in the hundreds-of-MB regime the paper operates in.
    assert!(
        (100..500).contains(&vgg16_floor),
        "vgg16 floor {vgg16_floor}"
    );
}

/// Speedups grow as budgets tighten (the qualitative shape of Figure 11:
/// the BP/NeuroFlux gap is widest at the tight end).
#[test]
fn speedup_grows_as_budget_tightens() {
    let device = DeviceProfile::agx_orin();
    let spec = ModelSpec::vgg16(10);
    let mut speedups = Vec::new();
    for budget in [250u64, 350, 500] {
        let (bp, _, nf) = sweep_point(&spec, &device, &cfg(budget), 50_000);
        let (bp, nf) = (bp.unwrap(), nf.unwrap());
        speedups.push(bp.total_s() / nf.total_s());
    }
    assert!(
        speedups.windows(2).all(|w| w[0] > w[1]),
        "speedups not decreasing with budget: {speedups:?}"
    );
}

/// Device ordering: the same workload takes longer on weaker devices.
#[test]
fn weaker_devices_train_slower() {
    let spec = ModelSpec::resnet18(10);
    let mut times = Vec::new();
    for device in [
        DeviceProfile::jetson_nano(),
        DeviceProfile::xavier_nx(),
        DeviceProfile::agx_orin(),
    ] {
        let (run, _) = simulate_neuroflux(&spec, &device, &cfg(300), 50_000).unwrap();
        times.push(run.total_s());
    }
    assert!(
        times.windows(2).all(|w| w[0] > w[1]),
        "times not decreasing with device power: {times:?}"
    );
}

/// Block batches are monotone non-decreasing with depth for the paper's
/// models (early layers bind the budget — Figures 5 and 6).
#[test]
fn block_batches_grow_with_depth() {
    let device = DeviceProfile::agx_orin();
    for spec in [
        ModelSpec::vgg11(10),
        ModelSpec::vgg16(100),
        ModelSpec::vgg19(200),
    ] {
        let (_, blocks) = simulate_neuroflux(&spec, &device, &cfg(300), 50_000).unwrap();
        let batches: Vec<usize> = blocks.iter().map(|b| b.batch).collect();
        assert!(
            batches.windows(2).all(|w| w[1] >= w[0]),
            "{}: block batches not monotone: {batches:?}",
            spec.name
        );
    }
}
