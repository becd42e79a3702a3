//! Property tests of the snapshot layer: at *arbitrary* cycles — including
//! mid-miss cache states, partially-full ROBs and draining store buffers —
//! a snapshot→resume roundtrip is bit-identical, and a machine resumed
//! from a checkpoint alone ([`Simulator::from_snapshot`]) steps
//! cycle-for-cycle like the original, with or without an injected flip.

use mbu_cpu::{CoreConfig, HwComponent, Simulator};
use mbu_sram::{BitCoord, Snapshot};
use mbu_workloads::Workload;
use proptest::prelude::*;
use std::sync::OnceLock;

const COMPONENTS: [HwComponent; 6] = [
    HwComponent::L1D,
    HwComponent::L1I,
    HwComponent::L2,
    HwComponent::RegFile,
    HwComponent::DTlb,
    HwComponent::ITlb,
];

/// Shared fault-free execution time so every case can pick a uniformly
/// random in-run cycle without re-running the golden simulation.
fn t_ff() -> u64 {
    static T: OnceLock<u64> = OnceLock::new();
    *T.get_or_init(|| {
        let p = Workload::Stringsearch.program();
        Simulator::new(CoreConfig::cortex_a9_like(), &p)
            .run(u64::MAX / 8)
            .cycles
    })
}

fn sim_at(cycle: u64) -> Simulator {
    let p = Workload::Stringsearch.program();
    let mut sim = Simulator::new(CoreConfig::cortex_a9_like(), &p);
    sim.run_until_cycle(cycle);
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Snapshot → resume is bit-exact at any cycle, for any injectable
    /// structure, even after the structure was corrupted in between.
    #[test]
    fn roundtrip_is_bit_exact_for_every_component(
        frac in 0u64..1000,
        comp_idx in 0usize..6,
        row_sel in any::<u64>(),
        col_sel in any::<u64>(),
    ) {
        let cycle = t_ff() * frac / 1000;
        let mut sim = sim_at(cycle);
        let saved = sim.snapshot();
        prop_assert_eq!(saved.cycle(), cycle);
        // Corrupt the chosen structure, then rewind: the flip must vanish.
        let comp = COMPONENTS[comp_idx];
        let g = sim.component_geometry(comp);
        let coord = BitCoord::new(
            (row_sel % g.rows() as u64) as usize,
            (col_sel % g.cols() as u64) as usize,
        );
        sim.inject_flips(comp, &[coord]);
        let mut resumed = Simulator::from_snapshot(CoreConfig::cortex_a9_like(), &saved);
        prop_assert_eq!(resumed.snapshot(), saved.clone());
        // And applying the identical flip to the resumed machine reproduces
        // the corrupted state exactly (fast-forwarded injection ≡ injection
        // after a full run).
        let corrupted = sim.snapshot();
        resumed.inject_flips(comp, &[coord]);
        prop_assert_eq!(resumed.snapshot(), corrupted);
    }

    /// A fresh simulator resumed from a mid-run checkpoint advances
    /// cycle-for-cycle identically to the machine it was captured from.
    #[test]
    fn restored_machine_steps_identically(frac in 0u64..1000, steps in 1u64..96) {
        let cycle = t_ff() * frac / 1000;
        let mut original = sim_at(cycle);
        let saved = original.snapshot();
        let mut restored = Simulator::from_snapshot(CoreConfig::cortex_a9_like(), &saved);
        for _ in 0..steps {
            let a = original.step();
            let b = restored.step();
            prop_assert_eq!(a, b);
            prop_assert!(original.converged_with(&restored.snapshot()));
        }
        prop_assert_eq!(original.snapshot(), restored.snapshot());
    }

    /// The fast-forward injection path: the same flip applied to the
    /// original machine and to one resumed from its checkpoint keeps the
    /// two in lockstep, cycle for cycle, for any structure — or with no
    /// flip at all.
    #[test]
    fn resumed_machine_steps_identically_with_or_without_a_flip(
        frac in 0u64..1000,
        steps in 1u64..96,
        flip in any::<bool>(),
        comp_idx in 0usize..6,
        row_sel in any::<u64>(),
        col_sel in any::<u64>(),
    ) {
        let core = CoreConfig::cortex_a9_like();
        let mut original = sim_at(t_ff() * frac / 1000);
        let mut resumed = Simulator::from_snapshot(core, &original.snapshot());
        if flip {
            let comp = COMPONENTS[comp_idx];
            let g = core.component_geometry(comp);
            let coord = BitCoord::new(
                (row_sel % g.rows() as u64) as usize,
                (col_sel % g.cols() as u64) as usize,
            );
            original.inject_flips(comp, &[coord]);
            resumed.inject_flips(comp, &[coord]);
        }
        for _ in 0..steps {
            prop_assert_eq!(original.step(), resumed.step());
            prop_assert_eq!(original.cycle(), resumed.cycle());
            prop_assert_eq!(original.instructions(), resumed.instructions());
            prop_assert_eq!(original.output(), resumed.output());
        }
        prop_assert_eq!(original.snapshot(), resumed.snapshot());
    }
}
