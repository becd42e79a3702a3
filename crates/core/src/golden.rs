//! The golden (fault-free) reference every injection classifies against.
//!
//! [`GoldenArtifacts`] bundles what a campaign derives from the fault-free
//! execution of one `(core, program)` pair: the golden output and counters,
//! optionally a recorded [`SnapshotStore`] for fast-forward injection, and
//! the liveness oracle's verdicts for sampled campaigns.
//!
//! The verdicts are memoized per *campaign family*: the sampled campaigns
//! of one component that share a seed, a cluster and a run count. Run `i`
//! of every such campaign draws the same injection cycle and the same
//! cluster window, and differs only in how many of the window's cells it
//! flips (`MaskGenerator::window`). So one fault-free pass with the
//! component's probe attached ([`mbu_ace::dead_at`]) resolves every cell of
//! every run's window, and serves the 1-, 2- and 3-bit campaigns and every
//! run range of them. The pass runs on the first campaign that asks, never
//! in [`GoldenArtifacts::build`], and its memory is proportional to the
//! queries: one cycle, origin and 64-bit dead-cell mask per run.

use crate::campaign::run_generator;
use crate::mask::ClusterSpec;
use mbu_ace::dead_at;
use mbu_cpu::{CoreConfig, HwComponent, RunEnd, Simulator};
use mbu_isa::Program;
use mbu_snap::{SnapshotSpec, SnapshotStore};
use mbu_sram::BitCoord;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The sampled campaigns one window-liveness pass serves: those of one
/// component with equal seeds, clusters and run counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WindowKey {
    /// Target component.
    pub(crate) component: HwComponent,
    /// Campaign seed.
    pub(crate) seed: u64,
    /// Cluster window.
    pub(crate) cluster: ClusterSpec,
    /// Runs per campaign; the memo covers run indices `0..runs`.
    pub(crate) runs: usize,
}

/// The liveness oracle's verdicts for one campaign family: per run index,
/// the injection cycle, the cluster window's origin, and which cells of
/// the window are provably dead at that cycle.
#[derive(Debug)]
pub(crate) struct RunWindows {
    /// The window shape every run shares.
    window: ClusterSpec,
    /// Per run: injection cycle, window origin, and dead cells as a bitmask
    /// (bit `r · cols + c` for the window cell at row `r`, column `c`).
    runs: Vec<(u64, BitCoord, u64)>,
}

impl RunWindows {
    /// Draws every run's cycle and window, and resolves all their cells in
    /// one fault-free pass. `None` when a window has more than 64 cells or
    /// the pass fails: the campaigns then simulate every run, merely
    /// slower, never wrong.
    fn build(artifacts: &GoldenArtifacts, key: WindowKey) -> Option<Self> {
        if key.cluster.cells() > 64 {
            return None;
        }
        let geometry = artifacts.core.component_geometry(key.component);
        let mut window = key.cluster;
        let mut runs = Vec::with_capacity(key.runs);
        let mut queries = Vec::with_capacity(key.runs * key.cluster.cells());
        for run in 0..key.runs {
            let mut gen = run_generator(key.seed, key.cluster, run);
            let cycle = gen.injection_cycle(artifacts.cycles);
            let (origin, shape) = gen.window(geometry);
            window = shape;
            queries.extend((0..shape.cells()).map(|cell| {
                let coord = BitCoord::new(
                    origin.row + cell / shape.cols,
                    origin.col + cell % shape.cols,
                );
                (cycle, coord)
            }));
            runs.push((cycle, origin, 0));
        }
        let dead = dead_at(artifacts.core, &artifacts.program, key.component, &queries).ok()?;
        for (run, cells) in runs.iter_mut().zip(dead.chunks(window.cells())) {
            run.2 = cells
                .iter()
                .enumerate()
                .filter(|&(_, &dead)| dead)
                .fold(0, |mask, (cell, _)| mask | 1 << cell);
        }
        Some(Self { window, runs })
    }

    /// Whether flipping `coords` at `cycle` in run `run` is provably
    /// masked: `cycle` is the run's memoized injection cycle, and every
    /// flipped bit is a dead cell of the run's window. Any other site — a
    /// different cycle, a bit outside the window, a run past the memo —
    /// is not, whatever drew it.
    pub(crate) fn proves_masked(&self, run: usize, cycle: u64, coords: &[BitCoord]) -> bool {
        let Some(&(at, origin, dead)) = self.runs.get(run) else {
            return false;
        };
        at == cycle
            && !coords.is_empty()
            && coords.iter().all(|c| {
                match (c.row.checked_sub(origin.row), c.col.checked_sub(origin.col)) {
                    (Some(r), Some(col)) if r < self.window.rows && col < self.window.cols => {
                        dead >> (r * self.window.cols + col) & 1 == 1
                    }
                    _ => false,
                }
            })
    }
}

/// One family's verdicts, resolved at most once.
type WindowMemo = Arc<OnceLock<Option<Arc<RunWindows>>>>;

/// Everything a campaign derives from the fault-free execution of one
/// `(core, program)` pair: the golden output and counters, (optionally) a
/// recorded [`SnapshotStore`] for fast-forward injection, and the memoized
/// liveness-oracle verdicts of its sampled campaigns (module docs).
///
/// Building the artifacts costs one golden run (two when a snapshot store is
/// requested — recording retraces the execution). A sweep that targets the
/// same workload with many components and fault multiplicities can build the
/// artifacts **once**, wrap them in an [`Arc`], and hand the same read-only
/// value to every campaign — collapsing O(components × fault-sizes) golden
/// runs per workload to O(1). The store and the verdicts inside are
/// `Arc`-shared, so cloning the artifacts never copies a checkpoint, and a
/// clone reuses every liveness pass already made.
#[derive(Debug, Clone)]
pub struct GoldenArtifacts {
    core: CoreConfig,
    program: Program,
    output: Vec<u8>,
    exit_code: u32,
    cycles: u64,
    instructions: u64,
    snapshots: Option<Arc<SnapshotStore>>,
    spec: Option<SnapshotSpec>,
    windows: Arc<Mutex<Vec<(WindowKey, WindowMemo)>>>,
}

impl GoldenArtifacts {
    /// Runs the fault-free execution of `program` under `core` and captures
    /// its artifacts. When `spec` is given, also records a snapshot store
    /// (one extra deterministic retrace of the run).
    ///
    /// Returns the run's [`RunEnd`] as the error when the golden run does
    /// not exit cleanly — the caller decides how to report that.
    pub fn build(
        core: CoreConfig,
        program: &Program,
        spec: Option<SnapshotSpec>,
    ) -> Result<Self, RunEnd> {
        let r = Simulator::new(core, program).run(u64::MAX / 8);
        let exit_code = match r.end {
            RunEnd::Exited { code } => code,
            end => return Err(end),
        };
        let snapshots =
            spec.map(|s| Arc::new(SnapshotStore::record_golden(core, program, r.cycles, s)));
        Ok(Self {
            core,
            program: program.clone(),
            output: r.output,
            exit_code,
            cycles: r.cycles,
            instructions: r.instructions,
            snapshots,
            spec,
            windows: Arc::default(),
        })
    }

    /// The core configuration the golden run executed under.
    pub fn core(&self) -> &CoreConfig {
        &self.core
    }

    /// The program the golden run executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The fault-free output bytes.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// The fault-free exit code.
    pub fn exit_code(&self) -> u32 {
        self.exit_code
    }

    /// The fault-free execution time in cycles (`T_ff`).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions committed by the fault-free run.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The recorded snapshot store, if one was requested at build time.
    pub fn snapshot_store(&self) -> Option<&Arc<SnapshotStore>> {
        self.snapshots.as_ref()
    }

    /// The spec the snapshot store was recorded with, if any.
    pub fn snapshot_spec(&self) -> Option<SnapshotSpec> {
        self.spec
    }

    /// The liveness verdicts of the campaign family `key`, resolved by one
    /// fault-free pass the first time any campaign of the family asks.
    /// Concurrent callers of one family wait for that one pass. `None`
    /// when the pass could not be made (see [`RunWindows::build`]).
    pub(crate) fn run_windows(&self, key: WindowKey) -> Option<Arc<RunWindows>> {
        let memo = {
            let mut windows = self.windows.lock().unwrap_or_else(PoisonError::into_inner);
            match windows.iter().find(|(k, _)| *k == key) {
                Some((_, memo)) => Arc::clone(memo),
                None => {
                    let memo = WindowMemo::default();
                    windows.push((key, Arc::clone(&memo)));
                    memo
                }
            }
        };
        memo.get_or_init(|| RunWindows::build(self, key).map(Arc::new))
            .clone()
    }

    /// Liveness passes made so far: one per campaign family asked about.
    #[cfg(test)]
    pub(crate) fn liveness_passes(&self) -> usize {
        self.windows
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignConfig};
    use crate::classify::ClassCounts;
    use mbu_workloads::Workload;

    #[test]
    fn artifacts_match_a_direct_golden_run() {
        let core = CoreConfig::cortex_a9_like();
        let p = Workload::Qsort.program();
        let full = Simulator::new(core, &p).run(u64::MAX / 8);
        assert_eq!(full.end, RunEnd::Exited { code: 0 });
        let spec = SnapshotSpec::default();
        let a = GoldenArtifacts::build(core, &p, Some(spec)).unwrap();
        assert_eq!(a.cycles(), full.cycles);
        assert_eq!(a.output(), &full.output[..]);
        assert_eq!(a.exit_code(), 0);
        assert_eq!(a.instructions(), full.instructions);
        assert_eq!(a.program(), &p);
        assert_eq!(a.snapshot_spec(), Some(spec));
        let store = a.snapshot_store().expect("spec requested a store");
        assert_eq!(store.fault_free_cycles(), full.cycles);
        let direct = SnapshotStore::record_golden(core, &p, full.cycles, spec);
        assert_eq!(store.len(), direct.len());
        assert_eq!(store.interval(), direct.interval());
        // Cloning the artifacts shares (not copies) the checkpoint store.
        let b = a.clone();
        assert!(Arc::ptr_eq(
            a.snapshot_store().unwrap(),
            b.snapshot_store().unwrap()
        ));
    }

    #[test]
    fn artifacts_without_spec_skip_the_store() {
        let core = CoreConfig::cortex_a9_like();
        let p = Workload::Qsort.program();
        let a = GoldenArtifacts::build(core, &p, None).unwrap();
        assert!(a.snapshot_store().is_none());
        assert!(a.snapshot_spec().is_none());
        assert!(a.cycles() > 0);
    }

    #[test]
    fn one_liveness_pass_serves_every_cardinality_and_range() {
        let config = |faults| {
            CampaignConfig::new(Workload::Stringsearch, HwComponent::L2, faults)
                .runs(24)
                .seed(3)
                .threads(2)
                .use_liveness_oracle(true)
        };
        let artifacts = Campaign::new(config(1)).build_artifacts().unwrap();
        assert_eq!(artifacts.liveness_passes(), 0, "set-up makes no pass");
        let mut skips = 0;
        for faults in 1..=3 {
            let r = Campaign::new(config(faults))
                .try_run_range(0..24, &artifacts)
                .unwrap();
            skips += r.oracle_skips;
        }
        let split = Campaign::new(config(2));
        let mut halves = ClassCounts::new();
        for range in [0..10, 10..24] {
            halves.merge(&split.try_run_range(range, &artifacts).unwrap().counts);
        }
        assert_eq!(artifacts.liveness_passes(), 1, "one pass per family");
        assert_eq!(
            artifacts.clone().liveness_passes(),
            1,
            "clones share the memo"
        );
        assert!(skips > 0, "a mostly-dead L2 must be pruned");
        let whole = Campaign::new(config(2))
            .try_run_range(0..24, &artifacts)
            .unwrap();
        assert_eq!(halves, whole.counts, "ranges classify like the whole");
        // The reference path with the oracle off asks nothing.
        Campaign::new(config(1).use_liveness_oracle(false))
            .try_run_range(0..24, &artifacts)
            .unwrap();
        assert_eq!(artifacts.liveness_passes(), 1);
    }

    #[test]
    fn sites_off_the_memoized_cycle_or_window_are_never_pruned() {
        let all = (1 << 9) - 1;
        let windows = RunWindows {
            window: ClusterSpec::DEFAULT,
            // Run 1's centre cell (1, 1) is live.
            runs: vec![
                (100, BitCoord::new(10, 20), all),
                (200, BitCoord::new(0, 0), all & !(1 << 4)),
            ],
        };
        let inside = BitCoord::new(11, 21);
        assert!(windows.proves_masked(0, 100, &[inside]));
        assert!(!windows.proves_masked(0, 101, &[inside]), "later cycle");
        assert!(!windows.proves_masked(0, 99, &[inside]), "earlier cycle");
        for outside in [
            BitCoord::new(9, 20),
            BitCoord::new(13, 20),
            BitCoord::new(10, 19),
            BitCoord::new(10, 23),
        ] {
            assert!(
                !windows.proves_masked(0, 100, &[inside, outside]),
                "{outside} lies outside the window"
            );
        }
        assert!(
            !windows.proves_masked(2, 100, &[inside]),
            "run past the memo"
        );
        assert!(!windows.proves_masked(0, 100, &[]), "an empty mask");
        let corners = [BitCoord::new(0, 0), BitCoord::new(2, 2)];
        assert!(windows.proves_masked(1, 200, &corners));
        assert!(!windows.proves_masked(1, 200, &[corners[0], BitCoord::new(1, 1)]));
    }
}
