//! Checkpointed **fast-forward fault injection**.
//!
//! Every injection run in a classic campaign re-simulates the fault-free
//! prefix `[0, inject_cycle)` from scratch — on average half the fault-free
//! execution time `T_ff` of pure overhead per run, and a *masked* run then
//! also simulates the whole suffix even though it is cycle-identical to the
//! golden run. This crate removes both costs:
//!
//! 1. **Snapshot store.** One extra golden run records complete, bit-exact
//!    checkpoints ([`mbu_cpu::SimSnapshot`]) every `interval` cycles —
//!    pipeline (register file with rename state, ROB, issue/decode queues,
//!    in-flight completions, fetch state), all SRAM arrays (cache data +
//!    tag + LRU, TLBs), copy-on-write DRAM pages, the shared page table,
//!    syscall output and the cycle/retire counters.
//! 2. **Fast-forward.** An injection run resumes from the nearest
//!    checkpoint at or before its injection cycle
//!    ([`Simulator::from_snapshot`]) instead of re-simulating the prefix.
//!    A checkpoint is enough on its own: the run loads no program and
//!    builds no page table, and it starts out sharing the checkpoint's
//!    copy-on-write arrays, so it pays only for the state it changes.
//! 3. **Reconvergence.** After the flip, the run pauses at each subsequent
//!    golden checkpoint and compares *reachable* state
//!    ([`mbu_cpu::Simulator::converged_with`]). The simulator is
//!    deterministic, so equality of all reachable state at cycle `c` proves
//!    every later cycle is identical to the golden run: the run is `Masked`
//!    with exactly the golden cycle count, and can stop immediately.
//!    A run heading for SDC/Crash/Timeout/Assert never compares equal, so
//!    those classes are untouched.
//!
//! Memory is accounted per checkpoint with copy-on-write sharing (DRAM pages
//! unchanged between checkpoints are charged once); a configurable hard cap
//! degrades gracefully by *thinning* — dropping every other checkpoint and
//! doubling the interval until the store fits.
//!
//! [`GoldenArtifacts`] bundles the golden run's output/counters with the
//! recorded store so a sweep can pay the golden-run cost once per
//! `(core, program)` pair and share the result — `Arc`-wrapped and read-only
//! — across every campaign targeting that workload.

#![forbid(unsafe_code)]

use std::sync::Arc;

use mbu_cpu::{CoreConfig, RunEnd, SimSnapshot, Simulator};
use mbu_isa::Program;
use mbu_sram::Snapshot;

/// How a [`SnapshotStore`] is recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotSpec {
    /// Checkpoint interval in cycles; `None` auto-tunes from the fault-free
    /// execution time (`max(T_ff / 64, 256)` — ~64 checkpoints per golden
    /// run, never denser than 256 cycles).
    pub interval: Option<u64>,
    /// Hard cap on retained checkpoint bytes; when recording would exceed
    /// it the store thins itself (drops every other checkpoint, doubling
    /// the effective interval) until it fits. `None` leaves the store
    /// bounded only by the checkpoint count.
    pub mem_cap_bytes: Option<u64>,
}

impl SnapshotSpec {
    /// The auto-tuned interval for a given fault-free execution time.
    pub fn auto_interval(fault_free_cycles: u64) -> u64 {
        (fault_free_cycles / 64).max(256)
    }

    /// The effective recording interval for this spec.
    pub fn effective_interval(&self, fault_free_cycles: u64) -> u64 {
        self.interval
            .unwrap_or_else(|| Self::auto_interval(fault_free_cycles))
            .max(1)
    }
}

/// Bookkeeping of a snapshot store, surfaced in campaign results and
/// reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotStats {
    /// Number of retained checkpoints.
    pub snapshots: u64,
    /// Effective checkpoint interval in cycles (after any thinning).
    pub interval: u64,
    /// Retained heap bytes, with copy-on-write DRAM pages shared between
    /// consecutive checkpoints charged once.
    pub retained_bytes: u64,
    /// How many times the memory cap forced the store to halve its density.
    pub thinned: u32,
    /// Injection runs that fast-forwarded from a checkpoint (campaign-level;
    /// zero in a freshly recorded store).
    pub restores: u64,
    /// Injection runs classified `Masked` early by a reconvergence check
    /// (campaign-level; zero in a freshly recorded store).
    pub early_masked: u64,
}

/// An in-memory store of golden-run checkpoints, ordered by cycle. The
/// first checkpoint is always cycle 0, so
/// [`SnapshotStore::nearest_at_or_before`] is total.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    snapshots: Vec<SimSnapshot>,
    interval: u64,
    retained_bytes: u64,
    thinned: u32,
    fault_free_cycles: u64,
}

impl SnapshotStore {
    /// Records a store by re-running the golden (fault-free) execution and
    /// checkpointing every `interval` cycles up to (exclusive)
    /// `fault_free_cycles`. The caller supplies `fault_free_cycles` from an
    /// already-executed golden run; the simulator is deterministic, so the
    /// recording run retraces it exactly.
    pub fn record_golden(
        core: CoreConfig,
        program: &Program,
        fault_free_cycles: u64,
        spec: SnapshotSpec,
    ) -> Self {
        let interval = spec.effective_interval(fault_free_cycles);
        let mut sim = Simulator::new(core, program);
        let mut snapshots = vec![sim.snapshot()];
        let mut at = interval;
        while at < fault_free_cycles {
            if sim.run_until_cycle(at).is_some() {
                break;
            }
            snapshots.push(sim.snapshot());
            at += interval;
        }
        let mut store = Self {
            snapshots,
            interval,
            retained_bytes: 0,
            thinned: 0,
            fault_free_cycles,
        };
        store.retained_bytes = store.recompute_retained();
        if let Some(cap) = spec.mem_cap_bytes {
            store.enforce_cap(cap);
        }
        store
    }

    fn recompute_retained(&self) -> u64 {
        let mut prev: Option<&SimSnapshot> = None;
        let mut total = 0u64;
        for s in &self.snapshots {
            total += s.retained_bytes(prev) as u64;
            prev = Some(s);
        }
        total
    }

    /// Thins the store (drop every other checkpoint, keeping cycle 0)
    /// until it fits under `cap` or only the cycle-0 checkpoint remains.
    fn enforce_cap(&mut self, cap: u64) {
        while self.retained_bytes > cap && self.snapshots.len() > 1 {
            let mut keep = true;
            self.snapshots.retain(|_| {
                let k = keep;
                keep = !keep;
                k
            });
            self.interval = self.interval.saturating_mul(2);
            self.thinned += 1;
            self.retained_bytes = self.recompute_retained();
        }
    }

    /// Number of retained checkpoints (always ≥ 1: cycle 0).
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether the store holds no checkpoints (never true for a recorded
    /// store; present for API completeness with `len`).
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// The effective checkpoint interval (after any thinning).
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The fault-free execution time the store was recorded against.
    pub fn fault_free_cycles(&self) -> u64 {
        self.fault_free_cycles
    }

    /// Retained heap bytes (copy-on-write pages charged once).
    pub fn retained_bytes(&self) -> u64 {
        self.retained_bytes
    }

    /// Store-level statistics (campaign-level counters zeroed).
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            snapshots: self.snapshots.len() as u64,
            interval: self.interval,
            retained_bytes: self.retained_bytes,
            thinned: self.thinned,
            restores: 0,
            early_masked: 0,
        }
    }

    /// The latest checkpoint at or before `cycle` (total: cycle 0 always
    /// exists).
    pub fn nearest_at_or_before(&self, cycle: u64) -> &SimSnapshot {
        let idx = self
            .snapshots
            .partition_point(|s| s.cycle() <= cycle)
            .saturating_sub(1);
        &self.snapshots[idx]
    }

    /// The exact golden checkpoint at `cycle`, if one was recorded there.
    pub fn golden_at(&self, cycle: u64) -> Option<&SimSnapshot> {
        let idx = self.snapshots.partition_point(|s| s.cycle() < cycle);
        self.snapshots.get(idx).filter(|s| s.cycle() == cycle)
    }

    /// The first checkpoint cycle strictly after `cycle` — the next
    /// reconvergence-check point for a run currently at `cycle`.
    pub fn next_check_after(&self, cycle: u64) -> Option<u64> {
        let idx = self.snapshots.partition_point(|s| s.cycle() <= cycle);
        self.snapshots.get(idx).map(|s| s.cycle())
    }

    /// The latest checkpoint cycle inside `[start, end]`, if any — the
    /// cheapest fault-equivalence class member to simulate: injecting at a
    /// checkpoint cycle makes the restore land exactly on the injection
    /// point, so the run costs only the post-injection suffix.
    pub fn nearest_cycle_in(&self, start: u64, end: u64) -> Option<u64> {
        let idx = self
            .snapshots
            .partition_point(|s| s.cycle() <= end)
            .checked_sub(1)?;
        let cycle = self.snapshots[idx].cycle();
        (cycle >= start).then_some(cycle)
    }
}

/// Everything a campaign derives from the fault-free execution of one
/// `(core, program)` pair: the golden output and counters, plus (optionally)
/// a recorded [`SnapshotStore`] for fast-forward injection.
///
/// Building the artifacts costs one golden run (two when a snapshot store is
/// requested — recording retraces the execution). A sweep that targets the
/// same workload with many components and fault multiplicities can build the
/// artifacts **once**, wrap them in an [`Arc`], and hand the same read-only
/// value to every campaign — collapsing O(components × fault-sizes) golden
/// runs per workload to O(1). The store inside is already `Arc`-shared, so
/// cloning the artifacts never copies a checkpoint.
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
}

impl GoldenArtifacts {
    /// Runs the fault-free execution of `program` under `core` and captures
    /// its artifacts. When `spec` is given, also records a snapshot store
    /// (one extra deterministic retrace of the run).
    ///
    /// Returns the run's [`RunEnd`] as the error when the golden run does
    /// not exit cleanly — the caller decides how to report that (this crate
    /// does not know about workloads or campaign errors).
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbu_cpu::RunEnd;
    use mbu_workloads::Workload;

    fn golden(core: CoreConfig, program: &Program) -> (u64, mbu_cpu::RunResult) {
        let r = Simulator::new(core, program).run(u64::MAX / 8);
        assert_eq!(r.end, RunEnd::Exited { code: 0 });
        (r.cycles, r)
    }

    #[test]
    fn store_brackets_every_injection_cycle() {
        let core = CoreConfig::cortex_a9_like();
        let p = Workload::Stringsearch.program();
        let (t_ff, _) = golden(core, &p);
        let store = SnapshotStore::record_golden(
            core,
            &p,
            t_ff,
            SnapshotSpec {
                interval: Some(1000),
                mem_cap_bytes: None,
            },
        );
        assert!(store.len() >= 2, "t_ff {t_ff} must span several intervals");
        assert_eq!(store.nearest_at_or_before(0).cycle(), 0);
        assert_eq!(store.nearest_at_or_before(999).cycle(), 0);
        assert_eq!(store.nearest_at_or_before(1000).cycle(), 1000);
        assert_eq!(store.nearest_at_or_before(t_ff * 10).cycle() % 1000, 0);
        assert_eq!(store.next_check_after(0), Some(1000));
        assert_eq!(store.next_check_after(1000), Some(2000));
        assert!(store.golden_at(1000).is_some());
        assert!(store.golden_at(999).is_none());
        assert!(store.retained_bytes() > 0);
        // Range lookup: the latest checkpoint inside a class's cycle span.
        assert_eq!(store.nearest_cycle_in(0, 999), Some(0));
        assert_eq!(store.nearest_cycle_in(500, 1500), Some(1000));
        assert_eq!(store.nearest_cycle_in(900, 2500), Some(2000));
        assert_eq!(
            store.nearest_cycle_in(1001, 1999),
            None,
            "no checkpoint strictly inside the span"
        );
    }

    #[test]
    fn restored_checkpoint_replays_to_identical_result() {
        let core = CoreConfig::cortex_a9_like();
        let p = Workload::Qsort.program();
        let (t_ff, full) = golden(core, &p);
        let store = SnapshotStore::record_golden(core, &p, t_ff, SnapshotSpec::default());
        let mid = store.nearest_at_or_before(t_ff / 2);
        assert!(mid.cycle() > 0, "auto interval must checkpoint mid-run");
        let replay = Simulator::from_snapshot(core, mid).run(u64::MAX / 8);
        assert_eq!(replay, full, "fast-forwarded replay must be bit-identical");
    }

    #[test]
    fn memory_cap_thins_gracefully() {
        let core = CoreConfig::cortex_a9_like();
        let p = Workload::Stringsearch.program();
        let (t_ff, _) = golden(core, &p);
        let spec = SnapshotSpec {
            interval: Some(512),
            mem_cap_bytes: None,
        };
        let unbounded = SnapshotStore::record_golden(core, &p, t_ff, spec);
        let cap = unbounded.retained_bytes() / 3;
        let capped = SnapshotStore::record_golden(
            core,
            &p,
            t_ff,
            SnapshotSpec {
                mem_cap_bytes: Some(cap),
                ..spec
            },
        );
        assert!(capped.retained_bytes() <= cap || capped.len() == 1);
        assert!(capped.stats().thinned >= 1, "cap must force thinning");
        assert!(capped.interval() > unbounded.interval());
        // Cycle 0 is always retained, and checkpoints stay on the doubled grid.
        assert_eq!(capped.nearest_at_or_before(0).cycle(), 0);
        assert!(capped
            .golden_at(capped.next_check_after(0).unwrap())
            .is_some());
    }

    #[test]
    fn artifacts_match_a_direct_golden_run() {
        let core = CoreConfig::cortex_a9_like();
        let p = Workload::Qsort.program();
        let (t_ff, full) = golden(core, &p);
        let spec = SnapshotSpec::default();
        let a = GoldenArtifacts::build(core, &p, Some(spec)).unwrap();
        assert_eq!(a.cycles(), t_ff);
        assert_eq!(a.output(), &full.output[..]);
        assert_eq!(a.exit_code(), 0);
        assert_eq!(a.instructions(), full.instructions);
        assert_eq!(a.program(), &p);
        assert_eq!(a.snapshot_spec(), Some(spec));
        let store = a.snapshot_store().expect("spec requested a store");
        assert_eq!(store.fault_free_cycles(), t_ff);
        let direct = SnapshotStore::record_golden(core, &p, t_ff, spec);
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
    fn auto_interval_scales_with_t_ff() {
        assert_eq!(SnapshotSpec::auto_interval(64_000), 1000);
        assert_eq!(SnapshotSpec::auto_interval(100), 256);
        let spec = SnapshotSpec {
            interval: Some(42),
            mem_cap_bytes: None,
        };
        assert_eq!(spec.effective_interval(1_000_000), 42);
    }
}
