//! Allocation gate for the injection hot path.
//!
//! A counting global allocator tallies the heap allocations (fresh blocks
//! and reallocations) of the *calling thread* only, so every count here is
//! exact and deterministic however many tests run beside it.
//!
//! * Once its machine is built, a golden run of any workload makes at most
//!   [`GOLDEN_RUN_MAX`] allocations in total: output growth, first touches
//!   of DRAM pages. A pipeline that allocated per simulated cycle (a byte
//!   buffer per fetch, load or store, a source list per dispatch) makes one
//!   or more per cycle, hundreds of thousands per run.
//! * Resuming a machine from any recorded golden checkpoint
//!   ([`Simulator::from_snapshot`]) makes at most [`FROM_SNAPSHOT_MAX`]:
//!   the checkpoint's copy-on-write arrays are shared, not copied.

use mbu_cpu::{CoreConfig, RunEnd, Simulator};
use mbu_snap::{SnapshotSpec, SnapshotStore};
use mbu_workloads::Workload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocation budget of one whole golden run, machine construction excluded.
const GOLDEN_RUN_MAX: u64 = 16;
/// Allocation budget of one [`Simulator::from_snapshot`].
const FROM_SNAPSHOT_MAX: u64 = 32;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn count() {
        // `try_with`: a thread being torn down has no counter left to bump.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local `Cell`, which neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn golden_runs_do_not_allocate_per_cycle() {
    let core = CoreConfig::cortex_a9_like();
    for w in Workload::ALL {
        let mut sim = Simulator::new(core, w.shared_program());
        let (end, n) = allocations_during(|| sim.run_until_cycle(u64::MAX / 8));
        assert_eq!(end, Some(RunEnd::Exited { code: 0 }), "{w}");
        assert!(
            n <= GOLDEN_RUN_MAX,
            "{w}: the golden run of {} cycles made {n} heap allocations (budget {GOLDEN_RUN_MAX})",
            sim.cycle()
        );
    }
}

#[test]
fn resuming_from_any_checkpoint_allocates_little() {
    let core = CoreConfig::cortex_a9_like();
    for w in Workload::ALL {
        let program = w.shared_program();
        let t_ff = Simulator::new(core, program).run(u64::MAX / 8).cycles;
        let store = SnapshotStore::record_golden(core, program, t_ff, SnapshotSpec::default());
        let mut cycle = 0;
        while cycle < t_ff {
            let checkpoint = store.nearest_at_or_before(cycle);
            let (sim, n) = allocations_during(|| Simulator::from_snapshot(core, checkpoint));
            assert_eq!(sim.cycle(), checkpoint.cycle());
            assert!(
                n <= FROM_SNAPSHOT_MAX,
                "{w}: resuming at cycle {} made {n} heap allocations (budget {FROM_SNAPSHOT_MAX})",
                checkpoint.cycle()
            );
            cycle += store.interval();
        }
    }
}
