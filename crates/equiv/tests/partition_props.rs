//! Property tests: for *arbitrary* probe event streams the compiled
//! partition is exact — disjoint, total, weights reconciling to the
//! population — class lookup / representative picking are coherent, and
//! the per-slot live index answers exactly as a per-class table would.

use mbu_ace::{FieldMap, ResidencyRecorder};
use mbu_equiv::Partition;
use mbu_sram::LivenessProbe;
use proptest::prelude::*;
use proptest::sample::Index;

const ROWS: usize = 3;
const COLS: usize = 12;
const CYCLES: u64 = 64;

/// (cycle, op, row, col, width): op 0 = write, 1 = read, 2 = invalidate.
/// Cycles up to `CYCLES + 8` deliberately exercise the past-run-end clamp;
/// rows/cols/widths overflow the geometry to exercise range guards.
fn event_strategy() -> impl Strategy<Value = Vec<(u64, u8, usize, usize, usize)>> {
    proptest::collection::vec(
        (
            0..(CYCLES + 8),
            0..3u8,
            0..(ROWS + 1),
            0..COLS,
            1..(COLS + 2),
        ),
        0..40,
    )
}

fn build(events: &[(u64, u8, usize, usize, usize)]) -> Partition {
    build_rows(ROWS, events)
}

/// The partition of `rows` rows of three fields each; events address rows
/// `0..=ROWS` only, so any row past that stays idle.
fn build_rows(rows: usize, events: &[(u64, u8, usize, usize, usize)]) -> Partition {
    let mut rec =
        ResidencyRecorder::with_segments(rows, FieldMap::Ranges(vec![0..5, 5..11, 11..12]));
    // Feed in cycle order, as a monotonic simulator would.
    let mut sorted = events.to_vec();
    sorted.sort_by_key(|e| e.0);
    for &(cycle, op, row, col, width) in &sorted {
        match op {
            0 => rec.on_write(cycle, row, col, width),
            1 => rec.on_read(cycle, row, col, width),
            _ => rec.on_invalidate(cycle, row, col, width),
        }
    }
    Partition::from_residency(&rec.finish(CYCLES)).expect("segments recorded, cycles > 0")
}

/// The live index as a per-class table: every live class's id and the
/// summed weight of the live classes up to and including it, in dense order.
fn per_class_index(p: &Partition) -> (Vec<u64>, Vec<u64>) {
    let mut total = 0;
    p.classes()
        .filter(|c| !c.kind.is_dead())
        .map(|c| {
            total += c.weight();
            (c.id, total)
        })
        .unzip()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn partition_is_disjoint_and_total(events in event_strategy()) {
        let p = build(&events);
        let cov = p.coverage();
        prop_assert_eq!(cov.holes, 0);
        prop_assert_eq!(cov.overlaps, 0);
        prop_assert!(cov.exact());
        prop_assert_eq!(cov.population, (ROWS * COLS) as u64 * CYCLES);
        prop_assert_eq!(cov.live_weight + cov.dead_weight, cov.population);
        prop_assert_eq!(cov.classes, p.class_count());
    }

    #[test]
    fn every_fault_site_maps_to_exactly_one_class(events in event_strategy()) {
        let p = build(&events);
        // Per-bit weights must sum to the run length, and each probed
        // (bit, cycle) must land inside the class that claims it.
        for row in 0..ROWS {
            for col in 0..COLS {
                let mut covered = 0u64;
                let mut cycle = 0u64;
                while cycle < CYCLES {
                    let c = p.class_of(row, col, cycle).expect("total partition");
                    prop_assert!(c.start <= cycle && cycle <= c.end);
                    prop_assert_eq!((c.row, c.col), (row, col));
                    covered += c.weight();
                    cycle = c.end + 1; // classes tile the timeline exactly
                }
                prop_assert_eq!(covered, CYCLES);
            }
        }
    }

    #[test]
    fn class_ids_roundtrip_and_representatives_are_members(
        events in event_strategy(),
        seed in any::<u64>(),
    ) {
        let p = build(&events);
        for c in p.classes() {
            prop_assert_eq!(p.class(c.id), Some(c));
            let rep = c.representative(seed);
            prop_assert!(rep >= c.start && rep <= c.end);
            prop_assert_eq!(p.class_of(c.row, c.col, rep).map(|k| k.id), Some(c.id));
        }
    }

    #[test]
    fn boundary_members_share_their_class_outcome_kind(events in event_strategy()) {
        // The flip at the exact terminating-event cycle belongs to the
        // segment that event closes (observed-by-first-event-at-or-after
        // convention): the first and last member of every class agree on
        // kind, and adjacent classes of one bit never merge silently.
        let p = build(&events);
        for c in p.classes() {
            let first = p.class_of(c.row, c.col, c.start).unwrap();
            let last = p.class_of(c.row, c.col, c.end).unwrap();
            prop_assert_eq!(first.id, c.id);
            prop_assert_eq!(last.id, c.id);
            prop_assert_eq!(first.kind, last.kind);
            if c.end + 1 < CYCLES {
                let next = p.class_of(c.row, c.col, c.end + 1).unwrap();
                prop_assert_eq!(next.start, c.end + 1, "no gap between classes");
                prop_assert!(next.id != c.id);
            }
        }
    }

    #[test]
    fn live_index_is_consistent_with_coverage(events in event_strategy()) {
        let p = build(&events);
        let cov = p.coverage();
        let idx = p.live_index();
        prop_assert_eq!(idx.len() as u64, cov.live_classes);
        prop_assert_eq!(idx.total_weight(), cov.live_weight);
        if idx.total_weight() > 0 {
            // Every sampled ticket resolves to a live class containing it.
            for ticket in [0, idx.total_weight() / 2, idx.total_weight() - 1] {
                let id = idx.pick(ticket).expect("in-range ticket");
                let c = p.class(id).expect("valid id");
                prop_assert!(!c.kind.is_dead());
            }
            prop_assert_eq!(idx.pick(idx.total_weight()), None);
        }
    }

    #[test]
    fn live_index_matches_a_per_class_table(
        events in event_strategy(),
        cuts in proptest::collection::vec((any::<Index>(), any::<Index>()), 1..8),
    ) {
        // Row ROWS + 1 receives no event: its three slots have no live
        // segment and must contribute no position and no ticket.
        let p = build_rows(ROWS + 2, &events);
        let (ids, cum) = per_class_index(&p);
        let idx = p.live_index();
        prop_assert_eq!(idx.len(), ids.len());
        prop_assert_eq!(idx.total_weight(), cum.last().copied().unwrap_or(0));
        prop_assert!(idx.ids().eq(ids.iter().copied()));
        for (i, &id) in ids.iter().enumerate() {
            prop_assert_eq!(idx.id(i), Some(id));
            prop_assert!(p.class(id).expect("valid id").row <= ROWS);
        }
        prop_assert_eq!(idx.id(ids.len()), None);
        // Both sides of every class boundary: a class's last ticket and the
        // next class's first.
        for (i, &c) in cum.iter().enumerate() {
            prop_assert_eq!(idx.pick(c - 1), Some(ids[i]));
            prop_assert_eq!(idx.pick(c), ids.get(i + 1).copied());
        }
        let below = |k: usize| if k == 0 { 0 } else { cum[k - 1] };
        for (a, b) in cuts {
            let (a, b) = (a.index(ids.len() + 1), b.index(ids.len() + 1));
            let (start, end) = (a.min(b), a.max(b));
            prop_assert_eq!(idx.range_weight(start..end), below(end) - below(start));
        }
    }
}
