//! Provably-masked injection pruning from fault-free liveness.
//!
//! [`dead_at`] is the crate's one oracle. It answers one question for the
//! campaign driver, for a whole batch of injections in one fault-free run:
//! *is this bit dead at this injection cycle?* A fault is provably masked when every flipped bit is
//! dead — per the fault-free trace, fully overwritten before any read —
//! because then the injected run is cycle-for-cycle identical to the golden
//! run:
//!
//! 1. up to the injection cycle the runs are identical by construction;
//! 2. a flipped dead bit is overwritten (with data produced by the so-far
//!    identical execution) before anything reads it, so no architectural
//!    or timing state ever differs;
//! 3. by induction the runs stay identical through program end — same
//!    output, same exit, same cycle count.
//!
//! The answer is **conservative**: any uncertainty (a read or partial write
//! of the bit's field, an unmapped coordinate, a cycle past the run's end)
//! reports "possibly live" and the campaign falls through to full
//! simulation, so classifications are bit-identical with the oracle on or
//! off — only the wall-clock changes.

use crate::capture::{observe, AceStructure, CaptureError};
use crate::residency::{DeadAtProbe, FieldMap};
use mbu_cpu::{CoreConfig, HwComponent};
use mbu_isa::program::Program;
use mbu_sram::BitCoord;

/// Physical column interleaving `I` of `component`'s bit array (caches); 1
/// for structures whose physical and logical geometries coincide. The
/// injector flips logical `(row, bit)` at physical `(row / I, bit·I +
/// row % I)`; [`dead_at`] and the exhaustive plans both map through it.
pub fn interleave_of(core: &CoreConfig, component: HwComponent) -> usize {
    let interleave = match component {
        HwComponent::L1D => core.mem.l1d.interleave as usize,
        HwComponent::L1I => core.mem.l1i.interleave as usize,
        HwComponent::L2 => core.mem.l2.interleave as usize,
        HwComponent::RegFile | HwComponent::DTlb | HwComponent::ITlb => 1,
    };
    interleave.max(1)
}

/// Maps a physical injection coordinate to the logical `(row, bit)` the
/// probes report (inverse of the injector's interleave permutation:
/// `line = row·I + col mod I`, `bit = col / I`).
fn logical(coord: BitCoord, interleave: usize) -> (usize, usize) {
    (
        coord.row * interleave + coord.col % interleave,
        coord.col / interleave,
    )
}

/// The probe answering physical-coordinate `queries` on a structure of
/// `rows` logical rows split by `map`, with column interleave
/// `interleave`.
fn window_probe(
    rows: usize,
    map: FieldMap,
    interleave: usize,
    queries: &[(u64, BitCoord)],
) -> DeadAtProbe {
    DeadAtProbe::new(
        rows,
        map,
        queries.iter().map(|&(cycle, coord)| {
            let (row, bit) = logical(coord, interleave);
            (cycle, row, bit)
        }),
    )
}

/// One fault-free run of `program` with only `component`'s data array
/// observed: for each query — an injection cycle and a physical bit of the
/// array, as the injector flips it — whether that bit is provably dead at
/// that cycle. The answers come back in query order.
///
/// A query resolves at the first probe event on its bit's field at or
/// after its cycle, which is the first access that can see a bit flipped
/// at that cycle: the simulator stamps each event with the cycle it
/// executes in, and an injection at cycle `c` lands before cycle `c`
/// executes.
///
/// * A read, or a write that covers the field only partly, observes the
///   flip: the bit is **live**.
/// * A full overwrite erases the flip unobserved: **dead**.
/// * With no event before the run ends, the flip is never observed:
///   **dead**.
/// * Invalidations resolve nothing: the bits persist physically.
///
/// A query at or past the run's end, or outside the array, is never dead.
/// Events count at their exact cycles, so no dead gap between two live
/// spans of a field reads as live. The run holds only the queries and one
/// cursor per field of the array, never the array's whole history.
///
/// # Errors
///
/// [`CaptureError::RunFailed`] if the fault-free run does not exit cleanly.
pub fn dead_at(
    core: CoreConfig,
    program: &Program,
    component: HwComponent,
    queries: &[(u64, BitCoord)],
) -> Result<Vec<bool>, CaptureError> {
    let interleave = interleave_of(&core, component);
    let structure = AceStructure::for_component(component);
    let (probe, total_cycles) = observe(core, program, structure, |rows, map| {
        window_probe(rows, map, interleave, queries)
    })?;
    Ok(probe.finish(total_cycles))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbu_sram::LivenessProbe;

    const LINE: FieldMap = FieldMap::Chunks {
        chunk: 8,
        cols: 256,
    };

    /// Line 2's byte 0 is live over `[10, 90]` and overwritten at 95 in a
    /// 1,000-cycle run of a 4-line array; which of `queries` are dead.
    fn line_2_byte_0_live(interleave: usize, queries: &[(u64, BitCoord)]) -> Vec<bool> {
        let mut p = window_probe(4, LINE, interleave, queries);
        p.on_write(10, 2, 0, 8);
        p.on_read(90, 2, 0, 8);
        p.on_write(95, 2, 0, 8);
        p.finish(1000)
    }

    #[test]
    fn dead_everywhere_masks_live_does_not() {
        let live = BitCoord::new(2, 3); // byte 0 of line 2
        let dead = BitCoord::new(2, 100); // untouched byte of line 2
        assert_eq!(
            line_2_byte_0_live(1, &[(50, live), (200, live), (50, dead), (200, dead)]),
            [false, true, true, true],
            "the read byte is live until its read, dead after the overwrite \
             window; the untouched byte is dead throughout"
        );
    }

    #[test]
    fn injection_past_run_end_is_not_provable() {
        let dead = BitCoord::new(2, 100);
        assert_eq!(
            line_2_byte_0_live(1, &[(999, dead), (1000, dead), (5000, dead)]),
            [true, false, false]
        );
    }

    #[test]
    fn interleave_mapping_matches_injector() {
        // With I = 2: physical (row 1, col 1) → line 1·2 + 1 = 3, bit 0, and
        // physical (row 1, col 5) → line 3, bit 2 — both in line 3's byte 0.
        let queries = [
            (100, BitCoord::new(1, 1)),
            (100, BitCoord::new(1, 5)),
            (100, BitCoord::new(1, 0)),
        ];
        let mut p = window_probe(4, LINE, 2, &queries);
        p.on_write(10, 3, 0, 8);
        p.on_read(500, 3, 0, 8);
        assert_eq!(
            p.finish(1000),
            [false, false, true],
            "line 3 byte 0 is live, line 2 untouched"
        );
        assert_eq!(logical(BitCoord::new(1, 1), 2), (3, 0));
        assert_eq!(logical(BitCoord::new(5, 7), 1), (5, 7), "identity at I = 1");
    }
}
