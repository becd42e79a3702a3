//! Fault-equivalence partition of the (bit, cycle) injection space.
//!
//! A single-bit fault campaign samples from the population `bits ×
//! fault-free-cycles`. Most of those faults are provably equivalent: two
//! flips of the same bit whose injection cycles fall between the same pair
//! of consecutive access events share one outcome — the flipped bit is not
//! consulted until the next event, so both runs reach that event in
//! bit-identical states and stay identical from there (the pre-injection
//! prefix is golden either way). This crate turns the per-field
//! access-event boundaries captured by `mbu-ace`
//! ([`StructureResidency::slot_events`]) into an **exact partition** of the
//! fault space:
//!
//! * every (bit, cycle) pair belongs to exactly one [`FaultClass`];
//! * each class carries its *weight* (member count in cycles) and a
//!   [`ClassKind`] saying whether the class is provably `Masked` without
//!   simulation (dead tail / terminated by a full overwrite) or needs one
//!   representative run;
//! * [`Partition::coverage`] proves the partition is disjoint and total
//!   (no holes, no overlaps, weights sum to the population).
//!
//! Consumers: the exhaustive campaign mode in `mbu-gefin` simulates one
//! representative per live class and weight-multiplies the outcome
//! (provable 100% coverage, margin 0), and the class-weighted stratified
//! sampler draws proportionally to live-interval mass. Both reach the live
//! classes through [`LiveIndex`]: its dense order is the exhaustive unit
//! space, its weight tickets the sampler's draws.

#![forbid(unsafe_code)]

use mbu_ace::{SegmentEvent, SegmentKind, StructureResidency};
use mbu_sram::BitCoord;
use std::fmt;
use std::ops::Range;

/// Why a partition could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// The residency was captured without segment boundaries
    /// (use `ResidencyRecorder::with_segments` /
    /// `mbu_ace::capture_component_segments`).
    NoSegments,
    /// The recorded run spans zero cycles — the fault space is empty.
    ZeroCycles,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::NoSegments => {
                write!(f, "residency captured without segment boundaries")
            }
            PartitionError::ZeroCycles => write!(f, "zero-cycle run has no fault space"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// How a class's outcome is known.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassKind {
    /// No event ever touches the field after the segment starts: the flip
    /// is never observed — provably `Masked`, no simulation needed.
    DeadTail,
    /// The segment is terminated by a full overwrite: the flip is erased
    /// before any observation — provably `Masked`, no simulation needed.
    DeadOverwritten,
    /// The segment is terminated by an observation (read or partial
    /// write): one representative must be simulated.
    LiveObserved,
    /// The segment is terminated by an invalidation barrier: the bits may
    /// interact with unprobed metadata, so one representative must be
    /// simulated (never pruned).
    LiveBarrier,
}

impl ClassKind {
    /// Whether the class is provably `Masked` without simulation.
    pub fn is_dead(self) -> bool {
        matches!(self, ClassKind::DeadTail | ClassKind::DeadOverwritten)
    }
}

/// One cycle segment of a field slot's timeline (shared by all bits of the
/// field; each bit of the field gets its own [`FaultClass`] over it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    /// First member cycle (inclusive).
    start: u64,
    /// Last member cycle (inclusive). An injection at exactly the
    /// terminating event's cycle is observed by that event (the flip at
    /// cycle `c` is seen by the first event at cycle `>= c`).
    end: u64,
    kind: ClassKind,
}

/// Per-slot compiled segment list.
#[derive(Debug, Clone)]
struct SlotPartition {
    row: usize,
    /// Logical bit columns of the field.
    field: Range<usize>,
    segments: Vec<Segment>,
}

/// One equivalence class: a single logical bit over a cycle segment.
///
/// Every member (bit, cycle) with `cycle ∈ [start, end]` provably shares
/// one outcome — effect classification *and* run-length — so simulating
/// any one member decides the whole class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultClass {
    /// Dense id, `0 .. partition.class_count()`.
    pub id: u64,
    /// Logical row of the bit.
    pub row: usize,
    /// Logical bit column.
    pub col: usize,
    /// First member cycle (inclusive).
    pub start: u64,
    /// Last member cycle (inclusive).
    pub end: u64,
    /// How the class's outcome is known.
    pub kind: ClassKind,
}

impl FaultClass {
    /// Member count of the class, in cycles.
    pub fn weight(&self) -> u64 {
        self.end - self.start + 1
    }

    /// Deterministic representative injection cycle. `seed == 0` picks the
    /// segment midpoint; any other seed picks a seed-and-id-derived member.
    /// Either way the choice is a class member, and by class invariance
    /// every member yields the identical outcome — differential tests vary
    /// the seed to prove exactly that.
    pub fn representative(&self, seed: u64) -> u64 {
        let w = self.weight();
        let offset = if seed == 0 {
            w / 2
        } else {
            mix(seed, self.id) % w
        };
        self.start + offset
    }
}

/// splitmix64-style finalizer over (seed, class id); only used to spread
/// representative picks across a class, never for statistics.
fn mix(seed: u64, id: u64) -> u64 {
    let mut z = seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Proof that the partition is exact: disjoint (no overlaps) and total
/// (no holes), with class weights reconciling against the population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverageReport {
    /// Fault-free cycles of the captured run.
    pub total_cycles: u64,
    /// Bits of the structure (`rows × cols`).
    pub total_bits: u64,
    /// Fault population `total_bits × total_cycles` (saturating).
    pub population: u64,
    /// Total classes in the partition.
    pub classes: u64,
    /// Classes requiring simulation ([`ClassKind::is_dead`] is false).
    pub live_classes: u64,
    /// Provably-`Masked` classes.
    pub dead_classes: u64,
    /// Summed weight of live classes.
    pub live_weight: u64,
    /// Summed weight of dead classes.
    pub dead_weight: u64,
    /// Cycles covered by no class (must be 0 for an exact partition).
    pub holes: u64,
    /// Cycles covered by more than one class (must be 0).
    pub overlaps: u64,
}

impl CoverageReport {
    /// Whether the partition provably covers 100% of the fault space:
    /// no holes, no overlaps, and weights summing to the population.
    pub fn exact(&self) -> bool {
        self.holes == 0
            && self.overlaps == 0
            && self.live_weight.saturating_add(self.dead_weight) == self.population
    }

    /// Fraction of the population in live (must-simulate) classes.
    pub fn live_fraction(&self) -> f64 {
        if self.population == 0 {
            return 0.0;
        }
        self.live_weight as f64 / self.population as f64
    }
}

/// Exact equivalence partition of one structure's (bit, cycle) fault
/// space, in the structure's *logical* geometry (see [`physical_coord`]
/// for the injector-facing physical mapping).
#[derive(Debug, Clone)]
pub struct Partition {
    total_cycles: u64,
    rows: usize,
    cols: usize,
    fields_per_row: usize,
    slots: Vec<SlotPartition>,
    /// `class_base[s]` = first class id of slot `s`; one extra entry
    /// holding the total class count. Within a slot, ids are bit-major:
    /// `base + bit_offset × segments + segment_index`.
    class_base: Vec<u64>,
}

impl Partition {
    /// Compiles the partition from a residency captured with segment
    /// boundaries.
    ///
    /// # Errors
    ///
    /// [`PartitionError::NoSegments`] when the residency has no recorded
    /// boundaries; [`PartitionError::ZeroCycles`] when the run is empty.
    pub fn from_residency(res: &StructureResidency) -> Result<Self, PartitionError> {
        if !res.has_segments() {
            return Err(PartitionError::NoSegments);
        }
        let total_cycles = res.total_cycles();
        if total_cycles == 0 {
            return Err(PartitionError::ZeroCycles);
        }
        let map = res.field_map();
        let fields_per_row = map.fields_per_row();
        let mut slots = Vec::with_capacity(res.slot_count());
        let mut class_base = Vec::with_capacity(res.slot_count() + 1);
        let mut next_id = 0u64;
        for slot in 0..res.slot_count() {
            let row = slot / fields_per_row;
            let field = map.field_range(slot % fields_per_row);
            let events = res.slot_events(slot).expect("has_segments checked");
            let segments = compile_segments(events, total_cycles);
            class_base.push(next_id);
            next_id += segments.len() as u64 * field.len() as u64;
            slots.push(SlotPartition {
                row,
                field,
                segments,
            });
        }
        class_base.push(next_id);
        Ok(Self {
            total_cycles,
            rows: res.rows(),
            cols: res.cols(),
            fields_per_row,
            slots,
            class_base,
        })
    }

    /// Fault-free cycles of the captured run.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Logical rows of the structure.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical bit columns per row.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total classes in the partition.
    pub fn class_count(&self) -> u64 {
        *self.class_base.last().unwrap_or(&0)
    }

    /// The class with dense id `id`, or `None` past the end.
    pub fn class(&self, id: u64) -> Option<FaultClass> {
        if id >= self.class_count() {
            return None;
        }
        // Last slot whose base is <= id.
        let slot_idx = self.class_base.partition_point(|&b| b <= id) - 1;
        let slot = &self.slots[slot_idx];
        let local = id - self.class_base[slot_idx];
        let nsegs = slot.segments.len() as u64;
        let bit = (local / nsegs) as usize;
        let seg = slot.segments[(local % nsegs) as usize];
        Some(FaultClass {
            id,
            row: slot.row,
            col: slot.field.start + bit,
            start: seg.start,
            end: seg.end,
            kind: seg.kind,
        })
    }

    /// The unique class containing logical (row, col) at `cycle`, or
    /// `None` for out-of-range coordinates or cycles.
    pub fn class_of(&self, row: usize, col: usize, cycle: u64) -> Option<FaultClass> {
        if row >= self.rows || col >= self.cols || cycle >= self.total_cycles {
            return None;
        }
        let (slot_idx, bit) = self.locate(row, col)?;
        let slot = &self.slots[slot_idx];
        // Last segment starting at or before `cycle`; totality guarantees
        // it contains `cycle`.
        let seg_idx = slot.segments.partition_point(|s| s.start <= cycle) - 1;
        let seg = slot.segments[seg_idx];
        debug_assert!(seg.start <= cycle && cycle <= seg.end);
        let nsegs = slot.segments.len() as u64;
        let id = self.class_base[slot_idx] + bit as u64 * nsegs + seg_idx as u64;
        Some(FaultClass {
            id,
            row,
            col,
            start: seg.start,
            end: seg.end,
            kind: seg.kind,
        })
    }

    fn locate(&self, row: usize, col: usize) -> Option<(usize, usize)> {
        let base = row * self.fields_per_row;
        // Fields within a row are ordered by bit range; scan the row's few
        // fields for the one containing `col`.
        for (i, slot) in self.slots[base..base + self.fields_per_row]
            .iter()
            .enumerate()
        {
            if slot.field.contains(&col) {
                return Some((base + i, col - slot.field.start));
            }
        }
        None
    }

    /// Iterates every class in dense-id order.
    pub fn classes(&self) -> impl Iterator<Item = FaultClass> + '_ {
        self.slots.iter().enumerate().flat_map(move |(s, slot)| {
            let base = self.class_base[s];
            let nsegs = slot.segments.len() as u64;
            (0..slot.field.len()).flat_map(move |bit| {
                slot.segments
                    .iter()
                    .enumerate()
                    .map(move |(j, seg)| FaultClass {
                        id: base + bit as u64 * nsegs + j as u64,
                        row: slot.row,
                        col: slot.field.start + bit,
                        start: seg.start,
                        end: seg.end,
                        kind: seg.kind,
                    })
            })
        })
    }

    /// Iterates only the classes requiring simulation.
    pub fn live_classes(&self) -> impl Iterator<Item = FaultClass> + '_ {
        self.classes().filter(|c| !c.kind.is_dead())
    }

    /// Walks every slot's segment list and tallies the exactness proof.
    pub fn coverage(&self) -> CoverageReport {
        let total_bits = (self.rows * self.cols) as u64;
        let population = total_bits.saturating_mul(self.total_cycles);
        let mut live_classes = 0u64;
        let mut dead_classes = 0u64;
        let mut live_weight = 0u64;
        let mut dead_weight = 0u64;
        let mut holes = 0u64;
        let mut overlaps = 0u64;
        for slot in &self.slots {
            let bits = slot.field.len() as u64;
            let mut expect = 0u64; // next uncovered cycle
            for seg in &slot.segments {
                if seg.start > expect {
                    holes += (seg.start - expect) * bits;
                } else if seg.start < expect {
                    overlaps += (expect - seg.start) * bits;
                }
                let w = seg.end - seg.start + 1;
                if seg.kind.is_dead() {
                    dead_classes += bits;
                    dead_weight += w * bits;
                } else {
                    live_classes += bits;
                    live_weight += w * bits;
                }
                expect = seg.end + 1;
            }
            if expect < self.total_cycles {
                holes += (self.total_cycles - expect) * bits;
            }
        }
        CoverageReport {
            total_cycles: self.total_cycles,
            total_bits,
            population,
            classes: live_classes + dead_classes,
            live_classes,
            dead_classes,
            live_weight,
            dead_weight,
            holes,
            overlaps,
        }
    }

    /// Builds the dense live order and its weight index: the exhaustive
    /// plan's unit space and the stratified sampler's draw table. One pass
    /// over the segment lists; the index holds one entry per slot with a
    /// live segment and one per live segment, never one per live class.
    pub fn live_index(&self) -> LiveIndex {
        let mut index = LiveIndex {
            slots: Vec::new(),
            seg: Vec::new(),
            cum: Vec::new(),
        };
        let (mut pos, mut ticket) = (0u64, 0u64);
        for (s, slot) in self.slots.iter().enumerate() {
            let first = index.seg.len();
            let mut bit_weight = 0u64;
            for (j, seg) in slot.segments.iter().enumerate() {
                if !seg.kind.is_dead() {
                    bit_weight += seg.end - seg.start + 1;
                    index
                        .seg
                        .push(u32::try_from(j).expect("a slot holds fewer than 2^32 segments"));
                    index.cum.push(bit_weight);
                }
            }
            let live = (index.seg.len() - first) as u64;
            if live == 0 {
                continue;
            }
            index.slots.push(LiveSlot {
                pos,
                ticket,
                class_base: self.class_base[s],
                segments: slot.segments.len() as u64,
                first,
            });
            let bits = slot.field.len() as u64;
            pos += bits * live;
            ticket += bits * bit_weight;
        }
        index.slots.push(LiveSlot {
            pos,
            ticket,
            class_base: self.class_count(),
            segments: 0,
            first: index.seg.len(),
        });
        index
    }
}

/// Translates each per-slot event list into contiguous segments:
/// `seg_0 = [0, e_0]`, `seg_j = [e_{j-1}+1, e_j]`, plus a dead tail
/// `[e_last+1, T-1]` when events stop before run end (an event-free slot
/// is one whole dead tail). Events at or past `T` terminate the final
/// in-range span with their kind and contribute no further segments.
fn compile_segments(events: &[SegmentEvent], total_cycles: u64) -> Vec<Segment> {
    let mut segs = Vec::with_capacity(events.len() + 1);
    let mut next_start = 0u64;
    for ev in events {
        let end = ev.cycle.min(total_cycles - 1);
        if ev.cycle >= total_cycles && next_start > end {
            break; // span already closed by an earlier event
        }
        let kind = match ev.kind {
            SegmentKind::Overwritten => ClassKind::DeadOverwritten,
            SegmentKind::Barrier => ClassKind::LiveBarrier,
            SegmentKind::Observed => ClassKind::LiveObserved,
        };
        segs.push(Segment {
            start: next_start,
            end,
            kind,
        });
        next_start = end + 1;
        if next_start >= total_cycles {
            break;
        }
    }
    if next_start < total_cycles {
        segs.push(Segment {
            start: next_start,
            end: total_cycles - 1,
            kind: ClassKind::DeadTail,
        });
    }
    segs
}

/// One slot's run of the dense live order: its field's bits one after
/// another, each visiting the slot's live segments in order.
#[derive(Debug, Clone, Copy)]
struct LiveSlot {
    /// Dense position of the run's first class.
    pos: u64,
    /// First weight ticket of the run.
    ticket: u64,
    /// Class id of the slot's bit 0, segment 0.
    class_base: u64,
    /// Segments per bit of the slot: the id stride from one bit to the next.
    segments: u64,
    /// Start of the slot's live segments in [`LiveIndex`]'s flat vectors.
    first: usize,
}

/// The dense order of a partition's live classes — slot-major, bit-major,
/// live segments in order, so ids ascend — with its weight prefix sums.
///
/// Every bit of a field shares its slot's segment list, so the index keeps
/// one entry per slot with a live segment and one per live segment, not one
/// per live class: its size and build time scale with access events. Each
/// lookup is a binary search over the slots plus, for [`LiveIndex::pick`],
/// one within the slot's live segments.
#[derive(Debug, Clone)]
pub struct LiveIndex {
    /// Slots with a live segment, in slot order, then a closing entry whose
    /// `pos` and `ticket` are the totals and whose `first` is `seg.len()`.
    slots: Vec<LiveSlot>,
    /// Each live segment's index in its slot's segment list.
    seg: Vec<u32>,
    /// `cum[k]`: one bit's summed weight of its slot's live segments up to
    /// and including live segment `k`.
    cum: Vec<u64>,
}

impl LiveIndex {
    /// Number of live classes.
    pub fn len(&self) -> usize {
        self.totals().pos as usize
    }

    /// Whether there are no live classes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Summed weight of all live classes.
    pub fn total_weight(&self) -> u64 {
        self.totals().ticket
    }

    /// The class id at position `i` of the dense live order, or `None`
    /// past the end — one binary search over the slots.
    pub fn id(&self, i: usize) -> Option<u64> {
        if i >= self.len() {
            return None;
        }
        let s = self.slot_of(i as u64);
        let live = self.live_of(s).len() as u64;
        let local = i as u64 - self.slots[s].pos;
        Some(self.class_id(s, local / live, (local % live) as usize))
    }

    /// The live class id owning weight-ticket `ticket ∈
    /// [0, total_weight)`; classes win tickets proportionally to weight.
    /// Two binary searches: the slot, then the live segment within one bit.
    pub fn pick(&self, ticket: u64) -> Option<u64> {
        if ticket >= self.total_weight() {
            return None;
        }
        let s = self.slots.partition_point(|e| e.ticket <= ticket) - 1;
        let cum = self.live_of(s);
        let bit_weight = cum[cum.len() - 1];
        let local = ticket - self.slots[s].ticket;
        let j = cum.partition_point(|&c| c <= local % bit_weight);
        Some(self.class_id(s, local / bit_weight, j))
    }

    /// The live class ids in dense (ascending) order.
    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.slots.len() - 1).flat_map(move |s| {
            let live = self.live_of(s).len();
            let bits = (self.slots[s + 1].pos - self.slots[s].pos) / live as u64;
            (0..bits).flat_map(move |bit| (0..live).map(move |j| self.class_id(s, bit, j)))
        })
    }

    /// Summed weight of the dense live-index range `range` — one binary
    /// search over the slots per end. This is the population mass one
    /// class-range work unit of a distributed exhaustive sweep covers,
    /// letting a planner budget units by weight without walking classes.
    ///
    /// # Panics
    ///
    /// Panics if `range.end > len()` (as slice indexing would).
    pub fn range_weight(&self, range: Range<usize>) -> u64 {
        assert!(range.end <= self.len(), "range beyond live index");
        if range.start >= range.end {
            return 0;
        }
        self.weight_before(range.end as u64) - self.weight_before(range.start as u64)
    }

    /// Summed weight of dense positions `0..i`, for `i ≤ len()`.
    fn weight_before(&self, i: u64) -> u64 {
        let s = self.slot_of(i);
        let slot = self.slots[s];
        if s + 1 == self.slots.len() {
            return slot.ticket;
        }
        let cum = self.live_of(s);
        let live = cum.len() as u64;
        let local = i - slot.pos;
        let below = match (local % live) as usize {
            0 => 0,
            j => cum[j - 1],
        };
        slot.ticket + local / live * cum[cum.len() - 1] + below
    }

    /// The entry whose run holds dense position `i` (the closing entry
    /// for `i == len()`).
    fn slot_of(&self, i: u64) -> usize {
        self.slots.partition_point(|e| e.pos <= i) - 1
    }

    /// Slot entry `s`'s per-bit cumulative live weights.
    fn live_of(&self, s: usize) -> &[u64] {
        &self.cum[self.slots[s].first..self.slots[s + 1].first]
    }

    /// The id of slot entry `s`'s `j`-th live segment on bit `bit`.
    fn class_id(&self, s: usize, bit: u64, j: usize) -> u64 {
        let slot = &self.slots[s];
        slot.class_base + bit * slot.segments + u64::from(self.seg[slot.first + j])
    }

    fn totals(&self) -> &LiveSlot {
        self.slots
            .last()
            .expect("the closing entry is always present")
    }
}

/// Forward map from a partition's logical `(row, col)` to the physical
/// [`BitCoord`] the injector flips, under a column interleave factor `I`
/// (`mbu_ace::interleave_of`): `phys.row = row / I`,
/// `phys.col = col·I + row mod I`. With `I == 1` (register file, TLBs)
/// the coordinates coincide.
pub fn physical_coord(row: usize, col: usize, interleave: usize) -> BitCoord {
    let i = interleave.max(1);
    BitCoord::new(row / i, col * i + row % i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbu_ace::{FieldMap, ResidencyRecorder};
    use mbu_sram::LivenessProbe;

    /// 2 rows × one 8-bit field; row 0: overwrite@10, read@20, tail.
    fn small() -> Partition {
        let mut r = ResidencyRecorder::with_segments(2, FieldMap::Row { cols: 8 });
        r.on_write(10, 0, 0, 8);
        r.on_read(20, 0, 0, 8);
        Partition::from_residency(&r.finish(100)).unwrap()
    }

    #[test]
    fn segments_split_at_every_event_and_tail_is_dead() {
        let p = small();
        // Row 0: [0,10] DeadOverwritten, [11,20] LiveObserved, [21,99]
        // DeadTail — 3 segments × 8 bits; row 1: 1 dead tail × 8 bits.
        assert_eq!(p.class_count(), 3 * 8 + 8);
        let c = p.class_of(0, 3, 15).unwrap();
        assert_eq!((c.start, c.end), (11, 20));
        assert_eq!(c.kind, ClassKind::LiveObserved);
        assert_eq!(c.weight(), 10);
        let c = p.class_of(0, 3, 10).unwrap();
        assert_eq!(
            c.kind,
            ClassKind::DeadOverwritten,
            "flip at the overwrite cycle is erased by it"
        );
        assert_eq!((c.start, c.end), (0, 10));
        let c = p.class_of(0, 3, 21).unwrap();
        assert_eq!(c.kind, ClassKind::DeadTail);
        assert_eq!((c.start, c.end), (21, 99));
        let c = p.class_of(1, 0, 50).unwrap();
        assert_eq!((c.start, c.end, c.kind), (0, 99, ClassKind::DeadTail));
    }

    #[test]
    fn class_lookup_roundtrips_and_ids_are_dense() {
        let p = small();
        let mut seen = vec![false; p.class_count() as usize];
        for c in p.classes() {
            assert!(!seen[c.id as usize], "duplicate id {}", c.id);
            seen[c.id as usize] = true;
            assert_eq!(p.class(c.id), Some(c), "id lookup roundtrip");
            assert_eq!(
                p.class_of(c.row, c.col, c.start),
                Some(c),
                "start member maps back"
            );
            assert_eq!(
                p.class_of(c.row, c.col, c.end),
                Some(c),
                "end member maps back"
            );
        }
        assert!(seen.iter().all(|&s| s), "ids are dense 0..count");
        assert_eq!(p.class(p.class_count()), None);
        assert_eq!(p.class_of(0, 0, 100), None, "cycle past run end");
        assert_eq!(p.class_of(2, 0, 0), None, "row out of range");
        assert_eq!(p.class_of(0, 8, 0), None, "col out of range");
    }

    #[test]
    fn coverage_is_exact_and_partitions_the_population() {
        let p = small();
        let cov = p.coverage();
        assert!(cov.exact());
        assert_eq!(cov.holes, 0);
        assert_eq!(cov.overlaps, 0);
        assert_eq!(cov.population, 2 * 8 * 100);
        assert_eq!(cov.live_weight, 8 * 10, "row 0's [11,20] × 8 bits");
        assert_eq!(cov.dead_weight, cov.population - 80);
        assert_eq!(cov.classes, cov.live_classes + cov.dead_classes);
        assert_eq!(cov.live_classes, 8);
    }

    #[test]
    fn representative_is_a_member_and_seed_zero_is_midpoint() {
        let p = small();
        for c in p.classes() {
            let mid = c.representative(0);
            assert_eq!(mid, c.start + c.weight() / 2);
            for seed in [1u64, 2, 0xDEAD_BEEF, u64::MAX] {
                let rep = c.representative(seed);
                assert!(rep >= c.start && rep <= c.end, "member for any seed");
                assert_eq!(rep, c.representative(seed), "deterministic");
                assert_eq!(
                    p.class_of(c.row, c.col, rep).unwrap().id,
                    c.id,
                    "representative maps back to its class"
                );
            }
        }
    }

    #[test]
    fn barrier_segments_are_live() {
        let mut r = ResidencyRecorder::with_segments(1, FieldMap::Row { cols: 4 });
        r.on_write(10, 0, 0, 4);
        r.on_invalidate(30, 0, 0, 4);
        let p = Partition::from_residency(&r.finish(50)).unwrap();
        let c = p.class_of(0, 0, 20).unwrap();
        assert_eq!(c.kind, ClassKind::LiveBarrier);
        assert_eq!((c.start, c.end), (11, 30));
        assert!(!c.kind.is_dead());
    }

    #[test]
    fn live_index_picks_proportionally_to_weight() {
        let p = small();
        let idx = p.live_index();
        assert_eq!(idx.len(), 8, "one live class per bit of row 0's field");
        assert_eq!(idx.total_weight(), 80);
        // Tickets 0..9 land in the first live class, 10..19 the second, ...
        let first = idx.pick(0).unwrap();
        assert_eq!(idx.pick(9).unwrap(), first);
        assert_ne!(idx.pick(10).unwrap(), first);
        assert_eq!(idx.pick(80), None, "ticket past total weight");
        for t in [0u64, 13, 79] {
            let id = idx.pick(t).unwrap();
            let c = p.class(id).unwrap();
            assert!(!c.kind.is_dead());
        }
    }

    #[test]
    fn range_weight_matches_prefix_sums_over_every_subrange() {
        let p = small();
        let idx = p.live_index();
        // 8 live classes, 10 cycles each.
        assert_eq!(idx.range_weight(0..idx.len()), idx.total_weight());
        assert_eq!(idx.range_weight(0..0), 0);
        assert_eq!(idx.range_weight(3..3), 0);
        for start in 0..=idx.len() {
            for end in start..=idx.len() {
                assert_eq!(
                    idx.range_weight(start..end),
                    (end - start) as u64 * 10,
                    "uniform-weight range [{start}, {end})"
                );
            }
        }
        // Disjoint splits always sum to the whole.
        for mid in 0..=idx.len() {
            assert_eq!(
                idx.range_weight(0..mid) + idx.range_weight(mid..idx.len()),
                idx.total_weight()
            );
        }
    }

    #[test]
    fn event_free_partition_is_one_dead_tail_per_slot() {
        let r = ResidencyRecorder::with_segments(3, FieldMap::Chunks { chunk: 4, cols: 8 });
        let p = Partition::from_residency(&r.finish(40)).unwrap();
        assert_eq!(p.class_count(), 3 * 2 * 4, "slots × field bits");
        let cov = p.coverage();
        assert!(cov.exact());
        assert_eq!(cov.live_classes, 0);
        assert_eq!(cov.dead_weight, cov.population);
        assert!(p.live_index().is_empty());
    }

    #[test]
    fn event_at_cycle_zero_and_run_end_edge_cases() {
        let mut r = ResidencyRecorder::with_segments(1, FieldMap::Row { cols: 2 });
        r.on_write(0, 0, 0, 2); // event at cycle 0: seg [0,0]
        r.on_read(9, 0, 0, 2); // event at last cycle: no tail
        let p = Partition::from_residency(&r.finish(10)).unwrap();
        let cov = p.coverage();
        assert!(cov.exact());
        let c = p.class_of(0, 0, 0).unwrap();
        assert_eq!((c.start, c.end, c.weight()), (0, 0, 1));
        assert_eq!(c.kind, ClassKind::DeadOverwritten);
        let c = p.class_of(0, 0, 9).unwrap();
        assert_eq!((c.start, c.end), (1, 9));
        assert_eq!(c.kind, ClassKind::LiveObserved);
        assert_eq!(p.class_count(), 2 * 2);
    }

    #[test]
    fn events_past_run_end_are_clamped() {
        let mut r = ResidencyRecorder::with_segments(1, FieldMap::Row { cols: 1 });
        r.on_write(5, 0, 0, 1);
        r.on_read(99, 0, 0, 1); // past finish(20): clamps to [6,19]
        let p = Partition::from_residency(&r.finish(20)).unwrap();
        let cov = p.coverage();
        assert!(cov.exact());
        let c = p.class_of(0, 0, 15).unwrap();
        assert_eq!((c.start, c.end), (6, 19));
        assert_eq!(c.kind, ClassKind::LiveObserved, "clamped event keeps kind");
    }

    #[test]
    fn errors_for_segmentless_or_empty_runs() {
        let r = ResidencyRecorder::new(1, FieldMap::Row { cols: 4 });
        assert_eq!(
            Partition::from_residency(&r.finish(10)).err(),
            Some(PartitionError::NoSegments)
        );
        let r = ResidencyRecorder::with_segments(1, FieldMap::Row { cols: 4 });
        assert_eq!(
            Partition::from_residency(&r.finish(0)).err(),
            Some(PartitionError::ZeroCycles)
        );
    }

    #[test]
    fn physical_coord_matches_oracle_inverse() {
        // I = 2: logical (row 3, bit 1) → phys row 1, col 1·2 + 3%2 = 3.
        let c = physical_coord(3, 1, 2);
        assert_eq!((c.row, c.col), (1, 3));
        // Inverse (oracle::logical): row = 1·2 + 3%2 = 3, bit = 3/2 = 1. ✓
        let c = physical_coord(5, 7, 1);
        assert_eq!((c.row, c.col), (5, 7), "identity at I = 1");
        let c = physical_coord(5, 7, 0);
        assert_eq!((c.row, c.col), (5, 7), "I = 0 treated as 1");
    }
}
