//! Per-field liveness from a structure's probe event stream.
//!
//! A field (a group of fate-sharing bits) is *live* from a defining write
//! to the **last read** of that value before its next full overwrite, and
//! dead everywhere else. Two observers implement [`LivenessProbe`] and fold
//! one storage array's write/read/invalidate stream under that rule:
//!
//! * [`ResidencyRecorder`] tallies the exact live bit-cycles — the paper's
//!   ACE framing (Mukherjee et al.): un-ACE cycles are exactly the dead
//!   ones, so
//!
//!   ```text
//!   analytical AVF = live-bit-cycles / (total bits × total cycles)
//!   ```
//!
//!   — and, on request, every per-field access-event boundary, the
//!   fault-equivalence segmentation `mbu-equiv` partitions;
//! * a point-query probe answers, for the campaign oracle
//!   ([`crate::oracle::dead_at`]), whether a bit is dead at a cycle.
//!
//! Conservatism rules (the campaign oracle must never call a live bit dead):
//!
//! * a write that only *partially* covers a field is treated as a read —
//!   the field's old value may survive in the untouched bits;
//! * a read of any bit of a field marks the whole field read (fate-sharing);
//! * a field read before any recorded write is live from cycle 0 (initial
//!   contents);
//! * invalidations are advisory only — the bits physically persist, and a
//!   later read without an intervening write would still observe them, so
//!   invalidation never ends liveness early.

use mbu_sram::LivenessProbe;
use std::any::Any;
use std::ops::Range;

/// How a row's bit columns partition into fate-sharing fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldMap {
    /// The whole row is one field (e.g. a 32-bit physical register).
    Row {
        /// Bits per row.
        cols: usize,
    },
    /// The row splits into equal-width chunks (e.g. a cache line tracked
    /// per byte: `chunk = 8`, `cols = 256`).
    Chunks {
        /// Bits per chunk; must divide `cols`.
        chunk: usize,
        /// Bits per row.
        cols: usize,
    },
    /// Explicit field ranges covering `0..cols` without gaps (e.g. the TLB
    /// entry's perm / PPN / VPN / valid fields).
    Ranges(Vec<Range<usize>>),
}

impl FieldMap {
    /// Total bit columns per row.
    pub fn cols(&self) -> usize {
        match self {
            FieldMap::Row { cols } => *cols,
            FieldMap::Chunks { cols, .. } => *cols,
            FieldMap::Ranges(ranges) => ranges.last().map(|r| r.end).unwrap_or(0),
        }
    }

    /// Number of fields per row.
    pub fn fields_per_row(&self) -> usize {
        match self {
            FieldMap::Row { .. } => 1,
            FieldMap::Chunks { chunk, cols } => cols / chunk,
            FieldMap::Ranges(ranges) => ranges.len(),
        }
    }

    /// The field index a bit column belongs to.
    pub fn field_of(&self, col: usize) -> usize {
        match self {
            FieldMap::Row { .. } => 0,
            FieldMap::Chunks { chunk, .. } => col / chunk,
            FieldMap::Ranges(ranges) => ranges
                .iter()
                .position(|r| r.contains(&col))
                .unwrap_or(ranges.len().saturating_sub(1)),
        }
    }

    /// The bit range of a field.
    pub fn field_range(&self, field: usize) -> Range<usize> {
        match self {
            FieldMap::Row { cols } => 0..*cols,
            FieldMap::Chunks { chunk, .. } => field * chunk..(field + 1) * chunk,
            FieldMap::Ranges(ranges) => ranges[field].clone(),
        }
    }

    /// Field indices overlapped by the non-empty bit range
    /// `[col, col + width)` of a row.
    fn touched(&self, col: usize, width: usize) -> Range<usize> {
        let last = self.cols().saturating_sub(1);
        self.field_of(col.min(last))..self.field_of((col + width - 1).min(last)) + 1
    }

    /// Whether the bit range `[col, col + width)` covers all of `field`.
    fn covers(&self, field: usize, col: usize, width: usize) -> bool {
        let r = self.field_range(field);
        col <= r.start && col + width >= r.end
    }
}

/// How a recorded access event terminates the fault-equivalence segment
/// that precedes it (see [`StructureResidency::slot_events`]).
///
/// Two flips of the same bit whose injection cycles fall strictly between
/// the same pair of consecutive access events are provably equivalent: the
/// flipped bit is not consulted until the next event, so both runs reach
/// that event in bit-identical states and share one outcome. The event
/// *kind* additionally tells which segments are provably `Masked` without
/// simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SegmentKind {
    /// The event *fully overwrites* the field: a flip anywhere in the
    /// preceding segment is erased before any observation — provably
    /// masked, same soundness argument as the liveness oracle.
    Overwritten,
    /// The event is an advisory invalidation (or an unordered same-cycle
    /// mix of invalidate + overwrite): it may mutate unprobed metadata, so
    /// the preceding segment is a real class but cannot be pruned.
    Barrier,
    /// The event observes the field (a read, or a partial write that
    /// preserves old bits): the preceding segment's outcome requires
    /// simulation of one representative.
    Observed,
}

impl SegmentKind {
    /// Merges two same-cycle events on one field. Intra-cycle event order
    /// is not recorded, so the merge must be conservative: any observation
    /// dominates (the flip may have been consumed), otherwise any barrier
    /// dominates (the overwrite may have been undone or reordered).
    fn merge(self, other: SegmentKind) -> SegmentKind {
        self.max(other)
    }
}

/// One access-event boundary of a field's fault-equivalence segmentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentEvent {
    /// The cycle the event was observed at.
    pub cycle: u64,
    /// How the event terminates the segment preceding it.
    pub kind: SegmentKind,
}

/// Per-field liveness state of the current value.
#[derive(Debug, Clone, Copy)]
struct FieldState {
    /// Cycle the current value was (fully) written; 0 for initial contents.
    written_at: u64,
    /// Last cycle the current value was read.
    last_read: u64,
    /// Whether the current value has been read at all.
    has_read: bool,
}

impl FieldState {
    fn fresh(now: u64) -> Self {
        Self {
            written_at: now,
            last_read: 0,
            has_read: false,
        }
    }
}

/// Records one structure's event stream into its exact live bit-cycles.
#[derive(Debug)]
pub struct ResidencyRecorder {
    map: FieldMap,
    rows: usize,
    states: Vec<FieldState>,
    /// Exact live bit-cycles over all fields.
    live_bit_cycles: u64,
    /// Advisory invalidation events seen (statistic only; see module docs).
    invalidates: u64,
    events: u64,
    /// Per-slot sorted access-event boundaries, recorded only when the
    /// recorder was built with [`ResidencyRecorder::with_segments`].
    segments: Option<Vec<Vec<SegmentEvent>>>,
}

impl ResidencyRecorder {
    /// Creates a recorder for a `rows × map.cols()` structure.
    pub fn new(rows: usize, map: FieldMap) -> Self {
        let nfields = rows * map.fields_per_row();
        Self {
            map,
            rows,
            states: vec![FieldState::fresh(0); nfields],
            live_bit_cycles: 0,
            invalidates: 0,
            events: 0,
            segments: None,
        }
    }

    /// Like [`ResidencyRecorder::new`], but additionally records every
    /// per-field access-event boundary ([`SegmentEvent`]) so the finished
    /// [`StructureResidency`] can expose the exact fault-equivalence
    /// segmentation of the (bit, cycle) space.
    pub fn with_segments(rows: usize, map: FieldMap) -> Self {
        let nfields = rows * map.fields_per_row();
        let mut r = Self::new(rows, map);
        r.segments = Some(vec![Vec::new(); nfields]);
        r
    }

    /// Records one segment-boundary event on `slot`. Events arrive in
    /// nondecreasing cycle order from a monotonic simulator; same-cycle
    /// events merge conservatively, and a (never expected) out-of-order
    /// event is inserted at its sorted position rather than corrupting the
    /// boundary list.
    fn push_event(&mut self, slot: usize, now: u64, kind: SegmentKind) {
        let Some(segments) = &mut self.segments else {
            return;
        };
        let v = &mut segments[slot];
        match v.last_mut() {
            Some(last) if last.cycle == now => last.kind = last.kind.merge(kind),
            Some(last) if last.cycle > now => {
                let i = v.partition_point(|e| e.cycle < now);
                if i < v.len() && v[i].cycle == now {
                    v[i].kind = v[i].kind.merge(kind);
                } else {
                    v.insert(i, SegmentEvent { cycle: now, kind });
                }
            }
            _ => v.push(SegmentEvent { cycle: now, kind }),
        }
    }

    /// Adds the live span of `slot`'s current value, from its defining
    /// write through its last read, to the tally.
    fn close_value(&mut self, slot: usize, field: usize) {
        let st = self.states[slot];
        if st.has_read && st.last_read >= st.written_at {
            let bits = self.map.field_range(field).len() as u64;
            self.live_bit_cycles += (st.last_read - st.written_at + 1) * bits;
        }
    }

    fn mark_read(&mut self, now: u64, row: usize, col: usize, width: usize) {
        if row >= self.rows || width == 0 {
            return;
        }
        let base = row * self.map.fields_per_row();
        for field in self.map.touched(col, width) {
            let st = &mut self.states[base + field];
            st.last_read = st.last_read.max(now);
            st.has_read = true;
            self.push_event(base + field, now, SegmentKind::Observed);
        }
    }

    /// Closes every field's current value and freezes the recording.
    pub fn finish(mut self, total_cycles: u64) -> StructureResidency {
        for slot in 0..self.states.len() {
            let field = slot % self.map.fields_per_row();
            self.close_value(slot, field);
        }
        let total_bits = (self.rows * self.map.cols()) as u64;
        StructureResidency {
            map: self.map,
            rows: self.rows,
            live_bit_cycles: self.live_bit_cycles,
            total_bits,
            total_cycles,
            invalidates: self.invalidates,
            events: self.events,
            segments: self.segments,
        }
    }
}

impl LivenessProbe for ResidencyRecorder {
    fn on_write(&mut self, now: u64, row: usize, col: usize, width: usize) {
        if row >= self.rows || width == 0 {
            return;
        }
        self.events += 1;
        let base = row * self.map.fields_per_row();
        for field in self.map.touched(col, width) {
            if self.map.covers(field, col, width) {
                // Full overwrite: the old value's observation window closes.
                self.close_value(base + field, field);
                self.states[base + field] = FieldState::fresh(now);
                self.push_event(base + field, now, SegmentKind::Overwritten);
            } else {
                // Partial write: the field's old bits may survive — treat
                // as an observation (keeps the whole field conservative).
                let st = &mut self.states[base + field];
                st.last_read = st.last_read.max(now);
                st.has_read = true;
                self.push_event(base + field, now, SegmentKind::Observed);
            }
        }
    }

    fn on_read(&mut self, now: u64, row: usize, col: usize, width: usize) {
        self.events += 1;
        self.mark_read(now, row, col, width);
    }

    fn on_invalidate(&mut self, now: u64, row: usize, col: usize, width: usize) {
        // Advisory only for *liveness*: invalidated bits persist physically
        // and could still be observed by a later read, so deadness is
        // decided purely by the read/overwrite pattern (module docs). For
        // fault-equivalence *segmentation* the event is still a boundary —
        // an invalidation may mutate unprobed metadata, so segments on
        // either side of it must not be merged (recorded as a barrier).
        self.events += 1;
        self.invalidates += 1;
        if self.segments.is_some() && row < self.rows && width > 0 {
            let base = row * self.map.fields_per_row();
            for field in self.map.touched(col, width) {
                self.push_event(base + field, now, SegmentKind::Barrier);
            }
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Frozen liveness record of one structure over one run.
#[derive(Debug, Clone)]
pub struct StructureResidency {
    map: FieldMap,
    rows: usize,
    live_bit_cycles: u64,
    total_bits: u64,
    total_cycles: u64,
    /// Advisory invalidation events observed during the run.
    pub invalidates: u64,
    /// Total probe events observed during the run.
    pub events: u64,
    /// Per-slot sorted access-event boundaries; `None` unless the recorder
    /// was built with [`ResidencyRecorder::with_segments`].
    segments: Option<Vec<Vec<SegmentEvent>>>,
}

impl StructureResidency {
    /// Rows of the structure's logical geometry.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bit columns per row.
    pub fn cols(&self) -> usize {
        self.map.cols()
    }

    /// Total bits of the structure.
    pub fn total_bits(&self) -> u64 {
        self.total_bits
    }

    /// Cycles of the recorded run.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Exact live bit-cycles (the analytical AVF numerator).
    pub fn live_bit_cycles(&self) -> u64 {
        self.live_bit_cycles
    }

    /// Analytical AVF: live-bit-cycles / (bits × cycles).
    pub fn analytical_avf(&self) -> f64 {
        if self.total_bits == 0 || self.total_cycles == 0 {
            return 0.0;
        }
        self.live_bit_cycles as f64 / (self.total_bits as f64 * self.total_cycles as f64)
    }

    /// Mean fraction of the structure's bits live at any cycle — identical
    /// to the analytical AVF, named for occupancy reporting.
    pub fn mean_live_fraction(&self) -> f64 {
        self.analytical_avf()
    }

    /// The field map the recording was made under.
    pub fn field_map(&self) -> &FieldMap {
        &self.map
    }

    /// Number of field slots (`rows × fields_per_row`). Slot `s` covers
    /// row `s / fields_per_row`, field `s % fields_per_row`.
    pub fn slot_count(&self) -> usize {
        self.rows * self.map.fields_per_row()
    }

    /// The field slot containing logical bit `(row, col)`. Out-of-range
    /// coordinates return `None`.
    pub fn slot_of(&self, row: usize, col: usize) -> Option<usize> {
        if row >= self.rows || col >= self.map.cols() {
            return None;
        }
        Some(row * self.map.fields_per_row() + self.map.field_of(col))
    }

    /// Whether access-event boundaries were recorded
    /// (see [`ResidencyRecorder::with_segments`]).
    pub fn has_segments(&self) -> bool {
        self.segments.is_some()
    }

    /// The sorted access-event boundaries of one field slot, or `None` if
    /// the recording was made without segment capture.
    pub fn slot_events(&self, slot: usize) -> Option<&[SegmentEvent]> {
        self.segments.as_ref().map(|s| s[slot].as_slice())
    }
}

/// Answers "is this bit dead at this cycle?" for a batch of queries over
/// one structure's event stream, by the rules [`crate::oracle::dead_at`]
/// documents: a query resolves at the first event on its field at or after
/// its cycle. Memory is proportional to the queries, plus one cursor per
/// field slot.
#[derive(Debug)]
pub(crate) struct DeadAtProbe {
    map: FieldMap,
    rows: usize,
    /// In-range queries as `(slot, cycle, query index)`, sorted.
    queries: Vec<(u32, u64, u32)>,
    /// Per field slot, the position in `queries` of its first unresolved
    /// query; `queries.len()` for a slot without any.
    cursor: Vec<u32>,
    /// Per query, whether a full overwrite resolved it.
    dead: Vec<bool>,
}

impl DeadAtProbe {
    /// A probe for a `rows × map.cols()` structure that answers `queries`,
    /// each an injection cycle and a logical `(row, col)` bit.
    ///
    /// # Panics
    ///
    /// Panics if the queries or the field slots do not fit `u32` indices.
    pub(crate) fn new(
        rows: usize,
        map: FieldMap,
        queries: impl ExactSizeIterator<Item = (u64, usize, usize)>,
    ) -> Self {
        let fields = map.fields_per_row();
        let slots = rows * fields;
        let dead = vec![false; queries.len()];
        assert!(
            u32::try_from(slots.max(dead.len())).is_ok(),
            "query and slot indices must fit u32"
        );
        let mut sorted: Vec<(u32, u64, u32)> = queries
            .enumerate()
            .filter(|&(_, (_, row, col))| row < rows && col < map.cols())
            .map(|(q, (cycle, row, col))| {
                ((row * fields + map.field_of(col)) as u32, cycle, q as u32)
            })
            .collect();
        sorted.sort_unstable();
        let mut cursor = vec![sorted.len() as u32; slots];
        for (i, &(slot, ..)) in sorted.iter().enumerate().rev() {
            cursor[slot as usize] = i as u32;
        }
        Self {
            map,
            rows,
            queries: sorted,
            cursor,
            dead,
        }
    }

    /// Resolves every query of `slot` at or before `now`: dead when the
    /// event is a full overwrite, live otherwise.
    fn resolve(&mut self, slot: usize, now: u64, overwrite: bool) {
        let mut next = self.cursor[slot] as usize;
        while let Some(&(s, cycle, q)) = self.queries.get(next) {
            if s as usize != slot || cycle > now {
                break;
            }
            self.dead[q as usize] = overwrite;
            next += 1;
        }
        self.cursor[slot] = next as u32;
    }

    /// Resolves the fields a write or read of `[col, col + width)` in
    /// `row` touches; only a write can cover a field fully.
    fn access(&mut self, now: u64, row: usize, col: usize, width: usize, write: bool) {
        if row >= self.rows || width == 0 {
            return;
        }
        let base = row * self.map.fields_per_row();
        for field in self.map.touched(col, width) {
            let overwrite = write && self.map.covers(field, col, width);
            self.resolve(base + field, now, overwrite);
        }
    }

    /// The answers for a run of `total_cycles` cycles, one per query in
    /// the order given: whether the bit is provably dead at its cycle.
    pub(crate) fn finish(mut self, total_cycles: u64) -> Vec<bool> {
        for (i, &(slot, cycle, q)) in self.queries.iter().enumerate() {
            let unresolved = i >= self.cursor[slot as usize] as usize;
            let dead = &mut self.dead[q as usize];
            *dead = cycle < total_cycles && (*dead || unresolved);
        }
        self.dead
    }
}

impl LivenessProbe for DeadAtProbe {
    fn on_write(&mut self, now: u64, row: usize, col: usize, width: usize) {
        self.access(now, row, col, width, true);
    }

    fn on_read(&mut self, now: u64, row: usize, col: usize, width: usize) {
        self.access(now, row, col, width, false);
    }

    fn on_invalidate(&mut self, _now: u64, _row: usize, _col: usize, _width: usize) {}

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One synthetic probe event: `(cycle, row, col, width)`.
    #[derive(Clone, Copy)]
    enum Ev {
        W(u64, usize, usize, usize),
        R(u64, usize, usize, usize),
        I(u64, usize, usize, usize),
    }

    fn replay(p: &mut dyn LivenessProbe, events: &[Ev]) {
        for &e in events {
            match e {
                Ev::W(now, row, col, width) => p.on_write(now, row, col, width),
                Ev::R(now, row, col, width) => p.on_read(now, row, col, width),
                Ev::I(now, row, col, width) => p.on_invalidate(now, row, col, width),
            }
        }
    }

    /// Which of `queries` — `(cycle, row, col)` — are dead after `events`
    /// in a `total`-cycle run of a `rows × map` structure.
    fn dead_at(
        rows: usize,
        map: FieldMap,
        events: &[Ev],
        total: u64,
        queries: &[(u64, usize, usize)],
    ) -> Vec<bool> {
        let mut p = DeadAtProbe::new(rows, map, queries.iter().copied());
        replay(&mut p, events);
        p.finish(total)
    }

    fn recorded(rows: usize, map: FieldMap, events: &[Ev], total: u64) -> StructureResidency {
        let mut r = ResidencyRecorder::new(rows, map);
        replay(&mut r, events);
        r.finish(total)
    }

    const REG: FieldMap = FieldMap::Row { cols: 32 };

    #[test]
    fn write_read_overwrite_forms_interval() {
        let events = [
            Ev::W(10, 0, 0, 32),
            Ev::R(20, 0, 0, 32),
            Ev::R(40, 0, 0, 32),
            Ev::W(100, 0, 0, 32),
        ];
        let queries = [(10, 0, 5), (11, 0, 5), (40, 0, 5), (41, 0, 5), (150, 0, 5)];
        assert_eq!(
            dead_at(4, REG, &events, 200, &queries),
            [true, false, false, true, true],
            "a flip before the defining write is erased by it; the value is \
             live after it through its last read, dead after that, and the \
             unread second value is dead"
        );
        assert_eq!(recorded(4, REG, &events, 200).live_bit_cycles(), 31 * 32);
    }

    #[test]
    fn unread_value_is_fully_dead() {
        let events = [Ev::W(10, 0, 0, 32)];
        assert_eq!(
            dead_at(4, REG, &events, 100, &[(0, 0, 0), (50, 0, 0)]),
            [true, true]
        );
        assert_eq!(recorded(4, REG, &events, 100).live_bit_cycles(), 0);
    }

    #[test]
    fn read_before_any_write_is_initial_content_span() {
        let events = [Ev::R(30, 1, 0, 32)];
        assert_eq!(
            dead_at(4, REG, &events, 100, &[(0, 1, 0), (30, 1, 0), (31, 1, 0)]),
            [false, false, true],
            "live from cycle 0 through the read"
        );
    }

    #[test]
    fn invalidate_does_not_end_liveness() {
        // The bits persisted and were observed after the invalidation.
        let events = [
            Ev::W(10, 0, 0, 32),
            Ev::I(20, 0, 0, 32),
            Ev::R(50, 0, 0, 32),
        ];
        assert_eq!(dead_at(4, REG, &events, 100, &[(30, 0, 0)]), [false]);
        assert_eq!(recorded(4, REG, &events, 100).invalidates, 1);
    }

    #[test]
    fn chunked_fields_track_independently() {
        let line = FieldMap::Chunks {
            chunk: 8,
            cols: 256,
        };
        let events = [
            Ev::W(5, 0, 0, 256), // full-line fill
            Ev::R(50, 0, 32, 8), // read byte 4 only
            Ev::W(80, 0, 0, 256),
        ];
        assert_eq!(
            dead_at(2, line, &events, 100, &[(40, 0, 35), (40, 0, 0)]),
            [false, true],
            "the read byte is live until its read, an unread byte is dead"
        );
    }

    #[test]
    fn partial_write_is_conservative_read() {
        let tlb = || FieldMap::Ranges(vec![0..3, 3..21]);
        // The second write covers only part of field 0..3.
        let events = [Ev::W(5, 0, 0, 21), Ev::W(30, 0, 0, 2)];
        assert_eq!(
            dead_at(1, tlb(), &events, 100, &[(20, 0, 1), (20, 0, 10)]),
            [false, true],
            "a partial write observes the old value; the other field is unread"
        );
    }

    #[test]
    fn gaps_between_live_spans_stay_dead() {
        let mut events = Vec::new();
        for k in 0..3u64 {
            events.push(Ev::W(k * 10, 0, 0, 32));
            events.push(Ev::R(k * 10 + 2, 0, 0, 32));
        }
        // Three 3-cycle spans with 7-cycle dead gaps between them.
        assert_eq!(
            dead_at(
                1,
                REG,
                &events,
                100,
                &[(1, 0, 0), (5, 0, 0), (12, 0, 0), (25, 0, 0)]
            ),
            [false, true, false, true]
        );
        assert_eq!(recorded(1, REG, &events, 100).live_bit_cycles(), 3 * 3 * 32);
    }

    #[test]
    fn same_cycle_read_then_write_is_live() {
        // The read in cycle 5 sees a bit flipped before cycle 5 runs.
        let events = [Ev::R(5, 0, 0, 32), Ev::W(5, 0, 0, 32)];
        assert_eq!(
            dead_at(1, REG, &events, 20, &[(4, 0, 0), (5, 0, 0), (6, 0, 0)]),
            [false, false, true]
        );
    }

    #[test]
    fn same_cycle_write_then_read_is_dead() {
        // The write in cycle 5 erases the flip before the read observes it.
        let events = [Ev::W(5, 0, 0, 32), Ev::R(5, 0, 0, 32), Ev::R(7, 0, 0, 32)];
        assert_eq!(
            dead_at(1, REG, &events, 20, &[(5, 0, 0), (6, 0, 0), (8, 0, 0)]),
            [true, false, true]
        );
    }

    #[test]
    fn queries_resolve_per_field_in_any_order() {
        // Queries listed out of order, over two rows and repeated cycles.
        let events = [
            Ev::R(10, 1, 0, 32),
            Ev::W(20, 0, 0, 32),
            Ev::W(30, 1, 0, 32),
            Ev::R(40, 0, 0, 32),
        ];
        let queries = [
            (25, 0, 0),
            (5, 1, 0),
            (15, 0, 3),
            (15, 1, 0),
            (5, 1, 9),
            (41, 0, 0),
        ];
        assert_eq!(
            dead_at(2, REG, &events, 50, &queries),
            [false, false, true, true, false, true]
        );
    }

    #[test]
    fn out_of_range_queries_are_live() {
        assert_eq!(
            dead_at(4, REG, &[], 10, &[(0, 99, 0), (0, 0, 99), (0, 0, 0)]),
            [false, false, true],
            "only the in-range bit, never observed, is dead"
        );
    }

    #[test]
    fn queries_at_or_past_the_run_end_are_never_dead() {
        let events = [Ev::W(2, 0, 0, 32), Ev::W(12, 0, 0, 32)];
        assert_eq!(
            dead_at(1, REG, &events, 10, &[(9, 0, 0), (10, 0, 0), (11, 0, 0)]),
            [true, false, false]
        );
    }

    #[test]
    fn segments_record_sorted_boundaries_with_kinds() {
        let mut r = ResidencyRecorder::with_segments(4, FieldMap::Row { cols: 32 });
        r.on_write(10, 0, 0, 32);
        r.on_read(20, 0, 0, 32);
        r.on_read(40, 0, 4, 8);
        r.on_invalidate(60, 0, 0, 32);
        r.on_write(100, 0, 0, 32);
        let res = r.finish(200);
        assert!(res.has_segments());
        let slot = res.slot_of(0, 0).unwrap();
        let events = res.slot_events(slot).unwrap();
        assert_eq!(
            events,
            &[
                SegmentEvent {
                    cycle: 10,
                    kind: SegmentKind::Overwritten
                },
                SegmentEvent {
                    cycle: 20,
                    kind: SegmentKind::Observed
                },
                SegmentEvent {
                    cycle: 40,
                    kind: SegmentKind::Observed
                },
                SegmentEvent {
                    cycle: 60,
                    kind: SegmentKind::Barrier
                },
                SegmentEvent {
                    cycle: 100,
                    kind: SegmentKind::Overwritten
                },
            ]
        );
        // Untouched rows have empty (but present) boundary lists.
        let other = res.slot_of(1, 0).unwrap();
        assert_eq!(res.slot_events(other).unwrap(), &[]);
    }

    #[test]
    fn same_cycle_events_merge_conservatively() {
        let mut r = ResidencyRecorder::with_segments(1, FieldMap::Row { cols: 32 });
        r.on_write(5, 0, 0, 32);
        r.on_read(5, 0, 0, 32);
        r.on_invalidate(9, 0, 0, 32);
        r.on_write(9, 0, 0, 32);
        let res = r.finish(20);
        let events = res.slot_events(0).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].cycle, 5);
        assert_eq!(
            events[0].kind,
            SegmentKind::Observed,
            "an observation in the cycle dominates"
        );
        assert_eq!(events[1].cycle, 9);
        assert_eq!(
            events[1].kind,
            SegmentKind::Barrier,
            "invalidate + overwrite in one cycle cannot be pruned"
        );
    }

    #[test]
    fn segments_absent_by_default_and_partial_writes_observe() {
        let mut r = ResidencyRecorder::new(4, REG);
        r.on_write(10, 0, 0, 32);
        let res = r.finish(50);
        assert!(!res.has_segments());
        assert!(res.slot_events(0).is_none());

        let mut r = ResidencyRecorder::with_segments(1, FieldMap::Ranges(vec![0..3, 3..21]));
        r.on_write(5, 0, 0, 2); // partial cover of field 0
        let res = r.finish(50);
        assert_eq!(
            res.slot_events(0).unwrap(),
            &[SegmentEvent {
                cycle: 5,
                kind: SegmentKind::Observed
            }]
        );
    }

    #[test]
    fn slot_of_rejects_out_of_range() {
        let res = ResidencyRecorder::new(4, REG).finish(10);
        assert!(res.slot_of(99, 0).is_none());
        assert!(res.slot_of(0, 99).is_none());
        assert_eq!(res.slot_count(), 4);
        assert_eq!(res.field_map().cols(), 32);
    }

    #[test]
    fn analytical_avf_ratio() {
        let mut r = ResidencyRecorder::new(1, FieldMap::Row { cols: 32 });
        r.on_write(0, 0, 0, 32);
        r.on_read(49, 0, 0, 32);
        r.on_write(50, 0, 0, 32);
        let res = r.finish(100);
        // Live [0,49] = 50 cycles of 100, all 32 bits share fate.
        assert!((res.analytical_avf() - 0.5).abs() < 1e-12);
    }
}
