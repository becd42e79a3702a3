//! Liveness-observation hooks for SRAM-like storage arrays (ACE analysis).
//!
//! A [`LivenessProbe`] receives the *event stream* of one storage structure
//! — writes, reads, invalidations — during a fault-free run. From that
//! stream an observer (the `mbu-ace` crate) reconstructs per-field
//! liveness: a bit is *live* (ACE — required for Architecturally Correct
//! Execution) from a write until its last read before the next overwrite,
//! and *dead* (un-ACE) everywhere else. Analytical AVF and the campaign
//! fast-path oracle both derive from it.
//!
//! Probes are deliberately dumb byte-pushers on the hot path: every hook
//! takes the current cycle plus a `(row, col, width)` column range in the
//! structure's *logical* geometry (one row per register / cache line / TLB
//! entry). Interpretation — field fate-sharing, which event decides a
//! bit's fate — happens on the observer side. Structures call the hooks only when a probe is
//! attached, so an unprobed simulation pays a branch per event at most.

use std::any::Any;

/// Observer of one storage array's read/write/invalidate event stream.
///
/// Events arrive in nondecreasing cycle order. Coordinates are logical:
/// `row` is the register / line / entry index and `[col, col + width)` the
/// bit range touched. Implementations must be conservative about anything
/// they do not model — the campaign oracle treats "possibly live" as live.
pub trait LivenessProbe: Send {
    /// `width` bits at `(row, col)` were overwritten with a new value.
    fn on_write(&mut self, now: u64, row: usize, col: usize, width: usize);

    /// `width` bits at `(row, col)` were read (observed). A read makes the
    /// current value live from its defining write through this cycle.
    fn on_read(&mut self, now: u64, row: usize, col: usize, width: usize);

    /// `width` bits at `(row, col)` became architecturally dead without
    /// being overwritten (e.g. a physical register returned to the free
    /// list, a flushed TLB entry).
    fn on_invalidate(&mut self, now: u64, row: usize, col: usize, width: usize);

    /// A write known to replace a (possibly still-valid) previous value —
    /// a cache fill over a victim, a TLB fill over the round-robin slot.
    /// Defaults to [`LivenessProbe::on_write`]; observers that track
    /// overwrite-of-unread-value statistics can override it.
    fn on_overwrite(&mut self, now: u64, row: usize, col: usize, width: usize) {
        self.on_write(now, row, col, width);
    }

    /// Recovers the concrete observer after a run (downcast support for
    /// detach-and-finish flows).
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct CountingProbe {
        writes: usize,
        reads: usize,
        invalidates: usize,
    }

    impl LivenessProbe for CountingProbe {
        fn on_write(&mut self, _now: u64, _row: usize, _col: usize, _width: usize) {
            self.writes += 1;
        }
        fn on_read(&mut self, _now: u64, _row: usize, _col: usize, _width: usize) {
            self.reads += 1;
        }
        fn on_invalidate(&mut self, _now: u64, _row: usize, _col: usize, _width: usize) {
            self.invalidates += 1;
        }
        fn into_any(self: Box<Self>) -> Box<dyn Any> {
            self
        }
    }

    #[test]
    fn default_overwrite_delegates_to_write() {
        let mut p = CountingProbe::default();
        p.on_overwrite(3, 0, 0, 8);
        assert_eq!(p.writes, 1);
    }

    #[test]
    fn into_any_recovers_concrete_type() {
        let p: Box<dyn LivenessProbe> = Box::new(CountingProbe::default());
        let concrete = p.into_any().downcast::<CountingProbe>().expect("downcast");
        assert_eq!(concrete.reads, 0);
    }
}
