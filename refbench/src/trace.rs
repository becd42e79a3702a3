//! In-memory span recorder for the traced run.
//!
//! Spans are recorded on the benchmark's own thread only, around its calls
//! into each layer ([`crate::layers`]). With no recorder installed every
//! [`enter`] is a no-op, so the untraced run pays one thread-local check
//! per call.

use std::cell::RefCell;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index in the recorder's span list.
    pub id: usize,
    /// Layer-qualified name, e.g. `gefin.campaign`.
    pub name: &'static str,
    /// The program the call concerned (`""` when none).
    pub program: &'static str,
    /// The pass the span belongs to: spans of one pass share it.
    pub pass: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns.
    pub start_ns: u64,
    /// End, in ns.
    pub end_ns: u64,
    /// Process CPU seconds consumed inside the span, when requested.
    pub cpu_s: Option<f64>,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Wall duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.duration_ns() as f64 * 1e-9
    }
}

struct Recorder {
    origin: Instant,
    pass: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// CPU reading at entry, per open span that asked for one.
    cpu_at_entry: Vec<Option<f64>>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording pass `pass` on this thread, replacing any recorder.
pub fn start(pass: usize) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            pass,
            spans: Vec::new(),
            open: Vec::new(),
            cpu_at_entry: Vec::new(),
        });
    });
}

/// Stops recording and returns the spans (empty when not recording).
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Whether a recorder is installed on this thread.
pub fn is_recording() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// Closes its span when dropped.
#[must_use = "the span closes when the guard drops"]
pub struct Guard(bool);

/// Opens a span nested in the innermost open one.
pub fn enter(name: &'static str, program: &'static str) -> Guard {
    open(name, program, false)
}

/// [`enter`] that also records the process CPU time spent inside the span.
pub fn enter_with_cpu(name: &'static str, program: &'static str) -> Guard {
    open(name, program, true)
}

fn open(name: &'static str, program: &'static str, cpu: bool) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return Guard(false);
        };
        let id = rec.spans.len();
        let start_ns = rec.origin.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            id,
            name,
            program,
            pass: rec.pass,
            parent: rec.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            cpu_s: None,
        });
        rec.open.push(id);
        rec.cpu_at_entry
            .push(cpu.then(crate::procfs::process_cpu_s).flatten());
        Guard(true)
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.0 {
            return;
        }
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let Some(rec) = r.as_mut() else {
                return;
            };
            let (Some(id), Some(cpu0)) = (rec.open.pop(), rec.cpu_at_entry.pop()) else {
                return;
            };
            let cpu_s = cpu0.and_then(|c0| crate::procfs::process_cpu_s().map(|c1| c1 - c0));
            let end_ns = rec.origin.elapsed().as_nanos() as u64;
            let span = &mut rec.spans[id];
            span.end_ns = end_ns;
            span.cpu_s = cpu_s;
        });
    }
}

/// Records an already-finished span, e.g. a phase reconstructed from
/// event timestamps, as a child of `parent`, clipped to the parent's
/// interval (to its start only while the parent is still open). Returns
/// its id.
pub fn record(
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
) -> Option<usize> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let id = rec.spans.len();
        let ns = |t: Instant| t.saturating_duration_since(rec.origin).as_nanos() as u64;
        let (mut start_ns, mut end_ns) = (ns(start), ns(end));
        if let Some(p) = parent.and_then(|p| rec.spans.get(p)) {
            start_ns = start_ns.max(p.start_ns);
            if !rec.open.contains(&p.id) {
                end_ns = end_ns.min(p.end_ns);
            }
        }
        rec.spans.push(Span {
            id,
            name,
            program: "",
            pass: rec.pass,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
            cpu_s: None,
        });
        Some(id)
    })
}

/// The id of the most recently opened span, if recording.
pub fn last_id() -> Option<usize> {
    RECORDER.with(|r| {
        r.borrow()
            .as_ref()
            .and_then(|rec| rec.spans.len().checked_sub(1))
    })
}

/// Whether the self times of `spans` add up exactly to the durations of
/// their root spans (those without a parent), as they do when every span
/// lies inside its parent.
pub fn self_times_cover_roots(spans: &[Span]) -> bool {
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum();
    self_times(spans).iter().sum::<u64>() == roots
}

/// Self time of every span, in ns: its duration minus the part of its
/// interval covered by its children (overlapping children count once,
/// and a child reaching outside its parent counts only inside it).
/// Indexed like `spans`; spans must be indexed by their `id`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut frontier = s.start_ns;
            for (a, b) in kids {
                let a = a.max(frontier);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    frontier = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}
