//! Minimal SIGTERM/SIGINT latch for graceful drains.
//!
//! The workspace builds fully offline (no `libc`/`signal-hook`), so the
//! handler is registered through the C library's `signal(2)` directly.
//! This is the only unsafe code in the workspace, and it is deliberately
//! tiny: the handler does exactly one async-signal-safe thing — store to
//! a static atomic — and everything else (stopping admission, parking
//! jobs, exiting) happens on an ordinary watcher thread that polls
//! [`term_requested`]. glibc's `signal` installs with `SA_RESTART`, so
//! blocking accepts and reads continue undisturbed; the watcher thread is
//! what actually drives the drain.

use std::sync::atomic::{AtomicBool, Ordering};

static TERM_FLAG: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_term(_sig: i32) {
    // Async-signal-safe: a single atomic store, nothing else.
    TERM_FLAG.store(true, Ordering::SeqCst);
}

/// Installs the SIGTERM/SIGINT handler. Idempotent; call once at daemon
/// start, before accepting connections.
pub fn install_term_handler() {
    let handler = on_term as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

/// Whether a termination signal has arrived since
/// [`install_term_handler`].
pub fn term_requested() -> bool {
    TERM_FLAG.load(Ordering::SeqCst)
}
