use std::sync::atomic::{AtomicU64, Ordering};

pub fn bump(counter: &AtomicU64) -> u64 {
    // relaxed-ok: independent monotonic add, read only after workers join
    counter.fetch_add(1, Ordering::Relaxed)
}

pub fn bump_wrapped(counter: &AtomicU64) -> u64 {
    // relaxed-ok: independent monotonic add; the justification wraps onto a
    // second comment line and must still be found by the block walk
    counter.fetch_add(1, Ordering::Relaxed)
}
