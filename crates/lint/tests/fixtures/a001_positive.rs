use std::sync::atomic::{AtomicU64, Ordering};

pub fn bump(counter: &AtomicU64) -> u64 {
    counter.fetch_add(1, Ordering::Relaxed)
}
