//! Hierarchical span timers with per-thread accumulation.
//!
//! Entering a span pushes its name on a thread-local stack; the full path
//! is the stack joined with `/`. Finished spans buffer in a thread-local
//! pending list and merge into the [`Registry`](crate::Registry) in one
//! lock acquisition when the thread's *root* span exits — so hot loops
//! never contend on the registry, and the merged `BTreeMap` keeps snapshot
//! order independent of thread interleaving.

use crate::Registry;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::time::Instant;

thread_local! {
    /// Names of the currently-open spans on this thread, outermost first.
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// Finished `(section, path, ns)` observations awaiting a root exit.
    static PENDING: RefCell<Vec<(&'static str, String, u64)>> =
        const { RefCell::new(Vec::new()) };
}

/// Exit guard of one span: times the enclosed scope and records the
/// observation on drop. Not `Send` — spans belong to the thread that
/// entered them.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    registry: &'a Registry,
    section: &'static str,
    path: String,
    start: Instant,
    _not_send: PhantomData<*const ()>,
}

pub(crate) fn enter<'a>(
    registry: &'a Registry,
    section: &'static str,
    name: &'static str,
) -> SpanGuard<'a> {
    let path = STACK.with_borrow_mut(|stack| {
        stack.push(name);
        stack.join("/")
    });
    SpanGuard {
        registry,
        section,
        path,
        start: Instant::now(),
        _not_send: PhantomData,
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos() as u64;
        let is_root = STACK.with_borrow_mut(|stack| {
            stack.pop();
            stack.is_empty()
        });
        PENDING.with_borrow_mut(|pending| {
            pending.push((self.section, std::mem::take(&mut self.path), ns));
        });
        if is_root {
            let batch = PENDING.with_borrow_mut(std::mem::take);
            self.registry.record_spans(&batch);
        }
    }
}

/// Run `f` in a fresh span context: the caller's open spans are invisible
/// inside, and restored afterwards (also on panic). `mm-exec` wraps every
/// task in this, so a task's span paths are identical whether it runs
/// inline on the submitting thread or on a pool worker.
pub fn detached<R>(f: impl FnOnce() -> R) -> R {
    struct Restore {
        stack: Vec<&'static str>,
        pending: Vec<(&'static str, String, u64)>,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            STACK.with_borrow_mut(|s| *s = std::mem::take(&mut self.stack));
            PENDING.with_borrow_mut(|p| *p = std::mem::take(&mut self.pending));
        }
    }
    let _restore = Restore {
        stack: STACK.with_borrow_mut(std::mem::take),
        pending: PENDING.with_borrow_mut(std::mem::take),
    };
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_build_slash_paths() {
        let reg = Registry::new();
        {
            let _outer = reg.span("sec", "outer");
            let _inner = reg.span("sec", "inner");
        }
        let snap = reg.snapshot();
        let spans = &snap.sections[0].spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].path, "outer");
        assert_eq!(spans[1].path, "outer/inner");
        assert_eq!(spans[0].count, 1);
    }

    #[test]
    fn spans_flush_only_at_root_exit() {
        let reg = Registry::new();
        let outer = reg.span("sec", "outer");
        {
            let _inner = reg.span("sec", "inner");
        }
        assert!(
            reg.snapshot().sections.is_empty(),
            "inner buffers until root exits"
        );
        drop(outer);
        assert_eq!(reg.snapshot().sections[0].spans.len(), 2);
    }

    #[test]
    fn repeated_spans_accumulate_counts() {
        let reg = Registry::new();
        for _ in 0..3 {
            let _s = reg.span("sec", "work");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.sections[0].spans[0].count, 3);
    }

    #[test]
    fn detached_hides_the_callers_stack() {
        let reg = Registry::new();
        {
            let _outer = reg.span("sec", "outer");
            detached(|| {
                let _task = reg.span("sec", "task");
            });
        }
        let snap = reg.snapshot();
        let paths: Vec<&str> = snap.sections[0]
            .spans
            .iter()
            .map(|s| s.path.as_str())
            .collect();
        assert_eq!(paths, vec!["outer", "task"], "task roots at its own path");
    }

    #[test]
    fn detached_restores_on_panic() {
        let reg = Registry::new();
        let _outer = reg.span("sec", "outer");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            detached(|| panic!("task failed"))
        }));
        assert!(caught.is_err());
        // The outer span is still open and still flushes correctly.
        let _inner = reg.span("sec", "inner");
        drop(_inner);
        drop(_outer);
        let snap = reg.snapshot();
        assert_eq!(snap.sections[0].spans[1].path, "outer/inner");
    }

    #[test]
    fn worker_threads_merge_deterministically() {
        let reg = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reg = &reg;
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the test races real threads on one registry to prove the merge is order-free"
                )]
                scope.spawn(move || {
                    for _ in 0..5 {
                        let _root = reg.span("sec", "task");
                        let _leaf = reg.span("sec", "leaf");
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.sections[0].spans[0].count, 20);
        assert_eq!(snap.sections[0].spans[1].path, "task/leaf");
        assert_eq!(snap.sections[0].spans[1].count, 20);
    }
}
