//! Server-side primitives for mmqd: the bounded connection queue the
//! accept loop feeds, the accept-loop thread itself, and the wall-clock
//! deadline handle the per-request admission control uses.
//!
//! mm-net is a Sched-scope crate (like mm-exec and mm-telemetry): serving
//! is inherently wall-clock-bound, so `Instant` lives here and the
//! deterministic simulation crates above stay clock-free. The accept loop
//! is the one place outside mm-exec that spawns a thread — it does no
//! simulation work and never touches the determinism contract (the worker
//! pool that renders answers is an mm-exec scatter), so it carries a
//! justified D003 suppression rather than a rule exemption.

use mmcore::NetError;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// A bounded MPMC hand-off queue from the accept loop to the worker pool.
///
/// `push` blocks while the queue is at capacity (backpressure lands in the
/// listener's OS backlog), and returns `false` once the queue is closed —
/// the accept loop's signal to stop. `pop` keeps draining queued
/// connections after close (every accepted connection is served), and
/// returns `None` only when the queue is closed *and* empty.
pub struct ConnQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    cap: usize,
}

struct QueueState {
    conns: VecDeque<TcpStream>,
    closed: bool,
}

impl ConnQueue {
    /// A queue admitting at most `cap` parked connections (clamped ≥ 1).
    pub fn new(cap: usize) -> Arc<ConnQueue> {
        Arc::new(ConnQueue {
            state: Mutex::new(QueueState {
                conns: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            cap: cap.max(1),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        #[expect(
            clippy::expect_used,
            reason = "a poisoned queue mutex means a worker already panicked; propagate"
        )]
        self.state.lock().expect("connection queue poisoned")
    }

    /// Park an accepted connection; blocks while full, `false` if closed
    /// (the connection is dropped and the accept loop should exit).
    pub fn push(&self, conn: TcpStream) -> bool {
        let mut st = self.lock();
        #[expect(
            clippy::expect_used,
            reason = "condvar wait only fails on a poisoned mutex; propagate the panic"
        )]
        while st.conns.len() >= self.cap && !st.closed {
            st = self.cv.wait(st).expect("connection queue poisoned");
        }
        if st.closed {
            return false;
        }
        st.conns.push_back(conn);
        self.cv.notify_all();
        true
    }

    /// Take the next connection; blocks until one arrives, `None` once
    /// the queue is closed and drained.
    pub fn pop(&self) -> Option<TcpStream> {
        let mut st = self.lock();
        #[expect(
            clippy::expect_used,
            reason = "condvar wait only fails on a poisoned mutex; propagate the panic"
        )]
        loop {
            if let Some(conn) = st.conns.pop_front() {
                self.cv.notify_all();
                return Some(conn);
            }
            if st.closed {
                return None;
            }
            st = self.cv.wait(st).expect("connection queue poisoned");
        }
    }

    /// Stop admitting connections and wake every waiter. Queued
    /// connections are still handed out (`pop` drains before `None`).
    pub fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }

    /// Whether [`close`](Self::close) was called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Parked connections right now (the queue-depth gauge).
    pub fn depth(&self) -> usize {
        self.lock().conns.len()
    }
}

/// The running accept-loop thread (see [`spawn_acceptor`]).
pub struct Acceptor {
    handle: std::thread::JoinHandle<()>,
    addr: SocketAddr,
}

impl Acceptor {
    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Unblock the accept loop and join it. Call after closing the
    /// [`ConnQueue`]: a throwaway self-connection wakes the blocking
    /// `accept()`, the loop observes the closed queue, and exits.
    pub fn shutdown(self) {
        TcpStream::connect(self.addr).ok();
        self.handle.join().ok();
    }
}

/// Start the accept loop on its own thread, parking every accepted
/// connection on `queue` until the queue closes.
pub fn spawn_acceptor(listener: TcpListener, queue: Arc<ConnQueue>) -> Result<Acceptor, NetError> {
    let addr = listener
        .local_addr()
        .map_err(|e| NetError::Io(e.to_string()))?;
    #[expect(
        clippy::disallowed_methods,
        reason = "accept() must block on its own thread; it never touches sim state"
    )]
    let handle = std::thread::Builder::new()
        .name("mmqd-accept".to_string())
        // The accept loop does no simulation work; MM_THREADS governs the
        // mm-exec worker pool that renders answers, not this single control
        // thread (DESIGN.md §14).
        .spawn(move || {
            loop {
                match listener.accept() {
                    Ok((conn, _)) => {
                        if !queue.push(conn) {
                            // Closed: this is the shutdown self-connection
                            // (or a late client); drop it and exit.
                            break;
                        }
                    }
                    Err(_) if queue.is_closed() => break,
                    // Transient accept errors (EMFILE, ECONNABORTED):
                    // keep the server up.
                    Err(_) => continue,
                }
            }
        })
        .map_err(|e| NetError::Io(e.to_string()))?;
    Ok(Acceptor { handle, addr })
}

/// A wall-clock budget for one request: started at admission, checked at
/// completion. Requests that miss it get the typed `deadline` response.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    started: Instant,
    budget_ms: u64,
}

impl Deadline {
    /// Start a budget of `budget_ms` milliseconds (0 = already expired —
    /// the degenerate config the robustness tests use).
    pub fn start(budget_ms: u64) -> Deadline {
        Deadline {
            started: Instant::now(),
            budget_ms,
        }
    }

    /// Milliseconds elapsed since the deadline started.
    pub fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Whether the budget is spent.
    pub fn expired(&self) -> bool {
        self.elapsed_ms() >= self.budget_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn queue_hands_connections_across_threads_and_drains_after_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let queue = ConnQueue::new(4);
        let acceptor = spawn_acceptor(listener, Arc::clone(&queue)).unwrap();
        let addr = acceptor.local_addr();

        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(b"ping").unwrap();
        let mut conn = queue.pop().expect("accepted connection reaches the queue");
        let mut buf = [0u8; 4];
        conn.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");

        // Park one more, then close: pop still drains it, then reports end.
        let _late = TcpStream::connect(addr).unwrap();
        while queue.depth() == 0 {
            std::thread::yield_now();
        }
        queue.close();
        assert!(
            queue.pop().is_some(),
            "queued connection drains after close"
        );
        assert!(queue.pop().is_none(), "closed and drained");
        acceptor.shutdown();
    }

    #[test]
    fn zero_budget_deadline_is_expired_immediately() {
        let d = Deadline::start(0);
        assert!(d.expired());
        let generous = Deadline::start(60_000);
        assert!(!generous.expired());
        assert!(generous.elapsed_ms() < 60_000);
    }
}
