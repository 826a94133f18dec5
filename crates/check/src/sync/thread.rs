//! Checked thread spawning and joining.
//!
//! Mirrors the subset of `std::thread` the workspace uses. Outside a
//! checker run everything delegates to `std::thread`; inside a run,
//! spawned threads register with the engine (spawn and join are
//! scheduling points and happens-before edges) and `sleep` /
//! `yield_now` become pure scheduling points (no wall-clock delay).

use std::sync::{Arc, Mutex as StdMutex, PoisonError};
use std::time::Duration;

use crate::engine::{with_ctx, Engine};

/// Result of joining a thread (same shape as `std::thread::Result`).
pub type Result<T> = std::thread::Result<T>;

// Hardware topology is schedule-irrelevant: pass through in both modes.
pub use std::thread::available_parallelism;

enum Inner<T> {
    Std(std::thread::JoinHandle<T>),
    Model {
        engine: Arc<Engine>,
        tid: usize,
        slot: Arc<StdMutex<Option<T>>>,
    },
}

/// Owned handle to a spawned thread.
pub struct JoinHandle<T>(Inner<T>);

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish and returns its result.
    ///
    /// # Errors
    /// Returns the panic payload if the thread panicked (under the
    /// checker a model panic abandons the whole execution instead).
    #[track_caller]
    pub fn join(self) -> Result<T> {
        let loc = std::panic::Location::caller();
        match self.0 {
            Inner::Std(h) => h.join(),
            Inner::Model { engine, tid, slot } => {
                if let Some(me) = with_ctx(|c| c.tid) {
                    engine.join_thread(me, tid, loc);
                }
                slot.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    .ok_or_else(|| -> Box<dyn std::any::Any + Send> {
                        Box::new("checked thread produced no value (panicked or abandoned)")
                    })
            }
        }
    }
}

/// Configuration for a new thread (name only; stack size is accepted
/// and ignored under the checker).
#[derive(Debug, Default)]
pub struct Builder {
    name: Option<String>,
}

impl Builder {
    /// Creates a builder.
    #[must_use]
    pub fn new() -> Self {
        Builder::default()
    }

    /// Names the thread.
    #[must_use]
    pub fn name(mut self, name: String) -> Self {
        self.name = Some(name);
        self
    }

    /// Spawns the thread.
    ///
    /// # Errors
    /// Propagates OS spawn failure (passthrough mode only).
    #[track_caller]
    pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let loc = std::panic::Location::caller();
        match with_ctx(Clone::clone) {
            Some(ctx) => {
                let slot = Arc::new(StdMutex::new(None));
                let slot2 = Arc::clone(&slot);
                let tid = ctx.engine.spawn_controlled(
                    ctx.tid,
                    self.name,
                    Box::new(move || {
                        let v = f();
                        *slot2.lock().unwrap_or_else(PoisonError::into_inner) = Some(v);
                    }),
                    loc,
                );
                Ok(JoinHandle(Inner::Model {
                    engine: ctx.engine,
                    tid,
                    slot,
                }))
            }
            None => {
                let mut b = std::thread::Builder::new();
                if let Some(n) = self.name {
                    b = b.name(n);
                }
                b.spawn(f).map(|h| JoinHandle(Inner::Std(h)))
            }
        }
    }
}

/// Spawns a thread (checked inside a run).
#[track_caller]
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    Builder::new().spawn(f).expect("failed to spawn thread")
}

/// Sleeps (inside a run, a scheduling point at which the caller gives
/// way — no wall-clock delay).
#[track_caller]
pub fn sleep(dur: Duration) {
    let loc = std::panic::Location::caller();
    match with_ctx(Clone::clone) {
        Some(ctx) => ctx.engine.op_thread_yield(ctx.tid, loc),
        None => std::thread::sleep(dur),
    }
}

/// Yields (inside a run, a scheduling point at which the caller gives
/// way: PCT demotes it below the other threads).
#[track_caller]
pub fn yield_now() {
    let loc = std::panic::Location::caller();
    match with_ctx(Clone::clone) {
        Some(ctx) => ctx.engine.op_thread_yield(ctx.tid, loc),
        None => std::thread::yield_now(),
    }
}
