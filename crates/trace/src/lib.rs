//! `rubic-trace`: low-overhead structured event tracing for the RUBIC
//! workspace.
//!
//! The pipeline:
//!
//! 1. Instrumented code ([`rubic-stm`'s protocol sites, the pool
//!    monitor, the controllers) calls [`emit`] with a fixed-size binary
//!    [`Event`]. When no [`TraceSession`] is active this is a single
//!    relaxed atomic load.
//! 2. Each emitting thread owns a lock-free ring with a drop-oldest
//!    overflow policy — producers never block and never allocate on the
//!    hot path.
//! 3. A collector thread drains all rings into [`LogHistogram`]s
//!    (commit latency, abort→restart latency, lock hold time), an
//!    abort-reason breakdown, a parallelism-level timeline, and the
//!    full event log.
//! 4. [`TraceSession::finish`] returns a [`TraceReport`] exportable as
//!    JSON-lines or as a `chrome://tracing` document for Perfetto.
//!
//! On top of the pipeline sits the diagnosis layer: abort sites call
//! [`note_conflict`] to feed per-thread space-saving sketches
//! ([`ConflictSketch`]) that merge into a top-K contention table naming
//! culprit `TVars` (labelled via [`set_label`] / `TVar::labelled`); the
//! sink keeps a bounded always-on flight recorder of the last few
//! seconds of events; and the two anomaly watchdogs (through
//! [`request_postmortem`]) or [`TraceSession::dump_postmortem`] freeze
//! both into a self-contained post-mortem bundle (schema
//! [`BUNDLE_SCHEMA`]).
//!
//! The instrumented crates gate their calls behind their own `trace`
//! cargo feature, compiling to nothing when it is off; this crate itself
//! is always functional.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::pedantic)]
#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss,
    clippy::module_name_repetitions
)]

mod bundle;
mod event;
mod hist;
mod labels;
mod recorder;
mod report;
mod ring;
mod sketch;

pub use bundle::BUNDLE_SCHEMA;
pub use event::{codes, Event, EventKind};
pub use hist::LogHistogram;
pub use labels::set_label;
pub use recorder::{
    emit, is_enabled, note_conflict, now_ns, request_postmortem, TraceConfig, TraceSession,
};
pub use report::{ContentionEntry, LevelSample, TraceReport};
pub use sketch::{ConflictSketch, CulpritEntry};
