//! Analysis passes. Each pass is a pure function over lexed/parsed
//! input plus per-pass context, pushing [`crate::report::Finding`]s —
//! the orchestration (file walking) lives in
//! [`crate::analyze`].

pub mod lexical;
pub mod purity;
