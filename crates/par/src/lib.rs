//! # mpx-par — thread pools and per-index randomness for the MPX workspace
//!
//! The paper's Algorithm 1 is "one parallel BFS with staggered starts". The
//! BFS itself lives in `mpx-decomp`'s engine; this crate supplies the two
//! pieces around it that the rest of the workspace shares:
//!
//! * [`pool`] — scoped thread pools so experiments can sweep thread
//!   counts (`T7` scaling table).
//! * [`rng`] — SplitMix64 and counter-based per-index randomness, so that
//!   random quantities (like the paper's shifts `δ_u`) can be generated
//!   independently per vertex in parallel, deterministically given a seed.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod pool;
pub mod rng;

pub use pool::{default_threads, with_threads};
pub use rng::SplitMix64;
