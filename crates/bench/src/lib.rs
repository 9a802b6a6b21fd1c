//! Shared plumbing for the figure/table-regenerating binaries.
//!
//! Every binary in `src/bin/` reproduces one table or figure from the
//! ALEX paper's evaluation (§5). They share dataset setup, simple CLI
//! parsing, and report formatting through this library. Scales default
//! to laptop-friendly sizes (the paper used 190M–1B keys on an i9; the
//! `alex-datasets` crate docs give the dataset substitution rationale)
//! and are overridable with `--keys` / `--ops`.

pub mod cli;
pub mod harness;

/// Default number of keys to initialize indexes with.
pub const DEFAULT_INIT_KEYS: usize = 1_000_000;
/// Default operation budget per workload run.
pub const DEFAULT_OPS: usize = 500_000;
/// Default RNG seed (fixed for reproducibility).
pub const DEFAULT_SEED: u64 = 42;
