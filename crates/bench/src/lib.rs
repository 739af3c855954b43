//! # iva-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! paper's evaluation (Sec. V). Each `benches/figXX_*.rs` target is a
//! `harness = false` binary printing the same series the paper plots;
//! `benches/micro.rs` holds Criterion microbenchmarks of the hot kernels.
//!
//! See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured results.

#![warn(missing_docs)]

pub mod report;
pub mod runner;
pub mod scale;

pub use runner::{
    aggregate, bench_pager_options, run_point, run_queries, PerQuery, PointStats, System, TestBed,
    CACHE_FRACTION,
};
pub use scale::{queries_per_point, scale_config};
