//! # cm-bench
//!
//! Experiment harness reproducing **every table and figure** of the
//! paper's evaluation (§3.3–§3.4 and §7), on the simulated disk with the
//! paper's Table 1 cost constants. Each experiment is a library function
//! returning a [`Report`] (so integration tests can smoke-run it at tiny
//! scale), listed by name in [`experiments::ALL`] for the one `cm-bench`
//! binary (`cargo run --release -p cm-bench -- fig3_shipdate_lookups`).
//! `cm-bench all` runs the suite and writes `EXPERIMENTS.md` with
//! paper-vs-measured commentary.
//!
//! Absolute times differ from the paper (their substrate is PostgreSQL on
//! a 2009 SATA disk; ours is a simulator at reduced data scale) — the
//! *shapes* are the reproduction target: who wins, by what factor, and
//! where the crossovers and knees fall.
//!
//! The engine experiments share one **mixed-workload driver**
//! ([`workload`], [`run_mixed`]): multi-threaded read/write traffic
//! through `cm-engine` sessions, reporting throughput, simulated I/O,
//! per-path routing counts and [`LatencyStats`] percentiles. It can
//! re-plan the physical design mid-run via
//! [`MixedWorkloadConfig::advise_after`].

pub mod datasets;
pub mod experiments;
pub mod report;
pub mod workload;

pub use report::{Report, Row};
pub use workload::{run_mixed, AdviceOutcome, LatencyStats, MixedWorkloadConfig, WorkloadReport};
