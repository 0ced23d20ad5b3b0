//! `perfbench`: the gaplan benchmark's load process.
//!
//! One binary runs any of the four workloads (see [`mix::Workload`]) against
//! the program under test, checks every output, and prints the metrics.
//! See `perfbench/README.md` for the workloads, metrics and ledger.

#![warn(missing_docs)]

pub mod bench;
pub mod client;
pub mod ga_trace;
pub mod layers;
pub mod mix;
pub mod paper;
pub mod report;
pub mod server;
pub mod stats;
pub mod steal;
