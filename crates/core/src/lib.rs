#![warn(missing_docs)]

//! # gaplan-core
//!
//! Planning model for the GA planner described in *"A Genetic Approach to
//! Planning in Heterogeneous Computing Environments"* (Yu, Marinescu, Wu,
//! Siegel — IPDPS 2003).
//!
//! The paper defines a planning problem as a four-tuple `⟨C, O, I, G⟩`:
//! a finite set of ground atomic conditions `C`, a finite set of operations
//! `O` (each with preconditions, postconditions and a cost), an initial
//! state `I` and a goal state `G`. A *plan* is a finite sequence of
//! operations; an operation is *valid* in a state iff its preconditions are
//! a subset of that state.
//!
//! This crate provides:
//!
//! * [`Domain`] — the trait every planning domain implements. It exposes the
//!   state space implicitly through [`Domain::valid_operations`] and
//!   [`Domain::apply`], which is exactly the interface the paper's indirect
//!   genome encoding needs (a gene selects among the *valid* operations of
//!   the current state).
//! * [`Plan`] — a sequence of [`OpId`]s plus simulation/validation helpers.
//! * [`strips`] — a runtime-defined ground STRIPS representation with
//!   bitset states, a programmatic builder and a small text-format parser,
//!   so domains can be specified as data rather than code.

pub mod budget;
pub mod domain;
pub mod plan;
pub mod sig;
pub mod strips;
pub mod succ;

pub use budget::{Budget, CancelToken, StopCause};
pub use domain::{Domain, DomainExt, OpId};
pub use plan::{Plan, PlanOutcome, SimError};
pub use sig::{hash_one, SigBuilder};
pub use succ::{CacheStats, SuccessorCache};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while constructing or parsing planning problems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A symbol (condition, operator, …) was referenced before definition.
    UnknownSymbol(String),
    /// A symbol was defined twice.
    DuplicateSymbol(String),
    /// The STRIPS text format could not be parsed.
    Parse {
        /// 1-based line number (0 when the error is not line-specific).
        line: usize,
        /// Human-readable description.
        msg: String,
    },
    /// The problem definition is structurally invalid.
    Invalid(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::UnknownSymbol(s) => write!(f, "unknown symbol `{s}`"),
            Error::DuplicateSymbol(s) => write!(f, "duplicate symbol `{s}`"),
            Error::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            Error::Invalid(msg) => write!(f, "invalid problem: {msg}"),
        }
    }
}

impl std::error::Error for Error {}
