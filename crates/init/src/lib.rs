//! # bb-init — a systemd-like init scheme on the simulated machine
//!
//! The user-space substrate of the Booting Booster reproduction: a
//! from-scratch implementation of the init-scheme layer the paper's
//! Boot-up and Service Engines live in.
//!
//! * [`mod@unit`] / [`parser`] — systemd unit files: the INI dialect,
//!   ordering and requirement directives, service types, conditions.
//! * [`graph`] — the typed dependency graph of Figure 2, with edge
//!   provenance (who declared what), SCC cycle detection, requirement
//!   closures, and Graphviz export.
//! * [`transaction`] — target expansion, conflict checking, and
//!   weak-job cycle breaking, as systemd transactions do.
//! * [`engine`] — three job engines (in-order systemd-like,
//!   out-of-order with optional path-check, serial rcS) executing a
//!   transaction on a [`bb_sim::Machine`].
//! * [`preparse`] — the Pre-parser's binary unit cache.
//! * [`chart`] — systemd-bootchart-style ASCII/SVG rendering plus
//!   blame / critical-chain analysis.

pub mod algo;
pub mod chart;
pub mod engine;
pub mod graph;
#[cfg(test)]
mod oracle;
pub mod parser;
pub mod preparse;
pub mod transaction;
pub mod unit;

pub use chart::{blame, critical_chain, render_critical_chain, time_summary, Bootchart, ChartRow};
pub use engine::{
    run_boot, BootPlan, BootRecord, EngineConfig, EngineMode, LoadModel, ManagerCosts, ManagerTask,
    PlanOverrides, ServiceBody, ServiceRecord, UnitOutcome, WorkloadMap,
};
pub use graph::{Edge, EdgeKind, GraphError, GraphStats, UnitGraph};
pub use parser::{
    parse_unit, parse_unit_dir, parse_unit_dir_with_warnings, parse_unit_set, DirectiveWarning,
    DirectiveWarningKind, FileWarnings, ParseError, ParseErrorKind, Parsed, UnitDirError,
};
pub use preparse::{
    blob_content_hash, decode_units, encode_units, encoded_len, unit_set_hash, CodecError,
    INTEGRITY_OVERHEAD,
};
pub use transaction::{Transaction, TransactionError};
pub use unit::{
    ExecConfig, IoSchedulingClass, RestartPolicy, ServiceType, Unit, UnitKind, UnitName,
};
