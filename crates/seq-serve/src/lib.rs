//! Concurrent query serving: the `seqd` daemon core, and the session
//! `seqsh` runs in process.
//!
//! The repo's engine crates (`seq-lang` → `seq-opt` → `seq-exec`) evaluate
//! one query for one caller. This crate makes that multi-client:
//!
//! - [`snapshot`] — epoch-stamped catalog publication (queries run against
//!   immutable snapshots; a replaced snapshot is freed when its last reader
//!   lets go) plus a cross-session measured-statistics overlay that epoch
//!   advances invalidate;
//! - [`canon`] — token-level query normalization: literals in expression
//!   positions are parameterized out so shape-identical queries share one
//!   template;
//! - [`plancache`] — the normalized plan cache keyed on (template, range,
//!   optimizer knobs), stamped with catalog epoch + statistics revision,
//!   serving hits by rebinding cached plans to new literals;
//! - [`engine`] — the shared query engine: snapshot + cache + pooled
//!   telemetry, with sessions reduced to a config struct;
//! - [`session`] — the one session grammar and command executor, which a
//!   `seqd` connection and `seqsh`'s local mode both run;
//! - [`server`] — the TCP layer: line protocol, bounded worker pool with
//!   load shedding (`ERR busy`), graceful drain on shutdown;
//! - [`client`] — the thin wire client `seqsh --connect` uses.

pub mod canon;
pub mod client;
pub mod engine;
pub mod plancache;
pub mod server;
pub mod session;
pub mod snapshot;

pub use canon::{canonicalize, CanonQuery};
pub use client::Client;
pub use engine::{Engine, QueryOutcome, SessionConfig, TemplateReport};
pub use plancache::{cache_key, CacheKey, Lookup, PlanCache};
pub use server::{
    install_signal_handlers, request_signal_shutdown, serve, signal_shutdown_requested, Admission,
    ServerConfig, ServerHandle,
};
pub use session::{Command, Reply, Step};
pub use snapshot::{SharedCatalog, SharedStats, Snapshot};
