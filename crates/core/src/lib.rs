//! **Vertexica** — vertex-centric graph analytics on a relational engine.
//!
//! Reproduction of *"Vertexica: Your Relational Friend for Graph Analytics!"*
//! (Jindal et al., VLDB 2014). The system stores graphs in three relational
//! tables (vertex, edge, message), exposes a Pregel-style API
//! ([`vertexica_common::VertexProgram`]) and executes user compute functions
//! *inside* an unmodified SQL engine:
//!
//! * the [`coordinator`] is a stored procedure driving supersteps;
//! * the [`worker`] is a transform UDF (one instance per partition, run on a
//!   pool sized to the core count);
//! * [`input`] assembles worker input as a **table union** (the paper's key
//!   optimization) of the vertex and message tables;
//! * [`projection`] keeps the static edge table out of that per-superstep
//!   input: a sorted table of it, one buffer-pool segment per partition,
//!   built once and pinned by each partition's worker;
//! * [`apply`] writes superstep results back by **replacing** tables (§2.3's
//!   left-join + table swap, as one per-partition merge): every superstep
//!   that changes a vertex rebuilds the vertex table in one atomic commit;
//! * [`shard`] holds the one superstep loop, whose every apply commit also
//!   stamps the superstep it committed: a run resumes from that stamp
//!   ([`coordinator::resume_program`], [`resume_sharded`]), in process or
//!   after a crash of a durable database;
//! * [`mutation`] provides graph mutations and temporal snapshots, and
//!   [`pipeline`] composes relational pre-/post-processing with graph
//!   algorithms into end-to-end dataflows.

pub mod apply;
pub mod config;
pub mod coordinator;
pub mod error;
pub mod input;
pub mod mutation;
pub mod pipeline;
pub mod projection;
pub mod session;
pub mod shard;
pub mod worker;

pub use config::VertexicaConfig;
pub use coordinator::{run_program, RunStats, SuperstepStats};
pub use error::{VertexicaError, VertexicaResult};
pub use projection::EdgeProjection;
pub use session::GraphSession;
pub use shard::{
    repair_if_needed, resume_sharded, run_sharded, ShardedDatabase, ShardedGraphSession,
};

// Re-export the layers underneath so downstream users need one dependency.
pub use vertexica_common as common;
pub use vertexica_sql as sql;
pub use vertexica_storage as storage;
