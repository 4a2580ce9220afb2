//! SQL engine over `vertexica-storage` — the query layer of the "Vertica"
//! substrate.
//!
//! A classic pipeline: [`lexer`] → [`parser`] (AST in [`ast`]) → [`planner`]
//! (logical plan in [`logical`]) → [`optimizer`] (predicate/projection
//! pushdown, constant folding) → [`physical`] (vectorized operators over
//! record batches). The [`engine::Database`] façade owns the catalog, the
//! scalar-function and transform-UDF registries (Vertica UDx equivalents) and
//! the stored-procedure registry that Vertexica's coordinator runs in.
//!
//! The dialect covers what the paper's workloads need: `CREATE TABLE` (+ `AS
//! SELECT`), `INSERT` (values and query), `UPDATE`, `DELETE`, `SELECT` with
//! joins (INNER/LEFT/RIGHT/CROSS), `WHERE`, `GROUP BY`/`HAVING`, `ORDER BY`,
//! `LIMIT`, `DISTINCT`, `UNION ALL`, subqueries in `FROM`, non-recursive
//! `WITH` CTEs, `CASE`, `CAST`, `IN`, `BETWEEN`, `LIKE`, `IS [NOT] NULL`, and
//! a library of scalar/aggregate functions.

pub mod ast;
pub mod engine;
pub mod error;
pub mod expr;
pub mod functions;
pub mod lexer;
pub mod logical;
pub mod optimizer;
pub mod parser;
pub mod physical;
pub mod planner;
pub mod udf;

pub use engine::{Database, QueryResult};
pub use error::{SqlError, SqlResult};
pub use physical::{take_or_null, JoinBuild, NO_ROW};
pub use udf::TransformUdf;
