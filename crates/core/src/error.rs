//! Error type for the Vertexica layer.

use std::fmt;

use vertexica_sql::SqlError;
use vertexica_storage::StorageError;

/// Errors from graph sessions and the vertex-centric runtime.
#[derive(Debug)]
pub enum VertexicaError {
    Sql(SqlError),
    Storage(StorageError),
    /// Vertex/message payloads failed to decode.
    Codec(String),
    /// A resume or repair found no usable superstep stamp: none committed,
    /// or a malformed, duplicate or unknown stamp row.
    Recovery(String),
    /// Anything else.
    Runtime(String),
}

impl fmt::Display for VertexicaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VertexicaError::Sql(e) => write!(f, "sql error: {e}"),
            VertexicaError::Storage(e) => write!(f, "storage error: {e}"),
            VertexicaError::Codec(m) => write!(f, "codec error: {m}"),
            VertexicaError::Recovery(m) => write!(f, "recovery error: {m}"),
            VertexicaError::Runtime(m) => write!(f, "runtime error: {m}"),
        }
    }
}

impl std::error::Error for VertexicaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VertexicaError::Sql(e) => Some(e),
            VertexicaError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SqlError> for VertexicaError {
    fn from(e: SqlError) -> Self {
        VertexicaError::Sql(e)
    }
}

impl From<StorageError> for VertexicaError {
    fn from(e: StorageError) -> Self {
        VertexicaError::Storage(e)
    }
}

/// Result alias.
pub type VertexicaResult<T> = Result<T, VertexicaError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: VertexicaError = SqlError::Plan("x".into()).into();
        assert!(e.to_string().contains("sql error"));
        let e: VertexicaError = StorageError::NoSuchTable("t".into()).into();
        assert!(e.to_string().contains("storage error"));
        assert!(VertexicaError::Codec("bad".into()).to_string().contains("codec"));
    }
}
