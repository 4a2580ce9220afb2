//! Hand-written SQL implementations of graph algorithms — the
//! "Vertexica (SQL)" contender in Figure 2 and the toolbar's five SQL
//! algorithms (§4.1).
//!
//! Each function drives plain SQL against a [`vertexica::GraphSession`]'s
//! tables; iterative algorithms loop CREATE-TABLE-AS + swap in the driver
//! (the pattern Vertexica's own superstep machinery uses). Temporary tables
//! are prefixed with the graph name and dropped on completion.

mod clustering;
mod components;
mod overlap;
mod pagerank;
mod sssp;
mod triangles;
mod weak_ties;

pub use clustering::{global_clustering_sql, local_clustering_sql};
pub use components::connected_components_sql;
pub use overlap::strong_overlap_sql;
pub use pagerank::pagerank_sql;
pub use sssp::sssp_sql;
pub use triangles::{per_node_triangles_sql, triangle_count_sql};
pub use weak_ties::weak_ties_sql;

use vertexica::{GraphSession, VertexicaResult};
use vertexica_common::graph::VertexId;

/// Materializes `(id, score)` pairs into a table (dropping any previous
/// incarnation) so downstream SQL can join against algorithm output — the
/// glue for hybrid queries and pipelines.
pub fn store_scores(
    session: &GraphSession,
    table: &str,
    scores: &[(VertexId, f64)],
) -> VertexicaResult<()> {
    let db = session.db();
    db.catalog().drop_table_if_exists(table)?;
    db.execute(&format!("CREATE TABLE {table} (id BIGINT NOT NULL, score FLOAT) ORDER BY id"))?;
    if scores.is_empty() {
        return Ok(());
    }
    // Chunked multi-row inserts.
    for chunk in scores.chunks(512) {
        let values: Vec<String> = chunk.iter().map(|(id, s)| format!("({id}, {s:?})")).collect();
        db.execute(&format!("INSERT INTO {table} VALUES {}", values.join(", ")))?;
    }
    Ok(())
}

/// Builds the canonical undirected edge table `{name}` from the session's
/// edge table: one row per unordered pair `(a < b)`, self-loops removed.
/// Several SQL algorithms (triangles, weak ties, clustering) share it.
pub(crate) fn build_undirected(session: &GraphSession, name: &str) -> VertexicaResult<()> {
    let db = session.db();
    db.catalog().drop_table_if_exists(name)?;
    db.execute(&format!(
        "CREATE TABLE {name} AS \
         SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b \
         FROM {e} WHERE src <> dst",
        e = session.edge_table()
    ))?;
    Ok(())
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::Arc;
    use vertexica::sql::Database;
    use vertexica::GraphSession;
    use vertexica_common::graph::{Edge, EdgeList};

    /// A session with a loaded graph, for SQL algorithm tests.
    pub fn session_with(graph: &EdgeList) -> GraphSession {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db, "t").unwrap();
        g.load_edges(graph).unwrap();
        g
    }

    /// A 1 000-edge random graph with uneven weights, plus the degenerate
    /// cases every SQL algorithm must survive: a self-loop, a duplicate
    /// edge and an isolated vertex (the last id, touched by no edge).
    pub fn messy_graph() -> EdgeList {
        let g = vertexica_graphgen::models::erdos_renyi(300, 1_000, 31);
        let mut edges: Vec<Edge> = g
            .edges
            .iter()
            .enumerate()
            .map(|(i, e)| Edge::weighted(e.src, e.dst, (i % 7 + 1) as f64 / 2.0))
            .collect();
        edges.push(Edge::weighted(5, 5, 1.0));
        edges.push(edges[0]);
        EdgeList::new(g.num_vertices + 1, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testutil::session_with;
    use vertexica::storage::Value;
    use vertexica_common::graph::EdgeList;

    #[test]
    fn store_scores_roundtrip() {
        let g = session_with(&EdgeList::from_pairs([(0, 1)]));
        store_scores(&g, "scores", &[(0, 0.25), (1, 0.75)]).unwrap();
        let rows = g.db().query("SELECT id, score FROM scores ORDER BY id").unwrap();
        assert_eq!(rows[0], vec![Value::Int(0), Value::Float(0.25)]);
        assert_eq!(rows[1], vec![Value::Int(1), Value::Float(0.75)]);
        // Overwrite works.
        store_scores(&g, "scores", &[(5, 1.0)]).unwrap();
        assert_eq!(g.db().query_int("SELECT COUNT(*) FROM scores").unwrap(), 1);
    }

    #[test]
    fn undirected_canonicalizes() {
        let g = session_with(&EdgeList::from_pairs([(0, 1), (1, 0), (2, 2), (1, 2)]));
        build_undirected(&g, "ue").unwrap();
        let rows = g.db().query("SELECT a, b FROM ue ORDER BY a, b").unwrap();
        assert_eq!(rows.len(), 2); // (0,1) and (1,2); self-loop dropped
        assert_eq!(rows[0], vec![Value::Int(0), Value::Int(1)]);
    }
}
