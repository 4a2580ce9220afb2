//! Triangle counting in SQL (§3.2) — the classic 1-hop query that is
//! "very difficult or even not possible on traditional graph processing
//! systems" but a three-way self-join in a relational engine.

use vertexica::{GraphSession, VertexicaResult};
use vertexica_common::graph::VertexId;

use super::build_undirected;

/// Total triangle count (undirected interpretation).
pub fn triangle_count_sql(session: &GraphSession) -> VertexicaResult<u64> {
    let db = session.db();
    let ue = format!("{}__ue", session.name());
    build_undirected(session, &ue)?;
    // Oriented a < b < c: each triangle counted exactly once.
    let n = db.query_int(&format!(
        "SELECT COUNT(*) FROM {ue} e1 \
         JOIN {ue} e2 ON e2.a = e1.b \
         JOIN {ue} e3 ON e3.a = e1.a AND e3.b = e2.b"
    ))?;
    db.catalog().drop_table_if_exists(&ue)?;
    Ok(n as u64)
}

/// Triangles per node (a node participates in every triangle covering it).
pub fn per_node_triangles_sql(session: &GraphSession) -> VertexicaResult<Vec<(VertexId, u64)>> {
    let db = session.db();
    let g = session.name();
    let ue = format!("{g}__ue");
    let tri = format!("{g}__tri");
    build_undirected(session, &ue)?;
    db.catalog().drop_table_if_exists(&tri)?;
    // Materialize oriented triangles, then credit all three corners.
    db.execute(&format!(
        "CREATE TABLE {tri} AS \
         SELECT e1.a AS x, e1.b AS y, e2.b AS z FROM {ue} e1 \
         JOIN {ue} e2 ON e2.a = e1.b \
         JOIN {ue} e3 ON e3.a = e1.a AND e3.b = e2.b"
    ))?;
    let rows = db.query(&format!(
        "SELECT v.id, COUNT(t.c) FROM {v} v \
         LEFT JOIN (SELECT x AS c FROM {tri} UNION ALL \
                    SELECT y FROM {tri} UNION ALL \
                    SELECT z FROM {tri}) t ON v.id = t.c \
         GROUP BY v.id ORDER BY v.id",
        v = session.vertex_table()
    ))?;
    for t in [&ue, &tri] {
        db.catalog().drop_table_if_exists(t)?;
    }
    Ok(rows
        .into_iter()
        .map(|r| (r[0].as_int().unwrap_or(0) as VertexId, r[1].as_int().unwrap_or(0) as u64))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::sqlalgo::testutil::{messy_graph, session_with};
    use vertexica_common::graph::EdgeList;

    fn two_triangles_sharing_an_edge() -> EdgeList {
        // Triangles {0,1,2} and {1,2,3}.
        EdgeList::from_pairs([(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn total_count_matches_reference() {
        let graph = two_triangles_sharing_an_edge();
        let session = session_with(&graph);
        assert_eq!(triangle_count_sql(&session).unwrap(), 2);
        assert_eq!(reference::triangle_count(&graph), 2);
    }

    #[test]
    fn per_node_counts_match_reference() {
        let graph = two_triangles_sharing_an_edge();
        let session = session_with(&graph);
        let sql = per_node_triangles_sql(&session).unwrap();
        let expected = reference::per_node_triangles(&graph);
        for (id, c) in sql {
            assert_eq!(c, expected[id as usize], "vertex {id}");
        }
    }

    #[test]
    fn counts_match_reference_on_messy_graph() {
        let graph = messy_graph();
        let session = session_with(&graph);
        assert_eq!(triangle_count_sql(&session).unwrap(), reference::triangle_count(&graph));
        let sql = per_node_triangles_sql(&session).unwrap();
        let expected = reference::per_node_triangles(&graph);
        assert_eq!(sql.len(), expected.len());
        for (id, c) in sql {
            assert_eq!(c, expected[id as usize], "vertex {id}");
        }
    }

    #[test]
    fn direction_and_duplicates_ignored() {
        // Same triangle expressed with mixed directions and duplicates.
        let graph = EdgeList::from_pairs([(0, 1), (1, 0), (2, 1), (0, 2), (0, 2)]);
        let session = session_with(&graph);
        assert_eq!(triangle_count_sql(&session).unwrap(), 1);
    }

    #[test]
    fn triangle_free_graph() {
        let graph = EdgeList::from_pairs([(0, 1), (1, 2), (2, 3)]);
        let session = session_with(&graph);
        assert_eq!(triangle_count_sql(&session).unwrap(), 0);
    }
}
