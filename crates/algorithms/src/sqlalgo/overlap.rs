//! Strong overlap (§3.2): node pairs sharing many out-neighbours.

use vertexica::{GraphSession, VertexicaResult};
use vertexica_common::graph::VertexId;

/// Finds ordered pairs `(a < b)` with at least `k` common out-neighbours.
/// Returns `(a, b, common_count)` sorted by pair.
pub fn strong_overlap_sql(
    session: &GraphSession,
    k: u64,
) -> VertexicaResult<Vec<(VertexId, VertexId, u64)>> {
    let db = session.db();
    let e = session.edge_table();
    let g = session.name();
    let de = format!("{g}__dedge");
    db.catalog().drop_table_if_exists(&de)?;
    // Distinct edges: duplicate src→dst rows must not inflate overlap.
    db.execute(&format!("CREATE TABLE {de} AS SELECT DISTINCT src, dst FROM {e}"))?;
    let rows = db.query(&format!(
        "SELECT e1.src AS a, e2.src AS b, COUNT(*) AS common \
         FROM {de} e1 JOIN {de} e2 ON e1.dst = e2.dst \
         WHERE e1.src < e2.src \
         GROUP BY e1.src, e2.src \
         HAVING COUNT(*) >= {k} \
         ORDER BY a, b"
    ))?;
    db.catalog().drop_table_if_exists(&de)?;
    Ok(rows
        .into_iter()
        .map(|r| {
            (
                r[0].as_int().unwrap_or(0) as VertexId,
                r[1].as_int().unwrap_or(0) as VertexId,
                r[2].as_int().unwrap_or(0) as u64,
            )
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::sqlalgo::testutil::{messy_graph, session_with};
    use vertexica_common::graph::EdgeList;

    #[test]
    fn matches_reference() {
        let graph = EdgeList::from_pairs([(0, 2), (0, 3), (1, 2), (1, 3), (4, 2), (4, 3), (5, 2)]);
        let session = session_with(&graph);
        let sql = strong_overlap_sql(&session, 2).unwrap();
        let expected = reference::strong_overlap(&graph, 2);
        assert_eq!(sql, expected);
        // Pairs {0,1}, {0,4}, {1,4} all share {2,3}.
        assert_eq!(sql.len(), 3);
        assert!(sql.iter().all(|&(_, _, c)| c == 2));
    }

    #[test]
    fn matches_reference_on_messy_graph() {
        let graph = messy_graph();
        let session = session_with(&graph);
        for k in [1, 2] {
            assert_eq!(
                strong_overlap_sql(&session, k).unwrap(),
                reference::strong_overlap(&graph, k)
            );
        }
    }

    #[test]
    fn threshold_filters() {
        let graph = EdgeList::from_pairs([(0, 2), (1, 2)]);
        let session = session_with(&graph);
        assert_eq!(strong_overlap_sql(&session, 2).unwrap().len(), 0);
        assert_eq!(strong_overlap_sql(&session, 1).unwrap(), vec![(0, 1, 1)]);
    }

    #[test]
    fn duplicate_edges_not_double_counted() {
        let graph = EdgeList::from_pairs([(0, 2), (0, 2), (1, 2), (1, 2)]);
        let session = session_with(&graph);
        assert_eq!(strong_overlap_sql(&session, 1).unwrap(), vec![(0, 1, 1)]);
    }
}
