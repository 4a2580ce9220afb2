//! Connected components in SQL: iterative min-label propagation.

use vertexica::{GraphSession, VertexicaResult};
use vertexica_common::graph::VertexId;

/// Min-label propagation until fixpoint. Labels propagate along *out* edges;
/// load the graph with both directions (undirected) for weakly connected
/// components.
pub fn connected_components_sql(session: &GraphSession) -> VertexicaResult<Vec<(VertexId, u64)>> {
    let db = session.db();
    let v = session.vertex_table();
    let e = session.edge_table();
    let g = session.name();
    let comp = format!("{g}__comp");
    let comp_next = format!("{g}__comp_next");
    for t in [&comp, &comp_next] {
        db.catalog().drop_table_if_exists(t)?;
    }

    db.execute(&format!("CREATE TABLE {comp} AS SELECT v.id AS id, v.id AS label FROM {v} v"))?;

    let n = session.num_vertices()?.max(1);
    for _ in 0..n {
        db.execute(&format!(
            "CREATE TABLE {comp_next} AS \
             SELECT v.id AS id, LEAST(c.label, COALESCE(m.minl, c.label)) AS label \
             FROM {v} v \
             JOIN {comp} c ON v.id = c.id \
             LEFT JOIN (SELECT e.dst AS id, MIN(c.label) AS minl \
                        FROM {e} e JOIN {comp} c ON c.id = e.src \
                        GROUP BY e.dst) m ON v.id = m.id"
        ))?;
        let changed = db.query_int(&format!(
            "SELECT COUNT(*) FROM {comp_next} a JOIN {comp} b ON a.id = b.id \
             WHERE a.label < b.label"
        ))?;
        db.catalog().swap(&comp, &comp_next)?;
        db.catalog().drop_table_if_exists(&comp_next)?;
        if changed == 0 {
            break;
        }
    }

    let rows = db.query(&format!("SELECT id, label FROM {comp} ORDER BY id"))?;
    db.catalog().drop_table_if_exists(&comp)?;
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

    #[test]
    fn matches_union_find_on_undirected() {
        let graph = EdgeList::from_pairs([(0, 1), (1, 2), (3, 4), (5, 6), (6, 3)]).undirected();
        let session = session_with(&graph);
        let sql = connected_components_sql(&session).unwrap();
        let expected = reference::weakly_connected_components(&graph);
        for (id, label) in sql {
            assert_eq!(label, expected[id as usize], "vertex {id}");
        }
    }

    #[test]
    fn matches_union_find_on_messy_graph() {
        let graph = messy_graph().undirected();
        let session = session_with(&graph);
        let sql = connected_components_sql(&session).unwrap();
        let expected = reference::weakly_connected_components(&graph);
        assert_eq!(sql.len(), expected.len());
        for (id, label) in sql {
            assert_eq!(label, expected[id as usize], "vertex {id}");
        }
    }

    #[test]
    fn singleton_components() {
        let graph = EdgeList::new(4, vec![]);
        let session = session_with(&graph);
        let sql = connected_components_sql(&session).unwrap();
        assert_eq!(sql, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn chain_converges_to_zero() {
        let graph = EdgeList::from_pairs((0..10u64).map(|i| (i, i + 1))).undirected();
        let session = session_with(&graph);
        let sql = connected_components_sql(&session).unwrap();
        assert!(sql.iter().all(|&(_, l)| l == 0));
    }
}
