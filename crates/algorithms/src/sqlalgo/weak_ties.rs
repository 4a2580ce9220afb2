//! Weak ties (§3.2): nodes bridging otherwise-disconnected pairs.

use vertexica::{GraphSession, VertexicaResult};
use vertexica_common::graph::VertexId;

use super::build_undirected;

/// Per-node weak-tie counts: for a centre `v`, counts pairs `(a, b)` with
/// `a → v → b`, `a ≠ b`, where `a` and `b` have no (undirected) edge between
/// them. Implemented as: materialize the 2-path candidates with canonical
/// pair keys, anti-join against the undirected edge table via
/// `LEFT JOIN … IS NULL`. Returns all vertices (count 0 included), ordered
/// by id.
pub fn weak_ties_sql(session: &GraphSession) -> VertexicaResult<Vec<(VertexId, u64)>> {
    let db = session.db();
    let g = session.name();
    let e = session.edge_table();
    let ue = format!("{g}__ue");
    let cand = format!("{g}__wt_cand");
    let de = format!("{g}__wt_dedge");
    build_undirected(session, &ue)?;
    db.catalog().drop_table_if_exists(&cand)?;
    db.catalog().drop_table_if_exists(&de)?;

    db.execute(&format!(
        "CREATE TABLE {de} AS SELECT DISTINCT src, dst FROM {e} WHERE src <> dst"
    ))?;

    // 2-path candidates a → v → b with canonical (lo, hi) pair keys.
    db.execute(&format!(
        "CREATE TABLE {cand} AS \
         SELECT e1.dst AS v, LEAST(e1.src, e2.dst) AS lo, GREATEST(e1.src, e2.dst) AS hi \
         FROM {de} e1 JOIN {de} e2 ON e1.dst = e2.src \
         WHERE e1.src <> e2.dst AND e1.src <> e1.dst AND e2.src <> e2.dst"
    ))?;

    let rows = db.query(&format!(
        "SELECT vx.id, COUNT(c.v) FROM {v} vx \
         LEFT JOIN (SELECT m.v AS v FROM {cand} m \
                    LEFT JOIN {ue} u ON u.a = m.lo AND u.b = m.hi \
                    WHERE u.a IS NULL) c ON vx.id = c.v \
         GROUP BY vx.id ORDER BY vx.id",
        v = session.vertex_table()
    ))?;
    for t in [&ue, &cand, &de] {
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

    #[test]
    fn open_path_is_a_weak_tie() {
        let graph = EdgeList::from_pairs([(0, 1), (1, 2)]);
        let session = session_with(&graph);
        let wt = weak_ties_sql(&session).unwrap();
        assert_eq!(wt, vec![(0, 0), (1, 1), (2, 0)]);
    }

    #[test]
    fn closed_triangle_is_not() {
        let graph = EdgeList::from_pairs([(0, 1), (1, 2), (0, 2)]);
        let session = session_with(&graph);
        let wt = weak_ties_sql(&session).unwrap();
        assert!(wt.iter().all(|&(_, c)| c == 0), "{wt:?}");
    }

    #[test]
    fn matches_reference_on_random_graph() {
        use vertexica_graphgen::models::erdos_renyi;
        let graph = erdos_renyi(30, 90, 5);
        let session = session_with(&graph);
        let sql = weak_ties_sql(&session).unwrap();
        let expected = reference::weak_ties(&graph);
        for (id, c) in sql {
            assert_eq!(c, expected[id as usize], "vertex {id}");
        }
    }

    #[test]
    fn matches_reference_on_messy_graph() {
        let graph = messy_graph();
        let session = session_with(&graph);
        let sql = weak_ties_sql(&session).unwrap();
        let expected = reference::weak_ties(&graph);
        assert_eq!(sql.len(), expected.len());
        for (id, c) in sql {
            assert_eq!(c, expected[id as usize], "vertex {id}");
        }
    }

    #[test]
    fn bridge_vertex_counts_both_directions_of_pairs_once() {
        // 0 → 1, 2 → 1, 1 → 3: pairs through 1: (0,3), (2,3).
        let graph = EdgeList::from_pairs([(0, 1), (2, 1), (1, 3)]);
        let session = session_with(&graph);
        let wt = weak_ties_sql(&session).unwrap();
        assert_eq!(wt[1].1, 2);
    }
}
