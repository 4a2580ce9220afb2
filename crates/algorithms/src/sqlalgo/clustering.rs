//! Clustering coefficients in SQL (triangles ÷ wedges).

use vertexica::{GraphSession, VertexicaResult};
use vertexica_common::graph::VertexId;

use super::{build_undirected, per_node_triangles_sql};

/// Local clustering coefficient per node:
/// `2·triangles(v) / (deg(v)·(deg(v)−1))` over the undirected graph
/// (0 for degree < 2). Ordered by id.
pub fn local_clustering_sql(session: &GraphSession) -> VertexicaResult<Vec<(VertexId, f64)>> {
    let db = session.db();
    let g = session.name();
    let ue = format!("{g}__ue_cc");
    build_undirected(session, &ue)?;

    // Undirected degree per vertex.
    let deg_rows = db.query(&format!(
        "SELECT v.id, COUNT(u.a) FROM {v} v \
         LEFT JOIN (SELECT a FROM {ue} UNION ALL SELECT b FROM {ue}) u ON v.id = u.a \
         GROUP BY v.id ORDER BY v.id",
        v = session.vertex_table()
    ))?;
    db.catalog().drop_table_if_exists(&ue)?;

    let triangles = per_node_triangles_sql(session)?;
    Ok(deg_rows
        .into_iter()
        .zip(triangles)
        .map(|(dr, (id, tri))| {
            let d = dr[1].as_int().unwrap_or(0) as f64;
            let coeff = if d < 2.0 { 0.0 } else { 2.0 * tri as f64 / (d * (d - 1.0)) };
            (id, coeff)
        })
        .collect())
}

/// Global clustering coefficient: `3·triangles / wedges` where a wedge is an
/// ordered-independent pair of distinct neighbours (`Σ_v deg(v)·(deg(v)−1)/2`).
pub fn global_clustering_sql(session: &GraphSession) -> VertexicaResult<f64> {
    let db = session.db();
    let g = session.name();
    let ue = format!("{g}__ue_gc");
    build_undirected(session, &ue)?;
    let wedges = db
        .query_scalar(&format!(
            "SELECT COALESCE(SUM(d.deg * (d.deg - 1) / 2.0), 0.0) FROM \
             (SELECT u.a AS id, COUNT(*) AS deg \
              FROM (SELECT a FROM {ue} UNION ALL SELECT b AS a FROM {ue}) u \
              GROUP BY u.a) d"
        ))?
        .as_float()
        .unwrap_or(0.0);
    db.catalog().drop_table_if_exists(&ue)?;
    let triangles = super::triangle_count_sql(session)? as f64;
    Ok(if wedges == 0.0 { 0.0 } else { 3.0 * triangles / wedges })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::sqlalgo::testutil::{messy_graph, session_with};
    use vertexica_common::graph::EdgeList;

    #[test]
    fn local_matches_reference() {
        // Triangle 0-1-2 plus tail 2-3.
        let graph = EdgeList::from_pairs([(0, 1), (1, 2), (0, 2), (2, 3)]);
        let session = session_with(&graph);
        let sql = local_clustering_sql(&session).unwrap();
        let expected = reference::local_clustering(&graph);
        for (id, c) in sql {
            assert!(
                (c - expected[id as usize]).abs() < 1e-9,
                "vertex {id}: {c} vs {}",
                expected[id as usize]
            );
        }
    }

    #[test]
    fn local_matches_reference_on_messy_graph() {
        let graph = messy_graph();
        let session = session_with(&graph);
        let sql = local_clustering_sql(&session).unwrap();
        let expected = reference::local_clustering(&graph);
        assert_eq!(sql.len(), expected.len());
        for (id, c) in sql {
            let want = expected[id as usize];
            assert!((c - want).abs() < 1e-9, "vertex {id}: {c} vs {want}");
        }
    }

    #[test]
    fn global_on_complete_graph_is_one() {
        use vertexica_graphgen::models::complete;
        let session = session_with(&complete(5));
        let c = global_clustering_sql(&session).unwrap();
        assert!((c - 1.0).abs() < 1e-9, "got {c}");
    }

    #[test]
    fn global_on_star_is_zero() {
        use vertexica_graphgen::models::star;
        let session = session_with(&star(6));
        let c = global_clustering_sql(&session).unwrap();
        assert_eq!(c, 0.0);
    }

    #[test]
    fn triangle_free_graph_zero_local() {
        let graph = EdgeList::from_pairs([(0, 1), (1, 2)]);
        let session = session_with(&graph);
        let sql = local_clustering_sql(&session).unwrap();
        assert!(sql.iter().all(|&(_, c)| c == 0.0));
    }
}
