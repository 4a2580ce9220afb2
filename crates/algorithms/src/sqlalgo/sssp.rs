//! Single-source shortest paths in pure SQL (Bellman–Ford with early exit).

use vertexica::{GraphSession, VertexicaResult};
use vertexica_common::graph::VertexId;

/// "Infinity" sentinel representable as a SQL literal. (`f64` formatting
/// would expand 1e308 to 309 digits, which the lexer reads as an overflowing
/// integer — so the SQL text uses the scientific-notation literal.)
const INF: f64 = 1e308;
const INF_SQL: &str = "1e308";

/// SSSP by relaxation rounds: each round joins the frontier distances with
/// the edge table, takes the per-destination MIN, and stops when no distance
/// improves. Unreachable vertices report `f64::INFINITY`.
pub fn sssp_sql(session: &GraphSession, source: VertexId) -> VertexicaResult<Vec<(VertexId, f64)>> {
    let db = session.db();
    let v = session.vertex_table();
    let e = session.edge_table();
    let g = session.name();
    let dist = format!("{g}__dist");
    let dist_next = format!("{g}__dist_next");
    for t in [&dist, &dist_next] {
        db.catalog().drop_table_if_exists(t)?;
    }

    db.execute(&format!(
        "CREATE TABLE {dist} AS \
         SELECT v.id AS id, CASE WHEN v.id = {source} THEN 0.0 ELSE {INF_SQL} END AS d \
         FROM {v} v"
    ))?;

    let n = session.num_vertices()?.max(1);
    for _ in 0..n {
        db.execute(&format!(
            "CREATE TABLE {dist_next} AS \
             SELECT v.id AS id, LEAST(d0.d, COALESCE(m.best, {INF_SQL})) AS d \
             FROM {v} v \
             JOIN {dist} d0 ON v.id = d0.id \
             LEFT JOIN (SELECT e.dst AS id, MIN(d.d + e.weight) AS best \
                        FROM {e} e JOIN {dist} d ON d.id = e.src \
                        WHERE d.d < {INF_SQL} \
                        GROUP BY e.dst) m ON v.id = m.id"
        ))?;
        let improved = db.query_int(&format!(
            "SELECT COUNT(*) FROM {dist_next} a JOIN {dist} b ON a.id = b.id \
             WHERE a.d < b.d"
        ))?;
        db.catalog().swap(&dist, &dist_next)?;
        db.catalog().drop_table_if_exists(&dist_next)?;
        if improved == 0 {
            break;
        }
    }

    let rows = db.query(&format!("SELECT id, d FROM {dist} ORDER BY id"))?;
    db.catalog().drop_table_if_exists(&dist)?;
    Ok(rows
        .into_iter()
        .map(|r| {
            let d = r[1].as_float().unwrap_or(INF);
            (r[0].as_int().unwrap_or(0) as VertexId, if d >= INF { f64::INFINITY } else { d })
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::sqlalgo::testutil::{messy_graph, session_with};
    use vertexica_common::graph::{Edge, EdgeList};

    #[test]
    fn matches_dijkstra() {
        let graph = EdgeList::new(
            6,
            vec![
                Edge::weighted(0, 1, 2.0),
                Edge::weighted(0, 2, 4.0),
                Edge::weighted(1, 2, 1.0),
                Edge::weighted(2, 3, 3.0),
                Edge::weighted(1, 3, 7.0),
                Edge::weighted(3, 4, 1.0),
            ],
        );
        let session = session_with(&graph);
        let sql = sssp_sql(&session, 0).unwrap();
        let expected = reference::sssp(&graph, 0);
        for (id, d) in sql {
            let want = expected[id as usize];
            if want.is_infinite() {
                assert!(d.is_infinite(), "vertex {id} should be unreachable");
            } else {
                assert!((d - want).abs() < 1e-9, "vertex {id}: {d} vs {want}");
            }
        }
    }

    #[test]
    fn matches_dijkstra_on_messy_graph() {
        let graph = messy_graph();
        let session = session_with(&graph);
        let sql = sssp_sql(&session, 0).unwrap();
        let expected = reference::sssp(&graph, 0);
        assert_eq!(sql.len(), expected.len());
        for (id, d) in sql {
            let want = expected[id as usize];
            if want.is_infinite() {
                assert!(d.is_infinite(), "vertex {id} should be unreachable");
            } else {
                assert!((d - want).abs() < 1e-9, "vertex {id}: {d} vs {want}");
            }
        }
    }

    #[test]
    fn early_exit_on_convergence() {
        // A 20-chain converges in 20 relaxations even though n allows more.
        let graph = EdgeList::from_pairs((0..20u64).map(|i| (i, i + 1)));
        let session = session_with(&graph);
        let sql = sssp_sql(&session, 0).unwrap();
        assert_eq!(sql[20].1, 20.0);
    }

    #[test]
    fn source_not_zero() {
        let graph = EdgeList::from_pairs([(0, 1), (1, 2)]);
        let session = session_with(&graph);
        let sql = sssp_sql(&session, 2).unwrap();
        assert!(sql[0].1.is_infinite());
        assert_eq!(sql[2].1, 0.0);
    }
}
