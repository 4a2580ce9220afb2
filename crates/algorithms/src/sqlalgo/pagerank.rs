//! PageRank in pure SQL: join-aggregate per iteration, CTAS + swap.

use vertexica::{GraphSession, VertexicaResult};
use vertexica_common::graph::VertexId;

/// PageRank with damping and dangling-mass redistribution, `iterations`
/// updates. Semantics match [`crate::reference::pagerank`] exactly.
pub fn pagerank_sql(
    session: &GraphSession,
    iterations: usize,
    damping: f64,
) -> VertexicaResult<Vec<(VertexId, f64)>> {
    let db = session.db();
    let v = session.vertex_table();
    let e = session.edge_table();
    let g = session.name();
    let pr = format!("{g}__pr");
    let pr_next = format!("{g}__pr_next");
    let deg = format!("{g}__outdeg");
    for t in [&pr, &pr_next, &deg] {
        db.catalog().drop_table_if_exists(t)?;
    }

    let n = session.num_vertices()?.max(1);
    // Out-degrees once.
    db.execute(&format!(
        "CREATE TABLE {deg} AS \
         SELECT v.id AS id, COUNT(e.src) AS d FROM {v} v \
         LEFT JOIN {e} e ON v.id = e.src GROUP BY v.id"
    ))?;
    // Uniform start. The rank table also carries each vertex's pre-divided
    // out-share, so the per-iteration edge join touches a single table — the
    // kind of hand-tuning the paper's "meticulously optimized SQL" refers to.
    db.execute(&format!(
        "CREATE TABLE {pr} AS \
         SELECT o.id AS id, 1.0 / {n} AS rank, \
                CASE WHEN o.d > 0 THEN 1.0 / ({n} * o.d) ELSE 0.0 END AS share, \
                o.d AS d \
         FROM {deg} o"
    ))?;

    for _ in 0..iterations {
        db.execute(&iteration_sql(&v, &e, &pr, &pr_next, &deg, n, damping))?;
        db.catalog().swap(&pr, &pr_next)?;
        db.catalog().drop_table_if_exists(&pr_next)?;
    }

    let rows = db.query(&format!("SELECT id, rank FROM {pr} ORDER BY id"))?;
    for t in [&pr, &deg] {
        db.catalog().drop_table_if_exists(t)?;
    }
    Ok(rows
        .into_iter()
        .map(|r| (r[0].as_int().unwrap_or(0) as VertexId, r[1].as_float().unwrap_or(0.0)))
        .collect())
}

/// One PageRank iteration: `pr_next` from `pr`, the vertex table `v`, the
/// edge table `e` and the out-degree table `deg`.
fn iteration_sql(
    v: &str,
    e: &str,
    pr: &str,
    pr_next: &str,
    deg: &str,
    n: u64,
    damping: f64,
) -> String {
    format!(
        "CREATE TABLE {pr_next} AS \
             SELECT r.id AS id, r.rank AS rank, \
                    CASE WHEN o.d > 0 THEN r.rank / o.d ELSE 0.0 END AS share, \
                    o.d AS d \
             FROM (SELECT v.id AS id, \
                          (1.0 - {damping}) / {n} + \
                          {damping} * (COALESCE(c.contrib, 0.0) + dang.mass / {n}) AS rank \
                   FROM {v} v \
                   LEFT JOIN (SELECT e.dst AS id, SUM(p.share) AS contrib \
                              FROM {e} e JOIN {pr} p ON p.id = e.src \
                              GROUP BY e.dst) c ON v.id = c.id \
                   CROSS JOIN (SELECT COALESCE(SUM(p.rank), 0.0) AS mass \
                               FROM {pr} p WHERE p.d = 0) dang) r \
             JOIN {deg} o ON r.id = o.id"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::sqlalgo::testutil::{messy_graph, session_with};
    use vertexica_common::graph::EdgeList;

    #[test]
    fn matches_reference_with_dangling() {
        let graph = EdgeList::from_pairs([(0, 1), (1, 2), (2, 0), (2, 3), (1, 3)]);
        let session = session_with(&graph);
        let sql_pr = pagerank_sql(&session, 12, 0.85).unwrap();
        let expected = reference::pagerank(&graph, 12, 0.85);
        assert_eq!(sql_pr.len(), expected.len());
        for (id, rank) in sql_pr {
            assert!(
                (rank - expected[id as usize]).abs() < 1e-9,
                "vertex {id}: {rank} vs {}",
                expected[id as usize]
            );
        }
    }

    #[test]
    fn matches_reference_on_messy_graph() {
        let graph = messy_graph();
        let session = session_with(&graph);
        let sql_pr = pagerank_sql(&session, 10, 0.85).unwrap();
        let expected = reference::pagerank(&graph, 10, 0.85);
        assert_eq!(sql_pr.len(), expected.len());
        for (id, rank) in sql_pr {
            let want = expected[id as usize];
            assert!((rank - want).abs() < 1e-12, "vertex {id}: {rank} vs {want}");
        }
    }

    #[test]
    fn ranks_sum_to_one() {
        let graph = EdgeList::from_pairs([(0, 1), (1, 0), (2, 0)]);
        let session = session_with(&graph);
        let pr = pagerank_sql(&session, 10, 0.85).unwrap();
        let total: f64 = pr.iter().map(|(_, r)| r).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    /// The optimizer prunes every column the iteration does not read: the
    /// scans below the joins and aggregates read only what the statement
    /// touches, and no join emits a column its reader ignores. Run with
    /// `--nocapture` to print the plan.
    #[test]
    fn explain_iteration_prunes_columns() {
        let graph = EdgeList::from_pairs([(0, 1), (1, 2), (2, 0), (2, 3)]);
        let session = session_with(&graph);
        let db = session.db();
        db.execute("CREATE TABLE t__pr (id BIGINT, rank FLOAT, share FLOAT, d BIGINT)").unwrap();
        db.execute("CREATE TABLE t__outdeg (id BIGINT, d BIGINT)").unwrap();
        let (v, e) = (session.vertex_table(), session.edge_table());
        let ctas = iteration_sql(&v, &e, "t__pr", "t__pr_next", "t__outdeg", 4, 0.85);
        let select = ctas.strip_prefix("CREATE TABLE t__pr_next AS ").unwrap();
        let plan: Vec<String> = db
            .query(&format!("EXPLAIN {select}"))
            .unwrap()
            .into_iter()
            .map(|row| row[0].as_str().unwrap().to_string())
            .collect();
        println!("{}", plan.join("\n"));
        let scans: Vec<&str> =
            plan.iter().filter_map(|l| l.trim_start().strip_prefix("Scan ")).collect();
        for want in [
            format!("{e} [src, dst]"),
            "t__pr [id, share]".to_string(),
            "t__pr [rank] preds=[d Eq 0]".to_string(),
            format!("{v} [id]"),
            "t__outdeg [id, d]".to_string(),
        ] {
            assert!(scans.iter().any(|s| s.starts_with(&want)), "no scan {want}: {scans:?}");
        }
        assert_eq!(scans.len(), 5, "{scans:?}");
        assert_no_wide_join(&plan);
    }

    /// Every join in an `EXPLAIN` emits at most the columns its reader uses:
    /// a join's output is its `width`, or that of the column-only Project
    /// fused over it (its gather list); the reader is the next Project or
    /// Aggregate up, and it reads the distinct `#i` columns on its line.
    fn assert_no_wide_join(plan: &[String]) {
        let depth = |l: &str| (l.len() - l.trim_start().len()) / 2;
        let parent = |i: usize| (0..i).rev().find(|&p| depth(&plan[p]) < depth(&plan[i]));
        let width = |l: &str| -> usize {
            let w = l.split("width=").nth(1).unwrap();
            w.split(|c: char| !c.is_ascii_digit()).next().unwrap().parse().unwrap()
        };
        let reads = |l: &str| -> usize {
            let mut cols: Vec<&str> = l
                .split('#')
                .skip(1)
                .map(|c| c.split(|ch: char| !ch.is_ascii_digit()).next().unwrap())
                .collect();
            cols.sort_unstable();
            cols.dedup();
            cols.len()
        };
        let is_gather = |l: &str| {
            let exprs =
                l.trim_start().strip_prefix("Project width=").map(|r| r.split_once(' ').unwrap().1);
            exprs
                .is_some_and(|x| x.trim_matches(['[', ']']).split(", ").all(|c| c.starts_with('#')))
        };
        let mut joins = 0;
        for (i, line) in plan.iter().enumerate() {
            if !line.trim_start().starts_with("Join ") {
                continue;
            }
            joins += 1;
            let mut emitted = width(line);
            let mut reader = parent(i);
            if let Some(p) = reader.filter(|&p| is_gather(&plan[p])) {
                emitted = width(&plan[p]);
                reader = parent(p);
            }
            let Some(r) = reader else { continue };
            let r_line = plan[r].trim_start();
            if r_line.starts_with("Project ") || r_line.starts_with("Aggregate ") {
                assert!(
                    emitted <= reads(r_line),
                    "join at line {i} emits {emitted} columns: {plan:#?}"
                );
            }
        }
        assert_eq!(joins, 4, "{plan:#?}");
    }

    #[test]
    fn temp_tables_cleaned_up() {
        let graph = EdgeList::from_pairs([(0, 1)]);
        let session = session_with(&graph);
        pagerank_sql(&session, 2, 0.85).unwrap();
        assert!(!session.db().catalog().contains("t__pr"));
        assert!(!session.db().catalog().contains("t__outdeg"));
    }
}
