//! Cross-crate property-based tests: algorithm invariants on random graphs,
//! engine equivalence, partitioner completeness.

use std::sync::Arc;

use proptest::prelude::*;
use vertexica::sql::Database;
use vertexica::{run_program, GraphSession, VertexicaConfig};
use vertexica_algorithms::reference;
use vertexica_algorithms::vc::{ConnectedComponents, PageRank, Sssp};
use vertexica_common::graph::{Edge, EdgeList, VertexId};
use vertexica_giraph::GiraphEngine;

/// Strategy: a random directed graph with up to `max_n` vertices.
fn arb_graph(max_n: u64, max_m: usize) -> impl Strategy<Value = EdgeList> {
    (2..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, 0.1f64..10.0), 1..=max_m).prop_map(move |pairs| {
            let edges: Vec<Edge> =
                pairs.into_iter().map(|(s, d, w)| Edge::weighted(s, d, w)).collect();
            EdgeList::new(n, edges)
        })
    })
}

fn session_for(graph: &EdgeList) -> GraphSession {
    let db = Arc::new(Database::new());
    let s = GraphSession::create(db, "g").expect("create");
    s.load_edges(graph).expect("load");
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// PageRank is a probability distribution on any graph.
    #[test]
    fn pagerank_sums_to_one(graph in arb_graph(40, 150)) {
        let ranks = reference::pagerank(&graph, 12, 0.85);
        let total: f64 = ranks.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "total {total}");
        prop_assert!(ranks.iter().all(|&r| r > 0.0));
    }

    /// The relational engine and the BSP engine agree with the reference
    /// on arbitrary graphs.
    #[test]
    fn engines_agree_on_random_graphs(graph in arb_graph(24, 80)) {
        let expected = reference::pagerank(&graph, 5, 0.85);
        let (giraph_vals, _) = GiraphEngine::default().run(&graph, &PageRank::new(5, 0.85));
        for (id, rank) in giraph_vals.iter().enumerate() {
            prop_assert!((rank - expected[id]).abs() < 1e-9, "giraph vertex {id}");
        }
        let session = session_for(&graph);
        run_program(&session, Arc::new(PageRank::new(5, 0.85)), &VertexicaConfig::default())
            .unwrap();
        let vx: Vec<(VertexId, f64)> = session.vertex_values().unwrap();
        for (id, rank) in vx {
            prop_assert!((rank - expected[id as usize]).abs() < 1e-9, "vertexica vertex {id}");
        }
    }

    /// SSSP distances form a relaxation fixpoint: d[src]=0, and for every
    /// edge (u,v,w): d[v] <= d[u] + w; every finite d[v] is witnessed by an
    /// incoming relaxed edge.
    #[test]
    fn sssp_is_a_relaxation_fixpoint(graph in arb_graph(30, 120)) {
        let dist = reference::sssp(&graph, 0);
        prop_assert_eq!(dist[0], 0.0);
        for e in &graph.edges {
            if dist[e.src as usize].is_finite() {
                prop_assert!(
                    dist[e.dst as usize] <= dist[e.src as usize] + e.weight + 1e-9,
                    "edge {}->{} violates triangle inequality", e.src, e.dst
                );
            }
        }
        for (v, &d) in dist.iter().enumerate() {
            if v != 0 && d.is_finite() {
                let witnessed = graph.edges.iter().any(|e| {
                    e.dst as usize == v
                        && dist[e.src as usize].is_finite()
                        && (dist[e.src as usize] + e.weight - d).abs() < 1e-9
                });
                prop_assert!(witnessed, "vertex {v} distance {d} has no witness");
            }
        }
    }

    /// The vertex-centric SSSP matches Dijkstra on random weighted graphs.
    #[test]
    fn vertex_centric_sssp_matches_dijkstra(graph in arb_graph(24, 80)) {
        let expected = reference::sssp(&graph, 0);
        let (vals, _) = GiraphEngine::default().run(&graph, &Sssp::new(0));
        for (id, d) in vals.iter().enumerate() {
            let want = expected[id];
            prop_assert!(
                (d.is_infinite() && want.is_infinite()) || (d - want).abs() < 1e-9,
                "vertex {id}: {d} vs {want}"
            );
        }
    }

    /// Connected-component labels are consistent: endpoints of every edge
    /// share a label, and each label is the minimum id of its class.
    #[test]
    fn wcc_is_a_valid_partition(graph in arb_graph(30, 100)) {
        let und = graph.undirected();
        let labels = reference::weakly_connected_components(&und);
        for e in &und.edges {
            prop_assert_eq!(labels[e.src as usize], labels[e.dst as usize]);
        }
        for (v, &l) in labels.iter().enumerate() {
            prop_assert!(l <= v as u64, "label must be a min id");
            prop_assert_eq!(labels[l as usize], l, "label must be its own root");
        }
        // And the vertex-centric version agrees.
        let (vc_labels, _) = GiraphEngine::default().run(&und, &ConnectedComponents);
        prop_assert_eq!(vc_labels, labels);
    }

    /// Triangle counting invariants: per-node counts sum to 3× the total,
    /// and match across the SQL implementation.
    #[test]
    fn triangle_counts_consistent(graph in arb_graph(20, 80)) {
        let per_node = reference::per_node_triangles(&graph);
        let total = reference::triangle_count(&graph);
        prop_assert_eq!(per_node.iter().sum::<u64>(), 3 * total);

        let session = session_for(&graph);
        let sql_total = vertexica_algorithms::sqlalgo::triangle_count_sql(&session).unwrap();
        prop_assert_eq!(sql_total, total);
    }

    /// Hash partitioning loses nothing and separates nothing that belongs
    /// together.
    #[test]
    fn partitioner_is_complete_and_consistent(
        keys in proptest::collection::vec(0i64..50, 1..300),
        parts in 1usize..12,
    ) {
        use vertexica::storage::{partition::hash_partition, DataType, Field, RecordBatch, Schema, Value};
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        let rows: Vec<Vec<Value>> = keys.iter().map(|&k| vec![Value::Int(k)]).collect();
        let batch = RecordBatch::from_rows(schema, &rows).unwrap();
        let out = hash_partition(&[batch], &[0], parts).unwrap();
        let total: usize = out.iter().flat_map(|p| p.iter().map(|b| b.num_rows())).sum();
        prop_assert_eq!(total, keys.len());
        // Each key appears in exactly one partition.
        for k in keys.iter().copied().collect::<std::collections::HashSet<i64>>() {
            let holders = out
                .iter()
                .filter(|p| {
                    p.iter().any(|b| {
                        b.column(0).iter().any(|v| v == Value::Int(k))
                    })
                })
                .count();
            prop_assert_eq!(holders, 1, "key {} split across partitions", k);
        }
    }

    /// Segmented storage, engine level: any random chunk split of the same
    /// rows, hash-partitioned into per-partition segment batches and
    /// committed through the parallel-apply fast path
    /// (`encode_segments_for` + `commit_tables_segmented`), must equal the
    /// one-shot table build.
    #[test]
    fn segmented_replace_matches_one_shot_build(
        rows in proptest::collection::vec((0i64..500, -1000i64..1000), 1..120),
        chunks in (1usize..6).prop_flat_map(|n| {
            proptest::collection::vec(1usize..40, n..n + 1)
        }),
        parts in 1usize..6,
    ) {
        use vertexica::storage::{partition::hash_partition, DataType, Field, RecordBatch, Schema, Value};
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("payload", DataType::Int),
        ]);
        let to_batch = |rows: &[(i64, i64)]| {
            let vals: Vec<Vec<Value>> =
                rows.iter().map(|&(k, p)| vec![Value::Int(k), Value::Int(p)]).collect();
            RecordBatch::from_rows(schema.clone(), &vals).unwrap()
        };

        let db = Database::new();
        db.execute("CREATE TABLE one_shot (k BIGINT, payload BIGINT)").unwrap();
        db.execute("CREATE TABLE segmented (k BIGINT, payload BIGINT)").unwrap();
        // Pre-populate the replacement target with junk that must vanish.
        db.execute("INSERT INTO segmented VALUES (-77, -77)").unwrap();

        db.append_batches("one_shot", &[to_batch(&rows)]).unwrap();

        // Random chunk split (chunk lengths cycle through `chunks`), then a
        // hash partition of the chunks — the same shape the parallel apply
        // path produces (per-partition segment batches).
        let mut chunked: Vec<RecordBatch> = Vec::new();
        let mut rest: &[(i64, i64)] = &rows;
        let mut ci = 0;
        while !rest.is_empty() {
            let take = chunks[ci % chunks.len()].min(rest.len());
            chunked.push(to_batch(&rest[..take]));
            rest = &rest[take..];
            ci += 1;
        }
        let partitions = hash_partition(&chunked, &[0], parts).unwrap();
        let segment_batches: Vec<RecordBatch> =
            partitions.into_iter().flatten().collect();
        let segments = db.encode_segments_for("segmented", segment_batches).unwrap();
        let n = db.commit_tables_segmented(vec![("segmented".into(), segments)]).unwrap();
        prop_assert_eq!(n, rows.len());

        let canon = |table: &str| {
            let mut r = db.query(&format!("SELECT k, payload FROM {table}")).unwrap();
            r.sort_by(|a, b| {
                a.iter().map(|v| v.as_int()).cmp(b.iter().map(|v| v.as_int()))
            });
            r
        };
        prop_assert_eq!(canon("segmented"), canon("one_shot"));
    }

    /// Segmented storage, table level: building segments off-table
    /// (`Segment::build`), adopting them into a staging table and
    /// atomically swapping it in (`Catalog::swap`) equals the one-shot
    /// build, for any chunk split.
    #[test]
    fn adopted_segments_plus_swap_match_one_shot_build(
        keys in proptest::collection::vec(0i64..300, 1..150),
        split_at in proptest::collection::vec(1usize..150, 1..5),
    ) {
        use vertexica::storage::{
            Catalog, DataType, Field, RecordBatch, Schema, Segment, Table, TableOptions, Value,
        };
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        let to_batch = |keys: &[i64]| {
            let vals: Vec<Vec<Value>> = keys.iter().map(|&k| vec![Value::Int(k)]).collect();
            RecordBatch::from_rows(schema.clone(), &vals).unwrap()
        };

        let catalog = Catalog::new();
        let live = catalog.create_table("t", schema.clone(), TableOptions::default()).unwrap();
        live.write().insert_row(vec![Value::Int(-1)]).unwrap(); // junk to replace

        let mut one_shot = Table::new("ref", schema.clone(), TableOptions::default());
        one_shot.append_batch(&to_batch(&keys)).unwrap();

        // Split points (mod len, deduped) cut the keys into chunks; each
        // chunk becomes one off-table segment adopted into the staging table.
        let mut cuts: Vec<usize> = split_at.iter().map(|&s| s % keys.len()).collect();
        cuts.push(0);
        cuts.push(keys.len());
        cuts.sort_unstable();
        cuts.dedup();
        let mut staging = Table::new("t_new", schema.clone(), TableOptions::default());
        for w in cuts.windows(2) {
            let seg = Segment::build(&schema, &to_batch(&keys[w[0]..w[1]]), false).unwrap();
            staging.adopt_segment(seg).unwrap();
        }
        catalog.register(staging).unwrap();
        catalog.swap("t", "t_new").unwrap();
        catalog.drop_table("t_new").unwrap();

        let canon = |t: &Table| {
            let mut rows: Vec<i64> = t
                .scan(None, &[])
                .unwrap()
                .iter()
                .flat_map(|b| b.column(0).iter().map(|v| v.as_int().unwrap()).collect::<Vec<_>>())
                .collect();
            rows.sort_unstable();
            rows
        };
        let live = catalog.get("t").unwrap();
        let guard = live.read();
        prop_assert_eq!(guard.num_rows(), keys.len());
        prop_assert_eq!(canon(&guard), canon(&one_shot));
    }

    /// Random-walk-with-restart masses stay in [0, 1], the source retains at
    /// least its restart mass, and vertices unreachable from the source get
    /// exactly zero. (The source is *not* necessarily the maximum — an
    /// absorbing cycle can out-accumulate it.)
    #[test]
    fn rwr_probabilities_bounded(graph in arb_graph(20, 60)) {
        use vertexica_algorithms::vc::RandomWalkWithRestart;
        let prog = RandomWalkWithRestart::new(0, 20);
        let restart = prog.restart;
        let (vals, _) = GiraphEngine::default().run(&graph, &prog);
        for (id, v) in vals.iter().enumerate() {
            prop_assert!((0.0..=1.0 + 1e-9).contains(v), "vertex {id}: {v}");
        }
        prop_assert!(vals[0] >= restart - 1e-9, "source lost its restart mass");
        // BFS reachability from the source.
        let adj = vertexica_common::graph::Adjacency::from_edge_list(&graph);
        let mut reachable = vec![false; graph.num_vertices as usize];
        let mut stack = vec![0u64];
        reachable[0] = true;
        while let Some(v) = stack.pop() {
            for &n in adj.neighbors(v) {
                if !reachable[n as usize] {
                    reachable[n as usize] = true;
                    stack.push(n);
                }
            }
        }
        for (id, v) in vals.iter().enumerate() {
            if !reachable[id] {
                prop_assert_eq!(*v, 0.0, "unreachable vertex {} has mass", id);
            }
        }
    }

    /// The edge projection's adjacency for every `src` equals a straight
    /// scan of the edge table grouped by `src` and ordered by `(dst, weight)`
    /// (NULL first, IEEE total order, NULL then read as 1.0) — whatever the
    /// table's physical shape: several ROS segments, rows still in the WOS,
    /// rows masked by delete vectors, duplicates, self-loops, NaN / -0.0 /
    /// negative / NULL weights.
    #[test]
    fn edge_projection_equals_a_sorted_scan(
        rows in proptest::collection::vec((0i64..8, 0i64..8, arb_weight()), 0..60),
        segment_rows in 1usize..20,
        wos_rows in 0usize..10,
        deleted_src in 0i64..10,
    ) {
        use vertexica::session::edge_schema;
        use vertexica::storage::{RecordBatch, Value};
        let edge_row = |&(s, d, w): &(i64, i64, Option<f64>)| {
            let w = w.map_or(Value::Null, Value::Float);
            vec![Value::Int(s), Value::Int(d), w, Value::Int(0), Value::Null]
        };
        let session = session_for(&EdgeList::new(8, vec![]));
        let table = session.db().catalog().get(&session.edge_table()).unwrap();
        let (ros, wos) = rows.split_at(rows.len() - wos_rows.min(rows.len()));
        for chunk in ros.chunks(segment_rows) {
            let rows: Vec<_> = chunk.iter().map(edge_row).collect();
            table.write().append_batch(&RecordBatch::from_rows(edge_schema(), &rows).unwrap()).unwrap();
        }
        session
            .db()
            .execute(&format!("DELETE FROM {} WHERE src = {deleted_src}", session.edge_table()))
            .unwrap();
        table.write().insert_rows(wos.iter().map(edge_row).collect()).unwrap();

        let mut expected: Vec<(i64, i64, Option<f64>)> = rows
            .iter()
            .enumerate()
            .filter(|(i, r)| *i >= ros.len() || r.0 != deleted_src)
            .map(|(_, r)| *r)
            .collect();
        expected.sort_by(|a, b| {
            (a.0, a.1).cmp(&(b.0, b.1)).then_with(|| match (a.2, b.2) {
                (Some(x), Some(y)) => x.total_cmp(&y),
                (x, y) => x.is_some().cmp(&y.is_some()),
            })
        });
        prop_assert_eq!(table.read().num_rows(), expected.len());

        let (projection, _) = session.edge_projection().unwrap();
        prop_assert_eq!(projection.num_edges(), expected.len());
        for src in 0..10i64 {
            let want: Vec<(i64, u64)> = expected
                .iter()
                .filter(|r| r.0 == src)
                .map(|r| (r.1, r.2.unwrap_or(1.0).to_bits()))
                .collect();
            let got: Vec<(i64, u64)> = projection
                .out_edges(src as VertexId)
                .iter()
                .map(|e| (e.dst as i64, e.weight.to_bits()))
                .collect();
            prop_assert_eq!(got, want, "out-edges of {}", src);
        }
    }
}

/// Edge weights the projection's order has to get right: NULL, NaN of both
/// signs, both zeros, and ordinary negative and positive values.
fn arb_weight() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![
        Just(None),
        Just(Some(f64::NAN)),
        Just(Some(-f64::NAN)),
        Just(Some(-0.0)),
        Just(Some(0.0)),
        (-4.0f64..4.0).prop_map(Some),
    ]
}
