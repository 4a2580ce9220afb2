//! End-to-end scenarios from the paper's demo section: pipelines, hybrid
//! analysis, dynamic graphs, checkpoint/recovery failure injection, and
//! running the coordinator as a stored procedure.

use std::sync::Arc;

use vertexica::coordinator::{register_as_procedure, resume_program};
use vertexica::pipeline::Pipeline;
use vertexica::sql::Database;
use vertexica::storage::Value;
use vertexica::{checkpoint, run_program, GraphSession, VertexicaConfig};
use vertexica_algorithms::sqlalgo;
use vertexica_algorithms::vc::{PageRank, Sssp};
use vertexica_common::graph::{Edge, EdgeList, VertexId};
use vertexica_common::pregel::{InitContext, VertexContext, VertexContextExt, VertexProgram};
use vertexica_graphgen::metadata::edge_metadata;
use vertexica_graphgen::models::erdos_renyi;

fn session_with_metadata(db: &Arc<Database>, name: &str) -> GraphSession {
    let graph = erdos_renyi(80, 400, 21);
    let metas = edge_metadata(&graph, 0, 1000, 21);
    let edges: Vec<(Edge, i64, Option<String>)> = metas
        .iter()
        .map(|m| (Edge::weighted(m.src, m.dst, m.weight), m.created, Some(m.etype.to_string())))
        .collect();
    let s = GraphSession::create(db.clone(), name).unwrap();
    s.load_edges_with_metadata(&edges, graph.num_vertices).unwrap();
    s
}

#[test]
fn full_pipeline_select_rank_aggregate() {
    let db = Arc::new(Database::new());
    let session = session_with_metadata(&db, "p");
    let pipeline = Pipeline::new()
        .add_sql("friend_edges", "SELECT COUNT(*) FROM p_edge WHERE etype = 'friend'")
        .add_stage("rank", |s, ctx| {
            run_program(s, Arc::new(PageRank::new(5, 0.85)), &VertexicaConfig::default())?;
            let ranks: Vec<(VertexId, f64)> = s.vertex_values()?;
            sqlalgo::store_scores(s, "p_rank", &ranks)?;
            ctx.values.insert("ranked".into(), Value::Int(ranks.len() as i64));
            Ok(())
        })
        .add_sql("total_rank", "SELECT SUM(score) FROM p_rank")
        .add_sql("top3", "SELECT id FROM p_rank ORDER BY score DESC, id LIMIT 3");
    let (ctx, timings) = pipeline.run(&session).unwrap();
    assert_eq!(timings.len(), 4);
    assert_eq!(ctx.value("ranked"), Some(&Value::Int(80)));
    // PageRank is a probability distribution.
    let total = ctx.value("total_rank").and_then(|v| v.as_float()).unwrap();
    assert!((total - 1.0).abs() < 1e-9);
    assert_eq!(ctx.rows_of("top3").unwrap().len(), 3);
}

#[test]
fn metadata_filters_drive_scoped_analysis() {
    let db = Arc::new(Database::new());
    let session = session_with_metadata(&db, "scope");
    // §4.2.1: "select all edges of type Family" and analyse the subgraph.
    let (family, _) = vertexica_algorithms::hybrid::localized_pagerank(
        &session,
        "etype = 'family'",
        "scope_family",
        5,
    )
    .unwrap();
    let all = session.num_edges().unwrap();
    let fam = family.num_edges().unwrap();
    assert!(fam > 0 && fam < all);
    // Changing the filter changes the scope (§4.2.3 continuous mode).
    let (classmates, _) = vertexica_algorithms::hybrid::localized_pagerank(
        &session,
        "etype = 'classmate'",
        "scope_classmate",
        5,
    )
    .unwrap();
    let cls = classmates.num_edges().unwrap();
    assert!(cls > 0 && cls < all);
    assert_eq!(all as i64, db.query_int("SELECT COUNT(*) FROM scope_edge").unwrap());
}

#[test]
fn checkpoint_failure_injection_and_resume() {
    let db = Arc::new(Database::new());
    let graph = erdos_renyi(40, 160, 8);
    let session = GraphSession::create(db.clone(), "ck").unwrap();
    session.load_edges(&graph).unwrap();

    let dir = std::env::temp_dir().join(format!("vx_e2e_ckpt_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Run with checkpointing every 2 supersteps.
    let config = VertexicaConfig::default().with_checkpointing(2, &dir).with_max_supersteps(4); // "crash" after superstep 3 (0..=3)
    let program = Arc::new(PageRank::new(8, 0.85));
    run_program(&session, program.clone(), &config).unwrap();

    // Simulate the crash: clobber live state entirely.
    db.execute("DELETE FROM ck_message").unwrap();
    db.execute("UPDATE ck_vertex SET halted = TRUE").unwrap();

    // Recover and finish.
    let config = VertexicaConfig::default().with_checkpointing(2, &dir);
    let stats = resume_program(&session, program, &config).unwrap();
    assert!(stats.supersteps > 0);

    // The resumed result matches an uninterrupted run exactly.
    let resumed: Vec<(VertexId, f64)> = session.vertex_values().unwrap();
    let fresh_session = GraphSession::create(db.clone(), "ck2").unwrap();
    fresh_session.load_edges(&graph).unwrap();
    run_program(&fresh_session, Arc::new(PageRank::new(8, 0.85)), &VertexicaConfig::default())
        .unwrap();
    let fresh: Vec<(VertexId, f64)> = fresh_session.vertex_values().unwrap();
    for ((id_a, a), (id_b, b)) in resumed.iter().zip(&fresh) {
        assert_eq!(id_a, id_b);
        assert!((a - b).abs() < 1e-12, "vertex {id_a}: {a} vs {b}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_preserves_aggregator_state() {
    // PageRank's dangling aggregator must survive a checkpoint/restore or
    // ranks drift — this guards the aggregate persistence path.
    let db = Arc::new(Database::new());
    // Chain with a sink so the dangling aggregator is non-trivial.
    let graph = EdgeList::from_pairs([(0, 1), (1, 2), (2, 3)]);
    let session = GraphSession::create(db.clone(), "agg").unwrap();
    session.load_edges(&graph).unwrap();
    let dir = std::env::temp_dir().join(format!("vx_e2e_agg_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let program = Arc::new(PageRank::new(6, 0.85));
    let config = VertexicaConfig::default().with_checkpointing(1, &dir).with_max_supersteps(3);
    run_program(&session, program.clone(), &config).unwrap();
    let config = VertexicaConfig::default().with_checkpointing(1, &dir);
    resume_program(&session, program, &config).unwrap();
    let resumed: Vec<(VertexId, f64)> = session.vertex_values().unwrap();

    let expected = vertexica_algorithms::reference::pagerank(&graph, 6, 0.85);
    for (id, rank) in resumed {
        assert!(
            (rank - expected[id as usize]).abs() < 1e-9,
            "vertex {id}: {rank} vs {}",
            expected[id as usize]
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stored_procedure_deployment() {
    let db = Arc::new(Database::new());
    let graph = erdos_renyi(30, 120, 2);
    let session = GraphSession::create(db.clone(), "sp").unwrap();
    session.load_edges(&graph).unwrap();
    let name = register_as_procedure(&session, Arc::new(Sssp::new(0)), VertexicaConfig::default());
    let out = db.call_procedure(&name, &[]).unwrap();
    assert!(matches!(out, Value::Int(n) if n > 0));
    let dist: Vec<(VertexId, f64)> = session.vertex_values().unwrap();
    assert_eq!(dist[0], (0, 0.0));
}

#[test]
fn checkpoint_save_restore_api() {
    let db = Arc::new(Database::new());
    let session = GraphSession::create(db.clone(), "ckapi").unwrap();
    session.load_edges(&erdos_renyi(20, 60, 1)).unwrap();
    run_program(&session, Arc::new(PageRank::new(3, 0.85)), &VertexicaConfig::default()).unwrap();
    let before: Vec<(VertexId, f64)> = session.vertex_values().unwrap();

    let dir = std::env::temp_dir().join(format!("vx_e2e_api_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    checkpoint::save(&session, &dir, 3, &Default::default()).unwrap();

    db.execute("DELETE FROM ckapi_vertex WHERE id < 10").unwrap();
    assert_eq!(session.num_vertices().unwrap(), 10);

    let state = checkpoint::restore(&session, &dir).unwrap();
    assert_eq!(state.superstep, 3);
    let after: Vec<(VertexId, f64)> = session.vertex_values().unwrap();
    assert_eq!(before, after);
    std::fs::remove_dir_all(&dir).ok();
}

/// Dynamic graphs through the edge projection: every kind of edge-table DML
/// between two runs forces exactly one rebuild, and the run after it matches
/// `algorithms::reference` on the mutated graph.
#[test]
fn edge_mutations_between_runs_rebuild_the_projection() {
    use vertexica_algorithms::reference;

    let mut graph = erdos_renyi(40, 160, 33);
    let session = GraphSession::create(Arc::new(Database::new()), "dyn").unwrap();
    session.load_edges(&graph).unwrap();
    // Pinned: a budgeted buffer pool (the out-of-core CI mode budgets every
    // pool by default) makes a run stream edge rows and build no projection.
    session.db().catalog().buffer_pool().set_budget(None);
    let config = VertexicaConfig::default().with_memory_budget(None);

    // One PageRank run (does it build?) and one SSSP run on the same state
    // (a cache hit), both against the reference.
    let run_and_check = |graph: &EdgeList, what: &str| -> f64 {
        let stats = run_program(&session, Arc::new(PageRank::new(6, 0.85)), &config).unwrap();
        assert!(stats.projection_bytes > 0, "{what}");
        let ranks: Vec<(VertexId, f64)> = session.vertex_values().unwrap();
        let expected = reference::pagerank(graph, 6, 0.85);
        assert_eq!(ranks.len(), expected.len(), "{what}");
        for ((id, got), want) in ranks.iter().zip(&expected) {
            assert!((got - want).abs() < 1e-9, "{what}: rank of {id}: {got} vs {want}");
        }
        let again = run_program(&session, Arc::new(Sssp::new(0)), &config).unwrap();
        assert_eq!(again.projection_build_secs, 0.0, "{what}: no DML since the last run");
        let dist: Vec<(VertexId, f64)> = session.vertex_values().unwrap();
        for ((id, got), want) in dist.iter().zip(&reference::sssp(graph, 0)) {
            let same = if want.is_finite() { (got - want).abs() < 1e-9 } else { got == want };
            assert!(same, "{what}: distance of {id}: {got} vs {want}");
        }
        stats.projection_build_secs
    };

    assert!(run_and_check(&graph, "first run") > 0.0, "the first run builds");
    assert_eq!(run_and_check(&graph, "second run"), 0.0, "nothing changed: cache hit");

    let e0 = graph.edges[0];
    let last = graph.num_vertices - 1;
    type Mutation = Box<dyn Fn(&GraphSession, &mut EdgeList)>;
    let mutations: Vec<(&str, Mutation)> = vec![
        (
            "add_edge",
            Box::new(|s, g| {
                s.add_edge(3, 17, 0.25, 0, None).unwrap();
                g.edges.push(Edge::weighted(3, 17, 0.25));
            }),
        ),
        (
            "update_edge_weight",
            Box::new(move |s, g| {
                assert!(s.update_edge_weight(e0.src, e0.dst, 7.5).unwrap() >= 1);
                for e in g.edges.iter_mut().filter(|e| (e.src, e.dst) == (e0.src, e0.dst)) {
                    e.weight = 7.5;
                }
            }),
        ),
        (
            "remove_edge",
            Box::new(move |s, g| {
                assert!(s.remove_edge(e0.src, e0.dst).unwrap() >= 1);
                g.edges.retain(|e| (e.src, e.dst) != (e0.src, e0.dst));
            }),
        ),
        (
            "remove_vertex",
            Box::new(move |s, g| {
                assert_eq!(s.remove_vertex(last).unwrap(), 1);
                g.edges.retain(|e| e.src != last && e.dst != last);
                g.num_vertices -= 1;
            }),
        ),
        (
            "raw DELETE",
            Box::new(|s, g| {
                s.db().execute("DELETE FROM dyn_edge WHERE src = 5 OR dst = 11").unwrap();
                g.edges.retain(|e| e.src != 5 && e.dst != 11);
            }),
        ),
    ];
    for (what, mutate) in &mutations {
        mutate(&session, &mut graph);
        assert!(run_and_check(&graph, what) > 0.0, "{what} must force a rebuild");
    }
}

/// Messages every neighbor in superstep 0, then panics in superstep 1 —
/// after one superstep has committed.
struct PanicsInSuperstepOne;

impl VertexProgram for PanicsInSuperstepOne {
    type Value = f64;
    type Message = f64;

    fn initial_value(&self, _id: VertexId, _init: &InitContext) -> f64 {
        0.0
    }

    fn compute(&self, ctx: &mut dyn VertexContext<f64, f64>, _messages: &[f64]) {
        if ctx.superstep() == 1 {
            panic!("injected failure in superstep 1");
        }
        ctx.send_to_all_neighbors(1.0);
    }
}

/// A program that panics mid-run fails the run with an error on one shard
/// and on two — it neither unwinds into the caller nor strands a peer shard
/// waiting — and leaves a session the next run can use: PageRank on it then
/// matches `algorithms::reference`.
#[test]
fn a_panicking_program_fails_the_run_and_the_session_stays_usable() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use vertexica::shard::{run_sharded, ShardedDatabase, ShardedGraphSession};
    use vertexica::RunStats;

    let graph = erdos_renyi(40, 160, 5);
    let expected = vertexica_algorithms::reference::pagerank(&graph, 6, 0.85);
    let config = VertexicaConfig::default().with_workers(2).with_partitions(4);
    let fails = |what: &str, run: &dyn Fn() -> vertexica::VertexicaResult<RunStats>| {
        let outcome = catch_unwind(AssertUnwindSafe(run));
        let result =
            outcome.unwrap_or_else(|_| panic!("{what}: the panic unwound into the caller"));
        assert!(result.is_err(), "{what}: a panicking program must fail the run");
    };
    let matches_reference = |what: &str, ranks: Vec<(VertexId, f64)>| {
        assert_eq!(ranks.len(), expected.len(), "{what}");
        for ((id, got), want) in ranks.iter().zip(&expected) {
            assert!((got - want).abs() < 1e-9, "{what}: rank of {id}: {got} vs {want}");
        }
    };

    let session = GraphSession::create(Arc::new(Database::new()), "boom").unwrap();
    session.load_edges(&graph).unwrap();
    fails("one shard", &|| run_program(&session, Arc::new(PanicsInSuperstepOne), &config));
    run_program(&session, Arc::new(PageRank::new(6, 0.85)), &config).unwrap();
    matches_reference("one shard", session.vertex_values().unwrap());

    let ss = ShardedGraphSession::create(ShardedDatabase::new(2), "boom").unwrap();
    ss.load_edges(&graph).unwrap();
    fails("two shards", &|| run_sharded(&ss, Arc::new(PanicsInSuperstepOne), &config));
    run_sharded(&ss, Arc::new(PageRank::new(6, 0.85)), &config).unwrap();
    matches_reference("two shards", ss.vertex_values().unwrap());
}
