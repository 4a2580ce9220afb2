//! End-to-end scenarios from the paper's demo section: pipelines, hybrid
//! analysis, dynamic graphs, resume after a lost process, and running the
//! coordinator as a stored procedure.

use std::sync::Arc;

use vertexica::coordinator::{register_as_procedure, resume_program};
use vertexica::pipeline::Pipeline;
use vertexica::sql::Database;
use vertexica::storage::Value;
use vertexica::{run_program, GraphSession, VertexicaConfig, VertexicaError};
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

/// A unique scratch directory for one durable database.
fn durable_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vx_e2e_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The durable scenarios' two cases, as `(pool budget, run config)`: the
/// database as opened, and its buffer pool capped at one byte from before
/// the load under a durable run — which checkpoints, so every cold segment
/// evicts and reloads, and streams edge rows instead of reading the
/// projection.
fn durable_cases() -> [(Option<usize>, VertexicaConfig); 2] {
    let budget = Some(1);
    let budgeted = VertexicaConfig::default().with_durable(true).with_memory_budget(budget);
    [(None, VertexicaConfig::default()), (budget, budgeted)]
}

/// Opens `dir` as a durable database with its pool capped at `budget`.
fn open_durable(dir: &std::path::Path, budget: Option<usize>) -> Arc<Database> {
    let db = Database::open(dir).unwrap();
    db.catalog().buffer_pool().set_budget(budget);
    Arc::new(db)
}

/// The process that ran supersteps 0..=3 is lost after its last commit;
/// a new one reopens the durable database and resumes from the stamp that
/// commit carried, landing bitwise on the uninterrupted run.
#[test]
fn checkpoint_failure_injection_and_resume() {
    let graph = erdos_renyi(40, 160, 8);
    let program = Arc::new(PageRank::new(8, 0.85));
    let fresh_session = GraphSession::create(Arc::new(Database::new()), "ck2").unwrap();
    fresh_session.load_edges(&graph).unwrap();
    run_program(&fresh_session, Arc::new(PageRank::new(8, 0.85)), &VertexicaConfig::default())
        .unwrap();
    let fresh: Vec<(VertexId, f64)> = fresh_session.vertex_values().unwrap();
    let bits =
        |v: &[(VertexId, f64)]| v.iter().map(|(id, r)| (*id, r.to_bits())).collect::<Vec<_>>();

    for (budget, config) in durable_cases() {
        let dir = durable_dir("ckpt");
        {
            let session = GraphSession::create(open_durable(&dir, budget), "ck").unwrap();
            session.load_edges(&graph).unwrap();
            run_program(&session, program.clone(), &config.clone().with_max_supersteps(4)).unwrap();
        }

        let session = GraphSession::open(open_durable(&dir, budget), "ck").unwrap();
        let stats = resume_program(&session, program.clone(), &config).unwrap();
        assert_eq!(stats.supersteps, 5, "{budget:?}: supersteps 4..=8 remain after the cap");
        let resumed: Vec<(VertexId, f64)> = session.vertex_values().unwrap();
        assert_eq!(bits(&resumed), bits(&fresh), "{budget:?}: resumed ranks diverged");
        drop(session);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Every superstep that changes a vertex replaces the vertex table, in
/// memory as on a durable database, and one that changes none leaves it as
/// it is. SSSP down a chain changes one vertex of thirteen a superstep, the
/// smallest delta a run makes.
#[test]
fn every_changing_superstep_replaces() {
    let graph = EdgeList::from_pairs((0..12).map(|v| (v, v + 1)));
    let dir = durable_dir("replace");
    for durable in [false, true] {
        let db = if durable { open_durable(&dir, None) } else { Arc::new(Database::new()) };
        let session = GraphSession::create(db, "chain").unwrap();
        session.load_edges(&graph).unwrap();
        let stats =
            run_program(&session, Arc::new(Sssp::new(0)), &VertexicaConfig::default()).unwrap();
        let changed = stats.per_superstep.iter().filter(|s| s.vertex_changes > 0).count();
        assert!(changed >= 12, "durable {durable}: {changed} supersteps changed");
        for s in &stats.per_superstep {
            let (step, n) = (s.superstep, s.vertex_changes);
            assert_eq!(s.replaced, n > 0, "durable {durable}: superstep {step}, {n} changes");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_preserves_aggregator_state() {
    // PageRank's dangling aggregator must survive the stamp or ranks drift
    // — this guards the aggregate persistence path.
    let db = Arc::new(Database::new());
    // Chain with a sink so the dangling aggregator is non-trivial.
    let graph = EdgeList::from_pairs([(0, 1), (1, 2), (2, 3)]);
    let session = GraphSession::create(db.clone(), "agg").unwrap();
    session.load_edges(&graph).unwrap();

    let program = Arc::new(PageRank::new(6, 0.85));
    let config = VertexicaConfig::default().with_max_supersteps(3);
    run_program(&session, program.clone(), &config).unwrap();
    resume_program(&session, program, &VertexicaConfig::default()).unwrap();
    let resumed: Vec<(VertexId, f64)> = session.vertex_values().unwrap();

    let expected = vertexica_algorithms::reference::pagerank(&graph, 6, 0.85);
    for (id, rank) in resumed {
        assert!(
            (rank - expected[id as usize]).abs() < 1e-9,
            "vertex {id}: {rank} vs {}",
            expected[id as usize]
        );
    }
}

/// A stamp that lost its aggregate row must not resume PageRank with a
/// zero dangling mass: the resume refuses and leaves the tables alone.
#[test]
fn resume_refuses_a_stamp_that_lost_an_aggregate() {
    let db = Arc::new(Database::new());
    let session = GraphSession::create(db.clone(), "lost").unwrap();
    session.load_edges(&EdgeList::from_pairs([(0, 1), (1, 2), (2, 3)])).unwrap();
    let program = Arc::new(PageRank::new(6, 0.85));
    run_program(&session, program.clone(), &VertexicaConfig::default().with_max_supersteps(3))
        .unwrap();
    let before: Vec<(VertexId, f64)> = session.vertex_values().unwrap();
    db.execute("DELETE FROM lost_stamp WHERE key = 'agg.dangling'").unwrap();
    let err = resume_program(&session, program, &VertexicaConfig::default());
    assert!(matches!(err, Err(VertexicaError::Recovery(_))), "{err:?}");
    assert_eq!(session.vertex_values::<f64>().unwrap(), before);
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

/// The stamp is the whole save/restore surface: the commit that ends a
/// finished run saves it, a reopen restores it, and a resume from it finds
/// nothing left to run and leaves the vertex table as it was.
#[test]
fn checkpoint_save_restore_api() {
    for (budget, config) in durable_cases() {
        let dir = durable_dir("api");
        let before: Vec<(VertexId, f64)> = {
            let session = GraphSession::create(open_durable(&dir, budget), "ckapi").unwrap();
            session.load_edges(&erdos_renyi(20, 60, 1)).unwrap();
            run_program(&session, Arc::new(PageRank::new(3, 0.85)), &config).unwrap();
            session.vertex_values().unwrap()
        };

        let db = open_durable(&dir, budget);
        let session = GraphSession::open(db.clone(), "ckapi").unwrap();
        assert_eq!(session.vertex_values::<f64>().unwrap(), before, "{budget:?}");
        let stamped = db.query_int("SELECT value FROM ckapi_stamp WHERE key = 'superstep'");
        assert_eq!(stamped.unwrap(), 3, "{budget:?}");
        let stats = resume_program(&session, Arc::new(PageRank::new(3, 0.85)), &config).unwrap();
        assert_eq!(stats.supersteps, 0, "{budget:?}: a finished run has nothing to resume");
        assert_eq!(session.vertex_values::<f64>().unwrap(), before, "{budget:?}");
        drop(session);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
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
    let config = VertexicaConfig::default();

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
