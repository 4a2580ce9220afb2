//! Cross-engine equivalence: the same `VertexProgram` must produce identical
//! results on the relational Vertexica engine, the Giraph-like BSP baseline,
//! the transactional graph database, the hand-written SQL implementations
//! and the in-memory reference implementations — the correctness backbone of
//! the Figure-2 comparison.
//!
//! The engine is held to oracles that share none of its code
//! (`algorithms::reference`, `GiraphEngine`); on top of that, the knobs that
//! must not change an answer — worker and partition counts, the combiner,
//! durability, memory budget, shard count — are checked for bitwise
//! invariance.

use std::sync::Arc;
use std::time::Duration;

use vertexica::sql::Database;
use vertexica::{run_program, GraphSession, VertexicaConfig};
use vertexica_algorithms::reference;
use vertexica_algorithms::sqlalgo;
use vertexica_algorithms::vc::{ConnectedComponents, PageRank, Sssp};
use vertexica_common::graph::{EdgeList, VertexId};
use vertexica_giraph::GiraphEngine;
use vertexica_graphdb::GraphDb;
use vertexica_graphgen::models::erdos_renyi;
use vertexica_graphgen::rmat::{rmat_graph, RmatConfig};

/// The stores a cell runs against. Every cell whose answer could depend on
/// how the tables are stored runs all three.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Store {
    /// `Database::new`: no log, nothing evictable; checkpoints are no-ops.
    Memory,
    /// WAL + segment files in a fresh temp directory, `fsync` off (on for
    /// sharded cells: `ShardedDatabase::create` always syncs); the run
    /// checkpoints before its first superstep and after its last.
    Durable,
    /// `Durable` with every buffer pool capped at 256 KiB from before the
    /// load: checkpointed segments evict and reload, and runs stream edge
    /// rows instead of reading the projection.
    Budget256KiB,
}

const STORES: [Store; 3] = [Store::Memory, Store::Durable, Store::Budget256KiB];

impl Store {
    fn budget(self) -> Option<usize> {
        (self == Store::Budget256KiB).then_some(256 << 10)
    }

    /// A fresh, empty database in this store.
    fn database(self) -> InStore<Arc<Database>> {
        if self == Store::Memory {
            return InStore { inner: Arc::new(Database::new()), _dir: TempDir(None) };
        }
        let dir = unique_durable_dir("xeq");
        InStore { inner: self.open(&dir), _dir: TempDir(Some(dir)) }
    }

    /// Opens (or reopens) `dir` as a durable database in this store.
    fn open(self, dir: &std::path::Path) -> Arc<Database> {
        let runtime = Arc::new(vertexica_common::WorkerPool::with_default_size());
        let db = Database::open_with(dir, runtime, false).expect("open durable");
        db.catalog().buffer_pool().set_budget(self.budget());
        Arc::new(db)
    }

    /// `config` as a run in this store executes it: `durable` on in every
    /// store (on the in-memory one it must change nothing), and the
    /// budgeted store's budget.
    fn config(self, config: VertexicaConfig) -> VertexicaConfig {
        config.with_durable(true).with_memory_budget(self.budget())
    }
}

/// Removes its directory, if it has one, on drop.
struct TempDir(Option<std::path::PathBuf>);

impl Drop for TempDir {
    fn drop(&mut self) {
        if let Some(dir) = &self.0 {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

/// A database or session in a [`Store`]; its directory goes when it does.
struct InStore<T> {
    inner: T,
    /// Declared after `inner`, so the database closes before its files go.
    _dir: TempDir,
}

impl<T> std::ops::Deref for InStore<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// `graph` loaded into a fresh session in `store`.
fn session_for(store: Store, graph: &EdgeList) -> InStore<GraphSession> {
    let InStore { inner: db, _dir } = store.database();
    let s = GraphSession::create(db, "g").expect("create");
    s.load_edges(graph).expect("load");
    InStore { inner: s, _dir }
}

fn unique_durable_dir(tag: &str) -> std::path::PathBuf {
    use vertexica_common::sync::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "vx_xeq_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn test_graphs() -> Vec<EdgeList> {
    vec![
        erdos_renyi(60, 240, 3),
        rmat_graph(&RmatConfig { scale: 7, num_edges: 600, seed: 9, ..Default::default() }),
        EdgeList::from_pairs([(0, 1), (1, 2), (2, 0), (3, 4)]), // disconnected
        EdgeList::from_pairs((0..30u64).map(|i| (i, i + 1))),   // chain
    ]
}

#[test]
fn pagerank_agrees_across_all_engines() {
    for (gi, graph) in test_graphs().into_iter().enumerate() {
        let expected = reference::pagerank(&graph, 8, 0.85);

        for store in STORES {
            // Vertexica (vertex-centric on the relational engine).
            let session = session_for(store, &graph);
            let config = store.config(VertexicaConfig::default());
            run_program(&session, Arc::new(PageRank::new(8, 0.85)), &config).unwrap();
            let vx: Vec<(VertexId, f64)> = session.vertex_values().unwrap();
            assert_eq!(vx.len(), expected.len(), "graph {gi} {store:?}");
            for (id, rank) in &vx {
                assert!(
                    (rank - expected[*id as usize]).abs() < 1e-9,
                    "graph {gi} {store:?} vertexica vertex {id}: {rank} vs {}",
                    expected[*id as usize]
                );
            }

            // Vertexica (SQL).
            let sql = sqlalgo::pagerank_sql(&session, 8, 0.85).unwrap();
            for (id, rank) in sql {
                let close = (rank - expected[id as usize]).abs() < 1e-9;
                assert!(close, "graph {gi} {store:?} sql vertex {id}");
            }
        }

        // Giraph baseline.
        let (giraph_vals, _) = GiraphEngine::default().run(&graph, &PageRank::new(8, 0.85));
        for (id, rank) in giraph_vals.iter().enumerate() {
            assert!((rank - expected[id]).abs() < 1e-9, "graph {gi} giraph vertex {id}");
        }

        // Graph database.
        let db = GraphDb::ephemeral();
        db.load_edges(&graph).unwrap();
        let out = vertexica_graphdb::algo::pagerank(
            &db,
            graph.num_vertices,
            8,
            0.85,
            Duration::from_secs(120),
        )
        .unwrap();
        let gdb = out.finished().expect("graphdb finishes").clone();
        for (id, rank) in gdb.iter().enumerate() {
            assert!((rank - expected[id]).abs() < 1e-9, "graph {gi} graphdb vertex {id}");
        }
    }
}

#[test]
fn sssp_agrees_across_all_engines() {
    for (gi, graph) in test_graphs().into_iter().enumerate() {
        let expected = reference::sssp(&graph, 0);
        let close = |a: f64, b: f64| (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9;

        for store in STORES {
            let session = session_for(store, &graph);
            let config = store.config(VertexicaConfig::default());
            run_program(&session, Arc::new(Sssp::new(0)), &config).unwrap();
            let vx: Vec<(VertexId, f64)> = session.vertex_values().unwrap();
            for (id, d) in &vx {
                assert!(
                    close(*d, expected[*id as usize]),
                    "graph {gi} {store:?} vertexica vertex {id}: {d} vs {}",
                    expected[*id as usize]
                );
            }

            let sql = sqlalgo::sssp_sql(&session, 0).unwrap();
            for (id, d) in sql {
                assert!(close(d, expected[id as usize]), "graph {gi} {store:?} sql vertex {id}");
            }
        }

        let (giraph_vals, _) = GiraphEngine::default().run(&graph, &Sssp::new(0));
        for (id, d) in giraph_vals.iter().enumerate() {
            assert!(close(*d, expected[id]), "graph {gi} giraph vertex {id}");
        }

        let db = GraphDb::ephemeral();
        db.load_edges(&graph).unwrap();
        let out =
            vertexica_graphdb::algo::sssp(&db, graph.num_vertices, 0, Duration::from_secs(120))
                .unwrap();
        let gdb = out.finished().expect("graphdb finishes").clone();
        for (id, d) in gdb.iter().enumerate() {
            assert!(close(*d, expected[id]), "graph {gi} graphdb vertex {id}");
        }
    }
}

#[test]
fn connected_components_agree() {
    let graph = erdos_renyi(50, 60, 5).undirected();
    let expected = reference::weakly_connected_components(&graph);

    for store in STORES {
        let session = session_for(store, &graph);
        let config = store.config(VertexicaConfig::default());
        run_program(&session, Arc::new(ConnectedComponents), &config).unwrap();
        let vx: Vec<(VertexId, u64)> = session.vertex_values().unwrap();
        for (id, label) in &vx {
            assert_eq!(*label, expected[*id as usize], "{store:?} vertexica vertex {id}");
        }

        let sql = sqlalgo::connected_components_sql(&session).unwrap();
        for (id, label) in sql {
            assert_eq!(label, expected[id as usize], "{store:?} sql vertex {id}");
        }
    }

    let (giraph_vals, _) = GiraphEngine::default().run(&graph, &ConnectedComponents);
    assert_eq!(giraph_vals, expected);
}

#[test]
fn every_vertexica_configuration_agrees() {
    // The §2.3 optimizations toggled — results must never change.
    let graph = rmat_graph(&RmatConfig { scale: 6, num_edges: 300, seed: 4, ..Default::default() });
    let expected = reference::pagerank(&graph, 6, 0.85);
    let configs = [
        VertexicaConfig::default(),
        VertexicaConfig::default().with_workers(1).with_partitions(1),
        VertexicaConfig::default().with_workers(8).with_partitions(64),
        VertexicaConfig::default().with_combiner(false),
    ];
    for store in STORES {
        for (ci, config) in configs.iter().enumerate() {
            let session = session_for(store, &graph);
            let config = store.config(config.clone());
            run_program(&session, Arc::new(PageRank::new(6, 0.85)), &config).unwrap();
            let vx: Vec<(VertexId, f64)> = session.vertex_values().unwrap();
            for (id, rank) in vx {
                let close = (rank - expected[id as usize]).abs() < 1e-9;
                assert!(close, "{store:?} config {ci} vertex {id}");
            }
        }
    }
}

/// The directed and undirected graphs of the oracle and invariance tests.
fn invariance_graphs() -> (EdgeList, EdgeList) {
    let graph =
        rmat_graph(&RmatConfig { scale: 6, num_edges: 400, seed: 17, ..Default::default() });
    let undirected = graph.undirected().dedup();
    (graph, undirected)
}

/// Runs `program` on `graph` in `store` with the default config and returns
/// the vertex values in id order.
fn vertexica_values<P>(store: Store, graph: &EdgeList, program: P) -> Vec<P::Value>
where
    P: vertexica_common::VertexProgram + 'static,
{
    let session = session_for(store, graph);
    run_program(&session, Arc::new(program), &store.config(VertexicaConfig::default())).unwrap();
    let vx: Vec<(VertexId, P::Value)> = session.vertex_values().unwrap();
    assert!(vx.iter().enumerate().all(|(i, (id, _))| *id == i as VertexId), "dense vertex ids");
    vx.into_iter().map(|(_, value)| value).collect()
}

/// `got` and `expected` agree vertex for vertex: both infinite, or within
/// 1e-9.
fn assert_close(name: &str, got: &[f64], expected: &[f64]) {
    assert_eq!(got.len(), expected.len(), "{name}");
    for (id, (a, b)) in got.iter().zip(expected).enumerate() {
        let same = (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9;
        assert!(same, "{name} vertex {id}: {a} vs {b}");
    }
}

/// Engine ≡ an independent oracle on every vertex-centric algorithm:
/// PageRank, SSSP and connected components against the plain-array
/// `algorithms::reference`; collaborative filtering, random walk with
/// restart and label propagation — which have no closed form there —
/// against `GiraphEngine`, an in-memory BSP loop that shares none of the
/// relational superstep's code. It runs on the invariance cells' graphs, in
/// every store.
#[test]
fn every_algorithm_matches_an_independent_oracle() {
    use vertexica_algorithms::vc::{
        CollaborativeFiltering, LabelPropagation, RandomWalkWithRestart,
    };
    let (graph, undirected) = invariance_graphs();

    let pagerank = reference::pagerank(&graph, 6, 0.85);
    let sssp = reference::sssp(&graph, 0);
    let components = reference::weakly_connected_components(&undirected);
    let rwr = RandomWalkWithRestart::new(0, 10);
    let (rwr_giraph, _) = GiraphEngine::default().run(&graph, &rwr);
    let lp = LabelPropagation::new(6);
    let (lp_giraph, _) = GiraphEngine::default().run(&undirected, &lp);
    let users = 12;
    let ratings = vertexica_graphgen::models::bipartite_ratings(users, 9, 4, 5);
    let cf = CollaborativeFiltering::new(users, 12);
    let (cf_giraph, _) = GiraphEngine::default().with_workers(1).run(&ratings, &cf);

    for store in STORES {
        let pr = vertexica_values(store, &graph, PageRank::new(6, 0.85));
        assert_close(&format!("{store:?} pagerank"), &pr, &pagerank);
        let dist = vertexica_values(store, &graph, Sssp::new(0));
        assert_close(&format!("{store:?} sssp"), &dist, &sssp);
        let labels = vertexica_values(store, &undirected, ConnectedComponents);
        assert_eq!(labels, components, "{store:?} connected components");
        let walk = vertexica_values(store, &graph, RandomWalkWithRestart::new(0, 10));
        assert_close(&format!("{store:?} random walk with restart"), &walk, &rwr_giraph);
        let labels = vertexica_values(store, &undirected, LabelPropagation::new(6));
        assert_eq!(labels, lp_giraph, "{store:?} label propagation");
        let factors = vertexica_values(store, &ratings, CollaborativeFiltering::new(users, 12));
        assert_eq!(factors.len(), cf_giraph.len());
        for (id, (got, expected)) in factors.iter().zip(&cf_giraph).enumerate() {
            assert_close(&format!("{store:?} collaborative filtering vertex {id}"), got, expected);
        }
    }
}

/// Degenerate graphs against the same oracle: vc PageRank, SSSP and
/// connected components match `algorithms::reference` value for value on an
/// empty graph, one isolated vertex, a lone self-loop, duplicate parallel
/// edges and an SSSP source that reaches nothing, in memory and on disk.
#[test]
fn degenerate_graphs_match_the_reference() {
    let graphs = [
        ("empty", EdgeList::new(0, Vec::new())),
        ("one isolated vertex", EdgeList::new(1, Vec::new())),
        ("a lone self-loop", EdgeList::from_pairs([(0, 0)])),
        ("parallel edges", EdgeList::from_pairs([(0, 1), (0, 1), (1, 2), (1, 2), (1, 2), (2, 0)])),
        // Vertex 0, the SSSP source, has no edges.
        ("an unreachable source", EdgeList::from_pairs([(1, 2), (2, 3), (3, 1)])),
    ];
    for store in [Store::Memory, Store::Durable] {
        for (name, graph) in &graphs {
            let what = format!("{store:?}, {name}");
            let pr = vertexica_values(store, graph, PageRank::new(6, 0.85));
            assert_close(&format!("{what}: pagerank"), &pr, &reference::pagerank(graph, 6, 0.85));
            let dist = vertexica_values(store, graph, Sssp::new(0));
            assert_close(&format!("{what}: sssp"), &dist, &reference::sssp(graph, 0));
            let undirected = graph.undirected();
            let labels = vertexica_values(store, &undirected, ConnectedComponents);
            let expected = reference::weakly_connected_components(&undirected);
            assert_eq!(labels, expected, "{what}: connected components");
        }
    }
}

/// Physical image of every table — the bitwise recovery comparator.
fn physical_image(catalog: &vertexica::storage::Catalog) -> Vec<(String, Vec<u8>)> {
    let mut names = catalog.list();
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let t = catalog.get(&n).unwrap();
            let bytes = vertexica::storage::persist::table_to_bytes_physical(&t.read()).unwrap();
            (n, bytes)
        })
        .collect()
}

/// The persisted-reopen cell: run an algorithm on a durable database, drop
/// the process-local state entirely, recover from disk, and require the
/// recovered vertex table — and every table's physical image — to be
/// **bitwise-identical** to the live post-run state.
fn assert_durable_reopen_is_bitwise_identical<P>(
    store: Store,
    graph: &EdgeList,
    tag: &str,
    program: Arc<P>,
) where
    P: vertexica_common::VertexProgram + 'static,
{
    let tag = format!("{tag} {store:?}");
    let dir = unique_durable_dir("reopen");
    let db = store.open(&dir);
    let session = GraphSession::create(db.clone(), "g").expect("create");
    session.load_edges(graph).expect("load");
    let stats = run_program(&session, program, &store.config(VertexicaConfig::default())).unwrap();
    assert!(
        stats.per_superstep.iter().any(|s| s.wal_records > 0 && s.wal_bytes > 0),
        "{tag}: durable run must report WAL activity in the superstep gauges"
    );
    // The grouped apply commit flushes the swapped table images.
    assert!(
        db.durability_stats().unwrap().flush_bytes > 0,
        "{tag}: a durable run must flush table images"
    );
    let live_bits = vertex_table_bits(&session);
    let live_image = physical_image(db.catalog());
    drop(session);
    drop(db);

    let db2 = store.open(&dir);
    assert_eq!(
        physical_image(db2.catalog()),
        live_image,
        "{tag}: recovered physical image differs from the live post-run state"
    );
    let session2 = GraphSession::open(db2, "g").expect("reopen session");
    assert_eq!(
        vertex_table_bits(&session2),
        live_bits,
        "{tag}: recovered vertex table differs bitwise"
    );
    drop(session2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durable_reopen_is_bitwise_identical_for_every_algorithm() {
    use vertexica_algorithms::vc::{LabelPropagation, RandomWalkWithRestart};
    let graph =
        rmat_graph(&RmatConfig { scale: 6, num_edges: 400, seed: 13, ..Default::default() });
    let undirected = graph.undirected();
    for store in [Store::Durable, Store::Budget256KiB] {
        let pagerank = Arc::new(PageRank::new(6, 0.85));
        assert_durable_reopen_is_bitwise_identical(store, &graph, "pagerank", pagerank);
        assert_durable_reopen_is_bitwise_identical(store, &graph, "sssp", Arc::new(Sssp::new(0)));
        let cc = Arc::new(ConnectedComponents);
        assert_durable_reopen_is_bitwise_identical(store, &undirected, "cc", cc);
        let rwr = Arc::new(RandomWalkWithRestart::new(0, 10));
        assert_durable_reopen_is_bitwise_identical(store, &graph, "rwr", rwr);
        let lp = Arc::new(LabelPropagation::new(6));
        assert_durable_reopen_is_bitwise_identical(store, &undirected, "lp", lp);
    }
}

#[test]
fn streaming_stats_report_bounded_peak_bytes() {
    // Dense superstep: PageRank touches every vertex, edge, and (after
    // superstep 0) a per-edge message load. The pipeline must never hold
    // the whole assembled input as one in-flight batch, and the pull-based
    // scan must never hold more than one in-flight batch per source —
    // strictly below the whole input.
    let graph = erdos_renyi(400, 3200, 9);
    // No combiner: the full per-edge message load lands in the message
    // table, which apply writes as several bucket segments (one per worker)
    // — the shape where pulling one segment at a time visibly beats holding
    // the whole table.
    // (chunk rows pinned below the vertex count: with edges read from the
    // projection, superstep 0's input is the 400-row vertex table alone, and
    // it must still arrive as several chunks for the bound to mean anything.)
    let config =
        VertexicaConfig::default().with_combiner(false).with_workers(4).with_stream_chunk_rows(64);
    for store in STORES {
        let session = session_for(store, &graph);
        let stats =
            run_program(&session, Arc::new(PageRank::new(5, 0.85)), &store.config(config.clone()))
                .unwrap();
        assert!(stats.supersteps >= 2);
        for s in &stats.per_superstep {
            assert!(s.input_bytes > 0, "{store:?} superstep {} reported no input", s.superstep);
            assert!(
                s.peak_batch_bytes < s.input_bytes,
                "{store:?} superstep {}: streaming peak {} should stay strictly below the \
                 whole input size {}",
                s.superstep,
                s.peak_batch_bytes,
                s.input_bytes
            );
            assert!(
                s.peak_resident_scan_bytes > 0 && s.peak_resident_scan_bytes < s.input_bytes,
                "{store:?} superstep {}: the pull-based scan's resident gauge {} should stay \
                 strictly below the whole input size {}",
                s.superstep,
                s.peak_resident_scan_bytes,
                s.input_bytes
            );
            assert!(s.queue_wait_secs >= 0.0);
        }
    }
}

/// The full vertex table, bit for bit: every row's id, raw encoded value
/// bytes and halt flag, canonicalized by id (physical row order is the one
/// thing the apply paths are *allowed* to differ on).
fn vertex_table_bits(session: &GraphSession) -> Vec<(i64, Option<Vec<u8>>, Option<bool>)> {
    let batches = session.db().scan_table(&session.vertex_table(), None, &[]).unwrap();
    let mut rows: Vec<(i64, Option<Vec<u8>>, Option<bool>)> = Vec::new();
    for b in &batches {
        for i in 0..b.num_rows() {
            let row = b.row(i);
            rows.push((
                row[0].as_int().unwrap(),
                row[1].as_blob().map(|b| b.to_vec()),
                row[2].as_bool(),
            ));
        }
    }
    rows.sort();
    rows
}

/// The full message table, bit for bit, canonicalized.
fn message_table_bits(session: &GraphSession) -> Vec<(i64, Option<i64>, Option<Vec<u8>>)> {
    let batches = session.db().scan_table(&session.message_table(), None, &[]).unwrap();
    let mut rows: Vec<(i64, Option<i64>, Option<Vec<u8>>)> = Vec::new();
    for b in &batches {
        for i in 0..b.num_rows() {
            let row = b.row(i);
            rows.push((
                row[0].as_int().unwrap(),
                row[1].as_int(),
                row[2].as_blob().map(|b| b.to_vec()),
            ));
        }
    }
    rows.sort();
    rows
}

/// Everything one configuration cell produced that must not depend on the
/// knobs under test.
#[derive(PartialEq, Debug)]
struct CellResult {
    vertex_bits: Vec<(i64, Option<Vec<u8>>, Option<bool>)>,
    message_bits: Vec<(i64, Option<i64>, Option<Vec<u8>>)>,
    total_messages: u64,
    per_superstep: Vec<(usize, usize, bool)>, // (messages, vertex_changes, replaced)
}

fn run_cell<P, F>(
    store: Store,
    graph: &EdgeList,
    make_program: F,
    config: &VertexicaConfig,
) -> CellResult
where
    P: vertexica_common::VertexProgram + 'static,
    F: Fn() -> P,
{
    let session = session_for(store, graph);
    let stats =
        run_program(&session, Arc::new(make_program()), &store.config(config.clone())).unwrap();
    CellResult {
        vertex_bits: vertex_table_bits(&session),
        message_bits: message_table_bits(&session),
        total_messages: stats.total_messages,
        per_superstep: stats
            .per_superstep
            .iter()
            .map(|s| (s.messages, s.vertex_changes, s.replaced))
            .collect(),
    }
}

/// The invariance cells: every vertex-centric algorithm — plus two
/// superstep-capped runs whose message tables are still non-empty — with the
/// combiner off at {1 worker / 1 partition, 8 workers / 64 partitions}, and
/// with it on at {1 worker / 64 partitions, 8 workers / 64 partitions}, must
/// leave **bitwise-identical** vertex tables, message tables and
/// per-superstep message counts, vertex-change counts and replace flags.
/// With the combiner on, workers fold messages per compute partition, so
/// those pairs share the partition count and differ in workers only. One
/// test per [`Store`], so the three run in parallel; each durable store's
/// reference cells, and every combiner-on cell, are also held to the
/// in-memory store's.
#[test]
fn parallelism_is_bitwise_invariant() {
    invariance_matrix(Store::Memory);
}

#[test]
fn parallelism_is_bitwise_invariant_durable() {
    invariance_matrix(Store::Durable);
}

#[test]
fn parallelism_is_bitwise_invariant_budgeted() {
    invariance_matrix(Store::Budget256KiB);
}

fn invariance_matrix(store: Store) {
    use vertexica_algorithms::vc::{LabelPropagation, RandomWalkWithRestart};
    let (graph, undirected) = invariance_graphs();

    // (name, runner): each runner executes one cell for its algorithm.
    type Cell<'a> = Box<dyn Fn(Store, &VertexicaConfig) -> CellResult + 'a>;
    let capped = |config: &VertexicaConfig, cap: u64| config.clone().with_max_supersteps(cap);
    let algorithms: Vec<(&str, Cell)> = vec![
        ("pagerank", Box::new(|st, c| run_cell(st, &graph, || PageRank::new(6, 0.85), c))),
        (
            "pagerank-midflight",
            Box::new(|st, c| run_cell(st, &graph, || PageRank::new(6, 0.85), &capped(c, 3))),
        ),
        ("sssp", Box::new(|st, c| run_cell(st, &graph, || Sssp::new(0), c))),
        (
            "connected-components",
            Box::new(|st, c| run_cell(st, &undirected, || ConnectedComponents, c)),
        ),
        (
            "cc-midflight",
            Box::new(|st, c| run_cell(st, &undirected, || ConnectedComponents, &capped(c, 2))),
        ),
        (
            "random-walk-with-restart",
            Box::new(|st, c| run_cell(st, &graph, || RandomWalkWithRestart::new(0, 8), c)),
        ),
        (
            "label-propagation",
            Box::new(|st, c| run_cell(st, &undirected, || LabelPropagation::new(6), c)),
        ),
    ];

    for (name, cell) in &algorithms {
        for combiner in [false, true] {
            let mut reference: Option<CellResult> = None;
            let cells = if combiner { [(1, 64), (8, 64)] } else { [(1, 1), (8, 64)] };
            for (workers, partitions) in cells {
                let config = VertexicaConfig::default()
                    .with_workers(workers)
                    .with_partitions(partitions)
                    .with_combiner(combiner);
                let what = format!(
                    "{name}: cell ({store:?}, combiner={combiner}, {workers} workers / \
                     {partitions} partitions)"
                );
                let result = cell(store, &config);
                if store != Store::Memory && (reference.is_none() || combiner) {
                    let memory = cell(Store::Memory, &config);
                    assert_eq!(memory, result, "{what} diverged from the in-memory store");
                }
                let Some(expected) = &reference else {
                    assert!(!result.vertex_bits.is_empty(), "{what}: no vertices");
                    reference = Some(result);
                    continue;
                };
                assert_eq!(*expected, result, "{what} diverged");
            }
        }
    }
}

/// The out-of-core cell: run `program` on a durable database under a
/// pathological 1-byte memory budget — every checkpointed segment evicts and
/// every scan pull faults its segment back in from the `.vxtb` spill image —
/// and require vertex and message tables **bitwise-identical** to the
/// unbounded durable run.
fn assert_tiny_budget_matches_unbounded<P, F>(graph: &EdgeList, tag: &str, make_program: F)
where
    P: vertexica_common::VertexProgram + 'static,
    F: Fn() -> P,
{
    let run = |budget: Option<usize>| {
        let dir = unique_durable_dir(tag);
        let db = Arc::new(Database::open(&dir).expect("open durable"));
        // Budgeted from before the load, as the budgeted store is.
        db.catalog().buffer_pool().set_budget(budget);
        let session = GraphSession::create(db.clone(), "g").expect("create");
        session.load_edges(graph).expect("load");
        let config = VertexicaConfig::default()
            .with_workers(4)
            .with_partitions(16)
            .with_durable(true)
            .with_memory_budget(budget);
        let stats = run_program(&session, Arc::new(make_program()), &config).unwrap();
        let out = (vertex_table_bits(&session), message_table_bits(&session), stats);
        drop(session);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
        out
    };
    let (v_unbounded, m_unbounded, unbounded_stats) = run(None);
    assert_eq!(
        unbounded_stats.per_superstep.iter().map(|s| s.evictions).sum::<u64>(),
        0,
        "{tag}: the unbounded run must never evict"
    );
    let (v_tiny, m_tiny, stats) = run(Some(1));
    assert_eq!(v_tiny, v_unbounded, "{tag}: vertex table diverged under the 1-byte budget");
    assert_eq!(m_tiny, m_unbounded, "{tag}: message table diverged under the 1-byte budget");
    let evictions: u64 = stats.per_superstep.iter().map(|s| s.evictions).sum();
    let reloads: u64 = stats.per_superstep.iter().map(|s| s.reloads).sum();
    assert!(evictions > 0, "{tag}: the 1-byte budget must force evictions");
    assert!(reloads > 0, "{tag}: scans under the 1-byte budget must reload segments");
}

#[test]
fn tiny_memory_budget_is_bitwise_identical_on_every_algorithm() {
    use vertexica_algorithms::vc::{LabelPropagation, RandomWalkWithRestart};
    let graph =
        rmat_graph(&RmatConfig { scale: 6, num_edges: 400, seed: 19, ..Default::default() });
    let undirected = graph.undirected();
    assert_tiny_budget_matches_unbounded(&graph, "oc-pagerank", || PageRank::new(6, 0.85));
    assert_tiny_budget_matches_unbounded(&graph, "oc-sssp", || Sssp::new(0));
    assert_tiny_budget_matches_unbounded(&undirected, "oc-cc", || ConnectedComponents);
    assert_tiny_budget_matches_unbounded(&graph, "oc-rwr", || RandomWalkWithRestart::new(0, 8));
    assert_tiny_budget_matches_unbounded(&undirected, "oc-lp", || LabelPropagation::new(6));
}

/// Loads `graph` with the edge table split across many small ROS segments
/// (one per 400-edge append) instead of `load_edges`'s 65 536-row chunks.
/// The segment is the pool's eviction granule, so an out-of-core budget is
/// only meaningful when it sits above the largest single segment — this
/// loader makes that true for budgets far below the table's total bytes.
fn load_edges_finely_segmented(session: &GraphSession, graph: &EdgeList) {
    use vertexica::session::edge_schema;
    use vertexica::storage::{ColumnBuilder, DataType, RecordBatch};
    let base = EdgeList::new(graph.num_vertices, vec![]);
    session.load_edges(&base).expect("load vertices");
    for chunk in graph.edges.chunks(400) {
        let mut src = ColumnBuilder::new(DataType::Int);
        let mut dst = ColumnBuilder::new(DataType::Int);
        let mut weight = ColumnBuilder::new(DataType::Float);
        let mut created = ColumnBuilder::new(DataType::Int);
        let mut etype = ColumnBuilder::new(DataType::Str);
        for e in chunk {
            src.push_int(e.src as i64);
            dst.push_int(e.dst as i64);
            weight.push_float(e.weight);
            created.push_int(0);
            etype.push_null();
        }
        let batch = RecordBatch::new(
            edge_schema(),
            vec![src.finish(), dst.finish(), weight.finish(), created.finish(), etype.finish()],
        )
        .unwrap();
        session.db().append_batches(&session.edge_table(), &[batch]).unwrap();
    }
}

/// The headline out-of-core acceptance: a graph whose checkpointed segment
/// bytes **exceed** the memory budget still completes PageRank — with
/// genuine evictions, per-superstep peak residency at or below the budget,
/// and results bitwise-identical to the unbounded run.
#[test]
fn over_budget_pagerank_completes_with_bounded_residency() {
    let graph = erdos_renyi(400, 3200, 9);

    // Unbounded durable reference.
    let ref_dir = unique_durable_dir("oc-ref");
    let ref_db = Arc::new(Database::open(&ref_dir).expect("open durable"));
    let ref_session = GraphSession::create(ref_db.clone(), "g").expect("create");
    load_edges_finely_segmented(&ref_session, &graph);
    run_program(
        &ref_session,
        Arc::new(PageRank::new(6, 0.85)),
        &VertexicaConfig::default().with_durable(true),
    )
    .unwrap();
    let ref_vertex = vertex_table_bits(&ref_session);

    // Budgeted run: measure the post-load checkpointed footprint, then cap
    // the pool well below it.
    let dir = unique_durable_dir("oc-budget");
    let db = Arc::new(Database::open(&dir).expect("open durable"));
    let session = GraphSession::create(db.clone(), "g").expect("create");
    load_edges_finely_segmented(&session, &graph);
    db.checkpoint().unwrap();
    let total = db.catalog().buffer_pool().stats().resident_bytes as usize;
    assert!(total > 0, "graph load must leave resident ROS segments");
    let budget = total * 3 / 5;
    let config = VertexicaConfig::default().with_durable(true).with_memory_budget(Some(budget));
    let stats = run_program(&session, Arc::new(PageRank::new(6, 0.85)), &config).unwrap();

    let evictions: u64 = stats.per_superstep.iter().map(|s| s.evictions).sum();
    assert!(evictions > 0, "a below-footprint budget must force evictions");
    for s in &stats.per_superstep {
        assert!(
            s.resident_bytes <= budget as u64,
            "superstep {}: peak residency {} exceeds the {budget}-byte budget",
            s.superstep,
            s.resident_bytes
        );
    }
    assert_eq!(
        vertex_table_bits(&session),
        ref_vertex,
        "budgeted PageRank diverged from the unbounded run"
    );

    drop(session);
    drop(db);
    drop(ref_session);
    drop(ref_db);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ref_dir).ok();
}

/// Overlap accounting on dense supersteps with many small chunks. Whether a
/// compute task actually starts inside the assemble window depends on the
/// scheduler (the deterministic proof is
/// `pipelined_plan_dispatches_before_assemble_finishes` in the SQL engine's
/// tests), so only schedule-independent bounds are checked: overlap is
/// compute time spent inside the window, by at most `workers` tasks at once.
#[test]
fn dense_supersteps_report_genuine_compute_assemble_overlap() {
    let graph = erdos_renyi(1200, 9600, 21);
    let (workers, partitions) = (4, 8);
    let config = VertexicaConfig::default()
        .with_workers(workers)
        .with_partitions(partitions)
        // Small chunks give the dispatcher real scatter granularity, so
        // partitions seal (and compute) while later chunks still stream.
        .with_stream_chunk_rows(128);
    let expected = reference::pagerank(&graph, 4, 0.85);
    for store in STORES {
        let session = session_for(store, &graph);
        let stats =
            run_program(&session, Arc::new(PageRank::new(4, 0.85)), &store.config(config.clone()))
                .unwrap();
        assert!(stats.supersteps >= 3);
        for s in &stats.per_superstep {
            assert!(s.overlap_secs >= 0.0, "{store:?} {s:?}");
            assert!(s.overlap_secs <= s.compute_secs * workers as f64, "{store:?} {s:?}");
            assert!(s.early_dispatches <= partitions, "{store:?} {s:?}");
        }
        let vx: Vec<(VertexId, f64)> = session.vertex_values().unwrap();
        for (id, rank) in &vx {
            assert!((rank - expected[*id as usize]).abs() < 1e-9, "{store:?} vertex {id}");
        }
    }
}

#[test]
fn pool_metrics_grow_monotonically_across_supersteps() {
    let graph = erdos_renyi(200, 1200, 3);
    let session = session_for(Store::Memory, &graph);
    let pool = session.db().runtime().clone();
    let before = pool.metrics();
    let stats = run_program(
        &session,
        Arc::new(PageRank::new(5, 0.85)),
        &VertexicaConfig::default().with_workers(4).with_partitions(32),
    )
    .unwrap();
    let after = pool.metrics();
    // The run's per-superstep deltas must add up to no more than the pool's
    // monotonic counter growth (other phases may add to the pool totals).
    assert!(after.tasks_executed > before.tasks_executed);
    assert!(after.queue_wait_secs >= before.queue_wait_secs);
    assert!(after.tasks_stolen >= before.tasks_stolen);
    let summed_wait: f64 = stats.per_superstep.iter().map(|s| s.queue_wait_secs).sum();
    let summed_steals: u64 = stats.per_superstep.iter().map(|s| s.steals).sum();
    assert!(summed_wait <= after.queue_wait_secs - before.queue_wait_secs + 1e-9);
    assert!(summed_steals <= after.tasks_stolen - before.tasks_stolen);
}

// ---------------------------------------------------------------------------
// Sharded execution: {1 shard} vs {2, 4 shards} must be bitwise-identical.
// ---------------------------------------------------------------------------

use vertexica::shard::{
    repair_if_needed, resume_sharded, run_sharded, ShardedDatabase, ShardedGraphSession,
};

/// `graph` loaded into a fresh `shards`-shard session in `store` (one WAL
/// directory per shard when durable) — the sharded [`session_for`].
fn sharded_session_for(
    store: Store,
    graph: &EdgeList,
    shards: usize,
) -> InStore<ShardedGraphSession> {
    let (db, dir) = if store == Store::Memory {
        (ShardedDatabase::new(shards), None)
    } else {
        let dir = unique_durable_dir("shard");
        let db = ShardedDatabase::create(&dir, shards).expect("create durable shards");
        for shard in db.shards() {
            shard.catalog().buffer_pool().set_budget(store.budget());
        }
        (db, Some(dir))
    };
    let ss = ShardedGraphSession::create(db, "g").expect("create");
    ss.load_edges(graph).expect("load");
    InStore { inner: ss, _dir: TempDir(dir) }
}

/// The merged vertex table across every shard, bit for bit, canonicalized —
/// comparable 1:1 against a single-database [`vertex_table_bits`].
fn sharded_vertex_bits(ss: &ShardedGraphSession) -> Vec<(i64, Option<Vec<u8>>, Option<bool>)> {
    let mut rows = Vec::new();
    for sess in ss.shard_sessions() {
        rows.extend(vertex_table_bits(sess));
    }
    rows.sort();
    rows
}

/// The merged message table across every shard (each shard stores the
/// messages its vertices *produced*), canonicalized.
fn sharded_message_bits(ss: &ShardedGraphSession) -> Vec<(i64, Option<i64>, Option<Vec<u8>>)> {
    let mut rows = Vec::new();
    for sess in ss.shard_sessions() {
        rows.extend(message_table_bits(sess));
    }
    rows.sort();
    rows
}

/// Cell config for the shard matrix. The combiner is off on *both* sides
/// (the sharded coordinator coerces it off — it groups f64 folds by
/// producing shard), so the 1-shard reference runs the exact same fold.
/// Small stream chunks give the exchange real scatter granularity, so
/// cross-shard sealing (early dispatch) is observable.
fn shard_cell_config(cap: u64) -> VertexicaConfig {
    VertexicaConfig::default()
        .with_workers(4)
        .with_partitions(16)
        .with_combiner(false)
        .with_stream_chunk_rows(128)
        .with_max_supersteps(cap)
}

fn run_shard_cell<P, F>(
    store: Store,
    graph: &EdgeList,
    make_program: F,
    shards: usize,
    cap: u64,
) -> (CellResult, vertexica::RunStats)
where
    P: vertexica_common::VertexProgram + 'static,
    F: Fn() -> P,
{
    let ss = sharded_session_for(store, graph, shards);
    let config = store.config(shard_cell_config(cap));
    let stats = run_sharded(&ss, Arc::new(make_program()), &config).unwrap();
    let cell = CellResult {
        vertex_bits: sharded_vertex_bits(&ss),
        message_bits: sharded_message_bits(&ss),
        total_messages: stats.total_messages,
        per_superstep: stats
            .per_superstep
            .iter()
            .map(|s| (s.messages, s.vertex_changes, s.replaced))
            .collect(),
    };
    (cell, stats)
}

/// The sharded equivalence matrix: every vertex-centric algorithm —
/// including the mid-flight (superstep-capped) cells whose message tables
/// are non-empty — run on 1, 2 and 4 shards in every [`Store`] must produce
/// bitwise-identical
/// merged vertex tables, merged message tables, message counts and
/// per-superstep outcomes. The N ≥ 2 cells must also show genuine
/// cross-shard traffic (`remote_messages`, `routed_bytes`) and cross-shard
/// sealing (`early_dispatches`: partitions dispatched before end-of-stream
/// because the summed prescan counts said their last row had landed).
#[test]
fn sharded_execution_is_bitwise_identical_for_every_algorithm() {
    use vertexica_algorithms::vc::{LabelPropagation, RandomWalkWithRestart};
    let graph =
        rmat_graph(&RmatConfig { scale: 6, num_edges: 400, seed: 23, ..Default::default() });
    let undirected = graph.undirected();

    type ShardCell = Box<dyn Fn(Store, usize) -> (CellResult, vertexica::RunStats)>;
    let algorithms: Vec<(&str, ShardCell)> = vec![
        ("pagerank", {
            let g = graph.clone();
            Box::new(move |st, n| run_shard_cell(st, &g, || PageRank::new(6, 0.85), n, 10_000))
        }),
        ("pagerank-midflight", {
            let g = graph.clone();
            Box::new(move |st, n| run_shard_cell(st, &g, || PageRank::new(6, 0.85), n, 3))
        }),
        ("sssp", {
            let g = graph.clone();
            Box::new(move |st, n| run_shard_cell(st, &g, || Sssp::new(0), n, 10_000))
        }),
        ("connected-components", {
            let g = undirected.clone();
            Box::new(move |st, n| run_shard_cell(st, &g, || ConnectedComponents, n, 10_000))
        }),
        ("cc-midflight", {
            let g = undirected.clone();
            Box::new(move |st, n| run_shard_cell(st, &g, || ConnectedComponents, n, 2))
        }),
        ("random-walk-with-restart", {
            let g = graph.clone();
            Box::new(move |st, n| {
                run_shard_cell(st, &g, || RandomWalkWithRestart::new(0, 8), n, 10_000)
            })
        }),
        ("label-propagation", {
            let g = undirected.clone();
            Box::new(move |st, n| run_shard_cell(st, &g, || LabelPropagation::new(6), n, 10_000))
        }),
    ];

    for (name, cell) in &algorithms {
        let (reference, _) = cell(Store::Memory, 1);
        assert!(!reference.vertex_bits.is_empty(), "{name}: empty vertex table");
        for store in STORES {
            for n in [1usize, 2, 4] {
                let (other, stats) = cell(store, n);
                assert_eq!(
                    reference, other,
                    "{name}: {store:?} {n}-shard run diverged from the in-memory 1-shard one"
                );
                let remote: u64 = stats.per_superstep.iter().map(|s| s.remote_messages).sum();
                let routed: u64 = stats.per_superstep.iter().map(|s| s.routed_bytes).sum();
                if n == 1 {
                    // A 1-shard run never routes.
                    assert_eq!((remote, routed), (0, 0), "{name}: {store:?} 1-shard cell routed");
                    continue;
                }
                assert!(remote > 0, "{name}: {store:?} {n} shards exchanged no rows");
                assert!(
                    routed > 0,
                    "{name}: {store:?} {n} shards routed rows but tracked no bytes"
                );
                assert!(
                    stats.per_superstep.iter().all(|s| s.shard_skew >= 1.0),
                    "{name}: shard skew is a max/mean ratio and can never be below 1"
                );
                if *name == "pagerank" {
                    let early: usize = stats.per_superstep.iter().map(|s| s.early_dispatches).sum();
                    assert!(
                        early > 0,
                        "{name}: {store:?} {n} shards: no partition sealed from the summed \
                         prescan counts before end-of-stream"
                    );
                }
            }
        }
    }
}

/// Mid-flight resume across shards: a 2-shard run capped at 3 supersteps,
/// resumed from the superstep its shards' stamps name to completion, must
/// land bitwise-identical to the uninterrupted 1-shard reference, in every
/// store.
#[test]
fn sharded_checkpoint_resume_is_bitwise_identical() {
    let graph =
        rmat_graph(&RmatConfig { scale: 6, num_edges: 400, seed: 29, ..Default::default() });
    let (reference, _) =
        run_shard_cell(Store::Memory, &graph, || PageRank::new(6, 0.85), 1, 10_000);

    for store in STORES {
        let ss = sharded_session_for(store, &graph, 2);
        let capped = store.config(shard_cell_config(3));
        run_sharded(&ss, Arc::new(PageRank::new(6, 0.85)), &capped).unwrap();
        assert_eq!(ss.stamps().unwrap(), vec![Some(2), Some(2)], "{store:?}: the cap stamps 2");
        let rest = store.config(shard_cell_config(10_000));
        let resumed = resume_sharded(&ss, Arc::new(PageRank::new(6, 0.85)), &rest).unwrap();
        assert!(resumed.supersteps > 0, "{store:?}: the capped run left nothing to resume");
        assert_eq!(
            sharded_vertex_bits(&ss),
            reference.vertex_bits,
            "{store:?}: resumed sharded vertex table diverged from the 1-shard reference"
        );
        assert_eq!(
            sharded_message_bits(&ss),
            reference.message_bits,
            "{store:?}: resumed sharded message table diverged from the 1-shard reference"
        );
    }
}

/// Loads `graph` into a sharded session with the edge table split across
/// many small ROS segments per shard (the per-shard analogue of
/// [`load_edges_finely_segmented`]), respecting the ownership hash.
fn load_edges_finely_segmented_sharded(ss: &ShardedGraphSession, graph: &EdgeList) {
    use vertexica::session::edge_schema;
    use vertexica::storage::partition::owner;
    use vertexica::storage::{ColumnBuilder, DataType, RecordBatch};
    let n = ss.num_shards();
    let base = EdgeList::new(graph.num_vertices, vec![]);
    ss.load_edges(&base).expect("load vertices");
    for chunk in graph.edges.chunks(400) {
        for (k, sess) in ss.shard_sessions().iter().enumerate() {
            let mut src = ColumnBuilder::new(DataType::Int);
            let mut dst = ColumnBuilder::new(DataType::Int);
            let mut weight = ColumnBuilder::new(DataType::Float);
            let mut created = ColumnBuilder::new(DataType::Int);
            let mut etype = ColumnBuilder::new(DataType::Str);
            let mut rows = 0;
            for e in chunk.iter().filter(|e| owner(e.src as i64, n, 1).0 == k) {
                src.push_int(e.src as i64);
                dst.push_int(e.dst as i64);
                weight.push_float(e.weight);
                created.push_int(0);
                etype.push_null();
                rows += 1;
            }
            if rows == 0 {
                continue;
            }
            let batch = RecordBatch::new(
                edge_schema(),
                vec![src.finish(), dst.finish(), weight.finish(), created.finish(), etype.finish()],
            )
            .unwrap();
            sess.db().append_batches(&sess.edge_table(), &[batch]).unwrap();
        }
    }
}

/// The divided-budget regression: a global `memory_budget_bytes` set below
/// the sharded graph's checkpointed footprint is split across the shards,
/// and the **sum** of per-shard peak residency must stay within the global
/// budget every superstep — N shards must not multiply the paper's memory
/// envelope by N.
#[test]
fn sharded_memory_budget_bounds_summed_residency() {
    let graph = erdos_renyi(400, 3200, 9);
    let dir = unique_durable_dir("shard_budget");
    let db = ShardedDatabase::create(&dir, 2).expect("create durable shards");
    let ss = ShardedGraphSession::create(db.clone(), "g").expect("create");
    load_edges_finely_segmented_sharded(&ss, &graph);
    ss.checkpoint().unwrap();
    let total: u64 =
        db.shards().iter().map(|d| d.catalog().buffer_pool().stats().resident_bytes).sum();
    assert!(total > 0, "sharded load must leave resident ROS segments");
    // 3/4 of the checkpointed footprint: each shard's slice (3/8) sits well
    // below its ~1/2 share, forcing evictions, while the global bound keeps
    // headroom for the superstep's freshly committed (not yet spillable,
    // hence not yet evictable) message segments — the same slack the
    // single-database out-of-core cell gets from its undivided budget.
    let budget = (total as usize) * 3 / 4;

    let config = shard_cell_config(10_000).with_memory_budget(Some(budget));
    let stats = run_sharded(&ss, Arc::new(PageRank::new(6, 0.85)), &config).unwrap();
    let evictions: u64 = stats.per_superstep.iter().map(|s| s.evictions).sum();
    assert!(evictions > 0, "a below-footprint global budget must force evictions");
    for s in &stats.per_superstep {
        assert!(
            s.resident_bytes <= budget as u64,
            "superstep {}: summed per-shard peak residency {} exceeds the global \
             {budget}-byte budget",
            s.superstep,
            s.resident_bytes
        );
    }
    drop(ss);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// Never halts; every superstep stamps itself into every vertex — the crash
/// workload (same as the kill -9 harness: the superstep number is the
/// recovery oracle).
struct SuperstepStamp;

impl vertexica_common::VertexProgram for SuperstepStamp {
    type Value = u64;
    type Message = u64;

    fn initial_value(&self, _id: VertexId, _init: &vertexica_common::pregel::InitContext) -> u64 {
        0
    }

    fn compute(
        &self,
        ctx: &mut dyn vertexica_common::pregel::VertexContext<u64, u64>,
        _messages: &[u64],
    ) {
        use vertexica_common::pregel::VertexContextExt;
        let step = ctx.superstep();
        ctx.set_value(step);
        ctx.send_to_all_neighbors(step);
    }

    fn name(&self) -> &'static str {
        "superstep_stamp"
    }
}

fn stamp_ring() -> EdgeList {
    EdgeList::from_pairs((0..24u64).map(|v| (v, (v + 1) % 24)))
}

/// Deterministic crash injection across the shard boundary: shard 1's WAL
/// sink is armed with a byte budget that exhausts during a mid-run apply
/// commit, so shard 0 commits superstep `s` while shard 1 dies inside its
/// own commit of `s` — the exact torn boundary the per-shard stamps exist
/// for. Reopening recovers shard 1 to `s − 1` (stamp spread exactly 1), and
/// [`repair_if_needed`] re-runs the missing superstep on shard 1 from shard
/// 0's retained message input, landing **bitwise-identical** to an
/// uninterrupted run capped at the same boundary. Repair is idempotent.
#[test]
fn sharded_crash_injection_repairs_to_the_common_boundary() {
    for store in [Store::Durable, Store::Budget256KiB] {
        sharded_crash_injection_repairs(store);
    }
}

fn sharded_crash_injection_repairs(store: Store) {
    let graph = stamp_ring();
    let cap = 12u64;
    let config = store.config(
        VertexicaConfig::default().with_workers(2).with_partitions(8).with_max_supersteps(cap),
    );
    // Each shard's pool budgeted from before the load, as in `sharded_session_for`.
    let create = |dir: &std::path::Path| {
        let db = ShardedDatabase::create(dir, 2).expect("create");
        for shard in db.shards() {
            shard.catalog().buffer_pool().set_budget(store.budget());
        }
        db
    };

    // Loaded, with each shard's edge projection built: the run finds it
    // cached, so the bytes it writes are its init and superstep commits.
    let loaded = |db: &Arc<ShardedDatabase>| {
        let ss = ShardedGraphSession::create(db.clone(), "g").expect("create");
        ss.load_edges(&graph).expect("load");
        for sess in ss.shard_sessions() {
            sess.edge_projection(2, config.num_partitions).expect("projection");
        }
        ss
    };

    // Measurement run: how many durable bytes does shard 1 write in total,
    // and how many before the run starts? (Byte streams are deterministic —
    // same graph, same program, same config.)
    let dir_a = unique_durable_dir("shard_crash_ref");
    let pre_bytes;
    let total_bytes;
    {
        let db = create(&dir_a);
        let ss = loaded(&db);
        let d = db.shard(1).durability_stats().unwrap();
        pre_bytes = d.wal_bytes + d.flush_bytes;
        run_sharded(&ss, Arc::new(SuperstepStamp), &config).unwrap();
        let d = db.shard(1).durability_stats().unwrap();
        total_bytes = d.wal_bytes + d.flush_bytes;
    }
    std::fs::remove_dir_all(&dir_a).ok();
    assert!(total_bytes > pre_bytes, "the stamp run must write durable bytes");

    // Crash run: same prefix of durable writes, but shard 1's budget
    // exhausts roughly halfway through the superstep commits.
    let dir = unique_durable_dir("shard_crash");
    {
        let db = create(&dir);
        let ss = loaded(&db);
        let d = db.shard(1).durability_stats().unwrap();
        assert_eq!(d.wal_bytes + d.flush_bytes, pre_bytes, "durable prefix must be deterministic");
        db.shard(1)
            .catalog()
            .wal_sink()
            .expect("durable shard has a WAL sink")
            .set_crash_budget(Some((total_bytes - pre_bytes) / 2));
        let err = run_sharded(&ss, Arc::new(SuperstepStamp), &config);
        assert!(err.is_err(), "an injected WAL crash must fail the sharded run");
    }

    // Recovery: every shard replays its own WAL; the stamps must sit on
    // adjacent boundaries with shard 0 ahead (it committed the superstep
    // shard 1 died inside).
    let db = ShardedDatabase::open(&dir).expect("recovery must succeed");
    let ss = ShardedGraphSession::open(db.clone(), "g").expect("stamp spread must be within 1");
    let stamps = ss.stamps().unwrap();
    let s0 = stamps[0].expect("shard 0 is stamped");
    let s1 = stamps[1].expect("shard 1 is stamped");
    assert_eq!(s0, s1 + 1, "shard 1 died mid-commit while shard 0 committed: stamps {stamps:?}");

    let repaired = repair_if_needed(&ss, Arc::new(SuperstepStamp), &config).unwrap();
    assert_eq!(repaired, Some(s0 as u64), "repair must replay the torn superstep");
    let stamps = ss.stamps().unwrap();
    assert!(
        stamps.iter().all(|s| *s == Some(s0)),
        "all shards must land on the common boundary: {stamps:?}"
    );
    assert_eq!(
        repair_if_needed(&ss, Arc::new(SuperstepStamp), &config).unwrap(),
        None,
        "repair must be idempotent"
    );

    // Bitwise: the repaired database equals an uninterrupted run capped at
    // the same boundary.
    let dir_c = unique_durable_dir("shard_crash_cap");
    let db_c = create(&dir_c);
    let ss_c = ShardedGraphSession::create(db_c.clone(), "g").expect("create");
    ss_c.load_edges(&graph).expect("load");
    run_sharded(
        &ss_c,
        Arc::new(SuperstepStamp),
        &config.clone().with_max_supersteps(s0 as u64 + 1),
    )
    .unwrap();
    assert_eq!(
        sharded_vertex_bits(&ss),
        sharded_vertex_bits(&ss_c),
        "repaired vertex tables diverged from the uninterrupted capped run"
    );
    assert_eq!(
        sharded_message_bits(&ss),
        sharded_message_bits(&ss_c),
        "repaired message tables diverged from the uninterrupted capped run"
    );
    drop(ss);
    drop(db);
    drop(ss_c);
    drop(db_c);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir_c).ok();
}
