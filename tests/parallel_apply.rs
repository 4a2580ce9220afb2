//! Crash/abort safety of the segment-parallel apply path.
//!
//! The parallel apply builds every new vertex/message segment on the worker
//! pool **before** committing either table with an atomic catalog-level
//! contents swap. These tests inject a panic (and, separately, an error)
//! into an apply task mid-build and assert the graph's tables come through
//! untouched: old segments still visible, no torn swap, pool still healthy.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use vertexica::apply::apply_outputs;
use vertexica::coordinator::initialize_vertices;
use vertexica::sql::Database;
use vertexica::storage::partition::owner;
use vertexica::storage::{RecordBatch, Value};
use vertexica::worker::{worker_output_schema, OUT_MESSAGE, OUT_STATE};
use vertexica::{run_program, GraphSession, VertexicaConfig};
use vertexica_algorithms::vc::PageRank;
use vertexica_common::graph::EdgeList;
use vertexica_common::pregel::{InitContext, VertexContext, VertexProgram};
use vertexica_common::VertexId;

/// A program whose combiner panics when it meets the poison payload — the
/// panic fires inside the apply stage's per-bucket pool task (cross-partition
/// combine), i.e. mid-segment-build.
struct PoisonCombine;

impl VertexProgram for PoisonCombine {
    type Value = f64;
    type Message = f64;

    fn initial_value(&self, _id: VertexId, _init: &InitContext) -> f64 {
        0.0
    }

    fn compute(&self, _ctx: &mut dyn VertexContext<f64, f64>, _messages: &[f64]) {}

    fn combine(&self, a: &f64, b: &f64) -> Option<f64> {
        if *a == 666.0 || *b == 666.0 {
            panic!("poison message reached the apply combiner");
        }
        Some(a + b)
    }
}

fn poisoned_session() -> GraphSession {
    let db = Arc::new(Database::new());
    db.set_worker_threads(4);
    let g = GraphSession::create(db, "g").unwrap();
    g.load_edges(&EdgeList::from_pairs([(0, 1), (1, 2), (2, 3), (3, 0)])).unwrap();
    initialize_vertices(&g, &PoisonCombine).unwrap();
    g
}

fn state_row(vid: i64, v: f64) -> Vec<Value> {
    use vertexica_common::VertexData;
    vec![
        Value::Int(OUT_STATE),
        Value::Int(vid),
        Value::Null,
        Value::Blob(v.to_bytes()),
        Value::Bool(false),
        Value::Null,
        Value::Null,
    ]
}

fn msg_row(to: i64, from: i64, v: f64) -> Vec<Value> {
    use vertexica_common::VertexData;
    vec![
        Value::Int(OUT_MESSAGE),
        Value::Int(to),
        Value::Int(from),
        Value::Blob(v.to_bytes()),
        Value::Null,
        Value::Null,
        Value::Null,
    ]
}

/// Snapshot of a table: (segment count, canonicalized rows).
fn table_state(session: &GraphSession, table: &str) -> (usize, Vec<Vec<String>>) {
    let handle = session.db().catalog().get(table).unwrap();
    let guard = handle.read();
    let segments = guard.num_segments();
    let mut rows: Vec<Vec<String>> = guard
        .scan(None, &[])
        .unwrap()
        .iter()
        .flat_map(|b| b.rows())
        .map(|r| r.iter().map(|v| format!("{v:?}")).collect())
        .collect();
    rows.sort();
    (segments, rows)
}

#[test]
fn panicking_apply_task_leaves_tables_untouched() {
    let g = poisoned_session();
    // A pre-existing message that must survive the aborted replacement.
    let stale = vertexica::session::message_batch(&[(0, 9, vec![1, 2, 3])]).unwrap();
    g.db().append_batches(&g.message_table(), &[stale]).unwrap();

    let vertex_before = table_state(&g, &g.vertex_table());
    let message_before = table_state(&g, &g.message_table());

    // Two partitions' outputs: both message the same recipient, one payload
    // poisoned, so the per-bucket combine on the pool panics mid-build.
    let config = VertexicaConfig::default().with_workers(4);
    let out1 =
        RecordBatch::from_rows(worker_output_schema(), &[state_row(0, 1.0), msg_row(2, 0, 666.0)])
            .unwrap();
    let out2 =
        RecordBatch::from_rows(worker_output_schema(), &[state_row(1, 2.0), msg_row(2, 1, 5.0)])
            .unwrap();
    let result = catch_unwind(AssertUnwindSafe(|| {
        apply_outputs(&g, &PoisonCombine, &config, vec![out1, out2])
    }));
    assert!(result.is_err(), "the pool task's panic must propagate to the apply caller");

    // No torn swap: both tables exactly as before — same segments, same rows.
    assert_eq!(table_state(&g, &g.vertex_table()), vertex_before);
    assert_eq!(table_state(&g, &g.message_table()), message_before);

    // The pool survived the panic: a clean apply on the same session works.
    let ok = RecordBatch::from_rows(
        worker_output_schema(),
        &[state_row(0, 7.0), msg_row(2, 0, 1.0), msg_row(2, 1, 2.0)],
    )
    .unwrap();
    let outcome = apply_outputs(&g, &PoisonCombine, &config, vec![ok]).unwrap();
    assert_eq!(outcome.messages, 1); // combined 1.0 + 2.0
    assert_eq!(outcome.vertex_changes, 1);
}

#[test]
fn erroring_apply_parse_leaves_tables_untouched() {
    let g = poisoned_session();
    let vertex_before = table_state(&g, &g.vertex_table());
    let message_before = table_state(&g, &g.message_table());

    // An output row with an unknown kind: absorb fails with an error (not a
    // panic) before any segment is committed.
    let bad = RecordBatch::from_rows(
        worker_output_schema(),
        &[
            state_row(0, 1.0),
            vec![
                Value::Int(99),
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ],
        ],
    )
    .unwrap();
    let config = VertexicaConfig::default().with_workers(4);
    assert!(apply_outputs(&g, &PoisonCombine, &config, vec![bad]).is_err());
    assert_eq!(table_state(&g, &g.vertex_table()), vertex_before);
    assert_eq!(table_state(&g, &g.message_table()), message_before);
}

/// The owner partitions of vertex ids `ids` on one shard.
fn owner_partitions(ids: std::ops::Range<i64>, parts: usize) -> BTreeSet<usize> {
    ids.map(|id| owner(id, 1, parts).1).collect()
}

#[test]
fn apply_parallelism_is_observable_per_superstep() {
    let graph = EdgeList::from_pairs((0..64u64).map(|i| (i, (i + 1) % 64)));
    // The apply fan-out is one segment per non-empty owner cell. On a cycle
    // every vertex receives a message, so a superstep that sends any
    // writes a message segment for every partition that owns a vertex.
    for (workers, parts) in [(1, 1), (1, 3), (3, 8)] {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db, "g").unwrap();
        g.load_edges(&graph).unwrap();
        let config = VertexicaConfig::default().with_workers(workers).with_partitions(parts);
        let stats = run_program(&g, Arc::new(PageRank::new(3, 0.85)), &config).unwrap();
        assert!(stats.supersteps >= 2);
        let cells = owner_partitions(0..64, parts).len();
        for s in &stats.per_superstep {
            let expected = if s.messages > 0 || s.replaced { cells } else { 0 };
            assert_eq!(
                s.apply_parallelism, expected,
                "superstep {} ({workers} workers, {parts} partitions)",
                s.superstep
            );
        }
    }
}

#[test]
fn segmented_replace_produces_correct_zone_maps_and_prunable_segments() {
    // Regression guard for `Database::commit_tables_segmented`: the bucket
    // segments adopted by the parallel apply must carry real zone maps.
    // After a dense superstep, scans with a pruning predicate on the vertex
    // id must (a) skip at least one segment outright — observable via the
    // table's pruning counter — and (b) still return exactly the matching
    // rows.
    use vertexica::storage::{ColumnPredicate, PredicateOp};

    let graph = vertexica_graphgen::models::erdos_renyi(300, 1200, 11);
    let db = Arc::new(Database::new());
    let g = GraphSession::create(db, "g").unwrap();
    g.load_edges(&graph).unwrap();
    let config = VertexicaConfig::default().with_workers(4).with_max_supersteps(2);
    run_program(&g, Arc::new(PageRank::new(2, 0.85)), &config).unwrap();

    let handle = g.db().catalog().get(&g.vertex_table()).unwrap();
    let guard = handle.read();
    assert!(guard.num_segments() >= 2, "need bucket segments for pruning to matter");

    // (a) Every segment's id zone map actually bounds its ids.
    for (si, handle) in guard.segments().iter().enumerate() {
        let zm = handle.zone_map(0);
        let seg = handle.read().unwrap();
        let ids = seg.encoded_column(0).decode().unwrap();
        let min = zm.min.as_int().expect("int zone-map min");
        let max = zm.max.as_int().expect("int zone-map max");
        assert!(min <= max, "segment {si}");
        for i in 0..ids.len() {
            let id = ids.value(i).as_int().unwrap();
            assert!((min..=max).contains(&id), "segment {si}: id {id} outside [{min}, {max}]");
        }
    }

    // (b) Hash buckets overlap in id range, so only a predicate beyond the
    // table's span can prune — and then it must prune **every** segment
    // without decoding any of them. If `commit_tables_segmented` ever
    // adopted segments with broken zone maps (all-null, or min/max not
    // covering the data), either this stops pruning or (a) fails.
    let full_segments = guard.num_segments() as u64;
    let pruned_before = guard.segments_pruned();
    let pred = ColumnPredicate::new(0, PredicateOp::Gt, Value::Int(10_000));
    let batches = guard.scan(None, std::slice::from_ref(&pred)).unwrap();
    assert!(batches.is_empty());
    let pruned = guard.segments_pruned() - pruned_before;
    assert_eq!(
        pruned, full_segments,
        "an out-of-range predicate must zone-map-prune every bucket segment"
    );

    // An in-range point probe cannot prune hash buckets but must still find
    // exactly its row.
    let probe_id = 137i64;
    let pred = ColumnPredicate::new(0, PredicateOp::Eq, Value::Int(probe_id));
    let hits: Vec<i64> = guard
        .scan(None, std::slice::from_ref(&pred))
        .unwrap()
        .iter()
        .flat_map(|b| b.column(0).as_int().unwrap().to_vec())
        .collect();
    assert_eq!(hits, vec![probe_id]);

    // (c) A range predicate never changes results, pruned or not: the graph
    // has vertices 0..300, so `id < 5` returns exactly five rows.
    let pred = ColumnPredicate::new(0, PredicateOp::Lt, Value::Int(5));
    let mut low_ids: Vec<i64> = guard
        .scan(None, std::slice::from_ref(&pred))
        .unwrap()
        .iter()
        .flat_map(|b| b.column(0).as_int().unwrap().to_vec())
        .collect();
    low_ids.sort_unstable();
    assert_eq!(low_ids, (0..5).collect::<Vec<i64>>(), "range predicate lost or invented rows");
}

#[test]
fn parallel_replace_writes_one_segment_per_nonempty_bucket() {
    // A dense superstep under parallel apply leaves the vertex table
    // segmented by owner cell: one ROS segment per partition that owns a
    // vertex, holding only that partition's vertices. The graph must be
    // asymmetric so PageRank actually changes values (a plain cycle would
    // fixpoint immediately and never trigger a replace).
    let graph = vertexica_graphgen::models::erdos_renyi(200, 800, 7);
    let db = Arc::new(Database::new());
    let g = GraphSession::create(db, "g").unwrap();
    g.load_edges(&graph).unwrap();
    let parts = 6;
    let config =
        VertexicaConfig::default().with_workers(4).with_partitions(parts).with_max_supersteps(2);
    run_program(&g, Arc::new(PageRank::new(2, 0.85)), &config).unwrap();
    let handle = g.db().catalog().get(&g.vertex_table()).unwrap();
    let guard = handle.read();
    assert_eq!(guard.num_segments(), owner_partitions(0..200, parts).len());
    let mut seen = BTreeSet::new();
    for handle in guard.segments() {
        let ids = handle.read().unwrap().encoded_column(0).decode().unwrap();
        let cells: BTreeSet<usize> =
            (0..ids.len()).map(|i| owner(ids.value(i).as_int().unwrap(), 1, parts).1).collect();
        assert_eq!(cells.len(), 1, "a segment spans owner cells: {cells:?}");
        assert!(seen.insert(cells), "two segments share an owner cell");
    }
    assert_eq!(guard.num_rows(), 200);
}
