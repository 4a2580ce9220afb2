//! Crash-injection proof of the durability layer.
//!
//! Three escalating attacks on `open_durable` recovery:
//!
//! 1. **Byte-offset crash injection** (proptest): a random operation
//!    schedule runs against a durable catalog whose WAL sink is armed with
//!    a random byte budget — every durable write past the budget is
//!    truncated exactly at the boundary, mimicking a torn write at an
//!    arbitrary byte offset. Recovery must land **bitwise-exactly** on
//!    either the last fully acknowledged operation's state or (if the
//!    in-flight record made it to disk completely) the next one — never a
//!    torn mixture, never a lost acknowledged write.
//!
//! 2. **Corruption fuzz**: truncations, bit flips, bad magic and bad
//!    checksums against the segment-file format and the WAL/manifest
//!    readers must surface as clean `Err`s (corruption or torn-tail
//!    discard), never a panic and never silently wrong data.
//!
//! 3. **`kill -9` mid-superstep** (in `kill9_recovery.rs`'s helpers here):
//!    a child process runs real grouped superstep commits until the parent
//!    SIGKILLs it at an arbitrary moment; recovery must observe the
//!    multi-table commit atomically.

use std::path::PathBuf;
use std::sync::Arc;
use vertexica_common::sync::{AtomicU64, Ordering};

use proptest::prelude::*;
use vertexica_storage::persist;
use vertexica_storage::{
    open_durable, Catalog, DataType, Field, Schema, Table, TableOptions, Value,
};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("vx_crash_{tag}_{}_{n}", std::process::id()))
}

/// Physical image of every table in a catalog — the bitwise comparator.
fn catalog_image(catalog: &Catalog) -> Vec<(String, Vec<u8>)> {
    let mut names = catalog.list();
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let t = catalog.get(&n).unwrap();
            let bytes = persist::table_to_bytes_physical(&t.read()).unwrap();
            (n, bytes)
        })
        .collect()
}

fn pair_schema() -> Arc<Schema> {
    Schema::new(vec![Field::not_null("id", DataType::Int), Field::new("val", DataType::Int)])
}

/// One atomic (single WAL record / single commit) operation in a schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Batch-insert rows into alpha (one record; may auto-moveout).
    Insert(Vec<(i64, Option<i64>)>),
    /// Delete the first `k` scanned rowids of alpha (one record).
    Delete(usize),
    /// Flush alpha's WOS into a ROS segment (one record).
    Moveout,
    /// Truncate beta (one record).
    TruncateBeta,
    /// Replace alpha+beta contents in one grouped commit (one commit
    /// record): alpha gets `n` rows tagged `tag`, beta gets `n/2`.
    ReplaceBoth { n: usize, tag: i64 },
    /// Drop gamma if present (one record, or none when absent).
    DropGamma,
    /// Create gamma if absent (one record, or none when present).
    CreateGamma,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => proptest::collection::vec((0i64..500, proptest::option::of(-50i64..50)), 1..20)
            .prop_map(Op::Insert),
        2 => (0usize..12).prop_map(Op::Delete),
        1 => Just(Op::Moveout),
        1 => Just(Op::TruncateBeta),
        2 => ((1usize..24), (0i64..1000)).prop_map(|(n, tag)| Op::ReplaceBoth { n, tag }),
        1 => Just(Op::DropGamma),
        1 => Just(Op::CreateGamma),
    ]
}

/// Applies one op to a catalog (durable or shadow — identical calls).
fn apply_op(catalog: &Catalog, op: &Op) -> vertexica_storage::StorageResult<()> {
    match op {
        Op::Insert(rows) => {
            let t = catalog.get("alpha")?;
            let rows: Vec<Vec<Value>> = rows
                .iter()
                .map(|(id, val)| vec![Value::Int(*id), val.map(Value::Int).unwrap_or(Value::Null)])
                .collect();
            t.write().insert_rows(rows)?;
        }
        Op::Delete(k) => {
            let t = catalog.get("alpha")?;
            let doomed: Vec<u64> = {
                let guard = t.read();
                guard
                    .scan_with_rowids(None, &[])?
                    .into_iter()
                    .flat_map(|(_, ids)| ids)
                    .take(*k)
                    .collect()
            };
            t.write().delete_rowids(&doomed)?;
        }
        Op::Moveout => {
            catalog.get("alpha")?.write().moveout()?;
        }
        Op::TruncateBeta => {
            catalog.get("beta")?.write().truncate()?;
        }
        Op::ReplaceBoth { n, tag } => {
            let mk = |rows: usize| -> vertexica_storage::StorageResult<Table> {
                let mut t = Table::new(
                    "x",
                    pair_schema(),
                    TableOptions::default().with_moveout_threshold(8),
                );
                for i in 0..rows {
                    t.insert_row(vec![Value::Int(i as i64), Value::Int(*tag)])?;
                }
                Ok(t)
            };
            catalog.replace_contents_many(vec![
                ("alpha".to_string(), mk(*n)?),
                ("beta".to_string(), mk(*n / 2)?),
            ])?;
        }
        Op::DropGamma => {
            catalog.drop_table_if_exists("gamma")?;
        }
        Op::CreateGamma => {
            if !catalog.contains("gamma") {
                catalog.create_table("gamma", pair_schema(), TableOptions::default())?;
            }
        }
    }
    Ok(())
}

fn seed_catalog(catalog: &Catalog) {
    let opts = TableOptions::default().with_moveout_threshold(8);
    catalog.create_table("alpha", pair_schema(), opts.clone()).unwrap();
    catalog.create_table("beta", pair_schema(), opts).unwrap();
    let t = catalog.get("alpha").unwrap();
    let rows: Vec<Vec<Value>> = (0..12).map(|i| vec![Value::Int(i), Value::Int(-i)]).collect();
    t.write().insert_rows(rows).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// THE durability property: crash a durable catalog by truncating its
    /// durable writes at an arbitrary byte offset mid-schedule; recovery
    /// must be bitwise-identical to the state after the last acknowledged
    /// operation (or the next one, if its single record fully landed).
    #[test]
    fn recovery_is_exact_at_any_crash_offset(
        ops in proptest::collection::vec(arb_op(), 1..14),
        budget in 0u64..6000,
    ) {
        let dir = temp_dir("offset");
        let durable = open_durable(&dir, false).unwrap();
        seed_catalog(&durable);

        // Shadow: the same schedule on a plain in-memory catalog, with a
        // bitwise snapshot after every op. snapshots[i] = state after ops[i].
        let shadow = Catalog::new();
        seed_catalog(&shadow);
        let mut snapshots = vec![catalog_image(&shadow)];

        // Arm the crash: every durable byte past `budget` is torn off.
        let sink = durable.wal_sink().unwrap();
        sink.set_crash_budget(Some(budget));

        let mut last_acked = 0usize; // snapshot index of last acknowledged op
        let mut crashed = false;
        for (i, op) in ops.iter().enumerate() {
            apply_op(&shadow, op).unwrap();
            snapshots.push(catalog_image(&shadow));
            match apply_op(&durable, op) {
                Ok(()) => last_acked = i + 1,
                Err(_) => {
                    crashed = true;
                    break;
                }
            }
        }
        drop(durable);

        let recovered = open_durable(&dir, false).unwrap();
        let image = catalog_image(&recovered);
        if crashed {
            // Either the in-flight record was torn (last acked state) or it
            // fully landed before the budget ran out (next state).
            prop_assert!(
                image == snapshots[last_acked] || image == snapshots[last_acked + 1],
                "recovered state matches neither the last acknowledged nor \
                 the in-flight operation's state (last_acked={last_acked})"
            );
        } else {
            prop_assert_eq!(&image, &snapshots[last_acked]);
        }

        // Recovery is idempotent: reopening lands on the identical image.
        drop(recovered);
        let again = open_durable(&dir, false).unwrap();
        prop_assert_eq!(catalog_image(&again), image);
        drop(again);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Arbitrary byte soup never panics the physical table reader.
    #[test]
    fn physical_reader_survives_random_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        prop_assert!(persist::table_from_bytes_physical(&bytes).is_err());
    }

    /// A **torn spill write** never corrupts recovery: a checkpoint that
    /// crashes at an arbitrary byte offset — possibly mid `.vxtb` segment
    /// image, the file eviction reloads from — leaves the directory
    /// recoverable to exactly the pre-crash acknowledged state. The torn
    /// image is unreachable (the manifest still anchors the old one) and the
    /// next recovery is bitwise-identical to the live catalog before the
    /// crash.
    #[test]
    fn torn_spill_write_never_corrupts_recovery(
        budget in 0u64..4000,
        n in 20usize..200,
    ) {
        let dir = temp_dir("torn_spill");
        let durable = open_durable(&dir, false).unwrap();
        let t = durable
            .create_table("alpha", pair_schema(), TableOptions::default())
            .unwrap();
        t.write()
            .insert_rows((0..n as i64).map(|i| vec![Value::Int(i), Value::Int(i % 13)]).collect())
            .unwrap();
        t.write().moveout().unwrap();
        // First checkpoint succeeds: every segment gets a durable spill twin.
        durable.checkpoint().unwrap();

        // Dirty the table again (all WAL-acknowledged), then crash the next
        // checkpoint at an arbitrary durable byte offset.
        t.write()
            .insert_rows(
                (0..n as i64).map(|i| vec![Value::Int(1000 + i), Value::Int(-i)]).collect(),
            )
            .unwrap();
        t.write().moveout().unwrap();
        let image = catalog_image(&durable);

        let sink = durable.wal_sink().unwrap();
        sink.set_crash_budget(Some(budget));
        // May tear mid `.vxtb`, mid MANIFEST, or fully land — all must be
        // recoverable.
        let _ = durable.checkpoint();
        drop(t);
        drop(durable);

        let recovered = open_durable(&dir, false).unwrap();
        prop_assert_eq!(
            catalog_image(&recovered),
            image,
            "torn checkpoint changed the recovered state"
        );
        drop(recovered);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A committed durable directory to corrupt, plus its clean image.
fn committed_dir(tag: &str) -> (PathBuf, Vec<(String, Vec<u8>)>) {
    let dir = temp_dir(tag);
    let durable = open_durable(&dir, false).unwrap();
    seed_catalog(&durable);
    // Leave an unflushed WAL tail beyond the recovery checkpoint: reopen,
    // then write more without checkpointing.
    drop(durable);
    let durable = open_durable(&dir, false).unwrap();
    let t = durable.get("alpha").unwrap();
    t.write()
        .insert_rows((0..5).map(|i| vec![Value::Int(100 + i), Value::Null]).collect())
        .unwrap();
    let image = catalog_image(&durable);
    drop(durable);
    (dir, image)
}

#[test]
fn truncating_the_wal_tail_is_a_clean_stop() {
    // Every truncation point must recover cleanly: complete-frame prefixes
    // replay, torn tails are discarded. Never a panic, never a hard error.
    // Recovery checkpoints (rewriting the fixture), so each cut gets a
    // freshly built directory.
    let probe = committed_dir("trunc");
    let wal_len = {
        let wal_path = find_wal(&probe.0);
        std::fs::read(&wal_path).unwrap().len()
    };
    std::fs::remove_dir_all(&probe.0).ok();
    for cut in (14..wal_len).step_by(9) {
        let (dir, _) = committed_dir("trunc");
        let wal_path = find_wal(&dir);
        let bytes = std::fs::read(&wal_path).unwrap();
        assert_eq!(bytes.len(), wal_len, "fixture must be deterministic");
        std::fs::write(&wal_path, &bytes[..cut]).unwrap();
        let recovered = open_durable(&dir, false).unwrap();
        let t = recovered.get("alpha").unwrap();
        let rows = t.read().num_rows();
        assert!(
            rows >= 12,
            "checkpointed rows must survive a WAL truncation at byte {cut} (got {rows})"
        );
        drop(recovered);
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn find_wal(dir: &std::path::Path) -> PathBuf {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.file_name().unwrap().to_str().unwrap().starts_with("wal-"))
        .unwrap()
}

#[test]
fn bit_flips_in_committed_wal_frames_are_corruption_not_garbage() {
    // Flip one bit inside a *complete* WAL frame: recovery must refuse with
    // a corruption error — not panic, not replay a mangled record.
    for flip_at_frac in [0.3f64, 0.5, 0.7, 0.9] {
        let (dir, _) = committed_dir("flip");
        let wal_path = find_wal(&dir);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        if bytes.len() <= 20 {
            std::fs::remove_dir_all(&dir).ok();
            continue;
        }
        let pos = 14 + ((bytes.len() - 15) as f64 * flip_at_frac) as usize;
        bytes[pos] ^= 0x10;
        std::fs::write(&wal_path, &bytes).unwrap();
        match open_durable(&dir, false) {
            Err(vertexica_storage::StorageError::Corrupt(_)) => {}
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            // A flip in the length prefix can turn the frame into a torn
            // tail (length now exceeds the file) — that is a clean stop.
            Ok(_) => {}
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn bad_wal_magic_is_corruption() {
    let (dir, _) = committed_dir("magic");
    let wal_path = find_wal(&dir);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes[0] = b'Z';
    std::fs::write(&wal_path, &bytes).unwrap();
    assert!(matches!(open_durable(&dir, false), Err(vertexica_storage::StorageError::Corrupt(_))));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manifest_bit_flip_is_corruption() {
    let (dir, _) = committed_dir("mf");
    let mf = dir.join("MANIFEST");
    let mut bytes = std::fs::read(&mf).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&mf, &bytes).unwrap();
    assert!(matches!(open_durable(&dir, false), Err(vertexica_storage::StorageError::Corrupt(_))));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn segment_file_corruption_is_detected() {
    let (dir, _) = committed_dir("seg");
    let seg_path = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().map(|e| e == "vxtb").unwrap_or(false))
        .expect("recovery checkpoint must leave table files");
    let clean = std::fs::read(&seg_path).unwrap();
    // Bit flips anywhere in the file: the CRC trailer catches them all.
    for frac in [0.1f64, 0.4, 0.8] {
        let mut bytes = clean.clone();
        let pos = (bytes.len() as f64 * frac) as usize;
        bytes[pos] ^= 0x20;
        std::fs::write(&seg_path, &bytes).unwrap();
        assert!(
            open_durable(&dir, false).is_err(),
            "flip at {pos}/{} must fail recovery",
            bytes.len()
        );
    }
    // Truncations: every prefix must fail, never panic.
    for cut in [0usize, 1, 6, clean.len() / 2, clean.len() - 1] {
        std::fs::write(&seg_path, &clean[..cut]).unwrap();
        assert!(open_durable(&dir, false).is_err());
    }
    // Restoring the clean bytes restores recovery.
    std::fs::write(&seg_path, &clean).unwrap();
    open_durable(&dir, false).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn logical_persist_corruption_is_detected() {
    // The VXTB1 logical format gets the same treatment: truncations and
    // flips surface as errors, never panics.
    let mut t = Table::new("t", pair_schema(), TableOptions::default().with_moveout_threshold(4));
    for i in 0..20 {
        t.insert_row(vec![Value::Int(i), Value::Int(i * 2)]).unwrap();
    }
    let clean = persist::table_to_bytes(&t).unwrap();
    persist::table_from_bytes(&clean).unwrap();
    for cut in 0..clean.len() {
        assert!(persist::table_from_bytes(&clean[..cut]).is_err());
    }
    for pos in (0..clean.len()).step_by(3) {
        let mut bytes = clean.clone();
        bytes[pos] ^= 0x08;
        assert!(persist::table_from_bytes(&bytes).is_err(), "flip at {pos} undetected");
    }
}

#[test]
fn physical_persist_truncations_all_error() {
    let mut t = Table::new("t", pair_schema(), TableOptions::default().with_moveout_threshold(4));
    for i in 0..40 {
        t.insert_row(vec![Value::Int(i % 7), Value::Int(i)]).unwrap();
    }
    // Deletes give the physical image non-empty delete vectors too.
    let doomed: Vec<u64> = t
        .scan_with_rowids(None, &[])
        .unwrap()
        .into_iter()
        .flat_map(|(_, ids)| ids)
        .step_by(3)
        .collect();
    t.delete_rowids(&doomed).unwrap();
    let clean = persist::table_to_bytes_physical(&t).unwrap();
    persist::table_from_bytes_physical(&clean).unwrap();
    for cut in 0..clean.len() {
        assert!(persist::table_from_bytes_physical(&clean[..cut]).is_err());
    }
    for pos in (0..clean.len()).step_by(3) {
        let mut bytes = clean.clone();
        bytes[pos] ^= 0x04;
        assert!(persist::table_from_bytes_physical(&bytes).is_err(), "flip at {pos} undetected");
    }
}

/// A checkpoint written before any payload existed, then one blob-heavy
/// apply (every vertex value replaced, a thousand messages with payloads of
/// every length from empty up) riding the WAL: reopening replays the apply's
/// flushed images on top of the checkpoint and must land on the live
/// catalog bit for bit — and so must a reopen from the next checkpoint,
/// where the same cells come back from `.vxtb` files instead.
#[test]
fn checkpoint_before_a_blob_heavy_apply_reopens_bitwise() {
    use vertexica::apply::apply_outputs;
    use vertexica::sql::Database;
    use vertexica::worker::{worker_output_schema, OUT_MESSAGE, OUT_STATE};
    use vertexica::{GraphSession, VertexicaConfig};
    use vertexica_common::graph::EdgeList;
    use vertexica_common::pregel::{InitContext, VertexContext, VertexProgram};
    use vertexica_storage::RecordBatch;

    struct Noop;
    impl VertexProgram for Noop {
        type Value = f64;
        type Message = f64;
        fn initial_value(&self, _id: u64, _init: &InitContext) -> f64 {
            0.0
        }
        fn compute(&self, _ctx: &mut dyn VertexContext<f64, f64>, _messages: &[f64]) {}
    }

    const N: u64 = 96;
    // Unbounded, and with the pool capped at one byte from before the load:
    // every checkpointed segment then evicts, and the images below read
    // them back from their spill twins.
    for budget in [None, Some(1)] {
        let open = |dir: &std::path::Path| {
            let db = Database::open(dir).unwrap();
            db.catalog().buffer_pool().set_budget(budget);
            db
        };
        let dir = temp_dir("blob_apply");
        let db = Arc::new(open(&dir));
        let g = GraphSession::create(db.clone(), "g").unwrap();
        g.load_edges(&EdgeList::from_pairs((0..N).map(|v| (v, (v + 1) % N)))).unwrap();
        db.checkpoint().unwrap();

        let payload =
            |seed: u64| -> Vec<u8> { (0..seed % 17).map(|i| (seed * 31 + i) as u8).collect() };
        let mut rows = Vec::new();
        for v in 0..N {
            rows.push(vec![
                Value::Int(OUT_STATE),
                Value::Int(v as i64),
                Value::Null,
                Value::Blob(payload(v + 1)),
                Value::Bool(v % 3 == 0),
                Value::Null,
                Value::Null,
            ]);
        }
        for m in 0..1000u64 {
            rows.push(vec![
                Value::Int(OUT_MESSAGE),
                Value::Int((m * 7 % N) as i64),
                Value::Int((m % N) as i64),
                Value::Blob(payload(m)),
                Value::Null,
                Value::Null,
                Value::Null,
            ]);
        }
        let out = RecordBatch::from_rows(worker_output_schema(), &rows).unwrap();
        let config = VertexicaConfig::default()
            .with_workers(2)
            .with_combiner(false)
            .with_replace_threshold(0.0)
            .with_durable(true)
            .with_memory_budget(budget);
        let outcome = apply_outputs(&g, &Noop, &config, vec![out], N).unwrap();
        assert!(outcome.replaced);
        assert_eq!((outcome.vertex_changes, outcome.messages), (N as usize, 1000));

        let live = catalog_image(db.catalog());
        drop(g);
        drop(db);

        let replayed = open(&dir);
        let what = format!("{budget:?}: WAL replay over the old checkpoint");
        assert_eq!(catalog_image(replayed.catalog()), live, "{what}");
        replayed.checkpoint().unwrap();
        drop(replayed);
        let reloaded = open(&dir);
        let what = format!("{budget:?}: reload from the new checkpoint");
        assert_eq!(catalog_image(reloaded.catalog()), live, "{what}");
        let reloads = reloaded.catalog().buffer_pool().stats().reloads;
        assert_eq!(reloads > 0, budget.is_some(), "{budget:?}: {reloads} reloads");
        drop(reloaded);
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// Resume after an injected crash: every apply commit is a savepoint.
// ---------------------------------------------------------------------------

mod resume {
    use super::temp_dir;
    use std::sync::Arc;
    use vertexica::coordinator::{resume_program, run_program};
    use vertexica::shard::{resume_sharded, run_sharded, ShardedDatabase, ShardedGraphSession};
    use vertexica::sql::Database;
    use vertexica::{GraphSession, VertexicaConfig};
    use vertexica_algorithms::vc::PageRank;
    use vertexica_common::graph::EdgeList;
    use vertexica_storage::Value;

    /// A graph with sinks, so PageRank's `dangling` aggregate is nonzero and
    /// a resume from the wrong aggregates would show in the ranks.
    fn graph() -> EdgeList {
        let mut pairs: Vec<(u64, u64)> = (0..40u64).map(|v| (v, (v * 7 + 3) % 48)).collect();
        pairs.extend((0..40u64).map(|v| (v, (v * 11 + 5) % 48)));
        EdgeList::from_pairs(pairs)
    }

    fn program() -> Arc<PageRank> {
        Arc::new(PageRank::new(10, 0.85))
    }

    fn config() -> VertexicaConfig {
        VertexicaConfig::default()
            .with_workers(2)
            .with_partitions(8)
            .with_combiner(false)
            .with_durable(true)
    }

    /// The resume tests' pool budgets: unbounded, and one byte from before
    /// the load, so every checkpointed segment evicts and reloads.
    const BUDGETS: [Option<usize>; 2] = [None, Some(1)];

    /// Opens `dir` as a durable database with its pool capped at `budget`.
    fn open(dir: &std::path::Path, budget: Option<usize>) -> Arc<Database> {
        let db = Database::open(dir).unwrap();
        db.catalog().buffer_pool().set_budget(budget);
        Arc::new(db)
    }

    /// [`open`] for a 2-shard database, created fresh.
    fn create_sharded(dir: &std::path::Path, budget: Option<usize>) -> Arc<ShardedDatabase> {
        let db = ShardedDatabase::create(dir, 2).unwrap();
        for shard in db.shards() {
            shard.catalog().buffer_pool().set_budget(budget);
        }
        db
    }

    /// Every vertex row, as stored, sorted by id.
    fn vertex_rows(sessions: &[GraphSession]) -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        for sess in sessions {
            let sql = format!("SELECT id, value, halted FROM {}", sess.vertex_table());
            rows.extend(sess.db().query(&sql).unwrap());
        }
        rows.sort_by_key(|r| r[0].as_int());
        rows
    }

    /// Durable bytes (WAL + flushed images) a database has written so far.
    fn durable_bytes(db: &Database) -> u64 {
        let d = db.durability_stats().expect("durable database");
        d.wal_bytes + d.flush_bytes
    }

    /// The superstep a session's stamp names.
    fn stamped(sess: &GraphSession) -> i64 {
        let sql = format!("SELECT value FROM {} WHERE key = 'superstep'", sess.stamp_table());
        sess.db().query_int(&sql).unwrap()
    }

    /// PageRank on a durable database whose WAL sink dies at three offsets
    /// mid-run: each time the reopened database resumes from the superstep
    /// its last commit stamped, and lands bitwise on the uninterrupted run —
    /// which itself agrees with `algorithms::reference`.
    #[test]
    fn wal_crash_mid_run_resumes_bitwise_to_the_uninterrupted_run() {
        for budget in BUDGETS {
            wal_crash_mid_run_resumes(budget);
        }
    }

    fn wal_crash_mid_run_resumes(budget: Option<usize>) {
        let graph = graph();
        let config = config().with_memory_budget(budget);
        let dir = temp_dir("resume_ref");
        let (pre, total, reference) = {
            let db = open(&dir, budget);
            let g = GraphSession::create(db.clone(), "g").unwrap();
            g.load_edges(&graph).unwrap();
            let pre = durable_bytes(&db);
            run_program(&g, program(), &config).unwrap();
            (pre, durable_bytes(&db), vertex_rows(std::slice::from_ref(&g)))
        };
        std::fs::remove_dir_all(&dir).ok();

        let ranks: Vec<f64> = reference
            .iter()
            .map(|r| match &r[1] {
                Value::Blob(b) => f64::from_le_bytes(b.as_slice().try_into().unwrap()),
                other => panic!("rank cell {other:?}"),
            })
            .collect();
        let expected = vertexica_algorithms::reference::pagerank(&graph, 10, 0.85);
        for (v, (got, want)) in ranks.iter().zip(&expected).enumerate() {
            assert!((got - want).abs() < 1e-9, "{budget:?} vertex {v}: {got} vs {want}");
        }

        let mut boundaries = Vec::new();
        for tenths in [3, 5, 8] {
            let dir = temp_dir("resume_crash");
            {
                let db = open(&dir, budget);
                let g = GraphSession::create(db.clone(), "g").unwrap();
                g.load_edges(&graph).unwrap();
                assert_eq!(durable_bytes(&db), pre, "durable prefix must be deterministic");
                let sink = db.catalog().wal_sink().expect("durable database has a WAL sink");
                sink.set_crash_budget(Some((total - pre) * tenths / 10));
                assert!(
                    run_program(&g, program(), &config).is_err(),
                    "the crash must fail the run"
                );
            }
            let g = GraphSession::open(open(&dir, budget), "g").unwrap();
            let boundary = stamped(&g);
            let stats = resume_program(&g, program(), &config).unwrap();
            assert!(stats.supersteps > 0, "crash at {tenths}/10 left nothing to resume");
            assert_eq!(
                vertex_rows(std::slice::from_ref(&g)),
                reference,
                "{budget:?}: resume from superstep {boundary} diverged from the uninterrupted run"
            );
            boundaries.push(boundary);
            drop(g);
            std::fs::remove_dir_all(&dir).ok();
        }
        boundaries.dedup();
        assert_eq!(boundaries.len(), 3, "the three crashes must land on distinct supersteps");
    }

    /// The same at two shards: shard 1's WAL dies inside its commit of a
    /// superstep shard 0 committed. `resume_sharded` repairs shard 1 with
    /// its own stamp's aggregates, stamps the ahead shard's, and runs on —
    /// bitwise equal to the one-shard run.
    #[test]
    fn sharded_wal_crash_between_shard_commits_resumes_bitwise() {
        let graph = graph();
        let one = GraphSession::create(Arc::new(Database::new()), "g").unwrap();
        one.load_edges(&graph).unwrap();
        run_program(&one, program(), &config().with_durable(false)).unwrap();
        let reference = vertex_rows(std::slice::from_ref(&one));
        for budget in BUDGETS {
            sharded_wal_crash_resumes(&graph, budget, &reference);
        }
    }

    fn sharded_wal_crash_resumes(
        graph: &EdgeList,
        budget: Option<usize>,
        reference: &[Vec<Value>],
    ) {
        let config = config().with_memory_budget(budget);
        let dir = temp_dir("resume_shard_ref");
        let (pre, total) = {
            let db = create_sharded(&dir, budget);
            let ss = ShardedGraphSession::create(db.clone(), "g").unwrap();
            ss.load_edges(graph).unwrap();
            let pre = durable_bytes(db.shard(1));
            run_sharded(&ss, program(), &config).unwrap();
            let rows = vertex_rows(ss.shard_sessions());
            assert_eq!(rows, reference, "{budget:?}: uninterrupted 2-shard run");
            (pre, durable_bytes(db.shard(1)))
        };
        std::fs::remove_dir_all(&dir).ok();

        let dir = temp_dir("resume_shard_crash");
        {
            let db = create_sharded(&dir, budget);
            let ss = ShardedGraphSession::create(db.clone(), "g").unwrap();
            ss.load_edges(graph).unwrap();
            assert_eq!(durable_bytes(db.shard(1)), pre, "durable prefix must be deterministic");
            let sink = db.shard(1).catalog().wal_sink().expect("durable shard has a WAL sink");
            sink.set_crash_budget(Some((total - pre) / 2));
            assert!(run_sharded(&ss, program(), &config).is_err(), "the crash must fail the run");
        }
        let db = ShardedDatabase::open(&dir).unwrap();
        for shard in db.shards() {
            shard.catalog().buffer_pool().set_budget(budget);
        }
        let ss = ShardedGraphSession::open(db.clone(), "g").unwrap();
        let stamps = ss.stamps().unwrap();
        assert_eq!(
            stamps[0],
            stamps[1].map(|s| s + 1),
            "shard 1 must die between the two shards' commits: {stamps:?}"
        );
        let stats = resume_sharded(&ss, program(), &config).unwrap();
        assert!(stats.supersteps > 0);
        let rows = vertex_rows(ss.shard_sessions());
        assert_eq!(rows, reference, "{budget:?}: resumed 2-shard run diverged");
        drop(ss);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
}
