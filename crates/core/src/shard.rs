//! Sharded execution, and the one superstep loop that drives every run.
//!
//! A [`ShardedDatabase`] owns N fully independent [`Database`] engines —
//! each with its own catalog, worker pool and (when durable) its own WAL
//! directory under `<root>/shard<k>/`. Shard ownership is the engine-wide
//! ownership hash [`vertexica_storage::partition::int_key_partition`] over
//! vertex id: a vertex row, its
//! outbound edges (keyed by `src`) and its inbound messages (keyed by
//! `recipient`) all land on the owning shard, so at superstep time **only
//! message rows ever cross a shard boundary** — a shard's message table
//! holds the messages its vertices *produced*, whatever their recipient.
//!
//! ## One loop for every shard count
//!
//! `superstep_loop` is the engine's only coordinator loop. A sharded run
//! ([`run_sharded`]) drives it over the N shard sessions; a single-database
//! run ([`crate::coordinator::run_program`]) drives it over a one-element
//! slice. The one-shard case is simply the case with no peers: the counts
//! rendezvous fills at once, there are no outboxes, and the cross-shard
//! split of every chunk is a clone. What depends on N:
//!
//! * the `sharded_config` coercions apply only at N ≥ 2;
//! * the crash-repair bookkeeping tables (below) exist and ride each apply
//!   commit only at N ≥ 2 — the `_message_prev` retention only when the
//!   shards are also durable — so a single-database run writes exactly the
//!   tables it owns.
//!
//! ## Prescan-sealed cross-shard routing
//!
//! Each superstep, every shard thread:
//!
//! 1. prescans its local source tables' key columns and computes, for every
//!    (destination shard, destination partition) pair, how many union-schema
//!    rows it will contribute ([`crate::input::partition_row_plan`]);
//! 2. swaps those count matrices with every other shard through a condvar
//!    rendezvous (control plane only — no data moves here);
//! 3. streams its local assemble, splitting every chunk by owner: the local
//!    piece feeds its own pipelined scatter, remote pieces are pushed into
//!    lock-free per-(source, destination) [`Outbox`]es while the destination
//!    is still assembling — the overlapped dataflow crosses shard
//!    boundaries, and a partition fed from three shards **seals the moment
//!    its last inbound row lands** (the summed count matrices told it
//!    exactly how many to expect), not at any superstep-wide barrier.
//!
//! The only barrier left is the halting vote, which becomes two-phase: each
//! shard reports its local pending-message and active-vertex counts, and the
//! coordinator sums them before launching the next superstep.
//!
//! ## Bitwise equivalence across shard counts
//!
//! For N ≥ 2 the coordinator coerces the config (`sharded_config`):
//! table-union input and **the apply-side combiner off**. The combiner must
//! be off because it folds per recipient *within the producing shard*: a
//! recipient fed from two shards would see `(a⊕b) ⊕ (c⊕d)` where the
//! single-database run folds `((a⊕b)⊕c)⊕d` — bitwise-divergent for
//! non-associative f64 folds. With raw messages the N-shard union of message
//! tables equals the 1-shard table row-for-row, and the worker's canonical
//! input sort makes every compute call's message slice identical. Global
//! aggregators are folded once, by the loop, from every shard's per-vertex
//! partials sorted by (name, vid) — one fold order for every N.
//!
//! ## Per-shard durability and crash repair
//!
//! On a durable [`ShardedDatabase::create`]/[`open`](ShardedDatabase::open)
//! root, every shard's apply commit additionally swaps two bookkeeping
//! tables *in the same atomic WAL commit record*: a `<name>_shard_meta`
//! stamp table (superstep number, global vertex count, shard count, and the
//! superstep's *input* aggregates as `f64::to_bits`) and a
//! `<name>_message_prev` retention of the superstep's message *input*. The
//! halting vote keeps shard stamps within one superstep of each other, so
//! recovery ([`repair_if_needed`]) sees spread ≤ 1: a shard that crashed
//! before committing superstep `s` re-runs it locally, pulling its
//! remote-owned input rows from each peer — from the peer's retained
//! `_message_prev` if the peer already committed `s`, from its live message
//! table if it is equally behind. The repair commit is bitwise-identical to
//! the one the crash interrupted, and idempotent.

use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use vertexica_common::sync::{AtomicBool, AtomicU64, Condvar, Mutex, Ordering};

use vertexica_common::graph::EdgeList;
use vertexica_common::hash::FxHashMap;
use vertexica_common::pregel::{AggKind, VertexProgram};
use vertexica_common::runtime::{Outbox, PoolMetrics};
use vertexica_common::timer::Stopwatch;
use vertexica_common::{VertexData, VertexId};
use vertexica_sql::engine::PipelinedReport;
use vertexica_sql::{Database, SqlError, TransformUdf};
use vertexica_storage::partition::split_batch;
use vertexica_storage::{DataType, Field, RecordBatch, Schema, TableOptions, Value};

use crate::apply::{apply_parallel, ParallelApply};
use crate::checkpoint::CheckpointState;
use crate::config::{InputMode, VertexicaConfig};
use crate::coordinator::{initialize_vertices_with_total, RunStats, SuperstepStats};
use crate::error::{VertexicaError, VertexicaResult};
use crate::input::{assemble_chunks, message_union_batch, partition_row_plan};
use crate::projection::EdgeProjection;
use crate::session::{message_schema, GraphSession};
use crate::worker::VertexWorker;

/// The meta stamp written by initialization, before superstep 0 commits.
const STAMP_INIT: i64 = -1;

/// N independent engine shards behind one handle. In-memory
/// ([`ShardedDatabase::new`]) or durable, with each shard's WAL and segment
/// files under `<root>/shard<k>/` and the shard count recorded in
/// `<root>/SHARDS` ([`create`](Self::create) / [`open`](Self::open)).
pub struct ShardedDatabase {
    shards: Vec<Arc<Database>>,
    root: Option<PathBuf>,
}

impl ShardedDatabase {
    /// N in-memory shards (no durability, no repair — crash state dies with
    /// the process).
    pub fn new(num_shards: usize) -> Arc<Self> {
        let n = num_shards.max(1);
        Arc::new(ShardedDatabase {
            shards: (0..n).map(|_| Arc::new(Database::new())).collect(),
            root: None,
        })
    }

    /// Creates a durable sharded database: `<root>/SHARDS` records the shard
    /// count and each shard opens (WAL + segment files) under
    /// `<root>/shard<k>/`.
    pub fn create(root: impl AsRef<Path>, num_shards: usize) -> VertexicaResult<Arc<Self>> {
        let n = num_shards.max(1);
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)
            .map_err(|e| VertexicaError::Runtime(format!("create shard root: {e}")))?;
        std::fs::write(root.join("SHARDS"), format!("{n}\n"))
            .map_err(|e| VertexicaError::Runtime(format!("write SHARDS: {e}")))?;
        Self::open_shards(root, n)
    }

    /// Reopens a durable sharded database, recovering **every** shard (each
    /// shard's `Database::open` replays its own WAL to its last committed
    /// superstep boundary).
    pub fn open(root: impl AsRef<Path>) -> VertexicaResult<Arc<Self>> {
        let root = root.as_ref().to_path_buf();
        let text = std::fs::read_to_string(root.join("SHARDS"))
            .map_err(|e| VertexicaError::Runtime(format!("read SHARDS: {e}")))?;
        let n: usize = text
            .trim()
            .parse()
            .map_err(|_| VertexicaError::Runtime(format!("corrupt SHARDS file: {text:?}")))?;
        if n == 0 {
            return Err(VertexicaError::Runtime("SHARDS file declares zero shards".into()));
        }
        Self::open_shards(root, n)
    }

    fn open_shards(root: PathBuf, n: usize) -> VertexicaResult<Arc<Self>> {
        let mut shards = Vec::with_capacity(n);
        for k in 0..n {
            shards.push(Arc::new(Database::open(root.join(format!("shard{k}")))?));
        }
        Ok(Arc::new(ShardedDatabase { shards, root: Some(root) }))
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    pub fn shard(&self, k: usize) -> &Arc<Database> {
        &self.shards[k]
    }

    pub fn shards(&self) -> &[Arc<Database>] {
        &self.shards
    }

    /// Whether the shards are disk-backed (opened from a root directory).
    pub fn is_durable(&self) -> bool {
        self.root.is_some()
    }

    pub fn root(&self) -> Option<&Path> {
        self.root.as_deref()
    }

    /// Checkpoints every shard (flushes segment files, truncates each WAL).
    pub fn checkpoint(&self) -> VertexicaResult<()> {
        for s in &self.shards {
            s.checkpoint()?;
        }
        Ok(())
    }
}

/// A graph hash-partitioned across the shards of a [`ShardedDatabase`]:
/// one [`GraphSession`] per shard holding the shard-owned slice of the
/// vertex/edge/message tables, plus the per-shard crash-repair bookkeeping
/// tables (`<name>_shard_meta`, `<name>_message_prev`).
pub struct ShardedGraphSession {
    db: Arc<ShardedDatabase>,
    sessions: Vec<GraphSession>,
    name: String,
}

impl ShardedGraphSession {
    /// Creates the per-shard graph tables plus the shard-meta stamp table
    /// and the previous-message retention table on every shard.
    pub fn create(db: Arc<ShardedDatabase>, name: &str) -> VertexicaResult<Self> {
        let name = name.to_ascii_lowercase();
        let mut sessions = Vec::with_capacity(db.num_shards());
        for shard_db in db.shards() {
            let sess = GraphSession::create(shard_db.clone(), &name)?;
            shard_db.catalog().create_table(
                &meta_table_name(&name),
                meta_schema(),
                TableOptions::default(),
            )?;
            shard_db.catalog().create_table(
                &message_prev_table_name(&name),
                message_schema(),
                TableOptions::default().sorted_by(vec![0]),
            )?;
            sessions.push(sess);
        }
        Ok(ShardedGraphSession { db, sessions, name })
    }

    /// Opens an existing sharded graph and asserts the crash invariant the
    /// halting vote guarantees: every shard's superstep stamp is within one
    /// superstep of every other (and no shard is missing its stamp while
    /// another has one — that means a crash during initialization, which is
    /// not repairable; reload the graph).
    pub fn open(db: Arc<ShardedDatabase>, name: &str) -> VertexicaResult<Self> {
        let name = name.to_ascii_lowercase();
        let mut sessions = Vec::with_capacity(db.num_shards());
        for shard_db in db.shards() {
            let sess = GraphSession::open(shard_db.clone(), &name)?;
            shard_db.catalog().get(&meta_table_name(&name))?;
            shard_db.catalog().get(&message_prev_table_name(&name))?;
            sessions.push(sess);
        }
        let ss = ShardedGraphSession { db, sessions, name };
        stamp_range(&ss.name, &ss.stamps()?)?;
        Ok(ss)
    }

    pub fn db(&self) -> &Arc<ShardedDatabase> {
        &self.db
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn num_shards(&self) -> usize {
        self.sessions.len()
    }

    /// The per-shard sessions, indexed by shard id.
    pub fn shard_sessions(&self) -> &[GraphSession] {
        &self.sessions
    }

    /// Name of the per-shard superstep stamp table.
    pub fn meta_table(&self) -> String {
        meta_table_name(&self.name)
    }

    /// Name of the per-shard previous-superstep message retention table.
    pub fn message_prev_table(&self) -> String {
        message_prev_table_name(&self.name)
    }

    /// Sharded bulk load: every shard keeps exactly the rows it owns
    /// ([`GraphSession::load_edges_shard`]), so the vertex table, outbound
    /// edges and (at runtime) inbound message rows of a vertex are all local
    /// to its owning shard.
    pub fn load_edges(&self, graph: &EdgeList) -> VertexicaResult<()> {
        let n = self.sessions.len();
        for (k, sess) in self.sessions.iter().enumerate() {
            sess.load_edges_shard(graph, k, n)?;
        }
        Ok(())
    }

    /// Global vertex count (sum of shard-local counts).
    pub fn num_vertices(&self) -> VertexicaResult<u64> {
        let mut n = 0;
        for sess in &self.sessions {
            n += sess.num_vertices()?;
        }
        Ok(n)
    }

    /// Global edge count (sum of shard-local counts).
    pub fn num_edges(&self) -> VertexicaResult<u64> {
        let mut n = 0;
        for sess in &self.sessions {
            n += sess.num_edges()?;
        }
        Ok(n)
    }

    /// Decodes all vertex values across every shard, sorted by id — same
    /// contract as [`GraphSession::vertex_values`].
    pub fn vertex_values<V: VertexData + Send>(&self) -> VertexicaResult<Vec<(VertexId, V)>> {
        let mut out = Vec::new();
        for sess in &self.sessions {
            out.extend(sess.vertex_values::<V>()?);
        }
        out.sort_by_key(|(id, _)| *id);
        Ok(out)
    }

    /// Every shard's superstep stamp (`None` = the shard has never been
    /// initialized).
    pub fn stamps(&self) -> VertexicaResult<Vec<Option<i64>>> {
        let table = self.meta_table();
        self.sessions.iter().map(|s| Ok(read_meta(s, &table)?.map(|m| m.stamp))).collect()
    }

    /// Checkpoints every shard.
    pub fn checkpoint(&self) -> VertexicaResult<()> {
        self.db.checkpoint()
    }
}

// ---------------------------------------------------------------------------
// Shard meta: the per-shard superstep stamp table.
// ---------------------------------------------------------------------------

/// The per-shard superstep stamp table of graph `graph`.
fn meta_table_name(graph: &str) -> String {
    format!("{graph}_shard_meta")
}

/// The per-shard previous-superstep message retention table of graph
/// `graph`.
fn message_prev_table_name(graph: &str) -> String {
    format!("{graph}_message_prev")
}

/// Schema of the `<name>_shard_meta` stamp table.
fn meta_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::not_null("key", DataType::Str),
        Field::not_null("value", DataType::Int),
    ])
}

/// The decoded contents of a shard's meta table. `aggregates` are the
/// stamped superstep's **input** aggregates (what `prev_aggregates` was when
/// it ran) — exactly what a behind shard needs to re-run that superstep.
struct ShardMeta {
    stamp: i64,
    num_vertices: u64,
    num_shards: usize,
    aggregates: FxHashMap<String, f64>,
}

/// Builds the meta rows for one stamp. f64 aggregate values are stored as
/// their exact bit patterns, so repair folds from bit-identical inputs.
fn meta_rows(
    stamp: i64,
    num_vertices: u64,
    num_shards: usize,
    aggregates: &FxHashMap<String, f64>,
) -> Vec<Vec<Value>> {
    let mut rows = vec![
        vec![Value::Str("stamp".into()), Value::Int(stamp)],
        vec![Value::Str("num_vertices".into()), Value::Int(num_vertices as i64)],
        vec![Value::Str("num_shards".into()), Value::Int(num_shards as i64)],
    ];
    let mut names: Vec<&String> = aggregates.keys().collect();
    names.sort();
    for name in names {
        rows.push(vec![
            Value::Str(format!("agg.{name}")),
            Value::Int(aggregates[name].to_bits() as i64),
        ]);
    }
    rows
}

/// The `(min, max)` of every shard's superstep stamp — `None` when no shard
/// was ever initialized — after checking the crash invariant the halting
/// vote guarantees: no shard is missing its stamp while another has one (a
/// crash during initialization, which is not repairable; reload the graph),
/// and the stamps spread by at most one superstep.
fn stamp_range(graph: &str, stamps: &[Option<i64>]) -> VertexicaResult<Option<(i64, i64)>> {
    let known: Vec<i64> = stamps.iter().flatten().copied().collect();
    let (Some(&min), Some(&max)) = (known.iter().min(), known.iter().max()) else {
        return Ok(None);
    };
    if known.len() != stamps.len() {
        return Err(VertexicaError::Runtime(format!(
            "graph {graph}: {} of {} shards have no superstep stamp — crash during \
             initialization; reload the graph",
            stamps.len() - known.len(),
            stamps.len()
        )));
    }
    if max - min > 1 {
        return Err(VertexicaError::Runtime(format!(
            "graph {graph}: shard superstep stamps spread {min}..{max} — the halting vote \
             bounds the spread to 1; storage is corrupt"
        )));
    }
    Ok(Some((min, max)))
}

fn read_meta(sess: &GraphSession, table: &str) -> VertexicaResult<Option<ShardMeta>> {
    let rows = sess.db().query(&format!("SELECT key, value FROM {table}"))?;
    if rows.is_empty() {
        return Ok(None);
    }
    let mut stamp = None;
    let mut num_vertices = 0u64;
    let mut num_shards = 0usize;
    let mut aggregates = FxHashMap::default();
    for r in rows {
        let Value::Str(key) = r[0].clone() else { continue };
        let Some(v) = r[1].as_int() else { continue };
        match key.as_str() {
            "stamp" => stamp = Some(v),
            "num_vertices" => num_vertices = v as u64,
            "num_shards" => num_shards = v as usize,
            k => {
                if let Some(name) = k.strip_prefix("agg.") {
                    aggregates.insert(name.to_string(), f64::from_bits(v as u64));
                }
            }
        }
    }
    let stamp = stamp
        .ok_or_else(|| VertexicaError::Runtime(format!("{table}: meta rows without a stamp")))?;
    Ok(Some(ShardMeta { stamp, num_vertices, num_shards, aggregates }))
}

/// A fresh catalog [`vertexica_storage::Table`] holding `rows` under
/// `table`'s live schema/options — for init-time grouped replacement.
fn meta_fresh_table(
    sess: &GraphSession,
    table: &str,
    rows: &[Vec<Value>],
) -> VertexicaResult<vertexica_storage::Table> {
    let table_ref = sess.db().catalog().get(table)?;
    let (name, schema, options) = {
        let guard = table_ref.read();
        (guard.name().to_string(), guard.schema().clone(), guard.options().clone())
    };
    let mut fresh = vertexica_storage::Table::new(name, schema.clone(), options);
    fresh.append_batch(&RecordBatch::from_rows(schema, rows).map_err(VertexicaError::from)?)?;
    Ok(fresh)
}

/// Replaces a shard's meta table contents outside a superstep commit (used
/// when resuming from a checkpoint, to re-anchor repair at the restored
/// boundary).
fn replace_meta(
    sess: &GraphSession,
    table: &str,
    stamp: i64,
    num_vertices: u64,
    num_shards: usize,
    aggregates: &FxHashMap<String, f64>,
) -> VertexicaResult<()> {
    let fresh =
        meta_fresh_table(sess, table, &meta_rows(stamp, num_vertices, num_shards, aggregates))?;
    sess.db().catalog().replace_contents_many(vec![(table.to_string(), fresh)])?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Config coercion.
// ---------------------------------------------------------------------------

/// The config an N-shard run actually executes with: `config` itself for
/// N = 1, and for N ≥ 2 these coercions (each proven bitwise-safe by the
/// equivalence harness):
///
/// * `input_mode = TableUnion` — the sharded exchange is built into the
///   union's plan-sealed producer;
/// * `use_combiner = false` — the combiner folds per recipient *within the
///   producing shard*, which groups non-associative f64 folds differently
///   than the single-database run (see the module docs); raw messages make
///   the N-shard union of message tables equal the 1-shard table;
/// * durable ⇒ `replace_threshold = 0.0` — forces the atomic grouped-commit
///   replace arm every superstep, so the meta stamp can never commit apart
///   from the vertex state it describes (the in-place update arm mutates
///   rows after the commit, non-atomically);
/// * `memory_budget_bytes` is divided by the shard count — N shards share
///   the one global budget instead of multiplying it.
fn sharded_config(config: &VertexicaConfig, num_shards: usize, durable: bool) -> VertexicaConfig {
    let mut c = config.clone();
    if num_shards < 2 {
        return c;
    }
    c.input_mode = InputMode::TableUnion;
    c.use_combiner = false;
    c.durable = durable;
    if durable {
        c.replace_threshold = 0.0;
    }
    if let Some(budget) = c.memory_budget_bytes {
        c.memory_budget_bytes = Some((budget / num_shards).max(1));
    }
    c
}

// ---------------------------------------------------------------------------
// The superstep exchange: outboxes + counts rendezvous.
// ---------------------------------------------------------------------------

/// One superstep's cross-shard fabric: an [`Outbox`] per (source,
/// destination) pair, the counts rendezvous, routing counters, and the
/// abort flag any failing shard raises so its peers stop waiting on it.
struct Exchange {
    /// `boxes[src][dst]` — src pushes, dst drains. The diagonal is unused.
    boxes: Vec<Vec<Outbox<RecordBatch>>>,
    counts: CountsBoard,
    remote_messages: AtomicU64,
    routed_bytes: AtomicU64,
    abort: AtomicBool,
}

impl Exchange {
    fn new(n: usize) -> Self {
        Exchange {
            boxes: (0..n).map(|_| (0..n).map(|_| Outbox::new()).collect()).collect(),
            counts: CountsBoard::new(n),
            remote_messages: AtomicU64::new(0),
            routed_bytes: AtomicU64::new(0),
            abort: AtomicBool::new(false),
        }
    }

    fn num_shards(&self) -> usize {
        self.boxes.len()
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    /// Raised by a shard that errored or panicked: peers waiting on its
    /// counts or its outbox stream-end unstick via the flag, and closing the
    /// failed shard's outboxes wakes any parked consumer promptly.
    fn fail(&self, shard: usize) {
        self.abort.store(true, Ordering::Release);
        for d in 0..self.boxes.len() {
            if d != shard {
                self.boxes[shard][d].close();
            }
        }
    }
}

/// The counts rendezvous: every shard deposits its
/// `counts[destination][partition]` matrix and waits (control plane only —
/// no rows block here) until all N are in, then reads the full set. Waits
/// poll the abort flag so one failing shard cannot hang the rest.
struct CountsBoard {
    slots: Mutex<CountsState>,
    ready: Condvar,
}

struct CountsState {
    filled: usize,
    slots: Vec<Option<Vec<Vec<u64>>>>,
}

impl CountsBoard {
    fn new(n: usize) -> Self {
        CountsBoard {
            slots: Mutex::new(CountsState { filled: 0, slots: vec![None; n] }),
            ready: Condvar::new(),
        }
    }

    fn exchange(
        &self,
        shard: usize,
        counts: Vec<Vec<u64>>,
        abort: &AtomicBool,
    ) -> VertexicaResult<Vec<Vec<Vec<u64>>>> {
        let mut guard = self.slots.lock();
        debug_assert!(guard.slots[shard].is_none(), "shard {shard} deposited counts twice");
        guard.slots[shard] = Some(counts);
        guard.filled += 1;
        if guard.filled == guard.slots.len() {
            self.ready.notify_all();
        }
        while guard.filled < guard.slots.len() {
            // Polling the abort flag is what lets one failed shard unstick
            // its peers; the model checker proves the poll load-bearing by
            // seeding `shard.skip_abort_recheck`.
            if abort.load(Ordering::Acquire)
                && !vertexica_common::sync::model::mutation_enabled("shard.skip_abort_recheck")
            {
                return Err(VertexicaError::Runtime(
                    "sharded superstep aborted during counts exchange".into(),
                ));
            }
            let (g, _) = self.ready.wait_timeout(guard, Duration::from_millis(50));
            guard = g;
        }
        Ok(guard.slots.iter().map(|s| s.clone().expect("all slots filled")).collect())
    }
}

// ---------------------------------------------------------------------------
// One shard's superstep.
// ---------------------------------------------------------------------------

/// Everything one shard reports back from one superstep, for global stat
/// aggregation.
struct ShardReport {
    outcome: crate::apply::SuperstepOutcome,
    pipeline: PipelinedReport,
    apply_secs: f64,
    pool_delta: PoolMetrics,
    wal_records: u64,
    wal_bytes: u64,
    flush_bytes: u64,
    resident_bytes: u64,
    evictions: u64,
    reloads: u64,
    /// Worker-input rows this shard consumed (local + inbound) — the skew
    /// gauge's numerator.
    input_rows: u64,
}

/// One shard's superstep: prescan, counts rendezvous, assemble → scatter →
/// compute with cross-shard routing, apply. `tables` names the
/// `(meta stamp, message retention)` bookkeeping tables that ride the apply
/// commit — `None` on a one-shard run, which has neither.
#[allow(clippy::too_many_arguments)]
fn run_shard_superstep<P: VertexProgram + 'static>(
    sess: &GraphSession,
    program: &Arc<P>,
    config: &VertexicaConfig,
    shard: usize,
    exchange: &Exchange,
    superstep: u64,
    num_vertices: u64,
    prev_aggregates: &FxHashMap<String, f64>,
    tables: Option<(&str, &str)>,
    edges: Option<Arc<EdgeProjection>>,
) -> VertexicaResult<ShardReport> {
    let edge_rows = edges.is_none();
    let n = exchange.num_shards();
    let parts = config.num_partitions.max(1);
    let db = sess.db();
    let pool_before = db.runtime().metrics();
    let dur_before = db.durability_stats();
    let buffer_pool = db.catalog().buffer_pool().clone();
    buffer_pool.reset_peak();
    let bp_before = buffer_pool.stats();

    // Durable sharded run: retain this superstep's message *input* for crash
    // repair. The segments are pre-encoded here and committed atomically
    // with the apply.
    let msg_prev = match tables {
        Some((_, msg_prev_table)) if config.durable => {
            let batches = db.scan_table(&sess.message_table(), None, &[])?;
            Some((msg_prev_table.to_string(), db.encode_segments_for(msg_prev_table, batches)?))
        }
        _ => None,
    };

    // Control plane: plan every destination's per-partition row counts and
    // swap matrices with the peers. expected[p] = what partition p of THIS
    // shard will receive from all N sources — the seal thresholds.
    let counts = partition_row_plan(sess, config.input_mode, n, parts, edge_rows)?;
    let matrix = exchange.counts.exchange(shard, counts, &exchange.abort)?;
    let expected: Vec<u64> = (0..parts).map(|p| matrix.iter().map(|m| m[shard][p]).sum()).collect();
    let input_rows: u64 = expected.iter().sum();

    // This thread produces into its own outboxes and is the single consumer
    // of every inbound one.
    for j in 0..n {
        if j != shard {
            exchange.boxes[j][shard].register_consumer();
        }
    }

    let worker: Arc<dyn TransformUdf> = Arc::new(VertexWorker {
        program: program.clone(),
        superstep,
        num_vertices,
        prev_aggregates: Arc::new(prev_aggregates.clone()),
        use_combiner: config.use_combiner,
        pool: Some(db.runtime().clone()),
        edges,
    });
    let apply = ParallelApply::for_program(program.as_ref(), config.num_workers.max(1));

    let pipeline = db.run_transform_pipelined(
        &worker,
        vec![0],
        parts,
        Some(expected),
        &mut |chunk_sink| {
            // Local assemble, split every chunk by owner: own piece into the
            // pipelined scatter, remote pieces into the outboxes. Between
            // own chunks, opportunistically drain inbound boxes so remote
            // rows keep flowing (and sealing partitions) while both sides
            // still stream.
            let peak = assemble_chunks(
                sess,
                config.input_mode,
                config.stream_chunk_rows,
                edge_rows,
                &mut |chunk| {
                    if exchange.aborted() {
                        return Err(VertexicaError::Runtime("sharded superstep aborted".into()));
                    }
                    for (d, piece) in split_batch(&chunk, &[0], n).map_err(VertexicaError::from)? {
                        if d == shard {
                            chunk_sink(piece).map_err(VertexicaError::from)?;
                        } else {
                            exchange
                                .remote_messages
                                .fetch_add(piece.num_rows() as u64, Ordering::Relaxed);
                            exchange
                                .routed_bytes
                                .fetch_add(piece.estimated_bytes() as u64, Ordering::Relaxed);
                            exchange.boxes[shard][d].push(piece);
                        }
                    }
                    for j in 0..n {
                        if j != shard {
                            for piece in exchange.boxes[j][shard].try_drain() {
                                chunk_sink(piece).map_err(VertexicaError::from)?;
                            }
                        }
                    }
                    Ok(())
                },
            )
            .map_err(|e| match e {
                VertexicaError::Sql(e) => e,
                other => SqlError::Execution(other.to_string()),
            })?;

            // Local EOF: everything this shard will ever route is pushed.
            for d in 0..n {
                if d != shard {
                    exchange.boxes[shard][d].close();
                }
            }

            // Drain every peer to stream-end. Reading `closed` BEFORE the
            // drain makes the final drain complete: close happens-after the
            // producer's last push.
            let mut done = vec![false; n];
            done[shard] = true;
            loop {
                let mut progressed = false;
                let mut remaining = false;
                for (j, done_j) in done.iter_mut().enumerate() {
                    if *done_j {
                        continue;
                    }
                    let inbox = &exchange.boxes[j][shard];
                    let closed = inbox.is_closed();
                    let pieces = inbox.try_drain();
                    progressed |= !pieces.is_empty();
                    for piece in pieces {
                        chunk_sink(piece)?;
                    }
                    if closed {
                        for piece in inbox.try_drain() {
                            progressed = true;
                            chunk_sink(piece)?;
                        }
                        *done_j = true;
                    } else {
                        remaining = true;
                    }
                }
                if !remaining {
                    break;
                }
                if !progressed {
                    if exchange.aborted() {
                        return Err(SqlError::Execution(format!(
                            "shard {shard}: sharded superstep aborted"
                        )));
                    }
                    std::thread::park_timeout(Duration::from_micros(200));
                }
            }
            if exchange.aborted() {
                return Err(SqlError::Execution(format!(
                    "shard {shard}: sharded superstep aborted"
                )));
            }
            Ok(peak)
        },
        &|idx, out| apply.absorb(idx, &out).map_err(|e| SqlError::Udf(e.to_string())),
    )?;

    // Apply, with the meta stamp (and the retained message input, when
    // durable) riding the same atomic grouped commit.
    let mut extra = Vec::new();
    if let Some((meta_table, _)) = tables {
        let meta_batch = RecordBatch::from_rows(
            meta_schema(),
            &meta_rows(superstep as i64, num_vertices, n, prev_aggregates),
        )
        .map_err(VertexicaError::from)?;
        extra.push((meta_table.to_string(), db.encode_segments_for(meta_table, vec![meta_batch])?));
    }
    extra.extend(msg_prev);
    let sw = Stopwatch::start();
    let outcome = apply_parallel(sess, program.as_ref(), config, apply, num_vertices, extra)?;
    let apply_secs = sw.elapsed_secs();

    let pool_delta = db.runtime().metrics().delta_since(&pool_before);
    let (wal_records, wal_bytes, flush_bytes) = match (dur_before, db.durability_stats()) {
        (Some(before), Some(after)) => (
            after.wal_records - before.wal_records,
            after.wal_bytes - before.wal_bytes,
            after.flush_bytes - before.flush_bytes,
        ),
        _ => (0, 0, 0),
    };
    let bp_after = buffer_pool.stats();
    Ok(ShardReport {
        outcome,
        pipeline,
        apply_secs,
        pool_delta,
        wal_records,
        wal_bytes,
        flush_bytes,
        resident_bytes: buffer_pool.peak_resident_bytes(),
        evictions: bp_after.evictions - bp_before.evictions,
        reloads: bp_after.reloads - bp_before.reloads,
        input_rows,
    })
}

// ---------------------------------------------------------------------------
// The coordinator.
// ---------------------------------------------------------------------------

/// Runs a vertex program across every shard of a [`ShardedGraphSession`].
///
/// The run executes with `sharded_config` (see its docs for each N ≥ 2
/// coercion and why); results are bitwise-identical to a 1-shard run of the
/// same program under `use_combiner = false` (the cross-engine harness
/// proves it per algorithm).
pub fn run_sharded<P: VertexProgram + 'static>(
    ss: &ShardedGraphSession,
    program: Arc<P>,
    config: &VertexicaConfig,
) -> VertexicaResult<RunStats> {
    let c = sharded_config(config, ss.num_shards(), ss.db.is_durable());
    run_shards(&ss.sessions, program, &c, false)
}

/// Resumes a sharded run from per-shard checkpoints written by
/// [`run_sharded`] under `<checkpoint_dir>/shard<k>/`. All shards must have
/// checkpointed the same superstep (they do — the checkpoint happens on the
/// coordinator thread, between supersteps).
pub fn resume_sharded<P: VertexProgram + 'static>(
    ss: &ShardedGraphSession,
    program: Arc<P>,
    config: &VertexicaConfig,
) -> VertexicaResult<RunStats> {
    let c = sharded_config(config, ss.num_shards(), ss.db.is_durable());
    run_shards(&ss.sessions, program, &c, true)
}

/// The one coordinator: runs `program` over `sessions`, one per shard, from
/// a fresh initialization — or, with `resume`, from the checkpoint under
/// `<checkpoint_dir>/shard<k>/` — until the halting vote or the superstep
/// cap. `config` is what the run executes with ([`sharded_config`] already
/// applied). Only at N ≥ 2 does initialization stamp the `_shard_meta`
/// table, and a resume re-anchor it.
pub(crate) fn run_shards<P: VertexProgram + 'static>(
    sessions: &[GraphSession],
    program: Arc<P>,
    config: &VertexicaConfig,
    resume: bool,
) -> VertexicaResult<RunStats> {
    let total = Stopwatch::start();
    let n = sessions.len();
    // Size each shard's runtime pool once for the whole run; every superstep
    // reuses the same worker threads. The out-of-core budget goes in before
    // the first checkpoint, which gives every cold segment the `.vxtb` spill
    // twin eviction needs.
    for sess in sessions {
        sess.db().runtime().resize(config.num_workers);
        if let Some(budget) = config.memory_budget_bytes {
            sess.db().catalog().buffer_pool().set_budget(Some(budget));
        }
    }
    let restored = match (resume, &config.checkpoint_dir) {
        (false, _) => None,
        (true, None) => {
            return Err(VertexicaError::Checkpoint("no checkpoint_dir configured".into()))
        }
        (true, Some(dir)) => {
            let mut first: Option<CheckpointState> = None;
            for (k, sess) in sessions.iter().enumerate() {
                let state = crate::checkpoint::restore(sess, dir.join(format!("shard{k}")))?;
                match &first {
                    Some(f) if f.superstep != state.superstep => {
                        return Err(VertexicaError::Checkpoint(format!(
                            "shard checkpoints disagree: shard 0 at superstep {}, shard {k} at {}",
                            f.superstep, state.superstep
                        )));
                    }
                    Some(_) => {}
                    None => first = Some(state),
                }
            }
            first
        }
    };
    // The GLOBAL vertex count: e.g. PageRank's 1/N seed must see the whole
    // graph, not one shard's slice of it.
    let mut num_vertices = 0;
    for sess in sessions {
        num_vertices += sess.num_vertices()?;
    }
    let mut edges = Vec::with_capacity(n);
    let mut projection_build_secs = 0.0;
    for sess in sessions {
        let (projection, secs) = crate::projection::for_run(sess, config)?;
        edges.push(projection);
        projection_build_secs += secs;
    }
    let meta_table = (n >= 2).then(|| meta_table_name(sessions[0].name()));
    let (start_superstep, prev_aggregates) = match restored {
        Some(state) => {
            // Re-anchor every shard's meta stamp at the restored boundary, so
            // crash repair reasons from the checkpoint rather than the
            // interrupted run.
            if let Some(meta_table) = &meta_table {
                for sess in sessions {
                    let stamp = state.superstep as i64;
                    replace_meta(sess, meta_table, stamp, num_vertices, n, &state.aggregates)?;
                }
            }
            (state.superstep + 1, state.aggregates)
        }
        None => {
            // The freshly stamped meta table rides each shard's init commit,
            // so a crash can never separate an initialized shard from its
            // stamp.
            for (sess, edges) in sessions.iter().zip(&edges) {
                let mut extra = Vec::new();
                if let Some(meta_table) = &meta_table {
                    let rows = meta_rows(STAMP_INIT, num_vertices, n, &FxHashMap::default());
                    extra.push((meta_table.clone(), meta_fresh_table(sess, meta_table, &rows)?));
                }
                initialize_vertices_with_total(
                    sess,
                    program.as_ref(),
                    num_vertices,
                    extra,
                    edges.as_deref(),
                )?;
            }
            if config.durable {
                // Recovery from a crash in superstep 0 starts from the
                // initialized state instead of replaying graph loading.
                checkpoint_all(sessions)?;
            }
            (0, FxHashMap::default())
        }
    };
    let mut stats = superstep_loop(
        sessions,
        program,
        config,
        num_vertices,
        start_superstep,
        prev_aggregates,
        &edges,
    )?;
    if config.durable {
        // Land the final state in segment files and truncate each log.
        checkpoint_all(sessions)?;
    }
    stats.projection_build_secs = projection_build_secs;
    stats.total_secs = total.elapsed_secs();
    Ok(stats)
}

fn checkpoint_all(sessions: &[GraphSession]) -> VertexicaResult<()> {
    for sess in sessions {
        sess.db().checkpoint()?;
    }
    Ok(())
}

fn superstep_loop<P: VertexProgram + 'static>(
    sessions: &[GraphSession],
    program: Arc<P>,
    config: &VertexicaConfig,
    num_vertices: u64,
    start_superstep: u64,
    mut prev_aggregates: FxHashMap<String, f64>,
    edges: &[Option<Arc<EdgeProjection>>],
) -> VertexicaResult<RunStats> {
    let n = sessions.len();
    // The crash-repair bookkeeping tables, which only a sharded run has.
    let tables = (n >= 2).then(|| {
        let graph = sessions[0].name();
        (meta_table_name(graph), message_prev_table_name(graph))
    });
    let tables = tables.as_ref().map(|(meta, prev)| (meta.as_str(), prev.as_str()));
    let agg_specs: FxHashMap<String, AggKind> =
        program.aggregators().into_iter().map(|s| (s.name.to_string(), s.kind)).collect();
    let mut stats = RunStats {
        projection_bytes: edges.iter().flatten().map(|e| e.estimated_bytes()).sum(),
        ..RunStats::default()
    };
    let max_supersteps = config.max_supersteps.min(program.max_supersteps());
    let mut superstep = start_superstep;

    loop {
        if superstep >= max_supersteps {
            break;
        }
        // Two-phase halting vote, phase one: sum per-shard pending/active
        // counts. The vote (here and the post-apply phase two below) is the
        // only superstep-wide synchronization point — rows never barrier.
        // Within a run phase two of the previous superstep already decided
        // it; only a *resumed* run asks the tables, once.
        if superstep == start_superstep && start_superstep > 0 {
            let mut pending = 0i64;
            let mut active = 0i64;
            for sess in sessions {
                pending += sess
                    .db()
                    .query_int(&format!("SELECT COUNT(*) FROM {}", sess.message_table()))?;
                active += sess.db().query_int(&format!(
                    "SELECT COUNT(*) FROM {} WHERE halted = FALSE",
                    sess.vertex_table()
                ))?;
            }
            if pending == 0 && active == 0 {
                break;
            }
        }

        // Shard 0 runs on this thread, every other shard on a thread of its
        // own (a thread per superstep would give a one-shard run a fresh
        // allocator arena each superstep, which measurably raised peak RSS on
        // the durable workloads). Outboxes and the counts rendezvous tie them
        // together. A shard that errors or panics raises the exchange abort
        // so its peers unstick, then the first error propagates — a panic
        // never unwinds into the caller.
        let exchange = Exchange::new(n);
        let run = |k: usize| {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_shard_superstep(
                    &sessions[k],
                    &program,
                    config,
                    k,
                    &exchange,
                    superstep,
                    num_vertices,
                    &prev_aggregates,
                    tables,
                    edges[k].clone(),
                )
            }))
            .unwrap_or_else(|_| {
                Err(VertexicaError::Runtime(format!("shard {k} panicked in superstep {superstep}")))
            });
            if result.is_err() {
                exchange.fail(k);
            }
            result
        };
        let results: Vec<VertexicaResult<ShardReport>> = std::thread::scope(|scope| {
            let run = &run;
            let peers: Vec<_> = (1..n).map(|k| scope.spawn(move || run(k))).collect();
            let mut results = vec![run(0)];
            results.extend(peers.into_iter().map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(VertexicaError::Runtime("shard thread join failed".into()))
                })
            }));
            results
        });
        let mut reports = Vec::with_capacity(n);
        for r in results {
            reports.push(r?);
        }

        // Global aggregators: merge every shard's per-vertex partials and
        // fold them sorted by (name, vid) — one fold order whatever the
        // shard count, so f64 folds are bitwise-identical.
        let mut partials: Vec<(String, i64, f64)> =
            reports.iter_mut().flat_map(|r| std::mem::take(&mut r.outcome.agg_partials)).collect();
        partials.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        let mut folded: FxHashMap<String, (AggKind, f64)> = FxHashMap::default();
        for (name, _, v) in &partials {
            let kind = agg_specs[name];
            let entry = folded.entry(name.clone()).or_insert((kind, kind.identity()));
            entry.1 = kind.combine(entry.1, *v);
        }
        let aggregates: FxHashMap<String, f64> =
            folded.into_iter().map(|(k, (_, v))| (k, v)).collect();

        let messages: usize = reports.iter().map(|r| r.outcome.messages).sum();
        let vertex_changes: usize = reports.iter().map(|r| r.outcome.vertex_changes).sum();
        let all_halted = reports.iter().all(|r| r.outcome.all_halted);
        let total_rows: u64 = reports.iter().map(|r| r.input_rows).sum();
        let mean_rows = total_rows as f64 / n as f64;
        let shard_skew = if mean_rows > 0.0 {
            reports.iter().map(|r| r.input_rows).max().unwrap_or(0) as f64 / mean_rows
        } else {
            1.0
        };
        let fmax = |f: fn(&ShardReport) -> f64| reports.iter().map(f).fold(0.0f64, f64::max);

        prev_aggregates = aggregates.clone();
        stats.per_superstep.push(SuperstepStats {
            superstep,
            messages,
            vertex_changes,
            replaced: reports.iter().any(|r| r.outcome.replaced),
            assemble_secs: fmax(|r| r.pipeline.assemble_secs),
            compute_secs: fmax(|r| r.pipeline.compute_secs),
            apply_secs: fmax(|r| r.apply_secs),
            apply_parallelism: config.num_workers.max(1),
            overlap_secs: fmax(|r| r.pipeline.overlap_secs),
            queue_wait_secs: reports.iter().map(|r| r.pool_delta.queue_wait_secs).sum(),
            steals: reports.iter().map(|r| r.pool_delta.tasks_stolen).sum(),
            nested_scopes: reports.iter().map(|r| r.pool_delta.nested_scopes).sum(),
            peak_batch_bytes: reports
                .iter()
                .map(|r| r.pipeline.peak_chunk_bytes)
                .max()
                .unwrap_or(0),
            input_bytes: reports.iter().map(|r| r.pipeline.input_bytes).sum(),
            peak_resident_scan_bytes: reports
                .iter()
                .map(|r| r.pipeline.peak_resident_scan_bytes)
                .sum(),
            early_dispatches: reports.iter().map(|r| r.pipeline.early_dispatches).sum(),
            wal_records: reports.iter().map(|r| r.wal_records).sum(),
            wal_bytes: reports.iter().map(|r| r.wal_bytes).sum(),
            flush_bytes: reports.iter().map(|r| r.flush_bytes).sum(),
            resident_bytes: reports.iter().map(|r| r.resident_bytes).sum(),
            evictions: reports.iter().map(|r| r.evictions).sum(),
            reloads: reports.iter().map(|r| r.reloads).sum(),
            remote_messages: exchange.remote_messages.load(Ordering::Relaxed),
            routed_bytes: exchange.routed_bytes.load(Ordering::Relaxed),
            shard_skew,
        });
        stats.total_messages += messages as u64;
        stats.supersteps = superstep + 1 - start_superstep;
        stats.aggregates = aggregates;

        if let (Some(every), Some(dir)) = (config.checkpoint_every, &config.checkpoint_dir) {
            if (superstep + 1).is_multiple_of(every) {
                for (k, sess) in sessions.iter().enumerate() {
                    crate::checkpoint::save(
                        sess,
                        dir.join(format!("shard{k}")),
                        superstep,
                        &prev_aggregates,
                    )?;
                }
            }
        }

        // Two-phase halting vote, phase two: every shard's outcome counted.
        if messages == 0 && all_halted {
            break;
        }
        superstep += 1;
    }
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Crash repair.
// ---------------------------------------------------------------------------

/// Brings every shard to the same superstep boundary after a crash.
///
/// Call after [`ShardedDatabase::open`] + [`ShardedGraphSession::open`]
/// (which already replayed each shard's WAL and asserted stamp spread ≤ 1).
/// If all shards stamp the same superstep there is nothing to do
/// (`Ok(None)`). If some shard is one behind — the crash hit between two
/// shards' apply commits — the behind shard **re-runs** the missing
/// superstep locally: its own tables still hold exactly that superstep's
/// local input, and its remote-owned input rows are read from each peer
/// (the peer's retained `_message_prev` table if the peer committed the
/// superstep, its live message table if it is equally behind). The re-run
/// commit is bitwise-identical to the one the crash interrupted — same
/// input multiset, same canonical worker sort, same apply — and idempotent:
/// crashing *during repair* just repairs again. Returns the repaired
/// superstep number.
pub fn repair_if_needed<P: VertexProgram + 'static>(
    ss: &ShardedGraphSession,
    program: Arc<P>,
    config: &VertexicaConfig,
) -> VertexicaResult<Option<u64>> {
    let n = ss.num_shards();
    let meta_table = ss.meta_table();
    let metas: Vec<Option<ShardMeta>> = ss
        .shard_sessions()
        .iter()
        .map(|s| read_meta(s, &meta_table))
        .collect::<VertexicaResult<_>>()?;
    let stamps: Vec<Option<i64>> = metas.iter().map(|m| m.as_ref().map(|m| m.stamp)).collect();
    let Some((s_min, s_max)) = stamp_range(&ss.name, &stamps)? else { return Ok(None) };
    if s_max == s_min {
        return Ok(None);
    }
    let mut stamps: Vec<i64> = stamps.into_iter().flatten().collect();
    if !ss.db.is_durable() {
        return Err(VertexicaError::Runtime(
            "cannot repair a non-durable sharded database: no retained message input".into(),
        ));
    }
    let superstep = s_max as u64;
    let ahead = stamps.iter().position(|&s| s == s_max).expect("max exists");
    let ahead_meta = metas[ahead].as_ref().expect("checked");
    if ahead_meta.num_shards != n {
        return Err(VertexicaError::Runtime(format!(
            "graph {}: meta says {} shards but the database has {n}",
            ss.name, ahead_meta.num_shards
        )));
    }
    let agg_in = ahead_meta.aggregates.clone();
    let num_vertices = ahead_meta.num_vertices;

    let c = sharded_config(config, n, true);
    for sess in ss.shard_sessions() {
        sess.db().runtime().resize(c.num_workers);
    }
    for b in 0..n {
        if stamps[b] == s_max {
            continue;
        }
        repair_shard(ss, &program, &c, b, superstep, num_vertices, &agg_in, &stamps)?;
        // The repaired shard's `_message_prev` now holds the superstep's
        // input (like any shard that committed it) — later behind shards
        // must read it from there, not from the now-advanced live table.
        stamps[b] = s_max;
    }
    ss.db.checkpoint()?;
    Ok(Some(superstep))
}

/// Re-runs one missing superstep on one behind shard (see
/// [`repair_if_needed`] for the protocol).
#[allow(clippy::too_many_arguments)]
fn repair_shard<P: VertexProgram + 'static>(
    ss: &ShardedGraphSession,
    program: &Arc<P>,
    config: &VertexicaConfig,
    shard: usize,
    superstep: u64,
    num_vertices: u64,
    agg_in: &FxHashMap<String, f64>,
    stamps: &[i64],
) -> VertexicaResult<()> {
    let n = ss.num_shards();
    let sess = &ss.shard_sessions()[shard];
    let db = sess.db();
    let msg_prev_table = ss.message_prev_table();
    let meta_table = ss.meta_table();

    // Remote-owned input rows from every peer's copy of the superstep's
    // message input, reshaped to the union-schema wire format.
    let mut remote: Vec<RecordBatch> = Vec::new();
    for (j, peer) in ss.shard_sessions().iter().enumerate() {
        if j == shard {
            continue;
        }
        let table = if stamps[j] == superstep as i64 {
            msg_prev_table.clone()
        } else {
            peer.message_table()
        };
        for batch in peer.db().scan_table(&table, None, &[])? {
            for (d, piece) in split_batch(&batch, &[0], n).map_err(VertexicaError::from)? {
                if d == shard {
                    remote.push(message_union_batch(&piece)?);
                }
            }
        }
    }

    // Retain this shard's own message input before apply swaps it, for
    // idempotence and for any peer repaired after us.
    let msg_prev_segments =
        db.encode_segments_for(&msg_prev_table, db.scan_table(&sess.message_table(), None, &[])?)?;

    let (edges, _) = crate::projection::for_run(sess, config)?;
    let edge_rows = edges.is_none();
    let worker: Arc<dyn TransformUdf> = Arc::new(VertexWorker {
        program: program.clone(),
        superstep,
        num_vertices,
        prev_aggregates: Arc::new(agg_in.clone()),
        use_combiner: config.use_combiner,
        pool: Some(db.runtime().clone()),
        edges,
    });
    let parts = config.num_partitions.max(1);
    let apply = ParallelApply::for_program(program.as_ref(), config.num_workers.max(1));
    let mut remote = Some(remote);
    db.run_transform_pipelined(
        &worker,
        vec![0],
        parts,
        None,
        &mut |chunk_sink| {
            let peak = assemble_chunks(
                sess,
                config.input_mode,
                config.stream_chunk_rows,
                edge_rows,
                &mut |chunk| {
                    for (d, piece) in split_batch(&chunk, &[0], n).map_err(VertexicaError::from)? {
                        // Own rows feed the worker. Remote-owned rows in the
                        // local message table were already consumed by their
                        // (ahead or just-repaired) owners — drop them.
                        if d == shard {
                            chunk_sink(piece).map_err(VertexicaError::from)?;
                        }
                    }
                    Ok(())
                },
            )
            .map_err(|e| match e {
                VertexicaError::Sql(e) => e,
                other => SqlError::Execution(other.to_string()),
            })?;
            for piece in remote.take().unwrap_or_default() {
                chunk_sink(piece)?;
            }
            Ok(peak)
        },
        &|idx, out| apply.absorb(idx, &out).map_err(|e| SqlError::Udf(e.to_string())),
    )?;

    let meta_batch = RecordBatch::from_rows(
        meta_schema(),
        &meta_rows(superstep as i64, num_vertices, n, agg_in),
    )
    .map_err(VertexicaError::from)?;
    let extra = vec![
        (meta_table.clone(), db.encode_segments_for(&meta_table, vec![meta_batch])?),
        (msg_prev_table.clone(), msg_prev_segments),
    ];
    apply_parallel(sess, program.as_ref(), config, apply, num_vertices, extra)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::run_program;
    use crate::coordinator::tests::MaxId;
    use vertexica_storage::partition::int_key_partition;

    /// Two components joined through several cross-owner edges, big enough
    /// that 2 and 3 shards each own something.
    fn chain_graph() -> EdgeList {
        let mut pairs = Vec::new();
        for i in 0..19u64 {
            pairs.push((i, i + 1));
            pairs.push((i + 1, i));
        }
        pairs.push((30, 31));
        pairs.push((31, 30));
        EdgeList::from_pairs(pairs)
    }

    fn test_config() -> VertexicaConfig {
        VertexicaConfig::default()
            .with_workers(2)
            .with_partitions(8)
            .with_combiner(false)
            .with_replace_threshold(0.0)
            .with_durable(false)
            .with_memory_budget(None)
    }

    fn plain_run() -> (Vec<(VertexId, u64)>, RunStats) {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db, "g").unwrap();
        g.load_edges(&chain_graph()).unwrap();
        let stats = run_program(&g, Arc::new(MaxId), &test_config()).unwrap();
        (g.vertex_values().unwrap(), stats)
    }

    fn sharded_run(n: usize) -> (Vec<(VertexId, u64)>, RunStats) {
        let db = ShardedDatabase::new(n);
        let ss = ShardedGraphSession::create(db, "g").unwrap();
        ss.load_edges(&chain_graph()).unwrap();
        let stats = run_sharded(&ss, Arc::new(MaxId), &test_config()).unwrap();
        (ss.vertex_values().unwrap(), stats)
    }

    #[test]
    fn sharded_matches_single_database() {
        let (vals1, stats1) = plain_run();
        for n in [2usize, 3] {
            let (vals_n, stats_n) = sharded_run(n);
            assert_eq!(vals1, vals_n, "{n} shards: vertex values diverged");
            assert_eq!(stats1.total_messages, stats_n.total_messages, "{n} shards");
            assert_eq!(stats1.supersteps, stats_n.supersteps, "{n} shards");
            for (a, b) in stats1.per_superstep.iter().zip(&stats_n.per_superstep) {
                assert_eq!(a.messages, b.messages, "{n} shards, superstep {}", a.superstep);
                assert_eq!(a.vertex_changes, b.vertex_changes, "{n} shards");
            }
            // The chain crosses owners, so rows actually routed.
            assert!(
                stats_n.per_superstep.iter().map(|s| s.remote_messages).sum::<u64>() > 0,
                "{n} shards: expected cross-shard routing"
            );
            assert!(
                stats_n.per_superstep.iter().map(|s| s.routed_bytes).sum::<u64>() > 0,
                "{n} shards: routed bytes untracked"
            );
            assert!(stats_n.per_superstep.iter().all(|s| s.shard_skew >= 1.0));
        }
    }

    #[test]
    fn one_shard_collapses_to_plain_run() {
        let (vals1, stats1) = plain_run();
        let (vals_s, stats_s) = sharded_run(1);
        assert_eq!(vals1, vals_s);
        assert_eq!(stats1.total_messages, stats_s.total_messages);
        assert_eq!(stats1.supersteps, stats_s.supersteps);
        let exact = |stats: &RunStats| -> Vec<_> {
            stats
                .per_superstep
                .iter()
                .map(|s| (s.messages, s.vertex_changes, s.replaced, s.input_bytes))
                .collect()
        };
        assert_eq!(exact(&stats1), exact(&stats_s));
        // A 1-shard run never routes and is perfectly balanced.
        for stats in [&stats1, &stats_s] {
            assert!(stats
                .per_superstep
                .iter()
                .all(|s| s.remote_messages == 0 && s.routed_bytes == 0 && s.shard_skew == 1.0));
        }
    }

    #[test]
    fn sharded_load_partitions_by_ownership_hash() {
        let db = ShardedDatabase::new(3);
        let ss = ShardedGraphSession::create(db, "g").unwrap();
        ss.load_edges(&chain_graph()).unwrap();
        assert_eq!(ss.num_vertices().unwrap(), 32);
        assert_eq!(ss.num_edges().unwrap(), 40);
        for (k, sess) in ss.shard_sessions().iter().enumerate() {
            // Every local vertex and edge row is owned by this shard.
            for row in sess.db().query(&format!("SELECT id FROM {}", sess.vertex_table())).unwrap()
            {
                let id = row[0].as_int().unwrap();
                assert_eq!(int_key_partition(id, 3), k, "vertex {id} misplaced");
            }
            for row in sess.db().query(&format!("SELECT src FROM {}", sess.edge_table())).unwrap() {
                let src = row[0].as_int().unwrap();
                assert_eq!(int_key_partition(src, 3), k, "edge src {src} misplaced");
            }
        }
    }

    #[test]
    fn meta_roundtrip() {
        let db = ShardedDatabase::new(2);
        let ss = ShardedGraphSession::create(db, "g").unwrap();
        let mut aggs = FxHashMap::default();
        aggs.insert("sum".to_string(), 0.1 + 0.2); // not exactly representable
        let sess = &ss.shard_sessions()[0];
        replace_meta(sess, &ss.meta_table(), 7, 42, 2, &aggs).unwrap();
        let meta = read_meta(sess, &ss.meta_table()).unwrap().unwrap();
        assert_eq!(meta.stamp, 7);
        assert_eq!(meta.num_vertices, 42);
        assert_eq!(meta.num_shards, 2);
        // Bit-exact f64 round trip through the Int column.
        assert_eq!(meta.aggregates["sum"].to_bits(), (0.1f64 + 0.2).to_bits());
        // An un-stamped shard reads as None.
        assert!(read_meta(&ss.shard_sessions()[1], &ss.meta_table()).unwrap().is_none());
    }

    #[test]
    fn plain_session_gets_no_bookkeeping_tables() {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db.clone(), "g").unwrap();
        g.load_edges(&chain_graph()).unwrap();
        let before = db.catalog().list().len();
        run_program(&g, Arc::new(MaxId), &test_config()).unwrap();
        assert_eq!(db.catalog().list().len(), before, "a one-shard run creates no tables");
    }

    #[test]
    fn counts_board_aborts_instead_of_hanging() {
        let board = CountsBoard::new(2);
        let abort = AtomicBool::new(true);
        let err = board.exchange(0, vec![vec![0]], &abort);
        assert!(err.is_err(), "an aborted exchange must not wait for the missing shard");
    }
}

/// Bounded model checks of the counts rendezvous: every interleaving of two
/// depositing shards must hand both the complete matrix, and a shard that
/// fails before depositing must unstick its waiting peer via the abort
/// flag. Compiled only under `RUSTFLAGS='--cfg vertexica_model'`.
#[cfg(all(test, vertexica_model))]
mod model_tests {
    use super::*;
    use vertexica_common::sync::model::{self, Config, ViolationKind};

    /// Both shards deposit and rendezvous: each must observe the full,
    /// identical matrix, whichever order deposits and waits interleave in.
    fn rendezvous_scenario() {
        let board = Arc::new(CountsBoard::new(2));
        let abort = Arc::new(AtomicBool::new(false));
        let peer = {
            let board = board.clone();
            let abort = abort.clone();
            model::spawn(move || {
                board.exchange(1, vec![vec![10], vec![11]], &abort).expect("peer exchange")
            })
        };
        let mine = board.exchange(0, vec![vec![0], vec![1]], &abort).expect("exchange");
        let theirs = peer.join();
        assert_eq!(mine, theirs, "shards observed different count matrices");
        assert_eq!(mine[0], vec![vec![0], vec![1]]);
        assert_eq!(mine[1], vec![vec![10], vec![11]]);
    }

    /// Shard 1 fails before depositing: shard 0's timed wait must notice
    /// the abort flag and error out instead of waiting for a deposit that
    /// will never come.
    fn abort_scenario() {
        let board = Arc::new(CountsBoard::new(2));
        let abort = Arc::new(AtomicBool::new(false));
        let failer = {
            let abort = abort.clone();
            model::spawn(move || abort.store(true, Ordering::Release))
        };
        let res = board.exchange(0, vec![vec![1]], &abort);
        failer.join();
        assert!(res.is_err(), "abort must unstick the counts rendezvous");
    }

    #[test]
    fn model_shard_rendezvous_clean() {
        let cfg = Config { max_preemptions: 2, ..Config::default() };
        let stats = model::check(&cfg, rendezvous_scenario)
            .unwrap_or_else(|v| panic!("counts rendezvous violated:\n{v}"));
        assert!(stats.exhausted, "bounded schedule space not exhausted: {stats:?}");
        eprintln!("[model] shard rendezvous clean: {stats:?}");
    }

    /// The one-shard case of every run: the lone depositor fills the board
    /// and must get its own matrix back without ever waiting.
    fn single_shard_scenario() {
        let board = CountsBoard::new(1);
        let abort = AtomicBool::new(false);
        let mine = board.exchange(0, vec![vec![3, 4]], &abort).expect("exchange");
        assert_eq!(mine, vec![vec![vec![3, 4]]]);
    }

    #[test]
    fn model_shard_rendezvous_single_shard_clean() {
        let cfg = Config { max_preemptions: 2, ..Config::default() };
        let stats = model::check(&cfg, single_shard_scenario)
            .unwrap_or_else(|v| panic!("one-shard rendezvous violated:\n{v}"));
        assert!(stats.exhausted, "bounded schedule space not exhausted: {stats:?}");
        assert!(!stats.ops.contains("cond.wait"), "a lone shard waited: {:?}", stats.ops);
        eprintln!("[model] one-shard rendezvous clean: {stats:?}");
    }

    #[test]
    fn model_shard_abort_unsticks_waiter_clean() {
        let cfg = Config { max_preemptions: 2, ..Config::default() };
        let stats = model::check(&cfg, abort_scenario)
            .unwrap_or_else(|v| panic!("abort-aware wait violated:\n{v}"));
        assert!(stats.exhausted, "bounded schedule space not exhausted: {stats:?}");
        assert!(stats.ops.contains("cond.wait"), "timed wait never explored: {:?}", stats.ops);
        eprintln!("[model] shard abort clean: {stats:?}");
    }

    /// Seeding `shard.skip_abort_recheck` (drop the abort poll from the
    /// wait loop) strands the waiter on a rendezvous that can never fill;
    /// once its timeout-wake budget is spent the checker must report the
    /// stuck state as a deadlock, deterministically.
    #[test]
    fn model_shard_skip_abort_recheck_mutation_detected() {
        let cfg = Config {
            max_preemptions: 2,
            mutation: Some("shard.skip_abort_recheck"),
            ..Config::default()
        };
        let v1 = model::check(&cfg, abort_scenario)
            .expect_err("seeded missing-abort-poll bug must be detected");
        assert_eq!(v1.kind, ViolationKind::Deadlock, "unexpected violation:\n{v1}");
        let v2 = model::check(&cfg, abort_scenario).expect_err("second run must also fail");
        assert_eq!(v1.schedule, v2.schedule, "minimal schedule not deterministic");
        assert_eq!(v1.schedules_explored, v2.schedules_explored);
        eprintln!("[model] shard mutation:\n{v1}");
    }
}
