//! The six workloads: how each is set up, run, checked and measured.
//!
//! A workload is a closed loop with one client — a batch system runs one
//! algorithm at a time and the next run starts when the previous returns.
//! The engine receives only the generated `EdgeList`; everything else
//! (seed, scale, repetitions) stays on the benchmark's side.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use vertexica::common::{Edge, EdgeList, VertexId, VertexProgram};
use vertexica::sql::Database;
use vertexica::{
    run_program, run_sharded, GraphSession, RunStats, ShardedDatabase, ShardedGraphSession,
    VertexicaConfig,
};
use vertexica_algorithms::vc::{PageRank, Sssp};
use vertexica_algorithms::{reference, sqlalgo};

use crate::adapter::{self, RunCounters};
use crate::host::{self, ScratchDir};
use crate::probes::run_probes;
use crate::stats::Summary;
use crate::trace::{add_phase_spans, Tracer};

const PAGERANK_ITERATIONS: u64 = 10;
const DAMPING: f64 = 0.85;
const SSSP_SOURCE: VertexId = 0;
/// Largest accepted difference from `algorithms::reference`.
const TOLERANCE: f64 = 1e-9;
const SHARDS: usize = 2;
/// Fresh set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Fewest timed repetitions, however short `--seconds` is.
const MIN_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    PageRank,
    Sssp,
    SqlPageRank,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Store {
    /// One in-memory database.
    Memory,
    /// One disk-backed database (WAL, fsync on), unbounded buffer pool.
    Durable,
    /// As `Durable`, with the buffer pool capped at half the loaded footprint.
    OutOfCore,
    /// `SHARDS` in-memory databases behind the sharded coordinator.
    Sharded,
}

impl Store {
    fn on_disk(self) -> bool {
        matches!(self, Store::Durable | Store::OutOfCore)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One line on why the workload exists (also in BENCHMARK.json).
    pub why: &'static str,
    /// `graphgen` dataset profile.
    pub profile: &'static str,
    /// Fraction of the paper's dataset size. Chosen so that one run takes
    /// about a second on two cores: the pipeline allows a whole measurement
    /// about twenty seconds, and a steady median needs several repetitions
    /// inside it.
    pub scale: f64,
    pub algo: Algo,
    pub store: Store,
}

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "vc.pagerank.lj",
        why: "Figure 2's headline cell: dense supersteps, every vertex active, apply replaces the vertex table each superstep; core::input/worker/apply do the work",
        profile: "livejournal",
        scale: LJ_SCALE,
        algo: Algo::PageRank,
        store: Store::Memory,
    },
    Spec {
        name: "vc.sssp.lj",
        why: "Same graph, sparse frontier: apply mostly updates in place, so per-superstep fixed cost (re-scan and re-partition of the static edge table) dominates",
        profile: "livejournal",
        scale: LJ_SCALE,
        algo: Algo::Sssp,
        store: Store::Memory,
    },
    Spec {
        name: "sql.pagerank.lj",
        why: "Figure 2's Vertexica(SQL) column: all time in planner, hash join, group-by and CTAS; bypasses core::input/worker/apply entirely",
        profile: "livejournal",
        scale: LJ_SCALE,
        algo: Algo::SqlPageRank,
        store: Store::Memory,
    },
    Spec {
        name: "vc.pagerank.gplus.durable",
        why: "Writes beside reads: every apply rides a WAL commit and flushes swapped table images with fsync on (storage::wal, storage::persist)",
        profile: "gplus",
        scale: GPLUS_SCALE,
        algo: Algo::PageRank,
        store: Store::Durable,
    },
    Spec {
        name: "vc.pagerank.gplus.oocore",
        why: "As .durable with the buffer pool capped at half the footprint: working set larger than the cache, so segments are evicted and reloaded (storage::buffer_pool)",
        profile: "gplus",
        scale: GPLUS_SCALE,
        algo: Algo::PageRank,
        store: Store::OutOfCore,
    },
    Spec {
        name: "vc.pagerank.gplus.shard2",
        why: "Two engine shards: the only workload where core::shard routes messages between databases",
        profile: "gplus",
        scale: GPLUS_SCALE,
        algo: Algo::PageRank,
        store: Store::Sharded,
    },
];

const LJ_SCALE: f64 = 0.0015;
const GPLUS_SCALE: f64 = 0.005;

/// Vertices appended to every generated graph as a path hanging off vertex 0.
///
/// An R-MAT graph of these sizes is 3, 4 or 5 hops deep from vertex 0
/// depending on the seed, and SSSP makes one superstep per hop, so without
/// the path `vc.sssp.lj`'s run time steps by a fifth from one seed to the
/// next. The path is longer than any depth seen in 200 seeds, which pins the
/// superstep count; real social graphs have such tails. To PageRank eight
/// more vertices make no difference, and sharing the rule keeps the three
/// `.lj` workloads on one graph.
const TAIL: u64 = 8;

/// The benchmark's input generator: the named dataset profile at `scale`,
/// plus the tail.
fn generate(profile: &str, scale: f64, seed: u64) -> Result<EdgeList, String> {
    let mut graph = vertexica_graphgen::dataset(profile, scale, seed)
        .ok_or_else(|| format!("unknown dataset profile {profile}"))?;
    let first = graph.num_vertices;
    for i in 0..TAIL {
        let src = if i == 0 { 0 } else { first + i - 1 };
        graph.edges.push(Edge::new(src, first + i));
    }
    graph.num_vertices += TAIL;
    Ok(graph)
}

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// How long the timed repetitions go on.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Where the traced run's spans are appended as JSON lines.
    pub trace_out: Option<PathBuf>,
    /// A tenth of the scale, one set-up, one repetition: exercises every
    /// code path in seconds, measures nothing worth keeping.
    pub smoke: bool,
}

/// One workload's result: the run counts and the metrics in reporting order.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, Summary)>,
    /// Graph size and thread counts, for the reader of a report.
    pub context: Vec<(&'static str, f64)>,
}

// ---------------------------------------------------------------------------
// Set-up, run, check
// ---------------------------------------------------------------------------

enum Loaded {
    Single(GraphSession),
    Sharded(ShardedGraphSession),
}

impl Loaded {
    /// The session the SQL probes query: the only one, or shard 0's.
    fn first_session(&self) -> &GraphSession {
        match self {
            Loaded::Single(s) => s,
            Loaded::Sharded(ss) => &ss.shard_sessions()[0],
        }
    }

    fn first_db(&self) -> &Database {
        self.first_session().db()
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Creates the database(s) and the graph session, loads the edges and, for
/// disk-backed stores, checkpoints — everything a user pays before the first
/// run. Returns the session and the loaded footprint in bytes.
fn setup(
    spec: &Spec,
    graph: &EdgeList,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<(Loaded, u64), String> {
    let (_, loaded) = tracer.scoped("setup", |t| {
        let loaded = if spec.store == Store::Sharded {
            let (_, ss) = t.scoped("create", |_| {
                ShardedGraphSession::create(ShardedDatabase::new(SHARDS), "g")
            });
            let ss = ss.map_err(err)?;
            t.scoped("load", |_| ss.load_edges(graph)).1.map_err(err)?;
            Loaded::Sharded(ss)
        } else {
            let (_, session) = t.scoped("create", |_| {
                let db = if spec.store.on_disk() {
                    Database::open(dir).map_err(err)?
                } else {
                    Database::new()
                };
                GraphSession::create(Arc::new(db), "g").map_err(err)
            });
            let session = session?;
            t.scoped("load", |_| session.load_edges(graph)).1.map_err(err)?;
            Loaded::Single(session)
        };
        if spec.store.on_disk() {
            t.scoped("checkpoint", |_| loaded.first_db().checkpoint()).1.map_err(err)?;
        }
        Ok::<_, String>(loaded)
    });
    let loaded = loaded?;
    let footprint = adapter::resident_bytes(loaded.first_db());
    Ok((loaded, footprint))
}

/// Threads per database: `min(nproc, 4)`, split between the shards so the
/// total never exceeds the cores.
fn workers(spec: &Spec) -> usize {
    let total = host::nproc().min(4);
    if spec.store == Store::Sharded {
        (total / SHARDS).max(1)
    } else {
        total
    }
}

/// The paper's configuration (§2.3 describes no combiner) on the engine's
/// defaults; only the knobs that define a workload are set.
fn config(spec: &Spec, footprint: u64) -> VertexicaConfig {
    let workers = workers(spec);
    let base = VertexicaConfig::default()
        .with_workers(workers)
        .with_partitions(4 * workers)
        .with_combiner(false)
        .with_durable(spec.store.on_disk());
    match spec.store {
        Store::OutOfCore => base.with_memory_budget(Some((footprint / 2) as usize)),
        _ => base.with_memory_budget(None),
    }
}

type Values = Vec<(VertexId, f64)>;

/// One complete algorithm run, call to return: the timed region. The SQL
/// algorithm returns its ranks; a vertex program leaves them in the vertex
/// table, read afterwards by [`values_of`].
fn execute(
    spec: &Spec,
    loaded: &Loaded,
    cfg: &VertexicaConfig,
) -> Result<(Option<RunStats>, Option<Values>), String> {
    fn vc<P: VertexProgram + 'static>(
        loaded: &Loaded,
        program: P,
        cfg: &VertexicaConfig,
    ) -> Result<(Option<RunStats>, Option<Values>), String> {
        let stats = match loaded {
            Loaded::Single(s) => run_program(s, Arc::new(program), cfg),
            Loaded::Sharded(ss) => run_sharded(ss, Arc::new(program), cfg),
        };
        Ok((Some(stats.map_err(err)?), None))
    }
    match spec.algo {
        Algo::PageRank => vc(loaded, PageRank::new(PAGERANK_ITERATIONS, DAMPING), cfg),
        Algo::Sssp => vc(loaded, Sssp::new(SSSP_SOURCE), cfg),
        Algo::SqlPageRank => {
            let ranks = sqlalgo::pagerank_sql(
                loaded.first_session(),
                PAGERANK_ITERATIONS as usize,
                DAMPING,
            );
            Ok((None, Some(ranks.map_err(err)?)))
        }
    }
}

fn values_of(loaded: &Loaded) -> Result<Values, String> {
    match loaded {
        Loaded::Single(s) => s.vertex_values::<f64>(),
        Loaded::Sharded(ss) => ss.vertex_values::<f64>(),
    }
    .map_err(err)
}

/// What `algorithms::reference` computes for a workload's algorithm, and how
/// long that took — the hardware floor for the same graph.
struct Oracle {
    expected: Vec<f64>,
    floor_s: f64,
}

impl Oracle {
    fn compute(algo: Algo, graph: &EdgeList) -> Oracle {
        let start = Instant::now();
        let expected = match algo {
            Algo::PageRank | Algo::SqlPageRank => {
                reference::pagerank(graph, PAGERANK_ITERATIONS as usize, DAMPING)
            }
            Algo::Sssp => reference::sssp(graph, SSSP_SOURCE),
        };
        Oracle { expected, floor_s: start.elapsed().as_secs_f64() }
    }
}

/// Checks a run's output against the oracle. Returns what is wrong, empty
/// when nothing is.
fn check_values(algo: Algo, values: &Values, expected: &[f64]) -> Vec<String> {
    let mut wrong = Vec::new();
    if values.len() != expected.len()
        || values.iter().enumerate().any(|(i, (id, _))| *id != i as VertexId)
    {
        wrong.push(format!("result has {} vertices, not ids 0..{}", values.len(), expected.len()));
        return wrong;
    }
    let close = |got: f64, want: f64| {
        if want.is_finite() {
            (got - want).abs() <= TOLERANCE * want.abs().max(1.0)
        } else {
            got == want
        }
    };
    if let Some(((id, got), want)) = values.iter().zip(expected).find(|((_, g), w)| !close(*g, **w))
    {
        wrong.push(format!("vertex {id}: got {got}, reference {want}"));
    }
    if algo != Algo::Sssp {
        let sum: f64 = values.iter().map(|(_, v)| v).sum();
        if (sum - 1.0).abs() > TOLERANCE {
            wrong.push(format!("ranks sum to {sum}, not 1"));
        }
    }
    wrong
}

/// Structural checks on a run's counters: the message count PageRank must
/// produce, and that each layer did work only on the workloads that reach it.
fn check_counters(spec: &Spec, c: &RunCounters, edges: u64) -> Vec<String> {
    let mut wrong = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            wrong.push(what);
        }
    };
    if spec.algo == Algo::PageRank {
        let want = edges * PAGERANK_ITERATIONS;
        expect(c.messages == want, format!("messages {} != edges x iterations {want}", c.messages));
    }
    let (wal, flush) = (c.wal_bytes, c.flush_bytes);
    if spec.store.on_disk() {
        expect(wal > 0 && flush > 0, format!("durable run wrote wal {wal} B, flush {flush} B"));
    } else {
        expect(wal == 0 && flush == 0, format!("in-memory run wrote wal {wal} B, flush {flush} B"));
    }
    // No check holds peak residency to the budget: segments built since the
    // last checkpoint have no disk twin yet and cannot be evicted, so the
    // engine documents the budget as exceedable by that working set.
    let (ev, re) = (c.evictions, c.reloads);
    if spec.store == Store::OutOfCore {
        expect(ev > 0, "no evictions under a budget of half the footprint".into());
    } else {
        expect(ev == 0 && re == 0, format!("unbounded pool evicted {ev}, reloaded {re}"));
    }
    let (remote, routed) = (c.remote_messages, c.routed_bytes);
    if spec.store == Store::Sharded {
        expect(remote > 0 && routed > 0, "no message crossed a shard boundary".into());
    } else {
        expect(remote == 0 && routed == 0, format!("single database routed {remote} messages"));
    }
    wrong
}

/// Checks one run's output against the oracle and its counters against the
/// workload's structure. `Ok` carries the counters (zeros for the SQL
/// algorithm, which has no `RunStats`); `Err` names everything that is wrong.
fn verify(
    spec: &Spec,
    loaded: &Loaded,
    graph: &EdgeList,
    oracle: &Oracle,
    (stats, values): (Option<RunStats>, Option<Values>),
) -> Result<RunCounters, String> {
    let values = match values {
        Some(v) => v,
        None => values_of(loaded)?,
    };
    let mut wrong = check_values(spec.algo, &values, &oracle.expected);
    let counters = stats.as_ref().map(adapter::run_counters);
    if let Some(c) = &counters {
        wrong.extend(check_counters(spec, c, graph.num_edges()));
    }
    if wrong.is_empty() {
        Ok(counters.unwrap_or_default())
    } else {
        Err(wrong.join("; "))
    }
}

/// One run with its checks, the checks outside the timed region. `Ok` is the
/// run's seconds; `Err` says what failed (an engine error or a failed check).
fn attempt(
    spec: &Spec,
    loaded: &Loaded,
    cfg: &VertexicaConfig,
    graph: &EdgeList,
    oracle: &Oracle,
) -> Result<f64, String> {
    let start = Instant::now();
    let executed = execute(spec, loaded, cfg)?;
    let secs = start.elapsed().as_secs_f64();
    verify(spec, loaded, graph, oracle, executed)?;
    Ok(secs)
}

// ---------------------------------------------------------------------------
// Measuring
// ---------------------------------------------------------------------------

/// Attempt counts and the named failures, printed on stderr as they happen.
struct Tally<'a> {
    workload: &'a str,
    attempted: u64,
    failed: u64,
}

impl Tally<'_> {
    fn record<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("vxbench: {}: {what} FAILED: {e}", self.workload);
                None
            }
        }
    }
}

/// What the untraced part of an invocation measured.
struct Baseline {
    setup_samples: Vec<f64>,
    peak_rss_mb: f64,
    run_samples: Vec<f64>,
}

/// The untraced measurement, in the order a user meets the costs: set the
/// workload up, make one untimed warm-up run, read peak memory, then time
/// runs on the same session until `seconds` have passed. The remaining
/// `setups - 1` fresh set-ups come last, so that peak memory is read in a
/// process that has loaded the graph exactly once.
fn baseline(
    spec: &Spec,
    graph: &EdgeList,
    oracle: &Oracle,
    scratch: &ScratchDir,
    (setups, min_reps, seconds): (usize, usize, f64),
    tally: &mut Tally,
) -> Result<Baseline, String> {
    let mut setup_samples = Vec::new();
    let mut timed_setup = |i: usize| {
        let dir = scratch.path().join(format!("setup{i}"));
        let start = Instant::now();
        let loaded = setup(spec, graph, &dir, &mut Tracer::disabled())?;
        setup_samples.push(start.elapsed().as_secs_f64());
        Ok::<_, String>((loaded, dir))
    };

    let ((loaded, footprint), first_dir) = timed_setup(0)?;
    let cfg = config(spec, footprint);
    tally.record("warm-up run", attempt(spec, &loaded, &cfg, graph, oracle));
    // Read right after the first full run: later repetitions grow the
    // resident set through allocator drift, the first run is the repeatable
    // point.
    let peak_rss_mb = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;

    let mut run_samples = Vec::new();
    let started = Instant::now();
    let mut reps = 0;
    while reps < min_reps || started.elapsed().as_secs_f64() < seconds {
        reps += 1;
        run_samples.extend(tally.record("timed run", attempt(spec, &loaded, &cfg, graph, oracle)));
    }

    drop(loaded);
    let _ = std::fs::remove_dir_all(first_dir);
    for i in 1..setups {
        let (loaded, dir) = timed_setup(i)?;
        drop(loaded);
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(Baseline { setup_samples, peak_rss_mb, run_samples })
}

/// Runs one workload and returns its metrics: the end-to-end ones with
/// tracing off, the per-layer ones from a traced run.
pub fn measure(spec: &Spec, params: &Params) -> Result<Outcome, String> {
    let scale = if params.smoke { spec.scale / 10.0 } else { spec.scale };
    let (setups, min_reps) = if params.smoke { (1, 1) } else { (SETUPS, MIN_REPS) };
    let mut tracer = if params.trace { Tracer::new(spec.name) } else { Tracer::disabled() };
    let mut tally = Tally { workload: spec.name, attempted: 0, failed: 0 };
    let scratch = ScratchDir::create(spec.name).map_err(err)?;

    let (_, result) = tracer.scoped("workload", |t| {
        let (gen, graph) = t.scoped("gen", |_| generate(spec.profile, scale, params.seed));
        let graph = graph?;
        let gen_s = t.duration(gen);
        let (_, oracle) = t.scoped("oracle", |_| Oracle::compute(spec.algo, &graph));

        // The traced run follows a shorter baseline, which its `run` span is
        // compared with.
        let seconds = if params.trace { params.seconds / 2.0 } else { params.seconds };
        let (_, base) = t.scoped("baseline", |_| {
            baseline(spec, &graph, &oracle, &scratch, (setups, min_reps, seconds), &mut tally)
        });
        let base = base?;
        let run_s = Summary::of(&base.run_samples, "s").ok_or("every timed run failed")?;

        let context = vec![
            ("scale", scale),
            ("seed", params.seed as f64),
            ("vertices", graph.num_vertices as f64),
            ("edges", graph.num_edges() as f64),
            ("workers", workers(spec) as f64),
            ("partitions", config(spec, 0).num_partitions as f64),
            ("timed_reps", base.run_samples.len() as f64),
        ];
        let metrics = if params.trace {
            traced(spec, &graph, &oracle, &scratch, gen_s, &run_s, t, &mut tally)?
        } else {
            let setup_s = Summary::of(&base.setup_samples, "s").ok_or("no set-up was made")?;
            vec![
                ("run_s".to_string(), run_s),
                ("setup_s".to_string(), setup_s),
                ("peak_rss_mb".to_string(), Summary::single(base.peak_rss_mb, "MB")),
            ]
        };
        Ok::<_, String>((metrics, context))
    });
    let (metrics, context) = result?;

    if let Some(path) = &params.trace_out {
        tracer.write_jsonl(path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(Outcome { attempted: tally.attempted, failed: tally.failed, metrics, context })
}

/// The traced run: a fresh session set up and run once under spans, checked,
/// then probed. Returns every per-layer metric.
#[allow(clippy::too_many_arguments)]
fn traced(
    spec: &Spec,
    graph: &EdgeList,
    oracle: &Oracle,
    scratch: &ScratchDir,
    gen_s: f64,
    run_s: &Summary,
    t: &mut Tracer,
    tally: &mut Tally,
) -> Result<Vec<(String, Summary)>, String> {
    let dir = scratch.path().join("traced");
    let first_span = t.spans().len();
    let (loaded, footprint) = setup(spec, graph, &dir, t)?;
    // `load_s` is the create and load spans; the checkpoint has its own.
    let load_s: f64 = t.spans()[first_span..]
        .iter()
        .filter(|s| s.name == "create" || s.name == "load")
        .map(|s| s.duration())
        .sum();
    let cfg = config(spec, footprint);
    let budget = cfg.memory_budget_bytes.unwrap_or(0) as u64;

    let (commits_before, checkpoints_before) = adapter::commits_and_checkpoints(loaded.first_db());
    let (run, executed) = t.scoped("run", |_| execute(spec, &loaded, &cfg));
    let traced_run_s = t.duration(run);
    let (commits, checkpoints) = adapter::commits_and_checkpoints(loaded.first_db());

    // A failed check is counted and named; the metrics then come out as zeros.
    let (_, checked) = t.scoped("verify", |_| verify(spec, &loaded, graph, oracle, executed?));
    let c = tally.record("traced run", checked).unwrap_or_default();
    // On the SQL algorithm every phase is zero, so its whole run is residual
    // as far as the core layers are concerned.
    let residual_s = add_phase_spans(t, run, c.phases);
    let disk_bytes = if spec.store.on_disk() { host::dir_bytes(&dir) } else { 0 };

    let session = loaded.first_session();
    let (_, probes) = t.scoped("probes", |t| {
        run_probes(session.db(), &session.edge_table(), &session.vertex_table(), t)
    });
    let probes = probes?;

    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let n = |v: u64| v as f64;
    let mut m: Vec<(&str, &str, f64)> = vec![
        // core::session
        ("load_s", "s", load_s),
        ("rows_loaded", "count", n(graph.num_vertices + graph.num_edges())),
        // core::input
        ("assemble_s", "s", c.phases.assemble),
        ("input_bytes", "bytes", n(c.input_bytes)),
        ("early_dispatches", "count", n(c.early_dispatches)),
        // core::worker
        ("compute_s", "s", c.phases.compute),
        ("messages", "count", n(c.messages)),
        ("peak_batch_bytes", "bytes", n(c.peak_batch_bytes)),
        // core::apply
        ("apply_s", "s", c.phases.apply),
        ("vertex_changes", "count", n(c.vertex_changes)),
        ("replaced_supersteps", "count", n(c.replaced_supersteps)),
        ("apply_parallelism", "count", n(c.apply_parallelism)),
        // core::coordinator
        ("supersteps", "count", n(c.supersteps)),
        ("overlap_s", "s", c.phases.overlap),
        ("residual_s", "s", residual_s),
        ("residual_share", "ratio", ratio(residual_s, traced_run_s)),
        // common::runtime
        ("queue_wait_s", "s", c.queue_wait_s),
        ("steals", "count", n(c.steals)),
        ("nested_scopes", "count", n(c.nested_scopes)),
        // core::shard
        ("remote_messages", "count", n(c.remote_messages)),
        ("routed_bytes", "bytes", n(c.routed_bytes)),
        ("shard_skew", "ratio", c.shard_skew),
        // storage::wal + storage::persist
        ("wal_records", "count", n(c.wal_records)),
        ("wal_bytes", "bytes", n(c.wal_bytes)),
        ("flush_bytes", "bytes", n(c.flush_bytes)),
        ("commits", "count", n(commits - commits_before)),
        ("checkpoints", "count", n(checkpoints - checkpoints_before)),
        ("disk_bytes", "bytes", n(disk_bytes)),
        ("write_amp", "ratio", ratio(n(c.flush_bytes), n(footprint))),
        // storage::buffer_pool
        ("budget_bytes", "bytes", n(budget)),
        ("footprint_bytes", "bytes", n(footprint)),
        ("evictions", "count", n(c.evictions)),
        ("reloads", "count", n(c.reloads)),
        ("peak_resident_bytes", "bytes", n(c.peak_resident_bytes)),
        ("reload_per_eviction", "ratio", ratio(n(c.reloads), n(c.evictions))),
    ];
    // sql + storage::table
    m.extend(probes);
    // The traced run against the untraced median, and context that is
    // reported but never gated.
    m.extend([
        ("trace_overhead", "ratio", ratio(traced_run_s, run_s.median)),
        ("gen_s", "s", gen_s),
        ("floor_s", "s", oracle.floor_s),
        ("x_floor", "ratio", ratio(run_s.median, oracle.floor_s)),
        ("edge_msgs_per_s", "1/s", ratio(n(c.messages), traced_run_s)),
    ]);
    Ok(m.into_iter().map(|(name, unit, v)| (name.to_string(), Summary::single(v, unit))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn generated_graphs_are_seeded_and_as_deep_as_the_tail() {
        let a = generate("livejournal", 0.0002, 7).unwrap();
        let b = generate("livejournal", 0.0002, 7).unwrap();
        let c = generate("livejournal", 0.0002, 8).unwrap();
        assert_eq!(a.edges, b.edges);
        assert_ne!(a.edges, c.edges);
        for g in [&a, &c] {
            let dist = reference::sssp(g, SSSP_SOURCE);
            let depth = dist.iter().copied().filter(|d| d.is_finite()).fold(0.0, f64::max);
            assert_eq!(depth, TAIL as f64);
            assert_eq!(dist[g.num_vertices as usize - 1], TAIL as f64);
        }
        assert!(generate("facebook", 0.01, 1).is_err());
    }

    #[test]
    fn value_checks_name_what_is_wrong() {
        let expected = [0.25, 0.75];
        let ok: Values = vec![(0, 0.25), (1, 0.75 + 1e-12)];
        assert!(check_values(Algo::PageRank, &ok, &expected).is_empty());
        let off: Values = vec![(0, 0.25), (1, 0.7501)];
        let wrong = check_values(Algo::PageRank, &off, &expected);
        assert!(wrong.iter().any(|w| w.contains("vertex 1")), "{wrong:?}");
        assert!(wrong.iter().any(|w| w.contains("sum")), "{wrong:?}");
        let short: Values = vec![(0, 1.0)];
        assert_eq!(check_values(Algo::PageRank, &short, &expected).len(), 1);
        let gap: Values = vec![(0, 0.25), (2, 0.75)];
        assert_eq!(check_values(Algo::PageRank, &gap, &expected).len(), 1);

        // SSSP: unreachable must stay unreachable, and nothing sums to one.
        let dist = [0.0, f64::INFINITY, 3.5];
        let same: Values = vec![(0, 0.0), (1, f64::INFINITY), (2, 3.5)];
        assert!(check_values(Algo::Sssp, &same, &dist).is_empty());
        let reached: Values = vec![(0, 0.0), (1, 9.0), (2, 3.5)];
        assert_eq!(check_values(Algo::Sssp, &reached, &dist).len(), 1);
    }

    #[test]
    fn counter_checks_hold_each_layer_to_its_workloads() {
        let spec = |name: &str| *find(name).unwrap();
        let pagerank = RunCounters { messages: 1000, ..RunCounters::default() };
        assert!(check_counters(&spec("vc.pagerank.lj"), &pagerank, 100).is_empty());
        assert_eq!(check_counters(&spec("vc.pagerank.lj"), &pagerank, 99).len(), 1);
        // SSSP has no fixed message count.
        assert!(check_counters(&spec("vc.sssp.lj"), &pagerank, 99).is_empty());

        let wrote = RunCounters { wal_bytes: 10, flush_bytes: 10, ..pagerank.clone() };
        assert_eq!(check_counters(&spec("vc.pagerank.lj"), &wrote, 100).len(), 1);
        assert!(check_counters(&spec("vc.pagerank.gplus.durable"), &wrote, 100).is_empty());
        assert_eq!(check_counters(&spec("vc.pagerank.gplus.durable"), &pagerank, 100).len(), 1);

        let evicted =
            RunCounters { evictions: 3, reloads: 2, peak_resident_bytes: 50, ..wrote.clone() };
        assert!(check_counters(&spec("vc.pagerank.gplus.oocore"), &evicted, 100).is_empty());
        assert_eq!(check_counters(&spec("vc.pagerank.gplus.oocore"), &wrote, 100).len(), 1);
        assert_eq!(check_counters(&spec("vc.pagerank.gplus.durable"), &evicted, 100).len(), 1);

        let routed = RunCounters { remote_messages: 5, routed_bytes: 80, ..pagerank.clone() };
        assert!(check_counters(&spec("vc.pagerank.gplus.shard2"), &routed, 100).is_empty());
        assert_eq!(check_counters(&spec("vc.pagerank.gplus.shard2"), &pagerank, 100).len(), 1);
        assert_eq!(check_counters(&spec("vc.pagerank.lj"), &routed, 100).len(), 1);
    }

    /// Every workload's code path — set-up, run, oracle check, traced run,
    /// probes — at a tenth of the scale, so an engine refactor that breaks
    /// one fails a test rather than the pipeline's benchmark step.
    #[test]
    fn smoke_all_workloads_both_modes() {
        let trace_out = host::scratch_root().join(format!("smoke-{}.jsonl", std::process::id()));
        std::fs::create_dir_all(host::scratch_root()).unwrap();
        let _ = std::fs::remove_file(&trace_out);
        // BENCHMARK.json is written by hand; hold its per-layer list to what
        // the traced run reports.
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let manifest = Json::parse(&std::fs::read_to_string(manifest).unwrap()).unwrap();
        let text = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap().to_string();
        let per_layer: Vec<(String, String)> = manifest
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect();
        for spec in &WORKLOADS {
            let mut params =
                Params { seed: 7, seconds: 0.0, trace: false, trace_out: None, smoke: true };
            let timed = measure(spec, &params).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(timed.failed, 0, "{}", spec.name);
            assert_eq!(timed.attempted, 2, "{}: warm-up + one timed run", spec.name);
            let names: Vec<&str> = timed.metrics.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, ["run_s", "setup_s", "peak_rss_mb"]);
            assert!(timed.metrics.iter().all(|(_, s)| s.median > 0.0), "{}", spec.name);

            params.trace = true;
            params.trace_out = Some(trace_out.clone());
            let traced = measure(spec, &params).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(traced.failed, 0, "{}", spec.name);
            assert_eq!(traced.attempted, 3, "{}: warm-up + timed + traced", spec.name);
            let got: Vec<(String, String)> =
                traced.metrics.iter().map(|(n, s)| (n.clone(), s.unit.clone())).collect();
            assert_eq!(got, per_layer, "{}: BENCHMARK.json lists other metrics", spec.name);

            // The phases and the residual add up to the run span.
            let get = |name: &str| {
                traced.metrics.iter().find(|(n, _)| n == name).map(|(_, s)| s.median).unwrap()
            };
            let accounted = get("assemble_s") + get("compute_s") + get("apply_s")
                - get("overlap_s")
                + get("residual_s");
            let run_span = get("residual_s") / get("residual_share");
            assert!((accounted - run_span).abs() < 1e-9, "{}: {accounted} {run_span}", spec.name);
        }
        let spans = std::fs::read_to_string(&trace_out).unwrap();
        std::fs::remove_file(&trace_out).unwrap();
        for spec in &WORKLOADS {
            let of_workload: Vec<_> = spans
                .lines()
                .map(|l| Json::parse(l).unwrap())
                .filter(|s| s.get("workload").and_then(|w| w.as_str()) == Some(spec.name))
                .collect();
            for name in ["workload", "gen", "setup", "load", "run", "residual", "verify", "probes"]
            {
                assert!(
                    of_workload
                        .iter()
                        .any(|s| s.get("name").and_then(|n| n.as_str()) == Some(name)),
                    "{}: no span '{name}'",
                    spec.name
                );
            }
        }
    }
}
