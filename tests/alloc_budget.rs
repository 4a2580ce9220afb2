//! Allocation budget of the superstep path: heap allocations per message
//! sent, counted by this binary's own global allocator.
//!
//! Wall clock is noise on shared runners; this count is not. A payload that
//! goes back to being one heap object per cell anywhere between the worker's
//! output and the next superstep's input shows up here as whole allocations
//! per message. Run with `-- --nocapture` to see the figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use vertexica::sql::Database;
use vertexica::{run_program, GraphSession, InputMode, VertexicaConfig};
use vertexica_algorithms::vc::PageRank;
use vertexica_graphgen::rmat::{rmat_graph, RmatConfig};

/// Counts `alloc` and `realloc` calls (every request that can hand back new
/// memory) from all threads while `COUNTING` is set.
struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const SUPERSTEPS: u64 = 5;

/// Runs PageRank for [`SUPERSTEPS`] supersteps on a fixed R-MAT graph and
/// returns `(allocations during run_program, messages sent)`.
fn allocations_and_messages(pool_budget: Option<usize>) -> (u64, u64) {
    let graph =
        rmat_graph(&RmatConfig { scale: 12, num_edges: 48 * 1024, seed: 7, ..Default::default() });
    let session = GraphSession::create(Arc::new(Database::new()), "g").unwrap();
    session.load_edges(&graph).unwrap();
    // Whether edges come from the projection or from streamed edge rows is
    // decided by the pool's budget, which `with_memory_budget(None)` alone
    // does not clear.
    session.db().catalog().buffer_pool().set_budget(pool_budget);
    let config = VertexicaConfig::default()
        .with_workers(2)
        .with_partitions(8)
        .with_input_mode(InputMode::TableUnion)
        .with_combiner(false)
        .with_memory_budget(pool_budget);
    let program = Arc::new(PageRank::new(SUPERSTEPS - 1, 0.85));

    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let stats = run_program(&session, program, &config);
    COUNTING.store(false, Ordering::SeqCst);
    let stats = stats.unwrap();

    assert_eq!(stats.supersteps, SUPERSTEPS);
    assert_eq!(stats.total_messages, graph.edges.len() as u64 * (SUPERSTEPS - 1));
    assert_eq!(stats.projection_bytes > 0, pool_budget.is_none());
    (ALLOCATIONS.load(Ordering::SeqCst), stats.total_messages)
}

/// One test, two cases in sequence: the counter is process-wide, so the
/// cases must not run on parallel test threads.
#[test]
fn allocations_per_message_stay_within_budget() {
    for (what, pool_budget, limit) in
        [("edge projection", None, 1.0), ("edge rows (budgeted pool)", Some(1usize << 40), 2.0)]
    {
        let (allocations, messages) = allocations_and_messages(pool_budget);
        let per_message = allocations as f64 / messages as f64;
        println!(
            "alloc_budget[{what}]: {allocations} allocations / {messages} messages = \
             {per_message:.3} per message (limit {limit})"
        );
        assert!(
            per_message <= limit,
            "{what}: {per_message:.3} allocations per message sent exceeds {limit}"
        );
    }
}
