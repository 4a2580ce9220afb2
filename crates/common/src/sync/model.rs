//! Bounded-interleaving model checker behind the [`crate::sync`] seam.
//!
//! The checker runs a scenario closure many times, each time forcing a
//! different interleaving of its logical threads. Threads are real OS threads
//! serialized cooperatively: exactly one thread (the *current* one) executes
//! at any instant, and every instrumented sync operation (lock, unlock,
//! atomic access, condvar wait/notify, spawn/join, fence) is a *schedule
//! point* where the scheduler may switch threads. Interleavings are explored
//! by depth-first search over the per-decision candidate ranks, bounded by a
//! preemption budget (CHESS-style): a schedule may switch away from a
//! runnable thread at most [`Config::max_preemptions`] times, which keeps the
//! space small while still covering the bug-dense low-preemption schedules.
//!
//! Determinism: candidate order at each decision is derived from
//! [`Config::seed`], the decision depth, and the thread ids — never from
//! wall-clock time or addresses — so the same seed always explores the same
//! schedules in the same order, and a failing schedule replays exactly.
//!
//! On a violation (panic in the scenario, deadlock, or step-budget livelock)
//! the checker *shrinks* the failing decision path by repeatedly zeroing the
//! deepest-possible nonzero rank and re-running, converging to a minimal
//! preemption schedule that still fails; the result is reported as a
//! [`Violation`] with the full [`ScheduleStep`] trace.
//!
//! Timed condvar waits are modeled with *quiescence timeouts*: a timed waiter
//! can only be woken by timeout when no other thread is runnable, and each
//! thread has a bounded budget of such wakes. This models "the timeout
//! eventually fires" without exploding the schedule space, while still
//! turning an un-signalled infinite poll loop into a detected deadlock once
//! the budget is spent.
//!
//! Memory-model caveat: the checker serializes every instrumented operation,
//! so it explores sequentially-consistent interleavings only; weak-memory
//! reorderings are out of scope.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar as OsCondvar, Mutex as OsMutex, MutexGuard as OsMutexGuard, Once};
use std::thread;

use crate::hash::splitmix64;

/// Budget and determinism knobs for one [`check`] run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed for the deterministic candidate ordering at each decision point.
    pub seed: u64,
    /// Maximum number of preemptive context switches per schedule
    /// (switching away from a thread that could have continued).
    pub max_preemptions: usize,
    /// Hard cap on the number of schedules explored before giving up on
    /// exhausting the space ([`Stats::exhausted`] stays `false` if hit).
    pub max_schedules: u64,
    /// Per-schedule step budget; exceeding it is reported as a livelock.
    pub max_steps: usize,
    /// Per-thread budget of timeout wakes for timed condvar waits.
    pub timeout_wakes: usize,
    /// Name of the seeded bug to enable via [`mutation_enabled`] during this
    /// check, for mutation-proving that the model actually detects the bug.
    pub mutation: Option<&'static str>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 0x5EED_CAFE,
            max_preemptions: 3,
            max_schedules: 50_000,
            max_steps: 20_000,
            timeout_wakes: 8,
            mutation: None,
        }
    }
}

/// What went wrong in a failing schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// No thread was runnable and no timed wait could fire, but threads were
    /// still alive.
    Deadlock,
    /// The per-schedule step budget was exhausted (unbounded spin).
    Livelock,
    /// A logical thread panicked (failed assertion or library panic).
    Panic,
}

/// One scheduling decision in a failing schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleStep {
    /// Decision index within the schedule (branching decisions only).
    pub index: usize,
    /// Logical thread id that was chosen to run.
    pub thread: usize,
    /// The seam operation at which the decision was taken.
    pub op: &'static str,
    /// Whether this decision preempted a thread that could have continued.
    pub preemptive: bool,
}

/// A minimal failing schedule, produced by shrinking the first failure found.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Failure class.
    pub kind: ViolationKind,
    /// Human-readable description (panic message or stuck-thread dump).
    pub message: String,
    /// The shrunk decision trace that reproduces the failure.
    pub schedule: Vec<ScheduleStep>,
    /// Number of preemptive switches in the shrunk schedule.
    pub preemptions: usize,
    /// Schedules explored before the first failure was found.
    pub schedules_explored: u64,
    /// Seed the exploration ran with (for replay).
    pub seed: u64,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:?} after {} schedules (seed {:#x}, {} preemptions): {}",
            self.kind, self.schedules_explored, self.seed, self.preemptions, self.message
        )?;
        for s in &self.schedule {
            writeln!(
                f,
                "  #{:<3} thread {} at {}{}",
                s.index,
                s.thread,
                s.op,
                if s.preemptive { "  [preempt]" } else { "" }
            )?;
        }
        Ok(())
    }
}

/// Exploration statistics for a clean (violation-free) check.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Total schedules executed.
    pub schedules: u64,
    /// Deepest branching-decision count seen in any schedule.
    pub max_decision_depth: usize,
    /// Largest per-schedule step count seen.
    pub max_steps_seen: usize,
    /// The preemption bound the exploration ran with.
    pub preemption_bound: usize,
    /// `true` if the bounded schedule space was fully exhausted (as opposed
    /// to stopping at [`Config::max_schedules`]).
    pub exhausted: bool,
    /// Distinct seam operation names intercepted during exploration.
    pub ops: BTreeSet<&'static str>,
}

#[derive(Debug, Clone, Copy)]
struct Decision {
    rank: usize,
    n: usize,
    chosen: usize,
    op: &'static str,
    preemptive: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    BlockedMutex(usize),
    BlockedRead(usize),
    BlockedWrite(usize),
    CondWait { cv: usize, timed: bool },
    BlockedJoin(usize),
    Finished,
}

#[derive(Debug)]
struct ThreadState {
    status: Status,
    depri: bool,
    timed_out: bool,
    timeout_budget: usize,
}

#[derive(Debug, Default)]
struct RwState {
    writer: Option<usize>,
    readers: usize,
}

struct ExecInner {
    seed: u64,
    max_preemptions: usize,
    max_steps: usize,
    timeout_wakes: usize,
    threads: Vec<ThreadState>,
    current: usize,
    live: usize,
    steps: usize,
    preemptions: usize,
    path: Vec<Decision>,
    cursor: usize,
    mutexes: HashMap<usize, usize>,
    rws: HashMap<usize, RwState>,
    aborted: bool,
    done: bool,
    violation: Option<(ViolationKind, String)>,
    ops: BTreeSet<&'static str>,
    handles: Vec<thread::JoinHandle<()>>,
}

struct Execution {
    inner: OsMutex<ExecInner>,
    cv: OsCondvar,
}

/// Panic payload used to unwind logical threads when an execution aborts.
struct AbortToken;

thread_local! {
    static CTX: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
}

fn ctx() -> Option<(Arc<Execution>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

/// Returns `true` when the calling thread is a logical thread inside an
/// active model execution (so seam primitives should be intercepted).
pub fn in_model() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

fn lock_inner(m: &OsMutex<ExecInner>) -> OsMutexGuard<'_, ExecInner> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Execution {
    fn lock(&self) -> OsMutexGuard<'_, ExecInner> {
        lock_inner(&self.inner)
    }

    /// Records an op + step at a schedule point; aborts via `AbortToken` if
    /// the execution is already tearing down or the step budget is spent.
    fn enter(&self, op: &'static str) -> OsMutexGuard<'_, ExecInner> {
        let mut g = self.lock();
        if g.aborted {
            drop(g);
            panic::panic_any(AbortToken);
        }
        g.ops.insert(op);
        g.steps += 1;
        if g.steps > g.max_steps {
            let msg = format!("step budget {} exhausted at {op}", g.max_steps);
            self.raise(&mut g, ViolationKind::Livelock, msg);
            drop(g);
            panic::panic_any(AbortToken);
        }
        g
    }

    fn raise(&self, g: &mut ExecInner, kind: ViolationKind, msg: String) {
        if g.violation.is_none() {
            g.violation = Some((kind, msg));
        }
        g.aborted = true;
        self.cv.notify_all();
    }

    /// Picks the next thread to run. `tid` must be the current thread.
    /// `voluntary` marks a `yield_now`, whose switch-away is not a preemption.
    fn reschedule(&self, g: &mut ExecInner, tid: usize, op: &'static str, voluntary: bool) {
        debug_assert_eq!(g.current, tid, "only the current thread may reschedule");
        let runnable = |t: &ThreadState| t.status == Status::Runnable;
        let mut cands: Vec<usize> = (0..g.threads.len())
            .filter(|&t| runnable(&g.threads[t]) && !g.threads[t].depri)
            .collect();
        if cands.is_empty() {
            cands = (0..g.threads.len()).filter(|&t| runnable(&g.threads[t])).collect();
            for &t in &cands {
                g.threads[t].depri = false;
            }
        }
        let mut timeout_pick = false;
        if cands.is_empty() {
            // Quiescent: only timed condvar waiters (with budget left) can go.
            cands = (0..g.threads.len())
                .filter(|&t| {
                    matches!(g.threads[t].status, Status::CondWait { timed: true, .. })
                        && g.threads[t].timeout_budget > 0
                })
                .collect();
            timeout_pick = true;
            if cands.is_empty() {
                if g.live == 0 {
                    g.done = true;
                    self.cv.notify_all();
                    return;
                }
                let msg = describe_stuck(g);
                self.raise(g, ViolationKind::Deadlock, msg);
                return;
            }
        }
        let self_runnable = !timeout_pick && cands.contains(&tid);
        let order: Vec<usize> = if self_runnable && g.preemptions >= g.max_preemptions {
            vec![tid]
        } else {
            let depth = g.cursor;
            let seed = g.seed;
            // Exclude tid only when it is being prepended as the rank-0
            // "continue current" choice; a blocked tid that re-entered the
            // candidate set as a timed-out waiter must stay eligible.
            let mut rest: Vec<usize> =
                cands.iter().copied().filter(|&t| !(self_runnable && t == tid)).collect();
            rest.sort_by_key(|&t| (rank_key(seed, depth, t), t));
            if self_runnable {
                let mut o = vec![tid];
                o.extend(rest);
                o
            } else {
                rest
            }
        };
        let n = order.len();
        let chosen = if n == 1 {
            order[0]
        } else {
            let rank = if g.cursor < g.path.len() { g.path[g.cursor].rank.min(n - 1) } else { 0 };
            let chosen = order[rank];
            let preemptive = self_runnable && !voluntary && chosen != tid;
            if g.cursor < g.path.len() {
                let d = &mut g.path[g.cursor];
                d.rank = rank;
                d.n = n;
                d.chosen = chosen;
                d.op = op;
                d.preemptive = preemptive;
            } else {
                g.path.push(Decision { rank, n, chosen, op, preemptive });
            }
            g.cursor += 1;
            if preemptive {
                g.preemptions += 1;
            }
            chosen
        };
        if timeout_pick {
            let t = &mut g.threads[chosen];
            t.status = Status::Runnable;
            t.timed_out = true;
            t.timeout_budget -= 1;
        }
        for t in 0..g.threads.len() {
            if t != chosen {
                g.threads[t].depri = false;
            }
        }
        g.current = chosen;
        if chosen != tid {
            self.cv.notify_all();
        }
    }

    /// Blocks until `tid` is the current runnable thread (or aborts).
    fn wait_turn<'a>(
        &'a self,
        mut g: OsMutexGuard<'a, ExecInner>,
        tid: usize,
    ) -> OsMutexGuard<'a, ExecInner> {
        loop {
            if g.aborted {
                drop(g);
                panic::panic_any(AbortToken);
            }
            if g.current == tid && g.threads[tid].status == Status::Runnable {
                return g;
            }
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// A plain schedule point (atomic op, fence, event).
    fn op(&self, tid: usize, name: &'static str) {
        let mut g = self.enter(name);
        self.reschedule(&mut g, tid, name, false);
        let _g = self.wait_turn(g, tid);
    }

    fn yield_op(&self, tid: usize) {
        let mut g = self.enter("thread.yield");
        g.threads[tid].depri = true;
        self.reschedule(&mut g, tid, "thread.yield", true);
        let _g = self.wait_turn(g, tid);
    }

    fn mutex_lock(&self, tid: usize, id: usize) {
        let mut g = self.enter("mutex.lock");
        self.reschedule(&mut g, tid, "mutex.lock", false);
        g = self.wait_turn(g, tid);
        loop {
            if let std::collections::hash_map::Entry::Vacant(e) = g.mutexes.entry(id) {
                e.insert(tid);
                return;
            }
            g.threads[tid].status = Status::BlockedMutex(id);
            self.reschedule(&mut g, tid, "mutex.blocked", false);
            g = self.wait_turn(g, tid);
        }
    }

    fn mutex_try_lock(&self, tid: usize, id: usize) -> bool {
        let mut g = self.enter("mutex.try_lock");
        self.reschedule(&mut g, tid, "mutex.try_lock", false);
        g = self.wait_turn(g, tid);
        if let std::collections::hash_map::Entry::Vacant(e) = g.mutexes.entry(id) {
            e.insert(tid);
            true
        } else {
            false
        }
    }

    fn wake_mutex_waiters(g: &mut ExecInner, id: usize) {
        for t in 0..g.threads.len() {
            if g.threads[t].status == Status::BlockedMutex(id) {
                g.threads[t].status = Status::Runnable;
            }
        }
    }

    fn mutex_unlock(&self, tid: usize, id: usize) {
        let mut g = self.enter("mutex.unlock");
        debug_assert_eq!(g.mutexes.get(&id), Some(&tid), "unlock by non-owner");
        g.mutexes.remove(&id);
        Self::wake_mutex_waiters(&mut g, id);
        self.reschedule(&mut g, tid, "mutex.unlock", false);
        let _g = self.wait_turn(g, tid);
    }

    fn rw_read(&self, tid: usize, id: usize) {
        let mut g = self.enter("rw.read");
        self.reschedule(&mut g, tid, "rw.read", false);
        g = self.wait_turn(g, tid);
        loop {
            let st = g.rws.entry(id).or_default();
            if st.writer.is_none() {
                st.readers += 1;
                return;
            }
            g.threads[tid].status = Status::BlockedRead(id);
            self.reschedule(&mut g, tid, "rw.read_blocked", false);
            g = self.wait_turn(g, tid);
        }
    }

    fn rw_write(&self, tid: usize, id: usize) {
        let mut g = self.enter("rw.write");
        self.reschedule(&mut g, tid, "rw.write", false);
        g = self.wait_turn(g, tid);
        loop {
            let st = g.rws.entry(id).or_default();
            if st.writer.is_none() && st.readers == 0 {
                st.writer = Some(tid);
                return;
            }
            g.threads[tid].status = Status::BlockedWrite(id);
            self.reschedule(&mut g, tid, "rw.write_blocked", false);
            g = self.wait_turn(g, tid);
        }
    }

    fn wake_rw_waiters(g: &mut ExecInner, id: usize, writers_only: bool) {
        for t in 0..g.threads.len() {
            let wake = match g.threads[t].status {
                Status::BlockedWrite(b) => b == id,
                Status::BlockedRead(b) => !writers_only && b == id,
                _ => false,
            };
            if wake {
                g.threads[t].status = Status::Runnable;
            }
        }
    }

    fn rw_unlock_read(&self, tid: usize, id: usize) {
        let mut g = self.enter("rw.read_unlock");
        let st = g.rws.entry(id).or_default();
        debug_assert!(st.readers > 0, "read-unlock with no readers");
        st.readers -= 1;
        if st.readers == 0 {
            Self::wake_rw_waiters(&mut g, id, true);
        }
        self.reschedule(&mut g, tid, "rw.read_unlock", false);
        let _g = self.wait_turn(g, tid);
    }

    fn rw_unlock_write(&self, tid: usize, id: usize) {
        let mut g = self.enter("rw.write_unlock");
        let st = g.rws.entry(id).or_default();
        debug_assert_eq!(st.writer, Some(tid), "write-unlock by non-writer");
        st.writer = None;
        Self::wake_rw_waiters(&mut g, id, false);
        self.reschedule(&mut g, tid, "rw.write_unlock", false);
        let _g = self.wait_turn(g, tid);
    }

    /// Atomically releases `mutex_id` and waits on `cv_id`; returns whether
    /// the wake was a (modeled) timeout. Reacquires the mutex before return.
    fn cond_wait(&self, tid: usize, cv_id: usize, mutex_id: usize, timed: bool) -> bool {
        let mut g = self.enter("cond.wait");
        debug_assert_eq!(g.mutexes.get(&mutex_id), Some(&tid), "cond.wait without the lock");
        g.mutexes.remove(&mutex_id);
        Self::wake_mutex_waiters(&mut g, mutex_id);
        g.threads[tid].status = Status::CondWait { cv: cv_id, timed };
        g.threads[tid].timed_out = false;
        self.reschedule(&mut g, tid, "cond.wait", false);
        g = self.wait_turn(g, tid);
        let timed_out = g.threads[tid].timed_out;
        loop {
            if let std::collections::hash_map::Entry::Vacant(e) = g.mutexes.entry(mutex_id) {
                e.insert(tid);
                return timed_out;
            }
            g.threads[tid].status = Status::BlockedMutex(mutex_id);
            self.reschedule(&mut g, tid, "mutex.blocked", false);
            g = self.wait_turn(g, tid);
        }
    }

    fn cond_notify(&self, tid: usize, cv_id: usize, all: bool) {
        let name = if all { "cond.notify_all" } else { "cond.notify_one" };
        let mut g = self.enter(name);
        let waiters: Vec<usize> = (0..g.threads.len())
            .filter(|&t| matches!(g.threads[t].status, Status::CondWait { cv, .. } if cv == cv_id))
            .collect();
        let to_wake: &[usize] = if all { &waiters } else { &waiters[..waiters.len().min(1)] };
        for &t in to_wake {
            g.threads[t].status = Status::Runnable;
            g.threads[t].timed_out = false;
        }
        self.reschedule(&mut g, tid, name, false);
        let _g = self.wait_turn(g, tid);
    }

    fn finish_thread(&self, tid: usize, payload: Option<Box<dyn Any + Send>>) {
        let mut g = self.lock();
        for t in 0..g.threads.len() {
            if g.threads[t].status == Status::BlockedJoin(tid) {
                g.threads[t].status = Status::Runnable;
            }
        }
        g.threads[tid].status = Status::Finished;
        g.live -= 1;
        if let Some(p) = payload {
            if !p.is::<AbortToken>() {
                let msg = payload_msg(p.as_ref());
                self.raise(&mut g, ViolationKind::Panic, msg);
            }
        }
        if g.live == 0 {
            g.done = true;
            self.cv.notify_all();
            return;
        }
        if g.aborted {
            self.cv.notify_all();
            return;
        }
        if g.current == tid {
            self.reschedule(&mut g, tid, "thread.exit", false);
        }
    }
}

fn rank_key(seed: u64, depth: usize, tid: usize) -> u64 {
    let mut s = seed
        ^ (depth as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (((tid as u64) << 32) | tid as u64);
    splitmix64(&mut s)
}

fn describe_stuck(g: &ExecInner) -> String {
    let mut msg = String::from("deadlock: no runnable thread and no timed wait can fire; ");
    for (t, st) in g.threads.iter().enumerate() {
        if st.status != Status::Finished {
            msg.push_str(&format!(
                "t{} {:?} (timeouts left {}); ",
                t, st.status, st.timeout_budget
            ));
        }
    }
    msg
}

fn payload_msg(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

// ---------------------------------------------------------------------------
// Seam entry points (called from `sync::instrumented`). Each is a no-op when
// the calling thread is not a logical thread of an active execution, or when
// it is already unwinding (teardown must not re-enter the scheduler).
// ---------------------------------------------------------------------------

macro_rules! seam_hook {
    ($(#[$doc:meta])* $name:ident ( $($arg:ident : $ty:ty),* ) => $method:ident) => {
        $(#[$doc])*
        pub(crate) fn $name($($arg: $ty),*) {
            if thread::panicking() {
                return;
            }
            if let Some((e, tid)) = ctx() {
                e.$method(tid $(, $arg)*);
            }
        }
    };
}

seam_hook!(
    /// Plain schedule point for atomics, fences, and named events.
    on_op(name: &'static str) => op
);
seam_hook!(
    /// Model-level mutex acquire (blocks until granted).
    on_mutex_lock(id: usize) => mutex_lock
);
seam_hook!(
    /// Model-level mutex release.
    on_mutex_unlock(id: usize) => mutex_unlock
);
seam_hook!(
    /// Model-level shared (read) acquire.
    on_rw_read(id: usize) => rw_read
);
seam_hook!(
    /// Model-level exclusive (write) acquire.
    on_rw_write(id: usize) => rw_write
);
seam_hook!(
    /// Model-level shared release.
    on_rw_unlock_read(id: usize) => rw_unlock_read
);
seam_hook!(
    /// Model-level exclusive release.
    on_rw_unlock_write(id: usize) => rw_unlock_write
);

/// Model-level `try_lock`; `None` means "not intercepted" (caller should hit
/// the real primitive), `Some(granted)` is the model's verdict.
pub(crate) fn on_mutex_try_lock(id: usize) -> Option<bool> {
    if thread::panicking() {
        return None;
    }
    ctx().map(|(e, tid)| e.mutex_try_lock(tid, id))
}

/// Model-level condvar wait; `None` means "not intercepted".
/// `Some(timed_out)` reports whether the wake was a modeled timeout.
pub(crate) fn on_cond_wait(cv_id: usize, mutex_id: usize, timed: bool) -> Option<bool> {
    if thread::panicking() {
        return None;
    }
    ctx().map(|(e, tid)| e.cond_wait(tid, cv_id, mutex_id, timed))
}

seam_hook!(
    /// Model-level condvar notify (one or all).
    on_cond_notify(cv_id: usize, all: bool) => cond_notify
);

/// Cooperative yield: deprioritizes the caller for one decision so spin
/// loops make progress for their peers instead of burning the step budget.
pub fn yield_now() {
    if thread::panicking() {
        return;
    }
    if let Some((e, tid)) = ctx() {
        e.yield_op(tid);
    } else {
        thread::yield_now();
    }
}

/// Handle to a logical thread spawned with [`spawn`].
pub struct JoinHandle<T> {
    tid: usize,
    slot: Arc<OsMutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// Blocks (in the model) until the thread finishes and returns its value.
    pub fn join(self) -> T {
        let (exec, me) = ctx().expect("model::JoinHandle::join outside a model execution");
        let mut g = exec.enter("thread.join");
        loop {
            if g.threads[self.tid].status == Status::Finished {
                break;
            }
            g.threads[me].status = Status::BlockedJoin(self.tid);
            exec.reschedule(&mut g, me, "thread.join", false);
            g = exec.wait_turn(g, me);
        }
        drop(g);
        let v = self.slot.lock().unwrap_or_else(|e| e.into_inner()).take();
        match v {
            Some(v) => v,
            // The child died during an abort; propagate the teardown.
            None => panic::panic_any(AbortToken),
        }
    }
}

/// Spawns a logical thread inside the current model execution.
///
/// Must be called from inside a [`check`] scenario (or a thread it spawned).
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let (exec, parent) = ctx().expect("model::spawn outside a model execution");
    let slot: Arc<OsMutex<Option<T>>> = Arc::new(OsMutex::new(None));
    let mut g = exec.enter("thread.spawn");
    let child = g.threads.len();
    let budget = g.timeout_wakes;
    g.threads.push(ThreadState {
        status: Status::Runnable,
        depri: false,
        timed_out: false,
        timeout_budget: budget,
    });
    g.live += 1;
    let exec2 = Arc::clone(&exec);
    let slot2 = Arc::clone(&slot);
    let h = thread::Builder::new()
        .name(format!("vx-model-{child}"))
        .spawn(move || {
            CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec2), child)));
            let r = panic::catch_unwind(AssertUnwindSafe(|| {
                let g = exec2.lock();
                drop(exec2.wait_turn(g, child));
                f()
            }));
            CTX.with(|c| *c.borrow_mut() = None);
            match r {
                Ok(v) => {
                    *slot2.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
                    exec2.finish_thread(child, None);
                }
                Err(p) => exec2.finish_thread(child, Some(p)),
            }
        })
        .expect("failed to spawn model thread");
    g.handles.push(h);
    exec.reschedule(&mut g, parent, "thread.spawn", false);
    drop(exec.wait_turn(g, parent));
    JoinHandle { tid: child, slot }
}

// ---------------------------------------------------------------------------
// Mutation registry: checks enable one named seeded bug; production code
// consults `mutation_enabled` at the guarded site. In normal builds this is
// a const `false` so the guard folds away.
// ---------------------------------------------------------------------------

static MUTATION: OsMutex<Option<&'static str>> = OsMutex::new(None);

/// Whether the named seeded bug is active for the current model check.
#[cfg(vertexica_model)]
pub fn mutation_enabled(name: &str) -> bool {
    MUTATION.lock().unwrap_or_else(|e| e.into_inner()).is_some_and(|m| m == name)
}

/// Whether the named seeded bug is active. Always `false` outside model
/// builds, so guarded re-checks compile to their unconditional form.
#[cfg(not(vertexica_model))]
#[inline(always)]
pub fn mutation_enabled(_name: &str) -> bool {
    false
}

// ---------------------------------------------------------------------------
// Exploration driver.
// ---------------------------------------------------------------------------

static RUN_LOCK: OsMutex<()> = OsMutex::new(());
static QUIET_HOOK: Once = Once::new();

/// Silences panic output from logical model threads (expected during
/// exploration and abort teardown) while leaving all other threads' panics
/// on the default hook. Installed once per process.
fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !in_model() {
                prev(info);
            }
        }));
    });
}

struct RunReport {
    violation: Option<(ViolationKind, String)>,
    path: Vec<Decision>,
    preemptions: usize,
    steps: usize,
    ops: BTreeSet<&'static str>,
}

fn run_one<F: Fn()>(cfg: &Config, path: Vec<Decision>, scenario: &F) -> RunReport {
    let exec = Arc::new(Execution {
        inner: OsMutex::new(ExecInner {
            seed: cfg.seed,
            max_preemptions: cfg.max_preemptions,
            max_steps: cfg.max_steps,
            timeout_wakes: cfg.timeout_wakes,
            threads: vec![ThreadState {
                status: Status::Runnable,
                depri: false,
                timed_out: false,
                timeout_budget: cfg.timeout_wakes,
            }],
            current: 0,
            live: 1,
            steps: 0,
            preemptions: 0,
            path,
            cursor: 0,
            mutexes: HashMap::new(),
            rws: HashMap::new(),
            aborted: false,
            done: false,
            violation: None,
            ops: BTreeSet::new(),
            handles: Vec::new(),
        }),
        cv: OsCondvar::new(),
    });
    CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec), 0)));
    let r = panic::catch_unwind(AssertUnwindSafe(scenario));
    CTX.with(|c| *c.borrow_mut() = None);
    exec.finish_thread(0, r.err());
    {
        let mut g = exec.lock();
        while !g.done {
            g = exec.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
    let handles: Vec<_> = exec.lock().handles.drain(..).collect();
    for h in handles {
        let _ = h.join();
    }
    let inner = Arc::try_unwrap(exec)
        .unwrap_or_else(|_| panic!("model threads still hold the execution"))
        .inner
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    RunReport {
        violation: inner.violation,
        path: inner.path,
        preemptions: inner.preemptions,
        steps: inner.steps,
        ops: inner.ops,
    }
}

/// Advances the decision path to the next schedule in DFS order.
/// Returns `false` when the bounded space is exhausted.
fn advance(path: &mut Vec<Decision>) -> bool {
    while let Some(d) = path.last() {
        if d.rank + 1 < d.n {
            path.last_mut().expect("nonempty").rank += 1;
            return true;
        }
        path.pop();
    }
    false
}

/// Shrinks a failing path by zeroing nonzero ranks (earliest first) and
/// truncating the suffix, keeping any change that still fails. The default
/// rank-0 extension prefers staying on the current thread, so the fixpoint
/// is a minimal-preemption reproduction.
fn shrink<F: Fn()>(cfg: &Config, scenario: &F, first: RunReport) -> RunReport {
    let mut best = first;
    let mut trials = 0usize;
    loop {
        let mut improved = false;
        for i in 0..best.path.len() {
            if best.path[i].rank == 0 {
                continue;
            }
            let mut trial: Vec<Decision> = best.path[..=i].to_vec();
            trial[i].rank = 0;
            trials += 1;
            if trials > 512 {
                return best;
            }
            let rep = run_one(cfg, trial, scenario);
            if rep.violation.is_some() {
                best = rep;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Explores the scenario's bounded interleaving space.
///
/// Returns [`Stats`] if every explored schedule ran to completion with no
/// deadlock, livelock, or panic; otherwise returns the shrunk [`Violation`].
/// Checks are serialized process-wide (one exploration at a time) so the
/// mutation registry and scheduler state never interleave between tests.
pub fn check<F: Fn()>(cfg: &Config, scenario: F) -> Result<Stats, Box<Violation>> {
    let _run = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    install_quiet_hook();
    *MUTATION.lock().unwrap_or_else(|e| e.into_inner()) = cfg.mutation;
    let mut stats = Stats { preemption_bound: cfg.max_preemptions, ..Stats::default() };
    let mut path: Vec<Decision> = Vec::new();
    let mut failure: Option<Box<Violation>> = None;
    loop {
        let rep = run_one(cfg, std::mem::take(&mut path), &scenario);
        stats.schedules += 1;
        stats.max_decision_depth = stats.max_decision_depth.max(rep.path.len());
        stats.max_steps_seen = stats.max_steps_seen.max(rep.steps);
        stats.ops.extend(rep.ops.iter().copied());
        if rep.violation.is_some() {
            let best = shrink(cfg, &scenario, rep);
            let (kind, message) = best.violation.clone().expect("shrink keeps a violation");
            failure = Some(Box::new(Violation {
                kind,
                message,
                schedule: best
                    .path
                    .iter()
                    .enumerate()
                    .map(|(index, d)| ScheduleStep {
                        index,
                        thread: d.chosen,
                        op: d.op,
                        preemptive: d.preemptive,
                    })
                    .collect(),
                preemptions: best.preemptions,
                schedules_explored: stats.schedules,
                seed: cfg.seed,
            }));
            break;
        }
        path = rep.path;
        if !advance(&mut path) {
            stats.exhausted = true;
            break;
        }
        if stats.schedules >= cfg.max_schedules {
            break;
        }
    }
    *MUTATION.lock().unwrap_or_else(|e| e.into_inner()) = None;
    match failure {
        Some(v) => Err(v),
        None => Ok(stats),
    }
}

#[cfg(test)]
mod tests {
    //! Toy-model tests for the checker itself. These use the instrumented
    //! primitives directly (not the cfg-switched façade) so they run — and
    //! keep the executor honest — in ordinary tier-1 builds too.

    use super::super::instrumented::{AtomicBool, AtomicUsize, Condvar, Mutex};
    use super::*;
    use std::sync::atomic::Ordering as O;
    use std::sync::Arc;

    fn cfg(max_preemptions: usize, max_steps: usize) -> Config {
        Config { max_preemptions, max_steps, max_schedules: 20_000, ..Config::default() }
    }

    /// Two lock-protected increments: every schedule must see the final
    /// count, and the bounded space must exhaust cleanly.
    #[test]
    fn clean_locked_counter_exhausts() {
        let stats = check(&cfg(2, 2_000), || {
            let n = Arc::new(Mutex::new(0u64));
            let ts: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    spawn(move || *n.lock() += 1)
                })
                .collect();
            for t in ts {
                t.join();
            }
            assert_eq!(*n.lock(), 2);
        })
        .expect("clean protocol must verify");
        assert!(stats.exhausted, "space should exhaust: {stats:?}");
        assert!(stats.schedules > 1, "must explore more than one schedule");
        assert!(stats.ops.contains("mutex.lock") && stats.ops.contains("mutex.unlock"));
    }

    fn racy_increment_scenario() {
        let n = Arc::new(AtomicUsize::new(0));
        let ts: Vec<_> = (0..2)
            .map(|_| {
                let n = Arc::clone(&n);
                spawn(move || {
                    // Deliberate non-atomic read-modify-write.
                    let v = n.load(O::SeqCst);
                    n.store(v + 1, O::SeqCst);
                })
            })
            .collect();
        for t in ts {
            t.join();
        }
        assert_eq!(n.load(O::SeqCst), 2, "lost update");
    }

    /// The seeded-bad-interleaving satellite: a two-thread lost update needs
    /// exactly one preemption; the checker must find it, shrink to that
    /// minimal schedule, and do so deterministically (same seed → same
    /// minimal schedule).
    #[test]
    fn racy_counter_shrinks_to_minimal_schedule() {
        let c = cfg(3, 2_000);
        let v1 = check(&c, racy_increment_scenario).expect_err("lost update must be found");
        assert_eq!(v1.kind, ViolationKind::Panic);
        assert!(v1.message.contains("lost update"), "unexpected message: {}", v1.message);
        assert_eq!(v1.preemptions, 1, "minimal schedule needs exactly one preemption:\n{v1}");
        let v2 = check(&c, racy_increment_scenario).expect_err("same seed must refail");
        assert_eq!(v1.schedule, v2.schedule, "shrunk schedule must be deterministic");
        assert_eq!(v1.schedules_explored, v2.schedules_explored);
    }

    /// Classic AB/BA lock-order inversion must be reported as a deadlock.
    #[test]
    fn lock_order_inversion_deadlocks() {
        let v = check(&cfg(2, 2_000), || {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t1 = spawn(move || {
                let _ga = a2.lock();
                let _gb = b2.lock();
            });
            let (a3, b3) = (Arc::clone(&a), Arc::clone(&b));
            let t2 = spawn(move || {
                let _gb = b3.lock();
                let _ga = a3.lock();
            });
            t1.join();
            t2.join();
        })
        .expect_err("AB/BA must deadlock under some schedule");
        assert_eq!(v.kind, ViolationKind::Deadlock);
        assert!(v.message.contains("deadlock"), "message: {}", v.message);
    }

    /// A spin loop that can never make progress must trip the step budget.
    #[test]
    fn unserviceable_spin_is_livelock() {
        let v = check(&cfg(1, 200), || {
            let flag = Arc::new(AtomicBool::new(false));
            let f2 = Arc::clone(&flag);
            let t = spawn(move || {
                while !f2.load(O::SeqCst) {
                    yield_now();
                }
            });
            t.join();
        })
        .expect_err("spin on a never-set flag must be flagged");
        assert_eq!(v.kind, ViolationKind::Livelock);
    }

    /// Timed condvar waits fire at quiescence: a waiter whose notify never
    /// comes still completes via its modeled timeout.
    #[test]
    fn timed_wait_times_out_at_quiescence() {
        let stats = check(&cfg(2, 2_000), || {
            let m = Arc::new(Mutex::new(()));
            let cv = Arc::new(Condvar::new());
            let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
            let t = spawn(move || {
                let g = m2.lock();
                let (_g, timed_out) = cv2.wait_timeout(g, std::time::Duration::from_millis(50));
                assert!(timed_out, "no notifier exists; wake must be a timeout");
            });
            t.join();
        })
        .expect("timed wait must not deadlock");
        assert!(stats.exhausted);
        assert!(stats.ops.contains("cond.wait"));
    }

    /// A proper flag+condvar handshake (untimed) verifies cleanly and the
    /// executor intercepts the wait/notify pair.
    #[test]
    fn condvar_handshake_is_clean() {
        let stats = check(&cfg(2, 2_000), || {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let p2 = Arc::clone(&pair);
            let waiter = spawn(move || {
                let (m, cv) = &*p2;
                let mut g = m.lock();
                while !*g {
                    g = cv.wait(g);
                }
            });
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
            waiter.join();
        })
        .expect("handshake must verify");
        assert!(stats.exhausted);
        assert!(stats.ops.contains("cond.notify_all"));
    }
}
