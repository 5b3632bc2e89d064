//! Allocation audit: the steady-state transaction path performs **zero**
//! Rust-heap allocations.
//!
//! A counting `#[global_allocator]` wrapper tallies every allocation made
//! while a thread-local tracking flag is set. The audit drives the exact
//! worker hot path — take a recycled op buffer from the [`TxBufferPool`],
//! fill it with a transaction's ops, execute it on a [`TxExecutor`],
//! return the buffer — first untracked to warm every lazily-grown
//! structure (allocator arenas, the object table, buffer capacity), then
//! tracked, asserting the tracked phase allocated nothing for every
//! allocator family in the paper's PHP study.
//!
//! The workload generator is audited the same way: a [`TxFactory`] with
//! a pool attached, warmed for a few transactions, must then produce
//! every transaction without allocating. Its pending deaths and touches
//! live in timing wheels whose node slab, like the pooled op buffer,
//! stops growing once warm, so the load-generation side of the loop is
//! allocation-free too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use webmm_alloc::AllocatorKind;
use webmm_server::{TxBufferPool, TxExecutor, TxFactory};
use webmm_workload::{phpbb, WorkOp};

/// Allocations observed while the current thread had tracking on.
static TRACKED_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Serializes the tests: both reset the shared counter, so concurrent
/// runs could mask a regression.
static AUDIT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

thread_local! {
    /// Only the audit thread flips this, so the harness's other test
    /// threads never pollute the count. `const` init keeps the TLS
    /// access itself allocation-free.
    static TRACK: Cell<bool> = const { Cell::new(false) };
}

struct CountingAllocator;

fn note_alloc() {
    if TRACK.with(Cell::get) {
        TRACKED_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation to `System` unchanged; the count is
// a side effect only.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `rounds` transactions through the pool → executor → pool cycle,
/// cycling over pre-generated op templates.
fn serve_rounds(
    exec: &mut TxExecutor,
    pool: &TxBufferPool,
    templates: &[Vec<WorkOp>],
    rounds: usize,
) {
    for i in 0..rounds {
        let mut buf = pool.get();
        buf.extend_from_slice(&templates[i % templates.len()]);
        exec.execute(&buf);
        pool.put(buf);
    }
}

/// Tracked allocations during a steady-state serving phase for `kind`.
fn steady_state_allocations(kind: AllocatorKind) -> u64 {
    // Template transactions are generated up front, so only the serving
    // path is tracked here.
    let mut factory = TxFactory::new(phpbb(), 1024, 7);
    let templates: Vec<Vec<WorkOp>> = (0..8).map(|_| factory.next_tx().ops).collect();

    let pool = TxBufferPool::new(1, 4);
    let mut exec = TxExecutor::new(0, kind, 1 << 20);

    // Warm-up: arenas grow, the object table settles, the pooled buffer
    // reaches the largest template's capacity.
    serve_rounds(&mut exec, &pool, &templates, 64);

    TRACKED_ALLOCS.store(0, Ordering::Relaxed);
    TRACK.with(|t| t.set(true));
    serve_rounds(&mut exec, &pool, &templates, 256);
    TRACK.with(|t| t.set(false));
    TRACKED_ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_serving_is_allocation_free_for_all_study_allocators() {
    let _guard = AUDIT_LOCK.lock().unwrap();
    for kind in AllocatorKind::PHP_STUDY {
        let allocs = steady_state_allocations(kind);
        assert_eq!(
            allocs, 0,
            "{kind}: steady-state transactions must not touch the Rust heap \
             ({allocs} allocations in 256 warmed transactions)"
        );
    }
}

/// Tracked allocations of `tracked` warmed `TxFactory::next_tx` calls:
/// phpBB at `scale` with a pool attached, each buffer returned after use
/// as a worker would.
fn generator_allocations(scale: u32, warm: usize, tracked: usize) -> u64 {
    let pool = Arc::new(TxBufferPool::new(1, 4));
    let mut factory = TxFactory::new(phpbb(), scale, 7);
    factory.attach_pool(Arc::clone(&pool));
    for _ in 0..warm {
        pool.put(factory.next_tx().ops);
    }
    TRACKED_ALLOCS.store(0, Ordering::Relaxed);
    TRACK.with(|t| t.set(true));
    for _ in 0..tracked {
        pool.put(factory.next_tx().ops);
    }
    TRACK.with(|t| t.set(false));
    TRACKED_ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn warmed_generator_is_allocation_free() {
    let _guard = AUDIT_LOCK.lock().unwrap();
    for (scale, warm, tracked) in [(1024, 16, 1024), (16, 4, 32)] {
        let allocs = generator_allocations(scale, warm, tracked);
        assert_eq!(
            allocs, 0,
            "phpBB 1/{scale}: warmed next_tx must not touch the Rust heap \
             ({allocs} allocations in {tracked} transactions)"
        );
    }
}

#[test]
fn counting_allocator_actually_counts() {
    // Guard against the audit passing vacuously because tracking broke.
    let _guard = AUDIT_LOCK.lock().unwrap();
    TRACKED_ALLOCS.store(0, Ordering::Relaxed);
    TRACK.with(|t| t.set(true));
    let v: Vec<u64> = Vec::with_capacity(32);
    TRACK.with(|t| t.set(false));
    drop(v);
    assert!(
        TRACKED_ALLOCS.load(Ordering::Relaxed) > 0,
        "a tracked Vec allocation must be counted"
    );
}
