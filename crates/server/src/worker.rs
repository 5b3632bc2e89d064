//! Worker threads: one OS thread, one heap, one address space.
//!
//! Each worker mirrors a PHP worker process from the paper's serving model
//! (§2.1): it owns a private [`PlainPort`] address space and a private
//! allocator built in-place from the `Copy + Send` [`AllocatorKind`] tag,
//! and replays whole transactions against them. At every transaction
//! boundary the heap is returned to empty — by `freeAll` where the
//! allocator supports bulk free (the paper's porting recipe), by
//! per-object frees of the survivors otherwise — so transactions never
//! leak state into each other and a worker can serve forever.
//!
//! The steady-state serving loop is **allocation-free and hash-free**
//! (proven by `tests/alloc_audit.rs`): the live-object map is a dense
//! generation-stamped [`ObjectTable`] (ids index a ring directly, `EndTx`
//! cleanup is a generation bump), finished op buffers return to the
//! [`TxBufferPool`] instead of being dropped, and timing/telemetry is
//! amortized — one timestamp per drained batch on the dequeue side, one
//! per transaction at completion, and metric flushes once per batch.

use crate::pool::TxBufferPool;
use crate::queue::QueuedTx;
use crate::shard::{Fill, ShardedTxQueue};
use crate::telemetry::{ServerTelemetry, WorkerMetrics};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;
use webmm_alloc::{AllocTraits, Allocator, AllocatorKind};
use webmm_obs::{LatencyHistogram, TxSpan};
use webmm_sim::{Addr, MemoryPort, PageSize, PlainPort};
use webmm_workload::{ObjectTable, WorkOp};

/// Per-worker outcome counters, serialized into the server report.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WorkerReport {
    /// Worker index (0-based).
    pub worker: u64,
    /// Transactions this worker completed.
    pub completed: u64,
    /// Payload bytes touched: malloc'd, realloc'd, re-read and static.
    pub bytes_touched: u64,
    /// Ops referencing objects this worker never allocated (cross-worker
    /// lifetimes in open-lifetime workloads); skipped, not served.
    pub orphan_ops: u64,
    /// Largest number of objects still live *after* end-of-transaction
    /// cleanup — 0 proves `freeAll` (or survivor sweep) emptied the heap
    /// between every pair of transactions.
    pub max_live_after_tx: u64,
    /// Simulated instructions retired by this worker's port (allocator
    /// metadata work plus application compute).
    pub sim_instructions: u64,
    /// Transactions this worker obtained by stealing from other workers'
    /// shards (always 0 in global mode, whose one shard every worker
    /// shares; counted on the thief).
    pub steals: u64,
}

/// The transaction execution engine a worker thread owns: one private
/// heap, one address space, and the dense live-object table mapping
/// workload ids to heap addresses.
///
/// Public so benches (`hotpath_bench`) and audits (`alloc_audit`) can
/// drive the exact hot loop a worker runs, without threads or queues
/// around it. Constructing it *inside* the spawned worker thread is
/// deliberate: only the `Copy + Send` kind tag crosses the spawn
/// boundary, the heap itself is born on the thread that will use it.
pub struct TxExecutor {
    /// The heap, instantiated for the concrete [`PlainPort`] so its
    /// simulated loads, stores and `exec` charges are direct calls.
    heap: Box<dyn Allocator<PlainPort> + Send>,
    /// The heap's Table 1 entry, read once: `Free` and `EndTx` consult it
    /// on every call.
    traits: AllocTraits,
    port: PlainPort,
    /// Live objects: workload id → (address, current size). Ids are
    /// handed out by the load generator's monotonic counter, so the
    /// dense generation-stamped table replaces the original `HashMap`:
    /// no hashing per op, and `EndTx` cleanup is a generation bump
    /// instead of a bucket walk. Ids the table never admitted (or that
    /// expired at a transaction boundary) miss exactly where the map
    /// would, keeping orphan detection exact.
    objects: ObjectTable<(Addr, u64)>,
    static_base: Addr,
    report: WorkerReport,
}

impl TxExecutor {
    /// Builds the executor for worker `worker`: a private heap of kind
    /// `kind` and a `static_bytes` static data area.
    pub fn new(worker: u64, kind: AllocatorKind, static_bytes: u64) -> Self {
        let mut port = PlainPort::new();
        let static_base = port.os_alloc(static_bytes.max(4096), 4096, PageSize::Base);
        let heap = kind.build_send::<PlainPort>(worker as u32);
        TxExecutor {
            traits: heap.alloc_traits(),
            heap,
            port,
            objects: ObjectTable::with_capacity(1024),
            static_base,
            report: WorkerReport {
                worker,
                ..WorkerReport::default()
            },
        }
    }

    /// The counters accumulated so far (completion counts are maintained
    /// by the serving loop, not here).
    pub fn report(&self) -> &WorkerReport {
        &self.report
    }

    /// Objects currently live in the table (0 between transactions).
    pub fn live_objects(&self) -> u64 {
        self.objects.len() as u64
    }

    /// Total simulated instructions retired by this executor's port.
    pub fn sim_instructions(&self) -> u64 {
        self.port.instructions()
    }

    /// Cumulative bytes requested from the heap.
    pub fn bytes_requested(&self) -> u64 {
        self.heap.stats().bytes_requested
    }

    /// Replays one transaction's operations against this worker's heap.
    ///
    /// # Panics
    ///
    /// Panics on allocator out-of-memory: heaps are sized so OOM means a
    /// misconfiguration, and degrading silently would skew the histograms.
    pub fn execute(&mut self, ops: &[WorkOp]) {
        for op in ops {
            match *op {
                WorkOp::Malloc { id, size } => {
                    let addr = self
                        .heap
                        .malloc(&mut self.port, size)
                        .unwrap_or_else(|e| panic!("worker {}: {e}", self.report.worker));
                    self.port.touch(addr, size, true); // initializing write
                    self.objects.insert(id, (addr, size));
                    self.report.bytes_touched += size;
                }
                WorkOp::Free { id } => match self.objects.remove(id) {
                    Some((addr, _)) => {
                        if self.traits.per_object_free {
                            self.heap.free(&mut self.port, addr);
                        }
                        // Without per-object free (region/obstack) the
                        // call is elided, per the paper's porting recipe.
                    }
                    None => self.report.orphan_ops += 1,
                },
                WorkOp::Realloc { id, new_size } => match self.objects.get(id) {
                    Some((addr, old)) => {
                        let new_addr = self
                            .heap
                            .realloc(&mut self.port, addr, old, new_size)
                            .unwrap_or_else(|e| panic!("worker {}: {e}", self.report.worker));
                        self.objects.insert(id, (new_addr, new_size));
                        self.report.bytes_touched += new_size.saturating_sub(old);
                    }
                    None => self.report.orphan_ops += 1,
                },
                WorkOp::Touch { id, write } => match self.objects.get(id) {
                    Some((addr, size)) => {
                        self.port.touch(addr, size, write);
                        self.report.bytes_touched += size;
                    }
                    None => self.report.orphan_ops += 1,
                },
                WorkOp::Compute { instr } => self.port.exec(instr),
                WorkOp::StaticTouch { offset, len } => {
                    self.port.touch(self.static_base + offset, len, false);
                    self.report.bytes_touched += len;
                }
                WorkOp::EndTx => self.end_tx(),
            }
        }
        // Transactions produced by the load generator end with EndTx; be
        // robust to hand-built ones that do not.
        if !ops.ends_with(&[WorkOp::EndTx]) {
            self.end_tx();
        }
    }

    /// End-of-transaction cleanup: the PHP runtime's `freeAll` hook where
    /// the allocator has one, a survivor sweep where it does not. Either
    /// way the object table empties in O(1) of hashing: a generation bump
    /// for bulk free, a ring sweep (no rehash, no dealloc) otherwise.
    fn end_tx(&mut self) {
        let traits = self.traits;
        if traits.bulk_free {
            self.heap.free_all(&mut self.port);
            self.objects.clear();
        } else {
            let heap = &mut self.heap;
            let port = &mut self.port;
            self.objects.drain(|_, (addr, _)| {
                if traits.per_object_free {
                    heap.free(port, addr);
                }
            });
        }
        let live = self.objects.len() as u64;
        self.report.max_live_after_tx = self.report.max_live_after_tx.max(live);
    }
}

/// The worker thread body: pull transaction batches until the queue
/// closes and drains, then hand back the report and the local latency
/// histogram.
///
/// Intake is batched: the worker refills a private `pending` buffer from
/// its ingress (its home shard in one lock acquisition, or a steal from a
/// victim shard when dry — one transaction per call in global mode, where
/// the batch is 1) and then serves the whole batch without touching any
/// shared lock. Steals are counted on the thief's report.
///
/// Timing is amortized over the batch: queue-wait is measured against a
/// single per-batch timestamp taken right after the refill, and each
/// completion takes exactly one further timestamp (instead of the two
/// per transaction the unbatched loop paid). Finished op buffers return
/// to the buffer pool for the load generators to reuse.
///
/// With telemetry attached, every completion also lands in the sliding
/// latency window (relaxed atomics) and the worker's span ring (reusing
/// the completion timestamp); counter flushes into the sharded metric
/// registry happen once per batch, and the heap snapshot slot is
/// refreshed at batch boundaries, throttled to
/// [`ServerTelemetry::publish_every`] so observation cost stays off the
/// per-transaction path.
pub(crate) fn run(
    worker: u64,
    kind: AllocatorKind,
    static_bytes: u64,
    queue: Arc<ShardedTxQueue>,
    pool: Arc<TxBufferPool>,
    telemetry: Option<Arc<ServerTelemetry>>,
) -> (WorkerReport, LatencyHistogram) {
    let mut state = TxExecutor::new(worker, kind, static_bytes);
    let mut latencies = LatencyHistogram::new();
    let metrics = telemetry
        .as_deref()
        .map(|t| WorkerMetrics::new(t, worker as usize));
    let mut last_publish: Option<Instant> = None;
    let mut pending: VecDeque<QueuedTx> = VecDeque::new();
    'serve: loop {
        while pending.is_empty() {
            match queue.pop_batch(worker as usize, &mut pending) {
                Fill::Closed => break 'serve,
                Fill::Own(_) => {}
                Fill::Stolen(n) => {
                    state.report.steals += n as u64;
                    if let Some(m) = metrics.as_ref() {
                        m.stolen.add(n as u64);
                    }
                }
            }
        }
        // One timestamp for the whole drained batch: every transaction in
        // it was enqueued before this instant, so per-tx queue wait is
        // derived by subtraction instead of a second clock read each.
        let batch_start = Instant::now();
        let mut batch_completed = 0u64;
        let mut batch_bytes = 0u64;
        while let Some(queued) = pending.pop_front() {
            let queue_wait = batch_start
                .saturating_duration_since(queued.enqueued)
                .as_nanos()
                .min(u128::from(u64::MAX)) as u64;
            let bytes_before = state.heap.stats().bytes_requested;
            state.execute(&queued.tx.ops);
            state.report.completed += 1;
            batch_completed += 1;
            // The only per-transaction clock read: completion time, from
            // which total latency and the span timestamps all derive.
            let done = Instant::now();
            let ns = done
                .saturating_duration_since(queued.enqueued)
                .as_nanos()
                .min(u128::from(u64::MAX)) as u64;
            latencies.record(ns);
            let tx_bytes = state
                .heap
                .stats()
                .bytes_requested
                .saturating_sub(bytes_before);
            batch_bytes += tx_bytes;
            if let Some(t) = telemetry.as_deref() {
                t.window.record(ns);
                let complete_ns = t.tracer.ns_of(done);
                let dequeue_ns = complete_ns.saturating_sub(ns.saturating_sub(queue_wait));
                t.tracer.record(
                    worker as usize,
                    TxSpan {
                        tx_id: queued.tx.id,
                        worker,
                        enqueue_ns: complete_ns.saturating_sub(ns),
                        dequeue_ns,
                        complete_ns,
                        bytes_allocated: tx_bytes,
                        shed: false,
                    },
                );
            }
            // Hand the finished op buffer back for the generators to
            // refill — the transaction's only heap allocation, recycled.
            pool.put(queued.tx.ops);
        }
        // Counter flushes and heap publication amortize over the batch.
        if let (Some(t), Some(m)) = (telemetry.as_deref(), metrics.as_ref()) {
            m.completed.add(batch_completed);
            m.bytes_requested.add(batch_bytes);
            if last_publish.is_none_or(|at| batch_start.duration_since(at) >= t.publish_every()) {
                let snap = state.heap.heap_snapshot();
                m.heap_bytes.set(snap.heap_bytes);
                m.orphan_ops.set(state.report.orphan_ops);
                t.publish_heap(worker as usize, snap);
                last_publish = Some(batch_start);
            }
        }
    }
    // Final publication so post-drain samples see the settled heap.
    if let (Some(t), Some(m)) = (telemetry.as_deref(), metrics.as_ref()) {
        let snap = state.heap.heap_snapshot();
        m.heap_bytes.set(snap.heap_bytes);
        m.orphan_ops.set(state.report.orphan_ops);
        t.publish_heap(worker as usize, snap);
    }
    state.report.sim_instructions = state.port.instructions();
    (state.report, latencies)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(kind: AllocatorKind) -> TxExecutor {
        TxExecutor::new(0, kind, 1 << 20)
    }

    #[test]
    fn malloc_free_endtx_leaves_heap_empty() {
        for kind in AllocatorKind::PHP_STUDY {
            let mut s = state(kind);
            s.execute(&[
                WorkOp::Malloc { id: 1, size: 64 },
                WorkOp::Malloc { id: 2, size: 200 },
                WorkOp::Touch {
                    id: 1,
                    write: false,
                },
                WorkOp::Free { id: 1 },
                WorkOp::EndTx,
            ]);
            assert!(s.objects.is_empty(), "{kind}");
            assert_eq!(s.report.max_live_after_tx, 0, "{kind}");
        }
    }

    #[test]
    fn survivor_sweep_covers_non_bulk_allocators() {
        // glibc-style: no freeAll — survivors must still be returned.
        let mut s = state(AllocatorKind::Dl);
        s.execute(&[WorkOp::Malloc { id: 1, size: 128 }, WorkOp::EndTx]);
        assert!(s.objects.is_empty());
        assert_eq!(s.heap.stats().frees, 1);
    }

    #[test]
    fn orphan_ops_are_counted_not_served() {
        let mut s = state(AllocatorKind::DdMalloc);
        s.execute(&[
            WorkOp::Free { id: 99 },
            WorkOp::Touch {
                id: 98,
                write: true,
            },
            WorkOp::Realloc {
                id: 97,
                new_size: 32,
            },
            WorkOp::EndTx,
        ]);
        assert_eq!(s.report.orphan_ops, 3);
        assert_eq!(s.heap.stats().frees, 0);
    }

    #[test]
    fn ids_from_previous_transactions_are_orphans() {
        // The generation bump at EndTx must expire every id exactly as
        // the map clear did: a later free of the same id is an orphan,
        // not a stale hit.
        let mut s = state(AllocatorKind::DdMalloc);
        s.execute(&[WorkOp::Malloc { id: 7, size: 64 }, WorkOp::EndTx]);
        s.execute(&[
            WorkOp::Free { id: 7 },
            WorkOp::Touch {
                id: 7,
                write: false,
            },
            WorkOp::EndTx,
        ]);
        assert_eq!(s.report.orphan_ops, 2);
    }

    #[test]
    fn missing_trailing_endtx_still_cleans_up() {
        let mut s = state(AllocatorKind::Region);
        s.execute(&[WorkOp::Malloc { id: 5, size: 400 }]);
        assert!(s.objects.is_empty());
        assert_eq!(s.heap.stats().free_alls, 1);
    }

    #[test]
    fn bytes_touched_accumulates_all_payload_traffic() {
        let mut s = state(AllocatorKind::PhpDefault);
        s.execute(&[
            WorkOp::Malloc { id: 1, size: 100 },
            WorkOp::Touch {
                id: 1,
                write: false,
            },
            WorkOp::StaticTouch { offset: 0, len: 50 },
            WorkOp::EndTx,
        ]);
        assert_eq!(s.report.bytes_touched, 250);
    }
}
