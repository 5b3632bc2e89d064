//! The two instantiations of every allocator agree exactly.
//!
//! Each family implements `Allocator<P>` once, generically over its memory
//! port. Serving workers run the concrete-port instantiation
//! (`build_send::<PlainPort>`), the simulator the `dyn MemoryPort` one
//! (`build`). This replays one seeded phpBB op stream through both, each
//! on its own `PlainPort`, and checks that every returned address matches
//! and that, at every transaction boundary, the simulated instruction
//! count, resident bytes, operation statistics, footprint and heap
//! snapshot match too.

use std::collections::BTreeMap;
use webmm_alloc::{AllocInfo, Allocator, AllocatorKind, Footprint, HeapSnapshot, OpStats};
use webmm_sim::{Addr, MemoryPort, PlainPort};
use webmm_workload::{phpbb, TxStream, WorkOp};

/// Transactions replayed per allocator.
const TXS: usize = 6;
/// phpBB at 1/16 of the paper's transaction size (~2.9k mallocs per tx).
const SCALE: u32 = 16;

/// Live objects: workload id → (address, current size).
type Live = BTreeMap<u64, (Addr, u64)>;

/// The next transaction of `stream`, up to and including its `EndTx`.
fn next_tx(stream: &mut TxStream) -> Vec<WorkOp> {
    let mut ops = Vec::new();
    loop {
        let op = stream.next_op();
        ops.push(op);
        if op == WorkOp::EndTx {
            return ops;
        }
    }
}

/// Replays one transaction's allocator calls as the serving executor does
/// and returns every address the heap handed out. Ops that reference an
/// object freed at an earlier boundary are skipped, frees are elided
/// without per-object free, and the transaction ends in `freeAll` or, for
/// heaps without it, a sweep freeing the survivors.
fn run_tx<Q, A>(heap: &mut A, port: &mut Q, live: &mut Live, ops: &[WorkOp]) -> Vec<Addr>
where
    Q: MemoryPort + ?Sized,
    A: Allocator<Q> + ?Sized,
{
    let traits = heap.alloc_traits();
    let mut addrs = Vec::new();
    for op in ops {
        match *op {
            WorkOp::Malloc { id, size } => {
                let addr = heap.malloc(port, size).expect("heap fits phpBB");
                live.insert(id, (addr, size));
                addrs.push(addr);
            }
            WorkOp::Free { id } => {
                if let Some((addr, _)) = live.remove(&id) {
                    if traits.per_object_free {
                        heap.free(port, addr);
                    }
                }
            }
            WorkOp::Realloc { id, new_size } => {
                if let Some(&(addr, old)) = live.get(&id) {
                    let addr = heap
                        .realloc(port, addr, old, new_size)
                        .expect("heap fits phpBB");
                    live.insert(id, (addr, new_size));
                    addrs.push(addr);
                }
            }
            WorkOp::EndTx => {
                if traits.bulk_free {
                    heap.free_all(port);
                } else {
                    for &(addr, _) in live.values() {
                        heap.free(port, addr);
                    }
                }
                live.clear();
            }
            // Application work never reaches the allocator.
            WorkOp::Touch { .. } | WorkOp::Compute { .. } | WorkOp::StaticTouch { .. } => {}
        }
    }
    addrs
}

/// Everything that must match at a transaction boundary. `freeAll`'s
/// wall-clock cost is host time, not simulated behaviour, so it is left
/// out of the snapshot.
fn checkpoint<H: AllocInfo + ?Sized>(
    heap: &H,
    port: &PlainPort,
) -> (u64, u64, OpStats, Footprint, HeapSnapshot) {
    let snapshot = HeapSnapshot {
        free_all_ns: 0,
        ..heap.heap_snapshot()
    };
    (
        port.instructions(),
        port.memory().resident_bytes(),
        heap.stats(),
        heap.footprint(),
        snapshot,
    )
}

#[test]
fn static_and_dyn_ports_replay_identically() {
    for kind in AllocatorKind::ALL {
        let mut stream = TxStream::new(phpbb(), SCALE, 42);
        let mut fast = kind.build_send::<PlainPort>(0);
        let mut fast_port = PlainPort::new();
        let mut fast_live = Live::new();
        let mut slow = kind.build(0);
        let mut slow_port = PlainPort::new();
        let mut slow_live = Live::new();
        let mut calls = 0;
        for tx in 0..TXS {
            let ops = next_tx(&mut stream);
            let a = run_tx(&mut *fast, &mut fast_port, &mut fast_live, &ops);
            let b = run_tx(
                &mut *slow,
                &mut slow_port as &mut dyn MemoryPort,
                &mut slow_live,
                &ops,
            );
            assert_eq!(a, b, "{kind}: addresses differ in tx {tx}");
            assert_eq!(
                checkpoint(&*fast, &fast_port),
                checkpoint(&*slow, &slow_port),
                "{kind}: state differs after tx {tx}"
            );
            calls += a.len();
        }
        assert!(calls > TXS * 1000, "{kind}: only {calls} allocations");
    }
}
