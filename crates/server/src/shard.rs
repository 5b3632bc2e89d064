//! The ingress queue: per-worker shards, batched drain, steal-half
//! balancing — and, with one shard and batch 1, the global baseline.
//!
//! The paper's thesis is that per-transaction memory management must stay
//! off the shared bottleneck; a single `Mutex`+`Condvar` ingress queue
//! re-creates exactly such a bottleneck in software — every submitter and
//! every worker serialized on one lock, so adding workers mostly adds
//! lock handoffs. This module applies the same cure multicore allocators
//! use (Hoard's per-processor heaps, scalloc's per-core spans):
//! **per-worker structures with stealing for balance**.
//!
//! The server builds one [`ShardedTxQueue`] in either
//! [`QueueMode`](crate::QueueMode): `Sharded` gives every worker its own
//! shard and drains up to `batch` transactions per lock; `Global` is the
//! same type with one shard and batch 1, so every worker shares one lock
//! and takes one transaction per acquisition — the single-lock baseline,
//! with the same admission semantics.
//!
//! * Submitters spread transactions over one shard per worker, round-robin
//!   by default or keyed by an affinity value ([`ShardedTxQueue::submit_affinity`]).
//! * Workers drain *their own* shard in batches of up to `batch`
//!   transactions under a single lock acquisition, amortizing the lock
//!   and the condvar signalling across the whole batch.
//! * A worker whose shard runs dry steals the **older half** of a victim
//!   shard's backlog (oldest-first keeps the latency tail honest), so an
//!   idle worker always makes progress while any shard holds work.
//!
//! Admission control ([`AdmissionPolicy`]) applies at the *shard* level:
//! the configured capacity is divided evenly across shards, and a full
//! shard blocks / rejects / sheds its own oldest — with one shard, the
//! whole queue. Shard-level shed preserves the paper's drop semantics —
//! under overload the freshest work in each shard survives — while
//! keeping the shed decision on the submitter's lock, never a global one.
//!
//! Accounting stays exact across steals: `submitted` and `shed` are
//! counted at the shard where the event happened, and a steal merely
//! moves an already-admitted transaction from a shard buffer into the
//! thief's private batch, where it is completed. The server's identity
//! `submitted == completed + shed` therefore holds for any interleaving
//! of submits, steals, and sheds (stress-tested in
//! `tests/sharded.rs`).

use crate::pool::TxBufferPool;
use crate::queue::{
    recycle, trace_shed, Admission, AdmissionPolicy, QueueCounters, QueueSnapshot, QueuedTx,
};
use crate::telemetry::ServerTelemetry;
use crate::Transaction;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use webmm_obs::ShardSample;

/// How a batch of transactions reached a worker.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Fill {
    /// `n` transactions drained from the worker's home shard (the one
    /// shared shard in global mode).
    Own(usize),
    /// `n` transactions stolen from another worker's shard.
    Stolen(usize),
    /// The queue is closed and every shard has drained: the worker's
    /// signal to exit.
    Closed,
}

struct ShardState {
    buf: VecDeque<QueuedTx>,
    counters: QueueCounters,
    /// Transactions other workers stole from this shard.
    stolen: u64,
}

struct Shard {
    state: Mutex<ShardState>,
    /// Signalled when a transaction lands in this shard or the queue
    /// closes.
    not_empty: Condvar,
    /// Signalled when this shard is drained or stolen from
    /// (Block-policy waiters).
    not_full: Condvar,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            state: Mutex::new(ShardState {
                buf: VecDeque::with_capacity(capacity),
                counters: QueueCounters::default(),
                stolen: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }
}

/// Bounded multi-producer ingress queue sharded one-per-worker, with
/// batched drain and work stealing between shards.
pub struct ShardedTxQueue {
    shards: Vec<Shard>,
    /// Per-shard buffer bound (total capacity divided evenly, rounded up).
    shard_capacity: usize,
    /// The capacity the queue was configured with (for reporting).
    configured_capacity: usize,
    policy: AdmissionPolicy,
    /// Maximum transactions a worker takes per lock acquisition.
    batch: usize,
    closed: AtomicBool,
    /// Round-robin submission cursor.
    rr: AtomicUsize,
    telemetry: Option<Arc<ServerTelemetry>>,
    /// When present, rejected and shed transactions return their op
    /// buffers here instead of dropping them.
    pool: Option<Arc<TxBufferPool>>,
}

impl ShardedTxQueue {
    /// Creates a queue of `shards` shards holding `capacity` transactions
    /// in total (divided evenly, rounded up so every shard can hold at
    /// least one), draining in batches of up to `batch`.
    ///
    /// # Panics
    ///
    /// Panics if `shards`, `capacity`, or `batch` is zero.
    pub fn new(shards: usize, capacity: usize, policy: AdmissionPolicy, batch: usize) -> Self {
        assert!(shards > 0, "sharded queue needs at least one shard");
        assert!(capacity > 0, "queue capacity must be nonzero");
        assert!(batch > 0, "drain batch must be nonzero");
        let shard_capacity = capacity.div_ceil(shards).max(1);
        ShardedTxQueue {
            shards: (0..shards).map(|_| Shard::new(shard_capacity)).collect(),
            shard_capacity,
            configured_capacity: capacity,
            policy,
            batch,
            closed: AtomicBool::new(false),
            rr: AtomicUsize::new(0),
            telemetry: None,
            pool: None,
        }
    }

    /// Routes shed spans into `telemetry`'s tracer. Called by the server
    /// before the queue is shared.
    pub(crate) fn install_telemetry(&mut self, telemetry: Arc<ServerTelemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// Routes dead transactions' op buffers into `pool`. Called by the
    /// server before the queue is shared.
    pub(crate) fn install_pool(&mut self, pool: Arc<TxBufferPool>) {
        self.pool = Some(pool);
    }

    /// The configured admission policy.
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// The capacity the queue was configured with. The effective bound is
    /// `shards() × shard_capacity()`, which rounds this up to a multiple
    /// of the shard count.
    pub fn capacity(&self) -> usize {
        self.configured_capacity
    }

    /// Number of shards (one per worker, or one in global mode).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard buffer bound.
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Offers a transaction to the next shard in round-robin order; the
    /// chosen shard applies the [`AdmissionPolicy`] when it is full.
    pub fn submit(&self, tx: Transaction) -> Admission {
        let shard = self.rr.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.submit_to(shard, tx)
    }

    /// Offers a transaction to the shard `key` hashes to — affinity-keyed
    /// submission for clients that want related transactions (same
    /// session, same tenant) served by the same worker's heap.
    pub fn submit_affinity(&self, key: u64, tx: Transaction) -> Admission {
        let shard = (key % self.shards.len() as u64) as usize;
        self.submit_to(shard, tx)
    }

    /// Offers a transaction to shard `shard` directly. Every call
    /// increments that shard's `submitted`, and every outcome other than
    /// enqueueing increments its `shed`, so the identity
    /// `submitted == completed + shed` holds across shards after a drain.
    fn submit_to(&self, shard: usize, tx: Transaction) -> Admission {
        let s = &self.shards[shard];
        let mut st = s.state.lock().expect("shard lock");
        st.counters.submitted += 1;
        if self.is_closed() {
            return self.refuse(st, tx);
        }
        if st.buf.len() >= self.shard_capacity {
            match self.policy {
                AdmissionPolicy::Block => {
                    while st.buf.len() >= self.shard_capacity && !self.is_closed() {
                        st = s.not_full.wait(st).expect("shard lock");
                    }
                    if self.is_closed() {
                        return self.refuse(st, tx);
                    }
                }
                AdmissionPolicy::Reject => return self.refuse(st, tx),
                AdmissionPolicy::ShedOldest => {
                    let victim = st.buf.pop_front();
                    st.counters.shed += 1;
                    st.buf.push_back(QueuedTx {
                        tx,
                        enqueued: Instant::now(),
                    });
                    s.not_empty.notify_one();
                    drop(st);
                    if let Some(v) = victim {
                        trace_shed(&self.telemetry, v.tx.id, Some(v.enqueued.elapsed()));
                        recycle(&self.pool, v.tx);
                    }
                    return Admission::AcceptedSheddingOldest;
                }
            }
        }
        st.buf.push_back(QueuedTx {
            tx,
            enqueued: Instant::now(),
        });
        let depth = st.buf.len() as u64;
        st.counters.max_depth = st.counters.max_depth.max(depth);
        s.not_empty.notify_one();
        Admission::Accepted
    }

    /// Turns `tx` away at the shard whose lock `st` holds: counts it as
    /// shed there, then traces and recycles it after unlocking.
    fn refuse(&self, mut st: MutexGuard<'_, ShardState>, tx: Transaction) -> Admission {
        st.counters.shed += 1;
        drop(st);
        trace_shed(&self.telemetry, tx.id, None);
        recycle(&self.pool, tx);
        Admission::Rejected
    }

    /// Fills `out` with worker `worker`'s next batch: up to `batch`
    /// transactions drained from its home shard (`worker % shards()`)
    /// under one lock, or — when that shard is dry — the older half of
    /// the first non-empty victim shard's backlog (capped at `batch`).
    /// With one shard every worker shares the home shard and nothing is
    /// stolen. Blocks (with a steal-retry timeout, since work may arrive
    /// only at *other* shards under affinity keying) while the queue is
    /// open and everything is empty. Returns [`Fill::Closed`] once the
    /// queue is closed *and* every shard has drained.
    pub(crate) fn pop_batch(&self, worker: usize, out: &mut VecDeque<QueuedTx>) -> Fill {
        let n = self.shards.len();
        let home = worker % n;
        loop {
            // Read the flag *before* scanning: if it was set before the
            // scan began, no shard can refill afterwards (submissions are
            // rejected and steals only remove), so an all-empty scan
            // proves the queue is drained. A close racing the scan just
            // causes one more loop iteration.
            let was_closed = self.closed.load(Ordering::Acquire);

            // Home shard first: one lock, whole batch.
            {
                let s = &self.shards[home];
                let mut st = s.state.lock().expect("shard lock");
                let take = self.batch.min(st.buf.len());
                if take > 0 {
                    out.extend(st.buf.drain(..take));
                    drop(st);
                    // A batch frees `take` slots: wake every blocked
                    // submitter that can now fit.
                    s.not_full.notify_all();
                    return Fill::Own(take);
                }
            }

            // Steal scan: victims in rotating order starting after home.
            for off in 1..n {
                let victim = (home + off) % n;
                let s = &self.shards[victim];
                let mut st = s.state.lock().expect("shard lock");
                let backlog = st.buf.len();
                if backlog > 0 {
                    // Half the backlog, oldest first: the victim keeps
                    // its fresher half, the thief retires the transactions
                    // that have waited longest.
                    let take = backlog.div_ceil(2).min(self.batch);
                    out.extend(st.buf.drain(..take));
                    st.stolen += take as u64;
                    drop(st);
                    s.not_full.notify_all();
                    return Fill::Stolen(take);
                }
            }

            if was_closed {
                return Fill::Closed;
            }

            // Everything empty, queue open: wait for an arrival on the
            // home shard. Timed, because under affinity keying new work
            // may only ever land on other shards and nobody signals ours.
            let s = &self.shards[home];
            let st = s.state.lock().expect("shard lock");
            if st.buf.is_empty() && !self.closed.load(Ordering::Acquire) {
                let _ = s
                    .not_empty
                    .wait_timeout(st, Duration::from_micros(500))
                    .expect("shard lock");
            }
        }
    }

    /// Closes the front door on every shard: subsequent submissions are
    /// rejected, queued transactions still drain (by their own worker or
    /// by thieves), blocked submitters and idle workers wake.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        for s in &self.shards {
            // Acquire-release the shard lock so a submitter or worker
            // that checked `closed` before the store cannot be parked
            // between its check and its wait when the notification fires.
            drop(s.state.lock().expect("shard lock"));
            s.not_empty.notify_all();
            s.not_full.notify_all();
        }
    }

    /// Whether [`ShardedTxQueue::close`] has been called — submissions
    /// are being rejected and the shards are draining. Network
    /// front-ends use this to answer `Draining` instead of offering
    /// doomed work.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Transactions currently queued across all shards (a gauge; racy by
    /// nature).
    pub fn depth(&self) -> usize {
        self.snapshot().depth as usize
    }

    /// Admission counters summed across shards (`max_depth` is the
    /// deepest any single shard has been).
    pub fn counters(&self) -> QueueCounters {
        self.snapshot().counters
    }

    /// Depth, summed counters, and the per-shard breakdown, reading each
    /// shard's lock exactly once.
    pub fn snapshot(&self) -> QueueSnapshot {
        let mut snap = QueueSnapshot::default();
        for (i, s) in self.shards.iter().enumerate() {
            let st = s.state.lock().expect("shard lock");
            let depth = st.buf.len() as u64;
            snap.depth += depth;
            snap.counters.submitted += st.counters.submitted;
            snap.counters.shed += st.counters.shed;
            snap.counters.max_depth = snap.counters.max_depth.max(st.counters.max_depth);
            snap.shards.push(ShardSample {
                shard: i as u64,
                depth,
                submitted: st.counters.submitted,
                shed: st.counters.shed,
                max_depth: st.counters.max_depth,
                stolen: st.stolen,
            });
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(id: u64) -> Transaction {
        Transaction {
            id,
            ops: Vec::new(),
        }
    }

    fn drain_ids(q: &ShardedTxQueue, worker: usize) -> Vec<u64> {
        let mut out = VecDeque::new();
        let mut ids = Vec::new();
        loop {
            match q.pop_batch(worker, &mut out) {
                Fill::Closed => break,
                Fill::Own(_) | Fill::Stolen(_) => {
                    ids.extend(out.drain(..).map(|q| q.tx.id));
                }
            }
        }
        ids
    }

    #[test]
    fn batched_drain_preserves_fifo_within_a_shard() {
        let q = ShardedTxQueue::new(1, 16, AdmissionPolicy::Reject, 4);
        for i in 0..10 {
            assert_eq!(q.submit(tx(i)), Admission::Accepted);
        }
        q.close();
        let mut out = VecDeque::new();
        assert_eq!(q.pop_batch(0, &mut out), Fill::Own(4));
        assert_eq!(q.pop_batch(0, &mut out), Fill::Own(4));
        assert_eq!(q.pop_batch(0, &mut out), Fill::Own(2));
        assert_eq!(q.pop_batch(0, &mut out), Fill::Closed);
        let ids: Vec<u64> = out.iter().map(|q| q.tx.id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());

        // Global mode (one shard, batch 1): one transaction per call, in
        // submission order, with the depth high-water mark recorded.
        let q = ShardedTxQueue::new(1, 8, AdmissionPolicy::Reject, 1);
        for i in 0..5 {
            assert_eq!(q.submit(tx(i)), Admission::Accepted);
        }
        for i in 0..5 {
            let mut out = VecDeque::new();
            assert_eq!(q.pop_batch(0, &mut out), Fill::Own(1));
            assert_eq!(out.pop_front().unwrap().tx.id, i);
        }
        assert_eq!(q.counters().max_depth, 5);
    }

    #[test]
    fn one_shard_queue_serves_every_worker_index() {
        // Global mode gives every worker the same single shard; worker
        // indices past the shard count must map onto it, not past it.
        let q = ShardedTxQueue::new(1, 8, AdmissionPolicy::Block, 1);
        for i in 0..3 {
            q.submit(tx(i));
        }
        let mut out = VecDeque::new();
        assert_eq!(q.pop_batch(1, &mut out), Fill::Own(1));
        assert_eq!(q.pop_batch(3, &mut out), Fill::Own(1));
        assert_eq!(q.pop_batch(0, &mut out), Fill::Own(1));
        let ids: Vec<u64> = out.iter().map(|q| q.tx.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        q.close();
        for worker in [0, 1, 3, 7] {
            assert_eq!(q.pop_batch(worker, &mut out), Fill::Closed);
        }
        assert_eq!(q.snapshot().shards[0].stolen, 0, "one shard: no steals");
    }

    #[test]
    fn round_robin_spreads_over_shards() {
        let q = ShardedTxQueue::new(4, 16, AdmissionPolicy::Reject, 8);
        for i in 0..8 {
            q.submit(tx(i));
        }
        let snap = q.snapshot();
        for s in &snap.shards {
            assert_eq!(s.depth, 2, "shard {}", s.shard);
            assert_eq!(s.submitted, 2, "shard {}", s.shard);
        }
    }

    #[test]
    fn affinity_submission_pins_a_shard() {
        let q = ShardedTxQueue::new(4, 16, AdmissionPolicy::Reject, 8);
        for i in 0..3 {
            q.submit_affinity(2, tx(i));
        }
        let snap = q.snapshot();
        assert_eq!(snap.shards[2].depth, 3);
        assert_eq!(snap.depth, 3);
    }

    #[test]
    fn steal_takes_older_half_of_victim() {
        let q = ShardedTxQueue::new(2, 16, AdmissionPolicy::Reject, 8);
        for i in 0..6 {
            q.submit_affinity(0, tx(i));
        }
        // Worker 1's shard is empty: it must steal ceil(6/2) = 3, oldest
        // first.
        let mut out = VecDeque::new();
        assert_eq!(q.pop_batch(1, &mut out), Fill::Stolen(3));
        let ids: Vec<u64> = out.iter().map(|q| q.tx.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let snap = q.snapshot();
        assert_eq!(snap.shards[0].depth, 3, "victim keeps the fresher half");
        assert_eq!(snap.shards[0].stolen, 3);
    }

    #[test]
    fn steal_is_capped_at_the_batch_size() {
        let q = ShardedTxQueue::new(2, 32, AdmissionPolicy::Reject, 4);
        for i in 0..16 {
            q.submit_affinity(0, tx(i));
        }
        let mut out = VecDeque::new();
        assert_eq!(q.pop_batch(1, &mut out), Fill::Stolen(4));
        assert_eq!(q.snapshot().shards[0].depth, 12);
    }

    #[test]
    fn shed_oldest_applies_at_the_shard_level() {
        // Capacity 4 over 2 shards: each shard holds 2.
        let q = ShardedTxQueue::new(2, 4, AdmissionPolicy::ShedOldest, 8);
        q.submit_affinity(0, tx(0));
        q.submit_affinity(0, tx(1));
        q.submit_affinity(1, tx(10));
        assert_eq!(
            q.submit_affinity(0, tx(2)),
            Admission::AcceptedSheddingOldest
        );
        let snap = q.snapshot();
        assert_eq!(snap.shards[0].shed, 1, "shard 0 shed its own oldest");
        assert_eq!(snap.shards[1].shed, 0, "shard 1 untouched");
        q.close();
        let mut ids = drain_ids(&q, 0);
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 10], "tx 0 was the displaced victim");

        // One shard, batch 1: the queue keeps the freshest two, in order.
        let q = ShardedTxQueue::new(1, 2, AdmissionPolicy::ShedOldest, 1);
        q.submit(tx(0));
        q.submit(tx(1));
        assert_eq!(q.submit(tx(2)), Admission::AcceptedSheddingOldest);
        assert_eq!(q.counters().shed, 1);
        q.close();
        assert_eq!(drain_ids(&q, 1), vec![1, 2], "tx 0 was displaced");
    }

    #[test]
    fn reject_policy_bounces_at_a_full_shard_only() {
        let q = ShardedTxQueue::new(2, 2, AdmissionPolicy::Reject, 8);
        assert_eq!(q.submit_affinity(0, tx(0)), Admission::Accepted);
        assert_eq!(q.submit_affinity(0, tx(1)), Admission::Rejected);
        // The other shard still has room.
        assert_eq!(q.submit_affinity(1, tx(2)), Admission::Accepted);
        let c = q.counters();
        assert_eq!((c.submitted, c.shed), (3, 1));

        // One shard: a full queue bounces every arrival.
        let q = ShardedTxQueue::new(1, 2, AdmissionPolicy::Reject, 1);
        assert_eq!(q.submit(tx(0)), Admission::Accepted);
        assert_eq!(q.submit(tx(1)), Admission::Accepted);
        assert_eq!(q.submit(tx(2)), Admission::Rejected);
        let c = q.counters();
        assert_eq!((c.submitted, c.shed), (3, 1));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn close_rejects_submissions_but_drains_all_shards() {
        let q = ShardedTxQueue::new(3, 16, AdmissionPolicy::Block, 4);
        for i in 0..7 {
            q.submit(tx(i));
        }
        q.close();
        assert_eq!(q.submit(tx(99)), Admission::Rejected);
        let mut ids = drain_ids(&q, 1);
        ids.sort_unstable();
        assert_eq!(ids, (0..7).collect::<Vec<_>>());
        let c = q.counters();
        assert_eq!(c.submitted, 8);
        assert_eq!(c.shed, 1);
    }

    #[test]
    fn block_policy_waits_for_shard_space_freed_by_drain_or_steal() {
        // (shards, worker, fill): worker 1 stealing from shard 0, or any
        // worker draining global mode's one shard, frees the slot the
        // blocked submitter is waiting for.
        for (shards, worker, fill) in [(2, 1, Fill::Stolen(1)), (1, 1, Fill::Own(1))] {
            let q = Arc::new(ShardedTxQueue::new(
                shards,
                shards,
                AdmissionPolicy::Block,
                8,
            ));
            q.submit_affinity(0, tx(0));
            let q2 = Arc::clone(&q);
            let submitter = std::thread::spawn(move || q2.submit_affinity(0, tx(1)));
            std::thread::sleep(Duration::from_millis(20));
            let mut out = VecDeque::new();
            assert_eq!(q.pop_batch(worker, &mut out), fill);
            assert_eq!(out.pop_front().unwrap().tx.id, 0);
            assert_eq!(submitter.join().unwrap(), Admission::Accepted);
            assert_eq!(q.counters().shed, 0);
        }
    }

    #[test]
    fn close_releases_blocked_submitters() {
        let q = Arc::new(ShardedTxQueue::new(1, 1, AdmissionPolicy::Block, 8));
        q.submit(tx(0));
        let q2 = Arc::clone(&q);
        let submitter = std::thread::spawn(move || q2.submit(tx(1)));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(submitter.join().unwrap(), Admission::Rejected);
    }

    #[test]
    fn pop_batch_blocks_until_work_arrives() {
        // (shards, batch, worker): a per-worker shard, and global mode's
        // one shard popped by a worker index past the shard count.
        for (shards, batch, worker) in [(2, 4, 0), (1, 1, 1)] {
            let q = Arc::new(ShardedTxQueue::new(
                shards,
                8,
                AdmissionPolicy::Block,
                batch,
            ));
            let q2 = Arc::clone(&q);
            let popper = std::thread::spawn(move || {
                let mut out = VecDeque::new();
                let fill = q2.pop_batch(worker, &mut out);
                (fill, out.pop_front().map(|q| q.tx.id))
            });
            std::thread::sleep(Duration::from_millis(20));
            q.submit_affinity(0, tx(9));
            assert_eq!(popper.join().unwrap(), (Fill::Own(1), Some(9)));
        }
    }

    #[test]
    fn idle_worker_steals_work_submitted_to_other_shards() {
        // Nothing ever lands on worker 1's shard; it must still make
        // progress via the steal-retry timeout.
        let q = Arc::new(ShardedTxQueue::new(2, 8, AdmissionPolicy::Block, 4));
        let q2 = Arc::clone(&q);
        let thief = std::thread::spawn(move || {
            let mut out = VecDeque::new();
            matches!(q2.pop_batch(1, &mut out), Fill::Stolen(_))
        });
        std::thread::sleep(Duration::from_millis(5));
        q.submit_affinity(0, tx(1));
        assert!(thief.join().unwrap(), "idle worker stole from shard 0");
    }

    #[test]
    fn snapshot_counters_cover_all_shards_once() {
        let q = ShardedTxQueue::new(4, 8, AdmissionPolicy::Reject, 8);
        for i in 0..6 {
            q.submit(tx(i));
        }
        let snap = q.snapshot();
        assert_eq!(snap.counters.submitted, 6);
        assert_eq!(snap.depth, 6);
        assert_eq!(snap.shards.len(), 4);
        let by_shard: u64 = snap.shards.iter().map(|s| s.depth).sum();
        assert_eq!(by_shard, snap.depth);
    }
}
