//! Transaction operation streams.
//!
//! A [`TxStream`] turns a [`WorkloadSpec`] into an endless, deterministic
//! sequence of [`WorkOp`]s — the exact malloc/free/realloc/touch/compute
//! interleaving a PHP or Ruby runtime would drive into its allocator while
//! serving transactions. The lifetime model gives most objects short,
//! LIFO-biased lives (freed per-object mid-transaction) and leaves the
//! remainder to the transaction-end bulk free, matching Table 3's
//! free/malloc ratios; sizes come from the log-normal
//! [`SizeSampler`](crate::SizeSampler).
//!
//! Pending deaths and mid-life touches sit in a timing wheel (`Wheel`):
//! one bucket per tick over the span in-transaction lifetimes can reach,
//! its lists threaded through one reusable node slab, plus an ordered
//! overflow for Ruby's cross-transaction deaths. Once warmed, generating
//! a tick allocates nothing.

use crate::objtable::ObjectTable;
use crate::sizes::SizeSampler;
use crate::spec::WorkloadSpec;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One operation of a transaction stream.
///
/// Object identity is by `id` (assigned at `Malloc`); the runtime maps ids
/// to allocator addresses, so streams are independent of any particular
/// allocator's address choices.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, serde::Deserialize)]
pub enum WorkOp {
    /// Allocate `size` bytes for object `id`.
    Malloc {
        /// Object identity.
        id: u64,
        /// Requested bytes.
        size: u64,
    },
    /// Per-object free of object `id`.
    Free {
        /// Object identity.
        id: u64,
    },
    /// Resize object `id` to `new_size` bytes.
    Realloc {
        /// Object identity.
        id: u64,
        /// New requested size.
        new_size: u64,
    },
    /// Application touch of object `id` (`write` on initialization).
    Touch {
        /// Object identity.
        id: u64,
        /// Store vs. load.
        write: bool,
    },
    /// Pure application compute.
    Compute {
        /// Instructions to execute.
        instr: u64,
    },
    /// Touch of the process's static data area.
    StaticTouch {
        /// Byte offset into the static area.
        offset: u64,
        /// Bytes touched.
        len: u64,
    },
    /// Transaction boundary: the PHP runtime calls `freeAll` here.
    EndTx,
}

/// Running totals over generated operations (for validating the stream
/// against Table 3).
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize)]
pub struct StreamStats {
    /// `Malloc` ops generated.
    pub mallocs: u64,
    /// `Free` ops generated.
    pub frees: u64,
    /// `Realloc` ops generated.
    pub reallocs: u64,
    /// Transactions completed.
    pub transactions: u64,
    /// Total bytes requested by `Malloc` ops.
    pub bytes_requested: u64,
}

impl StreamStats {
    /// Mean allocation size over the generated stream.
    pub fn mean_alloc_bytes(&self) -> f64 {
        if self.mallocs == 0 {
            return 0.0;
        }
        self.bytes_requested as f64 / self.mallocs as f64
    }
}

/// Deterministic generator of transaction operations for one process.
///
/// # Examples
///
/// ```
/// use webmm_workload::{mediawiki_read, TxStream, WorkOp};
/// let mut stream = TxStream::new(mediawiki_read(), 64, 42);
/// let ops: Vec<WorkOp> = (0..10).map(|_| stream.next_op()).collect();
/// assert!(matches!(ops[0], WorkOp::Compute { .. } | WorkOp::StaticTouch { .. }));
/// ```
#[derive(Debug)]
pub struct TxStream {
    spec: WorkloadSpec,
    rng: ChaCha8Rng,
    sizes: SizeSampler,
    /// Mallocs per scaled transaction.
    tx_ticks: u64,
    /// Reallocs are issued every this many ticks.
    realloc_every: u64,
    next_id: u64,
    tick: u64,
    ticks_into_tx: u64,
    /// `ln(max_gap)`, the upper end of the log-uniform draw of an
    /// in-transaction lifetime (`max_gap` bounds that lifetime in ticks).
    log_max_gap: f64,
    /// Objects dying at each pending tick.
    deaths: Wheel,
    /// Objects touched (read) at each pending tick.
    touches: Wheel,
    /// Live objects and their current sizes. Ids come from the monotonic
    /// `next_id` counter, so the dense generation-stamped table replaces
    /// the original `HashMap`: no hashing per op, O(1) clear at `EndTx`.
    live: ObjectTable<u64>,
    /// Insertion-ordered ids for O(1)-ish random picks.
    live_order: Vec<u64>,
    queue: VecDeque<WorkOp>,
    stats: StreamStats,
}

impl TxStream {
    /// Creates a stream for `spec`, with per-transaction operation counts
    /// divided by `scale` (1 = the paper's full transaction sizes), seeded
    /// deterministically by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero or leaves fewer than 16 mallocs per
    /// transaction.
    pub fn new(spec: WorkloadSpec, scale: u32, seed: u64) -> Self {
        assert!(scale > 0, "scale must be nonzero");
        let tx_ticks = spec.mallocs_per_tx / u64::from(scale);
        assert!(
            tx_ticks >= 16,
            "scale {scale} leaves too few mallocs per transaction"
        );
        let reallocs = (spec.reallocs_per_tx / u64::from(scale)).max(1);
        let sizes = SizeSampler::new(spec.mean_alloc_bytes);
        let max_gap = (tx_ticks / 2).clamp(2, 1024);
        // In-transaction deaths, and the touches before them, land at most
        // `max_gap` ticks ahead; survivor touches at most
        // `SURVIVOR_TOUCH_REACH`. Only cross-transaction deaths overflow.
        let reach = max_gap.max(tx_ticks.min(SURVIVOR_TOUCH_REACH));
        TxStream {
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x5eed_c0de),
            sizes,
            tx_ticks,
            realloc_every: (tx_ticks / reallocs).max(1),
            next_id: 1,
            tick: 0,
            ticks_into_tx: 0,
            log_max_gap: (max_gap as f64).ln(),
            deaths: Wheel::new(reach),
            touches: Wheel::new(reach),
            // Live ids span at most ~6 transactions (cross-tx lifetimes
            // cap at 4 whole transactions plus an in-tx remainder), so
            // 8× the per-tx tick count avoids ever growing.
            live: ObjectTable::with_capacity((tx_ticks * 8) as usize),
            live_order: Vec::new(),
            queue: VecDeque::new(),
            stats: StreamStats::default(),
            spec,
        }
    }

    /// The workload specification driving this stream.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Mallocs per (scaled) transaction.
    pub fn tx_ticks(&self) -> u64 {
        self.tx_ticks
    }

    /// Statistics over everything generated so far.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Produces the next operation. The stream is infinite.
    pub fn next_op(&mut self) -> WorkOp {
        while self.queue.is_empty() {
            self.generate_tick();
        }
        self.queue.pop_front().expect("queue refilled")
    }

    fn pick_live(&mut self) -> Option<u64> {
        while !self.live_order.is_empty() {
            let idx = self.rng.gen_range(0..self.live_order.len());
            let id = self.live_order[idx];
            if self.live.contains(id) {
                return Some(id);
            }
            // Lazily drop stale entries (objects freed since insertion).
            self.live_order.swap_remove(idx);
        }
        None
    }

    fn generate_tick(&mut self) {
        // 1. Deaths, then touches, that fall due at this tick. Done before
        //    the transaction-boundary check so lifetimes clamped to the
        //    final tick still emit their per-object free before freeAll.
        let (live, queue, stats) = (&mut self.live, &mut self.queue, &mut self.stats);
        self.deaths.drain(self.tick, |id| {
            if live.remove(id).is_some() {
                // Objects are typically read one last time right before
                // dying (string consumed, array iterated, zval refcount
                // dropped).
                queue.push_back(WorkOp::Touch { id, write: false });
                queue.push_back(WorkOp::Free { id });
                stats.frees += 1;
            }
        });
        self.touches.drain(self.tick, |id| {
            if live.contains(id) {
                queue.push_back(WorkOp::Touch { id, write: false });
            }
        });

        // Transaction boundary.
        if self.ticks_into_tx == self.tx_ticks {
            self.queue.push_back(WorkOp::EndTx);
            self.ticks_into_tx = 0;
            self.stats.transactions += 1;
            if self.spec.bulk_free_at_end {
                // freeAll kills everything: drop all pending lifetimes.
                // The live table's clear is a generation bump — O(1).
                self.deaths.clear(self.tick);
                self.touches.clear(self.tick);
                self.live.clear();
                self.live_order.clear();
            }
            return;
        }

        // 2. Application work: compute plus a static-data touch.
        self.queue.push_back(WorkOp::Compute {
            instr: self.spec.app_instr_per_malloc,
        });
        let off = self
            .rng
            .gen_range(0..self.spec.static_bytes.saturating_sub(256).max(1));
        self.queue.push_back(WorkOp::StaticTouch {
            offset: off,
            len: 64,
        });

        // 3. The allocation of this tick.
        let id = self.next_id;
        self.next_id += 1;
        let size = self.sizes.sample(&mut self.rng);
        self.queue.push_back(WorkOp::Malloc { id, size });
        self.queue.push_back(WorkOp::Touch { id, write: true });
        self.live.insert(id, size);
        self.live_order.push(id);
        self.stats.mallocs += 1;
        self.stats.bytes_requested += size;

        // 4. Lifetime scheduling.
        let p_free = self.spec.per_object_free_ratio();
        if self.rng.gen_bool(p_free.min(1.0)) {
            let gap = self.draw_gap();
            self.deaths.push(self.tick, self.tick + gap, id);
            // Mid-life read touches.
            for k in 1..=self.spec.touches_per_object as u64 {
                let at = self.tick + (gap * k) / (u64::from(self.spec.touches_per_object) + 1);
                if at > self.tick {
                    self.touches.push(self.tick, at, id);
                }
            }
        } else if self.spec.bulk_free_at_end {
            // Survivor: lives to freeAll; touch it once mid-transaction.
            let reach = self.tx_ticks.min(SURVIVOR_TOUCH_REACH);
            let at = self.tick + self.rng.gen_range(1..=reach);
            self.touches.push(self.tick, at, id);
        }

        // 5. Occasional realloc (growing a string/array).
        if self.ticks_into_tx % self.realloc_every == self.realloc_every - 1 {
            if let Some(rid) = self.pick_live() {
                let old = self.live.get(rid).expect("picked id is live");
                let new_size = (old + old / 2 + 8).min(32 * 1024);
                self.live.insert(rid, new_size);
                self.queue.push_back(WorkOp::Realloc { id: rid, new_size });
                self.stats.reallocs += 1;
            }
        }

        self.tick += 1;
        self.ticks_into_tx += 1;
    }

    /// Draws an object lifetime in allocation ticks: LIFO-biased
    /// (log-uniform, at most `max_gap`) short lives, clamped to die before
    /// the transaction ends for bulk-freeing runtimes; a configured
    /// fraction crosses transaction boundaries otherwise.
    fn draw_gap(&mut self) -> u64 {
        if !self.spec.bulk_free_at_end && self.rng.gen_bool(self.spec.cross_tx_fraction) {
            // Ruby: survives 1-4 transactions past this one.
            let txs = self.rng.gen_range(1u64..=4);
            return txs * self.tx_ticks + self.rng.gen_range(0..self.tx_ticks);
        }
        let gap = self.rng.gen_range(0.0..self.log_max_gap).exp() as u64;
        let gap = gap.max(1);
        if self.spec.bulk_free_at_end {
            // Die before freeAll: remaining ticks in this transaction.
            let remaining = self.tx_ticks - self.ticks_into_tx;
            gap.min(remaining.max(1))
        } else {
            gap
        }
    }
}

/// How far ahead a bulk-freed survivor's one mid-transaction touch may
/// land, in ticks.
const SURVIVOR_TOUCH_REACH: u64 = 256;

/// Object ids keyed by the tick at which they fall due: a timing wheel.
///
/// The ring has one bucket per tick over a span of `ring.len()` ticks (a
/// power of two); `ring[t & mask]` lists the ids due at tick `t`, in push
/// order. The lists are threaded through one node slab with a free list,
/// so a warmed wheel never allocates: the slab only grows when more ids
/// are pending at once than ever before. (A `Vec` per bucket would keep
/// allocating for thousands of transactions: the deaths clamped to a PHP
/// transaction's last tick pile into one bucket, a different one each
/// transaction.)
///
/// An id due beyond the span goes to the overflow, ordered by `(tick,
/// push sequence)`, and is cascaded into its bucket at the start of the
/// first tick whose span covers it. Every direct push for that bucket
/// happens at that tick or later, so cascaded ids precede them and each
/// bucket drains in the order its ids were scheduled.
#[derive(Debug)]
struct Wheel {
    ring: Vec<Bucket>,
    mask: u64,
    nodes: Vec<Node>,
    /// Head of the list of recycled `nodes`.
    free: u32,
    /// Latest tick a bucket was filled for; every listed id is due in
    /// `now..=horizon`.
    horizon: u64,
    overflow: BinaryHeap<Reverse<(u64, u64, u64)>>,
    /// Push sequence number for overflow entries.
    seq: u64,
}

/// End of a node list.
const NIL: u32 = u32::MAX;

/// First and last node of one tick's list.
#[derive(Copy, Clone, Debug)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

#[derive(Copy, Clone, Debug)]
struct Node {
    id: u64,
    next: u32,
}

impl Wheel {
    /// A wheel whose ring holds every id due at most `reach` ticks ahead.
    fn new(reach: u64) -> Self {
        let len = (reach + 1).next_power_of_two();
        Wheel {
            ring: vec![EMPTY; len as usize],
            mask: len - 1,
            nodes: Vec::new(),
            free: NIL,
            horizon: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn span(&self) -> u64 {
        self.mask + 1
    }

    /// Schedules `id` at tick `at`, as seen from tick `now < at`.
    fn push(&mut self, now: u64, at: u64, id: u64) {
        debug_assert!(at > now, "events are scheduled strictly ahead");
        if at - now < self.span() {
            self.link(at, id);
        } else {
            self.overflow.push(Reverse((at, self.seq, id)));
            self.seq += 1;
        }
    }

    /// Appends `id` to tick `at`'s list.
    fn link(&mut self, at: u64, id: u64) {
        let node = Node { id, next: NIL };
        let n = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("pending ids fit u32")
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        };
        let bucket = &mut self.ring[(at & self.mask) as usize];
        if bucket.head == NIL {
            bucket.head = n;
        } else {
            self.nodes[bucket.tail as usize].next = n;
        }
        bucket.tail = n;
        self.horizon = self.horizon.max(at);
    }

    /// Calls `f` on every id due at `now`, in scheduling order, and
    /// empties that bucket. Must run at the start of every tick, before
    /// the tick schedules anything: it first cascades the overflow
    /// entries that `now`'s span covers.
    fn drain(&mut self, now: u64, mut f: impl FnMut(u64)) {
        while let Some(&Reverse((at, _, id))) = self.overflow.peek() {
            if at - now >= self.span() {
                break;
            }
            self.overflow.pop();
            self.link(at, id);
        }
        let bucket = std::mem::replace(&mut self.ring[(now & self.mask) as usize], EMPTY);
        let mut n = bucket.head;
        while n != NIL {
            let node = self.nodes[n as usize];
            f(node.id);
            self.nodes[n as usize].next = self.free;
            self.free = n;
            n = node.next;
        }
    }

    /// Drops everything pending. Only the buckets of the pending window
    /// are touched; the slab keeps its capacity.
    fn clear(&mut self, now: u64) {
        for t in now..=self.horizon {
            self.ring[(t & self.mask) as usize] = EMPTY;
        }
        self.nodes.clear();
        self.free = NIL;
        self.overflow.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{mediawiki_read, phpbb, rails, specweb};

    /// Drains ops until `n` transactions complete.
    fn run_transactions(stream: &mut TxStream, n: u64) -> Vec<WorkOp> {
        let mut ops = Vec::new();
        let mut done = 0;
        while done < n {
            let op = stream.next_op();
            if op == WorkOp::EndTx {
                done += 1;
            }
            ops.push(op);
        }
        ops
    }

    #[test]
    fn stream_is_deterministic() {
        let mut a = TxStream::new(phpbb(), 64, 123);
        let mut b = TxStream::new(phpbb(), 64, 123);
        for _ in 0..5000 {
            assert_eq!(a.next_op(), b.next_op());
        }
        let mut c = TxStream::new(phpbb(), 64, 124);
        let differs = (0..5000).any(|_| a.next_op() != c.next_op());
        assert!(differs, "different seeds must differ");
    }

    #[test]
    fn counts_track_table3() {
        let spec = mediawiki_read();
        let scale = 16;
        let mut s = TxStream::new(spec.clone(), scale, 7);
        run_transactions(&mut s, 8);
        let st = s.stats();
        let per_tx_mallocs = st.mallocs as f64 / st.transactions as f64;
        let target_mallocs = (spec.mallocs_per_tx / scale as u64) as f64;
        assert!(
            (per_tx_mallocs - target_mallocs).abs() / target_mallocs < 0.01,
            "mallocs/tx {per_tx_mallocs} vs {target_mallocs}"
        );
        let free_ratio = st.frees as f64 / st.mallocs as f64;
        let target_ratio = spec.per_object_free_ratio();
        assert!(
            (free_ratio - target_ratio).abs() < 0.05,
            "free ratio {free_ratio} vs {target_ratio}"
        );
        let mean = st.mean_alloc_bytes();
        assert!(
            (mean - spec.mean_alloc_bytes).abs() / spec.mean_alloc_bytes < 0.10,
            "mean size {mean} vs {}",
            spec.mean_alloc_bytes
        );
        let reallocs_per_tx = st.reallocs as f64 / st.transactions as f64;
        let target_reallocs = (spec.reallocs_per_tx / scale as u64) as f64;
        assert!(
            (reallocs_per_tx - target_reallocs).abs() / target_reallocs < 0.15,
            "reallocs/tx {reallocs_per_tx} vs {target_reallocs}"
        );
    }

    #[test]
    fn no_double_free_and_free_only_live() {
        let mut s = TxStream::new(phpbb(), 32, 3);
        let ops = run_transactions(&mut s, 6);
        let mut live = std::collections::HashSet::new();
        for op in ops {
            match op {
                WorkOp::Malloc { id, .. } => assert!(live.insert(id), "id reused"),
                WorkOp::Free { id } => assert!(live.remove(&id), "free of dead object"),
                WorkOp::Realloc { id, .. } | WorkOp::Touch { id, .. } => {
                    assert!(live.contains(&id), "op on dead object {id}");
                }
                WorkOp::EndTx => live.clear(), // freeAll
                _ => {}
            }
        }
    }

    #[test]
    fn php_streams_free_everything_before_end_tx_or_not_at_all() {
        // With bulk free, every Free must target an object of the current
        // transaction (checked implicitly by no_double_free); moreover,
        // after EndTx the stream starts from zero live objects.
        let mut s = TxStream::new(phpbb(), 32, 11);
        run_transactions(&mut s, 3);
        assert!(s.live.is_empty() || !s.spec.bulk_free_at_end);
    }

    #[test]
    fn rails_lifetimes_cross_transactions() {
        let mut s = TxStream::new(rails(), 64, 5);
        let ops = run_transactions(&mut s, 8);
        // Find an object allocated in tx k and freed in tx > k.
        let mut tx = 0u64;
        let mut born = std::collections::HashMap::new();
        let mut crossed = 0u64;
        for op in ops {
            match op {
                WorkOp::EndTx => tx += 1,
                WorkOp::Malloc { id, .. } => {
                    born.insert(id, tx);
                }
                WorkOp::Free { id } if born.get(&id).is_some_and(|&b| b < tx) => {
                    crossed += 1;
                }
                _ => {}
            }
        }
        assert!(
            crossed > 0,
            "Rails objects must cross transaction boundaries"
        );
    }

    #[test]
    fn lifetimes_are_short_and_lifo_biased() {
        let mut s = TxStream::new(mediawiki_read(), 16, 9);
        let ops = run_transactions(&mut s, 2);
        let mut birth_tick = std::collections::HashMap::new();
        let mut mallocs_seen = 0u64;
        let mut lifetimes = Vec::new();
        for op in &ops {
            match op {
                WorkOp::Malloc { id, .. } => {
                    mallocs_seen += 1;
                    birth_tick.insert(*id, mallocs_seen);
                }
                WorkOp::Free { id } => {
                    if let Some(b) = birth_tick.get(id) {
                        lifetimes.push(mallocs_seen - b);
                    }
                }
                _ => {}
            }
        }
        lifetimes.sort_unstable();
        let median = lifetimes[lifetimes.len() / 2];
        assert!(
            median <= 64,
            "median lifetime {median} should be short (LIFO bias)"
        );
    }

    #[test]
    fn specweb_structure() {
        // SPECweb has big compute per malloc and bigger objects.
        let mut s = TxStream::new(specweb(), 16, 1);
        let ops = run_transactions(&mut s, 4);
        let computes: u64 = ops
            .iter()
            .map(|op| {
                if let WorkOp::Compute { instr } = op {
                    *instr
                } else {
                    0
                }
            })
            .sum();
        let mallocs = ops
            .iter()
            .filter(|o| matches!(o, WorkOp::Malloc { .. }))
            .count() as u64;
        assert!(computes / mallocs >= 10_000);
        assert!(s.stats().mean_alloc_bytes() > 120.0);
    }

    #[test]
    fn wheel_ring_is_bounded_independently_of_scale() {
        // Rails at full size: 99 195-tick transactions whose
        // cross-transaction deaths land up to five transactions ahead. The
        // ring covers only in-transaction lifetimes; the rest overflow.
        let mut s = TxStream::new(rails(), 1, 5);
        assert!(s.deaths.ring.len() <= 2048, "{}", s.deaths.ring.len());
        assert!(s.touches.ring.len() <= 2048, "{}", s.touches.ring.len());
        for _ in 0..200_000 {
            s.next_op();
        }
        assert!(
            !s.deaths.overflow.is_empty(),
            "cross-transaction deaths must go to the overflow"
        );
        assert!(s.deaths.ring.len() <= 2048 && s.touches.ring.len() <= 2048);
        for scale in [16, 64, 1024] {
            let s = TxStream::new(phpbb(), scale, 0);
            assert!(s.deaths.ring.len() <= 2048);
        }
    }

    #[test]
    fn wheel_drains_each_tick_in_scheduling_order() {
        // Span 4: tick 9 is beyond it from tick 1, within it from tick 6.
        let mut w = Wheel::new(3);
        assert_eq!(w.span(), 4);
        w.push(1, 9, 10); // overflow
        w.push(2, 9, 11); // overflow
        w.push(2, 3, 12); // ring
        w.push(3, 7, 13); // overflow
        let mut drained = Vec::new();
        for now in 3..=9 {
            w.drain(now, |id| drained.push((now, id)));
            if now == 6 {
                w.push(6, 9, 14); // ring, after tick 6's cascade
            }
        }
        assert_eq!(drained, [(3, 12), (7, 13), (9, 10), (9, 11), (9, 14)]);
        assert!(w.overflow.is_empty());
    }

    #[test]
    fn wheel_clear_drops_ring_and_overflow() {
        let mut w = Wheel::new(3);
        w.push(0, 2, 1);
        w.push(0, 3, 2);
        w.push(0, 40, 3);
        w.clear(1);
        for now in 1..=40 {
            w.drain(now, |id| panic!("tick {now} kept id {id}"));
        }
        // The slab is reusable after a clear.
        w.push(40, 42, 4);
        let mut due = Vec::new();
        w.drain(41, |id| due.push(id));
        w.drain(42, |id| due.push(id));
        assert_eq!(due, [4]);
    }

    #[test]
    #[should_panic(expected = "too few mallocs")]
    fn absurd_scale_rejected() {
        TxStream::new(specweb(), 1000, 0);
    }
}
