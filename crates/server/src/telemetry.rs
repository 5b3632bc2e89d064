//! Live telemetry for a serving run: sampler, JSONL exporter, dashboard.
//!
//! When a [`ServerConfig`](crate::ServerConfig) carries an [`ObsConfig`],
//! the server threads a shared [`ServerTelemetry`] through the queue and
//! every worker, and a sampler thread wakes at the configured interval to
//! assemble an [`ObsSample`]: queue depth, admission counters, the
//! sliding-window latency quantiles, the sharded metric registry, and the
//! most recent heap snapshot each worker published. Samples stream to a
//! JSONL file (one JSON object per line, `serde`-compatible with the
//! `ServerReport` types), so a run can be watched — or post-processed —
//! while it is still serving.
//!
//! The instrumentation mirrors the discipline of the allocators it
//! observes: workers touch only per-worker atomic shards and their own
//! mutex-free state on the hot path, and snapshotting is done entirely by
//! the reader. See DESIGN.md ("Observability") for why this is the
//! telemetry analogue of DDmalloc's no-per-object-header rule.

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use webmm_obs::{
    HeapSnapshot, LatencySummary, MetricKind, MetricSample, MetricsRegistry, ShardSample,
    SlidingWindow, TxSpan, TxTracer,
};

use crate::shard::ShardedTxQueue;

/// Configuration of the live-telemetry subsystem.
#[derive(Clone, Debug)]
pub struct ObsConfig {
    /// Sampling interval; the sliding latency window covers
    /// `window_slots × interval`.
    pub interval: Duration,
    /// JSONL time-series destination (`None`: sample in memory only).
    pub out: Option<PathBuf>,
    /// Run label stamped into every sample (e.g. `ddmalloc-w8`).
    pub run: String,
    /// Sliding-window slot count (minimum 2).
    pub window_slots: usize,
    /// Per-worker transaction-span ring capacity.
    pub trace_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            interval: Duration::from_millis(10),
            out: None,
            run: String::new(),
            window_slots: 8,
            trace_capacity: 256,
        }
    }
}

/// Shared telemetry state for one serving run.
pub struct ServerTelemetry {
    /// Sharded counter/gauge registry (one shard per worker).
    pub registry: MetricsRegistry,
    /// Sliding-window latency view; the sampler rotates it every interval.
    pub window: SlidingWindow,
    /// Per-worker transaction span rings plus the shed lane.
    pub tracer: TxTracer,
    /// Latest heap snapshot each worker published (snapshot-on-read: the
    /// worker overwrites its slot at transaction boundaries, the sampler
    /// clones it out; the mutex is uncontended worker-private state).
    heap_slots: Vec<Mutex<HeapSnapshot>>,
    /// Minimum wall time between two heap publications from one worker.
    publish_every: Duration,
    run: String,
}

impl ServerTelemetry {
    /// Builds the telemetry plane for `workers` worker threads.
    pub fn new(config: &ObsConfig, workers: usize) -> Self {
        ServerTelemetry {
            registry: MetricsRegistry::new(workers),
            window: SlidingWindow::new(config.window_slots),
            tracer: TxTracer::new(workers, config.trace_capacity),
            heap_slots: (0..workers)
                .map(|_| Mutex::new(HeapSnapshot::default()))
                .collect(),
            // Publishing at a quarter of the sampling interval keeps every
            // sample fresh without snapshotting on every transaction.
            publish_every: config.interval / 4,
            run: config.run.clone(),
        }
    }

    /// How often a worker should refresh its heap slot.
    pub fn publish_every(&self) -> Duration {
        self.publish_every
    }

    /// Stores `snap` as worker `worker`'s current heap state.
    pub fn publish_heap(&self, worker: usize, snap: HeapSnapshot) {
        if let Some(slot) = self.heap_slots.get(worker) {
            *slot.lock().expect("heap slot lock") = snap;
        }
    }

    /// All spans currently retained, oldest first per ring, merged and
    /// sorted by completion time.
    pub fn dump_spans(&self) -> Vec<TxSpan> {
        self.tracer.dump()
    }

    /// Assembles one time-series sample from the current state. The
    /// queue's depth, counters, and per-shard breakdown come from one
    /// coherent [`snapshot`](ShardedTxQueue::snapshot) — a single lock
    /// acquisition per shard, not separate `depth()`/`counters()` locks.
    pub(crate) fn sample(&self, queue: &ShardedTxQueue) -> ObsSample {
        let snap = queue.snapshot();
        ObsSample {
            run: self.run.clone(),
            t_ns: self.tracer.now_ns(),
            queue_depth: snap.depth,
            submitted: snap.counters.submitted,
            shed: snap.counters.shed,
            shards: snap.shards,
            completed: self.registry.value("tx_completed").unwrap_or(0),
            window: self.window.summary(),
            counters: self.registry.snapshot().samples,
            workers: self
                .heap_slots
                .iter()
                .enumerate()
                .map(|(w, slot)| WorkerHeapSample {
                    worker: w as u64,
                    heap: slot.lock().expect("heap slot lock").clone(),
                })
                .collect(),
        }
    }
}

/// Metric names the workers publish through the registry. Centralized so
/// the sampler, dashboard and tests agree on spelling.
pub(crate) mod metric {
    /// Transactions fully executed (counter, per-worker shard).
    pub const TX_COMPLETED: &str = "tx_completed";
    /// Bytes requested from the allocator (counter).
    pub const BYTES_REQUESTED: &str = "bytes_requested";
    /// Ops referencing objects the worker never allocated (gauge: each
    /// worker `set`s its cumulative count, shards sum on read).
    pub const ORPHAN_OPS: &str = "orphan_ops";
    /// Live heap bytes at the last published snapshot (gauge).
    pub const HEAP_BYTES: &str = "heap_bytes";
    /// Transactions obtained by stealing from another worker's shard
    /// (counter, charged to the thief's shard).
    pub const TX_STOLEN: &str = "tx_stolen";
}

/// One row of the exported time series.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ObsSample {
    /// Run label from [`ObsConfig::run`].
    pub run: String,
    /// Nanoseconds since the telemetry plane came up.
    pub t_ns: u64,
    /// Transactions queued at sampling time.
    pub queue_depth: u64,
    /// Cumulative submissions at sampling time.
    pub submitted: u64,
    /// Cumulative sheds at sampling time.
    pub shed: u64,
    /// Per-shard depth, admission, and steal counters (one entry in
    /// global mode).
    pub shards: Vec<ShardSample>,
    /// Cumulative completions at sampling time.
    pub completed: u64,
    /// Latency quantiles over the sliding window (not since start).
    pub window: LatencySummary,
    /// Every registered metric, summed across shards.
    pub counters: Vec<MetricSample>,
    /// Latest per-worker heap snapshots.
    pub workers: Vec<WorkerHeapSample>,
}

/// A worker's heap state within an [`ObsSample`].
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct WorkerHeapSample {
    /// Worker index.
    pub worker: u64,
    /// The snapshot the worker last published.
    pub heap: HeapSnapshot,
}

/// Plain-text dashboard rendering of one sample, built from the
/// `webmm-profiler` report primitives.
pub fn render_dashboard(sample: &ObsSample) -> String {
    use webmm_profiler::report::{bar, bytes, heading, table};
    let mut out = String::new();
    let label = if sample.run.is_empty() {
        "live telemetry"
    } else {
        &sample.run
    };
    out.push_str(&heading(&format!(
        "{label} @ {:.2}s",
        sample.t_ns as f64 / 1e9
    )));
    out.push_str(&format!(
        "queue {:>4}  submitted {:>8}  completed {:>8}  shed {:>6}\n",
        sample.queue_depth, sample.submitted, sample.completed, sample.shed
    ));
    let w = &sample.window;
    out.push_str(&format!(
        "window: {} tx  p50 {:.1}us  p95 {:.1}us  p99 {:.1}us  max {:.1}us\n",
        w.count,
        w.p50_ns as f64 / 1e3,
        w.p95_ns as f64 / 1e3,
        w.p99_ns as f64 / 1e3,
        w.max_ns as f64 / 1e3,
    ));
    let max_heap = sample
        .workers
        .iter()
        .map(|s| s.heap.heap_bytes)
        .max()
        .unwrap_or(0);
    let mut rows = vec![vec![
        "worker".to_string(),
        "allocator".to_string(),
        "heap".to_string(),
        "touched".to_string(),
        "live".to_string(),
        "free-lists".to_string(),
        "freeAlls".to_string(),
        "".to_string(),
    ]];
    for ws in &sample.workers {
        let h = &ws.heap;
        rows.push(vec![
            ws.worker.to_string(),
            h.allocator.clone(),
            bytes(h.heap_bytes),
            bytes(h.touched_bytes),
            h.live_objects().to_string(),
            h.free_list_len.to_string(),
            h.free_all_count.to_string(),
            bar(h.heap_bytes as f64, max_heap as f64, 16),
        ]);
    }
    out.push_str(&table(&rows));
    out
}

/// Handle to the sampler thread; dropped into the [`Server`](crate::Server)
/// and stopped at drain time.
pub(crate) struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<ObsSample>>,
}

impl Sampler {
    /// Spawns the sampler thread: every `interval` it rotates the latency
    /// window, assembles a sample, and appends it as one JSON line to the
    /// configured output. Returns the collected samples at stop.
    pub(crate) fn spawn(
        telemetry: Arc<ServerTelemetry>,
        queue: Arc<ShardedTxQueue>,
        config: &ObsConfig,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let interval = config.interval;
        let out_path = config.out.clone();
        let handle = std::thread::Builder::new()
            .name("webmm-obs-sampler".into())
            .spawn(move || {
                let mut out = out_path.map(|p| {
                    std::io::BufWriter::new(
                        std::fs::File::create(&p)
                            .unwrap_or_else(|e| panic!("obs out {}: {e}", p.display())),
                    )
                });
                let mut samples = Vec::new();
                loop {
                    let stopping = stop2.load(Ordering::Acquire);
                    if !stopping {
                        std::thread::sleep(interval);
                    }
                    telemetry.window.advance();
                    let sample = telemetry.sample(&queue);
                    if let Some(w) = out.as_mut() {
                        let line = serde_json::to_string(&sample).expect("serialize obs sample");
                        w.write_all(line.as_bytes()).expect("write obs sample");
                        w.write_all(b"\n").expect("write obs sample");
                    }
                    samples.push(sample);
                    if stopping {
                        break;
                    }
                }
                if let Some(mut w) = out {
                    w.flush().expect("flush obs samples");
                }
                samples
            })
            .expect("spawn obs sampler");
        Sampler { stop, handle }
    }

    /// Stops the sampler after one final sample and returns the series.
    pub(crate) fn stop(self) -> Vec<ObsSample> {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("obs sampler panicked")
    }
}

/// Pre-resolved metric handles for one worker's hot path.
pub(crate) struct WorkerMetrics {
    pub completed: webmm_obs::MetricHandle,
    pub bytes_requested: webmm_obs::MetricHandle,
    pub orphan_ops: webmm_obs::MetricHandle,
    pub heap_bytes: webmm_obs::MetricHandle,
    pub stolen: webmm_obs::MetricHandle,
}

impl WorkerMetrics {
    pub(crate) fn new(telemetry: &ServerTelemetry, worker: usize) -> Self {
        let reg = &telemetry.registry;
        WorkerMetrics {
            completed: reg.handle(metric::TX_COMPLETED, MetricKind::Counter, worker),
            bytes_requested: reg.handle(metric::BYTES_REQUESTED, MetricKind::Counter, worker),
            orphan_ops: reg.handle(metric::ORPHAN_OPS, MetricKind::Gauge, worker),
            heap_bytes: reg.handle(metric::HEAP_BYTES, MetricKind::Gauge, worker),
            stolen: reg.handle(metric::TX_STOLEN, MetricKind::Counter, worker),
        }
    }
}
