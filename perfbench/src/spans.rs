//! The traced run's span recorder.
//!
//! Every call the benchmark makes into a layer (generate, submit, execute,
//! encode, simulate, ...) becomes one [`Span`] with its parent phase, kept
//! in memory and written out as JSONL when the run ends, next to the
//! server's own [`TxSpan`]s. Untraced runs never build a recorder, so the
//! end-to-end numbers carry none of this cost.

use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use webmm_obs::TxSpan;

/// Spans kept per span name; later ones are counted as dropped, so a long
/// traced run cannot grow memory without bound, and a hot call such as
/// `ingress.submit` cannot crowd out the layers traced after it.
const MAX_PER_NAME: usize = 20_000;

/// One timed call into a layer.
pub struct Span {
    id: u64,
    parent: u64,
    /// Layer call, e.g. `ingress.submit`.
    name: &'static str,
    /// What the call served, e.g. an allocator id or a phase.
    label: &'static str,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Default)]
struct Store {
    spans: Vec<Span>,
    per_name: HashMap<&'static str, usize>,
}

/// In-memory span store shared by the benchmark's threads.
pub struct Spans {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Store>,
    tx_spans: Mutex<Vec<(&'static str, TxSpan)>>,
    dropped: AtomicU64,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Store::default()),
            tx_spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Reserves a span id, so children can name a parent that is still open.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a previously reserved `id`.
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        label: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let mut store = self.spans.lock().expect("span store poisoned");
        let kept = store.per_name.entry(name).or_default();
        if *kept >= MAX_PER_NAME {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        *kept += 1;
        store.spans.push(Span {
            id,
            parent,
            name,
            label,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    /// Records a finished span with a fresh id; returns the id.
    pub fn leaf(
        &self,
        parent: u64,
        name: &'static str,
        label: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        self.record(id, parent, name, label, start, end);
        id
    }

    /// Keeps the server's own transaction spans of one serving phase.
    pub fn add_tx_spans(&self, label: &'static str, spans: &[TxSpan]) {
        let mut store = self.tx_spans.lock().expect("span store poisoned");
        store.extend(spans.iter().map(|s| (label, s.clone())));
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans.lock().expect("span store poisoned").spans {
            writeln!(
                out,
                r#"{{"span":{},"parent":{},"name":"{}","label":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.name, s.label, s.start_ns, s.end_ns
            )?;
        }
        for (label, s) in self.tx_spans.lock().expect("span store poisoned").iter() {
            writeln!(
                out,
                r#"{{"tx":{},"label":"{}","worker":{},"enqueue_ns":{},"dequeue_ns":{},"complete_ns":{},"bytes_allocated":{},"shed":{}}}"#,
                s.tx_id,
                label,
                s.worker,
                s.enqueue_ns,
                s.dequeue_ns,
                s.complete_ns,
                s.bytes_allocated,
                s.shed
            )?;
        }
        writeln!(
            out,
            r#"{{"dropped_spans":{}}}"#,
            self.dropped.load(Ordering::Relaxed)
        )?;
        out.flush()
    }
}
