//! In-process serving phases: one submitter thread in front of a
//! two-worker server, closed loop or open loop.

use crate::inputs::TxSet;
use crate::spans::Spans;
use crate::Outcome;
use std::time::{Duration, Instant};
use webmm_alloc::AllocatorKind;
use webmm_obs::TxSpan;
use webmm_server::{
    Admission, Ingress, ObsConfig, Server, ServerConfig, ServerReport, Transaction, TxBufferPool,
};

/// Worker threads per server: the host's CPU count the benchmark was
/// tuned on, fixed so results from hosts of other sizes stay comparable.
pub const WORKERS: usize = 2;

/// Starts a default-configured server (sharded ingress, batch 32,
/// capacity 128, `Block`) for `kind`, with the program's telemetry on only
/// when `traced`.
pub fn start(kind: AllocatorKind, traced: bool) -> Server {
    Server::start(ServerConfig {
        kind,
        workers: WORKERS,
        obs: traced.then(|| ObsConfig {
            trace_capacity: 4096,
            ..ObsConfig::default()
        }),
        ..ServerConfig::default()
    })
}

/// What one serving phase produced.
pub struct Served {
    pub report: ServerReport,
    /// First submission to `finish()` returning, drain included.
    pub wall_s: f64,
    pub submitted: u64,
    /// Submissions answered with anything but `Accepted`.
    pub refused: u64,
    /// `Ingress::submit` durations (traced phases only).
    pub submit_ns: Vec<u64>,
    /// How late each open-loop submission left against its schedule.
    pub late_ns: Vec<u64>,
    /// The server's own transaction spans (traced phases only).
    pub tx_spans: Vec<TxSpan>,
}

impl Served {
    pub fn tx_per_s(&self) -> f64 {
        self.report.completed as f64 / self.wall_s
    }

    /// Runs the serving correctness gate over this phase.
    pub fn check(&self, out: &mut Outcome, what: &str) {
        check_report(out, what, &self.report, self.submitted, self.refused);
    }
}

/// The gate every serving phase must pass: exact admission accounting,
/// every transaction answered `Accepted` and completed, and every heap
/// empty between transactions (phpBB has no lifetimes that cross them).
pub fn check_report(out: &mut Outcome, what: &str, r: &ServerReport, submitted: u64, refused: u64) {
    out.attempted += submitted;
    out.failed += submitted.saturating_sub(r.completed);
    out.require(r.submitted == submitted, || {
        format!(
            "{what}: server saw {} of {submitted} submissions",
            r.submitted
        )
    });
    out.require(r.submitted == r.completed + r.shed, || {
        format!(
            "{what}: submitted {} != completed {} + shed {}",
            r.submitted, r.completed, r.shed
        )
    });
    out.require(refused == 0 && r.shed == 0, || {
        format!("{what}: {refused} refused, {} shed", r.shed)
    });
    for w in &r.per_worker {
        out.require(w.max_live_after_tx == 0 && w.orphan_ops == 0, || {
            format!(
                "{what}: worker {} left {} live objects, {} orphan ops",
                w.worker, w.max_live_after_tx, w.orphan_ops
            )
        });
    }
}

/// Submits copies of the set's transactions back to back from the
/// calling thread until `dur` has passed, then drains.
pub fn closed(
    server: Server,
    set: &TxSet,
    dur: Duration,
    spans: Option<&Spans>,
    label: &'static str,
) -> Served {
    let mut sub = Submitter::new(&server, spans, "serve.closed", label);
    let start = Instant::now();
    while start.elapsed() < dur {
        sub.submit(set);
    }
    sub.finish(server, start)
}

/// Submits `rate` transactions per second on a fixed schedule for `dur`,
/// regardless of completions, then drains.
pub fn open(
    server: Server,
    set: &TxSet,
    rate: f64,
    dur: Duration,
    spans: Option<&Spans>,
    label: &'static str,
) -> Served {
    let total = (rate * dur.as_secs_f64()).ceil() as u64;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut sub = Submitter::new(&server, spans, "serve.open", label);
    sub.late_ns.reserve(total as usize);
    let start = Instant::now();
    for i in 0..total {
        let due = start + interval.mul_f64(i as f64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let late = Instant::now().saturating_duration_since(due);
        sub.late_ns.push(late.as_nanos() as u64);
        sub.submit(set);
    }
    sub.finish(server, start)
}

/// The load generator's side of one phase.
struct Submitter<'a> {
    ingress: Ingress,
    pool: std::sync::Arc<TxBufferPool>,
    spans: Option<&'a Spans>,
    phase: u64,
    name: &'static str,
    label: &'static str,
    next: u64,
    refused: u64,
    submit_ns: Vec<u64>,
    late_ns: Vec<u64>,
}

impl<'a> Submitter<'a> {
    fn new(
        server: &Server,
        spans: Option<&'a Spans>,
        name: &'static str,
        label: &'static str,
    ) -> Self {
        let ingress = server.ingress();
        Submitter {
            pool: ingress.pool(),
            ingress,
            spans,
            phase: spans.map_or(0, Spans::id),
            name,
            label,
            next: 0,
            refused: 0,
            submit_ns: Vec::new(),
            late_ns: Vec::new(),
        }
    }

    /// Copies the next transaction into a recycled buffer and offers it.
    fn submit(&mut self, set: &TxSet) {
        let mut ops = self.pool.get();
        ops.extend_from_slice(set.get(self.next));
        let tx = Transaction { id: self.next, ops };
        self.next += 1;
        let admission = match self.spans {
            None => self.ingress.submit(tx),
            Some(s) => {
                let start = Instant::now();
                let admission = self.ingress.submit(tx);
                let end = Instant::now();
                self.submit_ns.push((end - start).as_nanos() as u64);
                s.leaf(self.phase, "ingress.submit", self.label, start, end);
                admission
            }
        };
        if admission != Admission::Accepted {
            self.refused += 1;
        }
    }

    fn finish(self, server: Server, start: Instant) -> Served {
        let telemetry = server.telemetry().cloned();
        let report = server.finish();
        let end = Instant::now();
        if let Some(s) = self.spans {
            s.record(self.phase, 0, self.name, self.label, start, end);
        }
        Served {
            report,
            wall_s: (end - start).as_secs_f64(),
            submitted: self.next,
            refused: self.refused,
            submit_ns: self.submit_ns,
            late_ns: self.late_ns,
            tx_spans: telemetry.map(|t| t.dump_spans()).unwrap_or_default(),
        }
    }
}
