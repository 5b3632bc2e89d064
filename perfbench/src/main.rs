//! One benchmark for the whole webmm stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <inproc-small|inproc-large|tcp-small> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload serves the three PHP-study allocators (php-default,
//! region, ddmalloc) on two workers and prints its end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a separate traced run
//! (`--trace 1`), one per line with its unit, then a provenance line, then
//! one JSON result line. Inputs are generated from `--seed` during set-up,
//! so the program under test only ever receives finished transactions.
//! Every run checks its outputs (admission accounting, empty heaps between
//! transactions, wire reconciliation, the behaviour fingerprint) and exits
//! 1 when a check fails.
//!
//! Why these workloads:
//!
//! * `inproc-small` — phpBB at 1/1024: per-transaction overheads (ingress
//!   lock, buffer pool, submit copy) are a large share of the work,
//!   especially for region.
//! * `inproc-large` — phpBB at 1/16: executor, allocator and simulated
//!   memory do nearly all the work; per-transaction changes should not
//!   move it, per-op changes move it most.
//! * `tcp-small` — `inproc-small`'s transactions over loopback TCP from two
//!   persistent connections: framing, syscalls and handler hand-off.
//!
//! The traced run of any workload also times the Xeon model at 1 and 8
//! cores (`webmm_runtime::run` called directly), the only layers no
//! serving workload reaches: cache/TLB/bus model and in-loop generator.

mod fingerprint;
mod inputs;
mod layers;
mod serve;
mod sim;
mod spans;
mod stats;
mod tcp;
mod workloads;

use fingerprint::Fingerprint;
use inputs::TxSet;
use spans::Spans;
use std::path::PathBuf;
use webmm_alloc::AllocatorKind;

/// The allocators every workload compares, in report order.
pub const ALLOCS: [AllocatorKind; 3] = AllocatorKind::PHP_STUDY;

/// Distinct transactions generated for a small-transaction set; served
/// cyclically.
const SMALL_SET: usize = 1024;
/// Distinct transactions in a large-transaction set (each ≈64× a small one).
const LARGE_SET: usize = 32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    InprocSmall,
    InprocLarge,
    TcpSmall,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::InprocSmall,
        Workload::InprocLarge,
        Workload::TcpSmall,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::InprocSmall => "inproc-small",
            Workload::InprocLarge => "inproc-large",
            Workload::TcpSmall => "tcp-small",
        }
    }

    /// phpBB scale divisor of the workload's transactions.
    pub fn scale(self) -> u32 {
        match self {
            Workload::InprocSmall | Workload::TcpSmall => 1024,
            Workload::InprocLarge => sim::SCALE,
        }
    }

    /// Fixed open-loop arrival rate of the traced run, tx/s: well under
    /// php-default's capacity on two workers at this transaction size (on
    /// the small set, a quarter of it).
    pub fn open_rate(self) -> f64 {
        if self.scale() == 1024 {
            10_000.0
        } else {
            200.0
        }
    }

    /// The seeded transaction set the workload serves.
    pub fn inputs(self, seed: u64, spans: Option<&Spans>) -> TxSet {
        let count = if self.scale() == 1024 {
            SMALL_SET
        } else {
            LARGE_SET
        };
        TxSet::generate(self.scale(), seed, count, spans)
    }
}

/// Correctness bookkeeping of one run.
#[derive(Default)]
pub struct Outcome {
    /// Units of work offered (transactions, or simulated transactions).
    pub attempted: u64,
    /// Units that did not complete as required.
    pub failed: u64,
    /// Every failed check, in words.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Metrics in report order: name, value, unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!(
        "usage: perfbench --workload <inproc-small|inproc-large|tcp-small> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("missing value for {flag}")));
        let bad = || -> ! { usage(&format!("bad value for {flag}: {value}")) };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .unwrap_or_else(|| bad()),
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| bad())),
            "--seconds" => {
                let s = value.parse::<f64>().unwrap_or_else(|_| bad());
                if !(s.is_finite() && s > 0.0) {
                    bad();
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                });
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// The host CPU's brand string, read with `cpuid` (no file access).
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        // SAFETY: `cpuid` exists on every x86_64 CPU, and the brand-string
        // leaves only return zeros where a CPU does not implement them.
        #[allow(unused_unsafe)]
        let r = unsafe { __cpuid(leaf) };
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    let text = String::from_utf8_lossy(&bytes);
    text.trim_matches(char::from(0)).trim().to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".to_string()
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&serde::Value::Str(s.to_string())).expect("strings serialize")
}

fn main() {
    let args = parse_args();
    let fp = Fingerprint::load();
    let mut m = Metrics::default();
    let mut out = Outcome::default();
    let mut measured = Vec::new();
    if args.trace {
        let spans = Spans::new();
        layers::run(&args, &spans, &mut m, &mut out, &mut measured);
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.jsonl", args.workload.name()));
        match spans.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => out.require(false, || format!("writing {}: {e}", path.display())),
        }
    } else {
        workloads::run(&args, &mut m, &mut out, &mut measured);
    }
    fp.check(args.seed, &measured, &mut out);

    for (name, value, unit) in &m.0 {
        println!("{name} {value} {unit}");
    }
    if let Some((_, ratio, _)) = m.0.iter().find(|(n, _, _)| n == "obs.overhead_ratio") {
        println!(
            "obs.overhead_ratio {ratio:.4}: telemetry budget is a ratio of at least 0.98 (2% overhead); {}",
            if *ratio >= 0.98 { "within budget" } else { "over budget" }
        );
    }
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "provenance {{\"workload\":{},\"seed\":{},\"default_seed\":{},\"held_out_seed\":{},\"seconds\":{},\"trace\":{},\"available_parallelism\":{parallelism},\"cpu\":{},\"rustc\":{},\"commit\":{},\"network\":\"loopback TCP only (127.0.0.1)\"}}",
        json_str(args.workload.name()),
        args.seed,
        fp.default_seed,
        fp.held_out_seed,
        args.seconds,
        args.trace,
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_COMMIT")),
    );

    let correct = out.errors.is_empty();
    let metrics: Vec<String> =
        m.0.iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(name),
                    serde_json::to_string(&serde::Value::F64(*value)).expect("numbers serialize"),
                    json_str(unit)
                )
            })
            .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
