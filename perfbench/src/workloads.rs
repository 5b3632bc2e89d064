//! The untraced end-to-end runs, one function per workload.
//!
//! A run is cut into many short closed-loop samples, interleaved across
//! the allocators, and every metric reports the median of its samples.
//! The hosts this runs on share physical cores and slow down by up to
//! 1.8x for seconds at a time; many short interleaved samples keep such an
//! episode from landing on one allocator or one metric only. After the
//! timed samples, each run re-checks the outputs that are cheap to check
//! again: the executor's simulated instruction counts against the
//! behaviour fingerprint and, over TCP, that every pre-encoded frame
//! decodes back to its transaction.

use crate::inputs::{self, TxSet};
use crate::stats::median;
use crate::{layers, serve, tcp, Args, Metrics, Outcome, Workload, ALLOCS};
use std::time::{Duration, Instant};

/// Every this many rounds, the first included, each allocator's cell
/// generates the input set and starts its tier from scratch, timed as
/// `setup_s`; the other rounds reuse the set. Set-ups spread over the run
/// meet the host's slow episodes as often as the samples do.
const SETUP_EVERY: usize = 8;

/// Per-allocator samples of the end-to-end metrics.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    tx_per_s: [Vec<f64>; 3],
}

impl Samples {
    fn report(&self, m: &mut Metrics) {
        m.put("setup_s", median(&self.setup_s), "s");
        for (a, kind) in ALLOCS.iter().enumerate() {
            m.put(
                format!("tx_per_s.{}", kind.id()),
                median(&self.tx_per_s[a]),
                "tx/s",
            );
        }
    }
}

pub fn run(args: &Args, m: &mut Metrics, out: &mut Outcome, fingerprint: &mut Vec<(String, f64)>) {
    let w = args.workload;
    let d = Duration::from_secs_f64(sample_s(w));
    let mut s = Samples::default();
    let mut set = None;
    // Rounds run while another one of the last one's length still fits
    // the budget, drains and set-ups included.
    let budget = Duration::from_secs_f64(args.seconds);
    let run_start = Instant::now();
    let mut last_round = Duration::ZERO;
    let mut round = 0;
    while round == 0 || run_start.elapsed() + last_round <= budget {
        let round_start = Instant::now();
        let setup = round % SETUP_EVERY == 0;
        for (a, &kind) in ALLOCS.iter().enumerate() {
            let start = Instant::now();
            if setup {
                set = Some(w.inputs(args.seed, None));
            }
            let set = set.as_ref().expect("the first round generates the set");
            let tx_per_s = if w == Workload::TcpSmall {
                // Two persistent connections, closed loop, pre-encoded frames.
                let tier = tcp::start(kind, set, 2, false).expect("loopback tier starts");
                if setup {
                    s.setup_s.push(start.elapsed().as_secs_f64());
                }
                let served = tcp::closed(tier, d, None, kind.id());
                served.check(out, &format!("{} tcp", kind.id()));
                served.tx_per_s()
            } else {
                let server = serve::start(kind, false);
                if setup {
                    s.setup_s.push(start.elapsed().as_secs_f64());
                }
                let served = serve::closed(server, set, d, None, kind.id());
                served.check(out, &format!("{} closed loop", kind.id()));
                served.tx_per_s()
            };
            s.tx_per_s[a].push(tx_per_s);
        }
        last_round = round_start.elapsed();
        round += 1;
    }
    s.report(m);

    let set: TxSet = set.expect("the first round generates the set");
    layers::execute_set(&set, w.scale(), None, out, fingerprint);
    if w == Workload::TcpSmall {
        inputs::check_frames(&set, &inputs::encode_all(&set), out);
    }
}

/// Seconds one serving sample runs before it drains: long enough for
/// hundreds of transactions at the slowest allocator's rate.
fn sample_s(w: Workload) -> f64 {
    if w.scale() == 1024 {
        0.1
    } else {
        0.4
    }
}
