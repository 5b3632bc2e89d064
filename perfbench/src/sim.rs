//! The simulator workload: `webmm_runtime::run` called directly (never
//! through a result cache), phpBB at 1/16 on the Xeon model.

use crate::spans::Spans;
use std::time::Instant;
use webmm_alloc::AllocatorKind;
use webmm_runtime::{run, RunConfig, RunResult};
use webmm_sim::MachineConfig;

/// The transaction size the simulator harnesses use.
pub const SCALE: u32 = 16;

/// Core counts of the sweep: the two ends of the paper's crossover.
pub const CORES: [u32; 2] = [1, 8];

/// One simulated measurement and the host time it took.
pub struct SimCell {
    pub kind: AllocatorKind,
    pub cores: u32,
    pub host_s: f64,
    /// Transactions each context ran, warm-up included.
    pub tx_per_context: u64,
    pub result: RunResult,
}

impl SimCell {
    /// Exact counters that fingerprint the model's behaviour, keyed by
    /// `sim.<alloc>.<cores>c.<counter>`.
    pub fn fingerprint(&self) -> Vec<(String, f64)> {
        let total = self.result.total_events().total();
        let key = |what: &str| format!("sim.{}.{}c.{what}", self.kind.id(), self.cores);
        vec![
            (key("instructions"), total.instructions as f64),
            (key("l2_misses"), total.l2_misses as f64),
            (key("bus_txns"), total.bus_txns as f64),
            (key("model_tx_per_s"), self.result.throughput.tx_per_sec),
        ]
    }

    /// Transactions simulated, warm-up included, over all contexts.
    pub fn sim_tx(&self) -> u64 {
        self.result.contexts as u64 * self.tx_per_context
    }

    /// Simulated data loads, stores and instruction-fetch lines over the
    /// whole run, extrapolated from the measured window to the warm-up.
    pub fn accesses(&self) -> f64 {
        let t = self.result.total_events().total();
        (t.loads + t.stores + t.ifetch_lines) as f64 * self.tx_per_context as f64
            / self.result.measured_tx as f64
    }
}

/// The run configuration of one cell.
fn config(kind: AllocatorKind, cores: u32, seed: u64) -> RunConfig {
    let mut cfg = RunConfig::new(kind, webmm_workload::phpbb())
        .scale(SCALE)
        .cores(cores);
    cfg.seed = seed;
    cfg
}

/// Simulates one cell.
pub fn cell(kind: AllocatorKind, cores: u32, seed: u64, spans: Option<&Spans>) -> SimCell {
    let cfg = config(kind, cores, seed);
    let machine = MachineConfig::xeon_clovertown();
    let start = Instant::now();
    let result = run(&machine, &cfg);
    let end = Instant::now();
    if let Some(s) = spans {
        s.leaf(0, "sim.run", kind.id(), start, end);
    }
    SimCell {
        kind,
        cores,
        host_s: (end - start).as_secs_f64(),
        tx_per_context: cfg.warmup_tx + cfg.measure_tx,
        result,
    }
}
