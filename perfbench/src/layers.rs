//! The traced run: every layer timed on its own, on the workload's
//! transaction set, with spans around each call.
//!
//! Each probe drives one layer's public API directly — generator,
//! executor, allocator calls, simulated memory, wire codec, ingress and
//! workers (through traced serving phases), the TCP front-end, and the
//! simulator — so a change to one layer shows in its own number. Every
//! traced run reports the same metric set whatever the workload; the
//! workload chooses the transaction set (and so the scale) the probes run
//! on.

use crate::inputs::{submit_frame, TxSet};
use crate::serve::{self, Served};
use crate::sim::{self, SimCell};
use crate::spans::Spans;
use crate::stats::{median, quantile};
use crate::{tcp, Args, Metrics, Outcome, ALLOCS};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use webmm_alloc::AllocatorKind;
use webmm_net::{encode, Decoder, Frame, TxBody};
use webmm_server::{ServerConfig, TxBufferPool, TxExecutor, TxFactory};
use webmm_sim::{MemoryPort, PageSize, PlainPort, NULL_ADDR};
use webmm_workload::WorkOp;

/// Phases of the traced run's time budget: three serving phases per
/// allocator plus the TCP phase, with headroom for the fixed-cost probes.
const BUDGET_PHASES: f64 = 12.0;

/// Idle-connection pings behind `net.ping_rtt_us_p50`.
const PINGS: usize = 200;

pub fn run(
    args: &Args,
    spans: &Spans,
    m: &mut Metrics,
    out: &mut Outcome,
    fingerprint: &mut Vec<(String, f64)>,
) {
    let w = args.workload;
    let set = w.inputs(args.seed, Some(spans));
    let n = set.len() as f64;
    m.put("workload.gen_us_per_tx", set.gen_ns as f64 / n / 1e3, "us");
    m.put("workload.ops_per_tx", set.ops() as f64 / n, "count");

    executor(&set, w.scale(), spans, m, out, fingerprint);
    allocator(&set, spans, m);
    memory_touch(&set, spans, m);
    wire_codec(&set, spans, m, out);

    let d = Duration::from_secs_f64(args.seconds / BUDGET_PHASES);
    serving(&set, w.open_rate(), d, spans, m, out);
    network(&set, d, spans, m, out);
    simulator(args.seed, spans, m, out, fingerprint);
}

/// `TxExecutor::execute` over the set on one thread, one fresh executor
/// per allocator, so the simulated instruction count is exact; every
/// executor must end each transaction with an empty heap. Returns the time
/// spent in `execute` and the simulated instructions, per allocator, and
/// adds the instruction totals to the behaviour fingerprint.
pub fn execute_set(
    set: &TxSet,
    scale: u32,
    spans: Option<&Spans>,
    out: &mut Outcome,
    fingerprint: &mut Vec<(String, f64)>,
) -> Vec<(Duration, u64)> {
    let static_bytes = ServerConfig::default().static_bytes;
    ALLOCS
        .iter()
        .map(|&kind| {
            let mut exec = TxExecutor::new(0, kind, static_bytes);
            let mut busy = Duration::ZERO;
            for ops in &set.txs {
                let start = Instant::now();
                exec.execute(ops);
                let end = Instant::now();
                busy += end - start;
                if let Some(s) = spans {
                    s.leaf(0, "exec.execute", kind.id(), start, end);
                }
            }
            let r = exec.report();
            out.require(r.max_live_after_tx == 0 && r.orphan_ops == 0, || {
                format!(
                    "executor {}: {} live after tx, {} orphan ops",
                    kind.id(),
                    r.max_live_after_tx,
                    r.orphan_ops
                )
            });
            let instr = exec.sim_instructions();
            fingerprint.push((
                format!("exec.sim_instr.s{scale}.{}", kind.id()),
                instr as f64,
            ));
            (busy, instr)
        })
        .collect()
}

/// The executor layer's time and exact instruction count per transaction.
fn executor(
    set: &TxSet,
    scale: u32,
    spans: &Spans,
    m: &mut Metrics,
    out: &mut Outcome,
    fingerprint: &mut Vec<(String, f64)>,
) {
    let n = set.len() as f64;
    let runs = execute_set(set, scale, Some(spans), out, fingerprint);
    for (kind, (busy, instr)) in ALLOCS.iter().zip(runs) {
        m.put(
            format!("exec.us_per_tx.{}", kind.id()),
            busy.as_secs_f64() * 1e6 / n,
            "us",
        );
        m.put(
            format!("exec.sim_instr_per_tx.{}", kind.id()),
            instr as f64 / n,
            "count",
        );
    }
}

/// One allocator call of the replay, with ids resolved to dense slots so
/// the timed loop does nothing but call the allocator.
#[derive(Clone, Copy)]
enum Call {
    Malloc { slot: usize, size: u64 },
    Free { slot: usize },
    Realloc { slot: usize, size: u64 },
    EndTx,
}

/// The set's allocator-visible calls, and the most objects one
/// transaction allocates.
fn calls(set: &TxSet) -> (Vec<Call>, usize) {
    let mut calls = Vec::new();
    let mut slots: HashMap<u64, usize> = HashMap::new();
    let mut max_slots = 0;
    for ops in &set.txs {
        slots.clear();
        for op in ops {
            match *op {
                WorkOp::Malloc { id, size } => {
                    let slot = slots.len();
                    slots.insert(id, slot);
                    calls.push(Call::Malloc { slot, size });
                }
                WorkOp::Free { id } => {
                    if let Some(&slot) = slots.get(&id) {
                        calls.push(Call::Free { slot });
                    }
                }
                WorkOp::Realloc { id, new_size } => {
                    if let Some(&slot) = slots.get(&id) {
                        calls.push(Call::Realloc {
                            slot,
                            size: new_size,
                        });
                    }
                }
                WorkOp::EndTx => calls.push(Call::EndTx),
                WorkOp::Touch { .. } | WorkOp::Compute { .. } | WorkOp::StaticTouch { .. } => {}
            }
        }
        max_slots = max_slots.max(slots.len());
    }
    (calls, max_slots)
}

/// Times only `malloc`/`free`/`realloc`/`free_all`, replayed on a
/// `PlainPort`, and reports the backing memory the heap materialized.
fn allocator(set: &TxSet, spans: &Spans, m: &mut Metrics) {
    let (calls, max_slots) = calls(set);
    for kind in ALLOCS {
        let mut heap = kind.build(0);
        let mut port = PlainPort::new();
        let traits = heap.alloc_traits();
        assert!(traits.bulk_free, "PHP-study allocators all have freeAll");
        let mut live = vec![(NULL_ADDR, 0u64); max_slots];
        let mut made = 0u64;
        let start = Instant::now();
        for &call in &calls {
            match call {
                Call::Malloc { slot, size } => {
                    let addr = heap
                        .malloc(&mut port, size)
                        .expect("heap fits the workload");
                    live[slot] = (addr, size);
                }
                Call::Free { slot } => {
                    if !traits.per_object_free {
                        continue;
                    }
                    heap.free(&mut port, live[slot].0);
                }
                Call::Realloc { slot, size } => {
                    let (addr, old) = live[slot];
                    let addr = heap
                        .realloc(&mut port, addr, old, size)
                        .expect("heap fits the workload");
                    live[slot] = (addr, size);
                }
                Call::EndTx => heap.free_all(&mut port),
            }
            made += 1;
        }
        let end = Instant::now();
        spans.leaf(0, "alloc.replay", kind.id(), start, end);
        m.put(
            format!("alloc.ns_per_call.{}", kind.id()),
            (end - start).as_nanos() as f64 / made as f64,
            "ns",
        );
        m.put(
            format!("mem.resident_kb.{}", kind.id()),
            port.memory().resident_bytes() as f64 / 1024.0,
            "KiB",
        );
    }
}

/// `MemoryPort::touch` on a `PlainPort`, over the set's object sizes.
fn memory_touch(set: &TxSet, spans: &Spans, m: &mut Metrics) {
    const WINDOW: u64 = 1 << 20;
    let sizes: Vec<u64> = set
        .txs
        .iter()
        .flatten()
        .filter_map(|op| match *op {
            WorkOp::Malloc { size, .. } => Some(size.min(WINDOW / 2)),
            _ => None,
        })
        .collect();
    let mut port = PlainPort::new();
    let base = port.os_alloc(WINDOW, 4096, PageSize::Base);
    let mut bytes = 0u64;
    let start = Instant::now();
    // Several passes, so the timed region is long enough to read.
    for pass in 0..8u64 {
        let port: &mut PlainPort = black_box(&mut port);
        for (i, &len) in sizes.iter().enumerate() {
            let offset = (i as u64 * 4099 + pass * 64) % (WINDOW - len);
            port.touch(base + offset, len, i % 2 == 0);
            bytes += len;
        }
    }
    let end = Instant::now();
    black_box(port.instructions());
    spans.leaf(0, "mem.touch", "plain", start, end);
    m.put(
        "mem.ns_per_touch_kb",
        (end - start).as_nanos() as f64 / (bytes as f64 / 1024.0),
        "ns/KiB",
    );
}

/// `encode` and `Decoder::decode` of every transaction as an inline-op
/// `Submit` frame, decoding into pooled buffers as the tier does; every
/// frame must survive the round trip unchanged.
fn wire_codec(set: &TxSet, spans: &Spans, m: &mut Metrics, out: &mut Outcome) {
    let pool = Arc::new(TxBufferPool::new(1, 4));
    let decoder = Decoder::new().with_pool(Arc::clone(&pool));
    let mut buf = Vec::new();
    let (mut enc, mut dec) = (Duration::ZERO, Duration::ZERO);
    for (i, ops) in set.txs.iter().enumerate() {
        let frame = submit_frame(i as u64, ops);
        buf.clear();
        let t0 = Instant::now();
        encode(&frame, &mut buf);
        let t1 = Instant::now();
        let decoded = decoder.decode(&buf);
        let t2 = Instant::now();
        enc += t1 - t0;
        dec += t2 - t1;
        spans.leaf(0, "net.encode", "submit", t0, t1);
        spans.leaf(0, "net.decode", "submit", t1, t2);
        match decoded {
            Ok(Some((back, used))) if used == buf.len() && back == frame => {
                if let Frame::Submit {
                    body: TxBody::Ops(ops),
                    ..
                } = back
                {
                    pool.put(ops);
                }
            }
            other => out.require(false, || format!("frame {i} did not round-trip: {other:?}")),
        }
    }
    let n = set.len() as f64;
    m.put("net.encode_ns_per_tx", enc.as_nanos() as f64 / n, "ns");
    m.put("net.decode_ns_per_tx", dec.as_nanos() as f64 / n, "ns");
}

/// Per allocator: an untraced and a traced closed loop (their ratio is the
/// observer's overhead) and a traced open loop at `open_rate`, whose
/// submit → completion latency is the allocator's `p50_us`/`p99_us`.
/// Ingress, worker, pool and trace metrics come from the traced phases.
fn serving(
    set: &TxSet,
    open_rate: f64,
    d: Duration,
    spans: &Spans,
    m: &mut Metrics,
    out: &mut Outcome,
) {
    let mut submit_ns = Vec::new();
    let mut queue_ns = Vec::new();
    let mut late_ns = Vec::new();
    let mut overhead = Vec::new();
    let mut gaps = Vec::new();
    let (mut steals, mut completed, mut max_depth) = (0u64, 0u64, 0u64);
    let (mut fresh, mut gets) = (0u64, 0u64);
    for kind in ALLOCS {
        let id = kind.id();
        let plain = serve::closed(serve::start(kind, false), set, d, None, id);
        plain.check(out, &format!("{id} untraced closed loop"));
        let traced = serve::closed(serve::start(kind, true), set, d, Some(spans), id);
        traced.check(out, &format!("{id} traced closed loop"));
        let open = serve::open(serve::start(kind, true), set, open_rate, d, Some(spans), id);
        open.check(out, &format!("{id} traced open loop"));

        overhead.push(traced.tx_per_s() / plain.tx_per_s());
        let latency = &open.report.latency;
        m.put(format!("p50_us.{id}"), latency.p50_ns as f64 / 1e3, "us");
        m.put(format!("p99_us.{id}"), latency.p99_ns as f64 / 1e3, "us");
        submit_ns.extend_from_slice(&traced.submit_ns);
        late_ns.extend_from_slice(&open.late_ns);
        let r = &traced.report;
        steals += r.steals;
        completed += r.completed;
        max_depth = max_depth.max(r.max_queue_depth);
        fresh += r.pool.fresh;
        gets += r.pool.fresh + r.pool.recycled;
        queue_ns.extend(traced.tx_spans.iter().map(|s| s.queue_ns()));
        let mut service: Vec<u64> = traced.tx_spans.iter().map(|s| s.service_ns()).collect();
        m.put(
            format!("worker.service_us_p50.{id}"),
            quantile_or_zero(&mut service, 0.5) / 1e3,
            "us",
        );
        gaps.push(stage_gap(&traced));
        spans.add_tx_spans(id, &traced.tx_spans);
        spans.add_tx_spans(id, &open.tx_spans);
    }
    m.put(
        "ingress.submit_ns_p50",
        quantile_or_zero(&mut submit_ns, 0.5),
        "ns",
    );
    m.put(
        "ingress.submit_ns_p99",
        quantile_or_zero(&mut submit_ns, 0.99),
        "ns",
    );
    m.put(
        "ingress.queue_wait_us_p50",
        quantile_or_zero(&mut queue_ns, 0.5) / 1e3,
        "us",
    );
    m.put(
        "ingress.steal_ratio",
        steals as f64 / completed as f64,
        "ratio",
    );
    m.put("ingress.max_depth", max_depth as f64, "count");
    m.put("pool.fresh_ratio", fresh as f64 / gets as f64, "ratio");
    m.put("obs.overhead_ratio", median(&overhead), "ratio");
    m.put(
        "trace.stage_gap_ratio",
        gaps.iter().copied().fold(0.0, f64::max),
        "ratio",
    );
    m.put(
        "loadgen.late_us_p99",
        quantile_or_zero(&mut late_ns, 0.99) / 1e3,
        "us",
    );
}

/// How far the spans' queue wait + service p50 sits from the report's
/// p50, as a share of the latter.
fn stage_gap(served: &Served) -> f64 {
    let mut total: Vec<u64> = served
        .tx_spans
        .iter()
        .map(|s| s.queue_ns() + s.service_ns())
        .collect();
    let reported = served.report.latency.p50_ns as f64;
    (quantile_or_zero(&mut total, 0.5) - reported).abs() / reported
}

fn quantile_or_zero(xs: &mut [u64], q: f64) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        quantile(xs, q) as f64
    }
}

/// The TCP front-end with region behind it (the fastest executor, so the
/// wire dominates): idle ping round trips, then a traced closed loop over
/// two connections for the request → status round trip and the bytes each
/// transaction puts on the wire.
fn network(set: &TxSet, d: Duration, spans: &Spans, m: &mut Metrics, out: &mut Outcome) {
    let kind = AllocatorKind::Region;
    let mut rtts = tcp::ping_rtts(kind, PINGS, Some(spans)).expect("loopback pings");
    m.put(
        "net.ping_rtt_us_p50",
        quantile(&mut rtts, 0.5) as f64 / 1e3,
        "us",
    );
    let tier = tcp::start(kind, set, 2, true).expect("loopback tier starts");
    let mut served = tcp::closed(tier, d, Some(spans), kind.id());
    served.check(out, "traced tcp");
    let rtt_ns = &mut served.rtt_ns;
    m.put("net.rtt_us_p50", quantile(rtt_ns, 0.5) as f64 / 1e3, "us");
    m.put("net.rtt_us_p99", quantile(rtt_ns, 0.99) as f64 / 1e3, "us");
    let net = &served.report.net;
    m.put(
        "net.bytes_per_tx",
        (net.bytes_in + net.bytes_out) as f64 / served.report.requests as f64,
        "bytes",
    );
}

/// The simulator sweep with exact counters per allocator × core count,
/// the host cost per simulated access, and the generator's share of a
/// run. The sweep must show the paper's ordering, and each allocator's
/// 1-core cell, simulated again, must reproduce every counter.
fn simulator(
    seed: u64,
    spans: &Spans,
    m: &mut Metrics,
    out: &mut Outcome,
    fingerprint: &mut Vec<(String, f64)>,
) {
    let mut cells: Vec<SimCell> = Vec::new();
    let mut host_per_alloc = Vec::new();
    for kind in ALLOCS {
        let mine: Vec<SimCell> = sim::CORES
            .iter()
            .map(|&cores| sim::cell(kind, cores, seed, Some(spans)))
            .collect();
        let host: f64 = mine.iter().map(|c| c.host_s).sum();
        let accesses: f64 = mine.iter().map(SimCell::accesses).sum();
        m.put(
            format!("sim.host_ns_per_access.{}", kind.id()),
            host * 1e9 / accesses,
            "ns",
        );
        host_per_alloc.push(host);
        for c in &mine {
            let r = &c.result;
            let key = |what: &str| format!("sim.{what}.{}.{}c", kind.id(), c.cores);
            m.put(
                key("instr_per_tx"),
                r.events_per_tx(|e| e.total().instructions),
                "count",
            );
            m.put(
                key("l2_miss_per_tx"),
                r.events_per_tx(|e| e.total().l2_misses),
                "count",
            );
            m.put(
                key("bus_txn_per_tx"),
                r.events_per_tx(|e| e.total().bus_txns),
                "count",
            );
            m.put(key("model_tx_per_s"), r.throughput.tx_per_sec, "tx/s");
            fingerprint.extend(c.fingerprint());
        }
        cells.extend(mine);
    }
    check_sim_order(&cells, out);
    for c in cells.iter().filter(|c| c.cores == 1) {
        let again = sim::cell(c.kind, 1, seed, Some(spans));
        out.require(again.fingerprint() == c.fingerprint(), || {
            format!("sim {} 1c: repeated cell changed its counters", c.kind.id())
        });
    }

    // The same number of transactions the sweep simulates per allocator,
    // generated standalone: the in-loop generator's share of a run.
    let sim_tx: u64 = cells
        .iter()
        .filter(|c| c.kind == ALLOCS[0])
        .map(SimCell::sim_tx)
        .sum();
    let start = Instant::now();
    let mut factory = TxFactory::new(webmm_workload::phpbb(), sim::SCALE, seed);
    for _ in 0..sim_tx {
        black_box(factory.next_tx());
    }
    let end = Instant::now();
    spans.leaf(0, "workload.gen_standalone", "phpbb", start, end);
    let mean_host_s = host_per_alloc.iter().sum::<f64>() / host_per_alloc.len() as f64;
    m.put(
        "sim.gen_share",
        (end - start).as_secs_f64() / mean_host_s,
        "ratio",
    );
}

/// The paper's ordering at 8 cores: DDmalloc's simulated throughput is
/// above region's.
fn check_sim_order(cells: &[SimCell], out: &mut Outcome) {
    let model = |kind| {
        cells
            .iter()
            .find(|c| c.kind == kind && c.cores == 8)
            .map(|c| c.result.throughput.tx_per_sec)
    };
    if let (Some(dd), Some(region)) = (model(AllocatorKind::DdMalloc), model(AllocatorKind::Region))
    {
        out.require(dd > region, || {
            format!("sim 8c: ddmalloc {dd:.1} tx/s is not above region {region:.1} tx/s")
        });
    }
}
