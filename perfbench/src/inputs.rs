//! Seeded input sets, generated during set-up so the load generator stays
//! off the timed path.

use crate::spans::Spans;
use crate::Outcome;
use std::time::Instant;
use webmm_net::{encode, Decoder, Frame, TxBody};
use webmm_server::TxFactory;
use webmm_workload::WorkOp;

/// A workload's transactions, generated once and replayed cyclically.
pub struct TxSet {
    pub txs: Vec<Vec<WorkOp>>,
    /// Wall time of `TxFactory::next_tx` over the whole set.
    pub gen_ns: u64,
}

impl TxSet {
    /// `count` phpBB transactions at `scale` from `seed`.
    pub fn generate(scale: u32, seed: u64, count: usize, spans: Option<&Spans>) -> Self {
        let mut factory = TxFactory::new(webmm_workload::phpbb(), scale, seed);
        let mut gen_ns = 0u64;
        let txs = (0..count)
            .map(|_| {
                let start = Instant::now();
                let tx = factory.next_tx();
                let end = Instant::now();
                gen_ns += (end - start).as_nanos() as u64;
                if let Some(s) = spans {
                    s.leaf(0, "workload.next_tx", "phpbb", start, end);
                }
                tx.ops
            })
            .collect();
        TxSet { txs, gen_ns }
    }

    pub fn len(&self) -> usize {
        self.txs.len()
    }

    pub fn ops(&self) -> usize {
        self.txs.iter().map(Vec::len).sum()
    }

    /// Transaction `i` of an endless cyclic replay.
    pub fn get(&self, i: u64) -> &[WorkOp] {
        &self.txs[(i % self.txs.len() as u64) as usize]
    }
}

/// The `Submit` frame carrying transaction `index` inline, as a client
/// puts it on the wire.
pub fn submit_frame(index: u64, ops: &[WorkOp]) -> Frame {
    Frame::Submit {
        request_id: index,
        affinity: None,
        body: TxBody::Ops(ops.to_vec()),
    }
}

/// Every transaction of `set` pre-encoded as a `Submit` frame.
pub fn encode_all(set: &TxSet) -> Vec<Vec<u8>> {
    set.txs
        .iter()
        .enumerate()
        .map(|(i, ops)| {
            let mut buf = Vec::new();
            encode(&submit_frame(i as u64, ops), &mut buf);
            buf
        })
        .collect()
}

/// Requires every frame of `frames` (as [`encode_all`] made them) to decode
/// whole and back to the transaction of `set` it carries.
pub fn check_frames(set: &TxSet, frames: &[Vec<u8>], out: &mut Outcome) {
    let decoder = Decoder::new();
    for (i, (ops, bytes)) in set.txs.iter().zip(frames).enumerate() {
        let ok = match decoder.decode(bytes) {
            Ok(Some((back, used))) => used == bytes.len() && back == submit_frame(i as u64, ops),
            _ => false,
        };
        out.require(ok, || format!("pre-encoded frame {i} did not decode back"));
    }
}
