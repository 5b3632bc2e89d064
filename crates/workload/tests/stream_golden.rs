//! Golden op streams: the exact operation sequence of [`TxStream`] is
//! pinned per workload × scale × seed.
//!
//! Recorded traces, cached results, the benchmark's behaviour fingerprint
//! and every simulated counter downstream depend on the generator emitting
//! the same ops in the same order. Each case hashes a canonical little-
//! endian encoding of every op (64-bit FNV-1a) up to and including the
//! last transaction's `EndTx`, and compares that hash, the op count and
//! the final [`StreamStats`] exactly. A change to the generator's
//! internals (its lifetime bookkeeping, the RNG's word path) must leave
//! all of them unchanged; a change that is meant to alter the stream must
//! re-record them and say why.

use webmm_workload::{mediawiki_read, phpbb, rails, StreamStats, TxStream, WorkOp, WorkloadSpec};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Feeds one op's canonical encoding: a tag byte, then each field as a
/// little-endian `u64` (`write` as 0/1).
fn hash_op(hash: &mut u64, op: WorkOp) {
    let (tag, a, b): (u8, u64, u64) = match op {
        WorkOp::Malloc { id, size } => (1, id, size),
        WorkOp::Free { id } => (2, id, 0),
        WorkOp::Realloc { id, new_size } => (3, id, new_size),
        WorkOp::Touch { id, write } => (4, id, u64::from(write)),
        WorkOp::Compute { instr } => (5, instr, 0),
        WorkOp::StaticTouch { offset, len } => (6, offset, len),
        WorkOp::EndTx => (7, 0, 0),
    };
    fnv(hash, &[tag]);
    fnv(hash, &a.to_le_bytes());
    fnv(hash, &b.to_le_bytes());
}

/// What one case pins.
#[derive(Debug, PartialEq)]
struct Golden {
    hash: u64,
    ops: u64,
    stats: StreamStats,
}

fn run(spec: WorkloadSpec, scale: u32, seed: u64, txs: u64) -> Golden {
    let mut stream = TxStream::new(spec, scale, seed);
    let mut hash = FNV_OFFSET;
    let mut ops = 0u64;
    let mut done = 0u64;
    while done < txs {
        let op = stream.next_op();
        hash_op(&mut hash, op);
        ops += 1;
        if op == WorkOp::EndTx {
            done += 1;
        }
    }
    Golden {
        hash,
        ops,
        stats: stream.stats(),
    }
}

/// `stats` is `[mallocs, frees, reallocs, transactions, bytes_requested]`.
fn golden(hash: u64, ops: u64, stats: [u64; 5]) -> Golden {
    let [mallocs, frees, reallocs, transactions, bytes_requested] = stats;
    Golden {
        hash,
        ops,
        stats: StreamStats {
            mallocs,
            frees,
            reallocs,
            transactions,
            bytes_requested,
        },
    }
}

fn check(name: &str, spec: fn() -> WorkloadSpec, scale: u32, txs: u64, want: [Golden; 2]) {
    for (seed, want) in [42u64, 1729].into_iter().zip(want) {
        let got = run(spec(), scale, seed, txs);
        assert_eq!(got, want, "{name} 1/{scale} ×{txs} tx, seed {seed}");
    }
}

#[test]
fn phpbb_large_transactions() {
    check(
        "phpBB",
        phpbb,
        16,
        32,
        [
            golden(
                0x56bc_cee0_97c1_2b9d,
                708_238,
                [93_920, 86_425, 1_984, 32, 5_245_983],
            ),
            golden(
                0x455d_633b_6af4_c564,
                708_372,
                [93_920, 86_532, 1_984, 32, 5_231_389],
            ),
        ],
    );
}

#[test]
fn phpbb_small_transactions() {
    check(
        "phpBB",
        phpbb,
        1024,
        1024,
        [
            golden(
                0xbee9_f178_8749_7afd,
                330_911,
                [46_080, 42_374, 1_024, 1_024, 2_592_326],
            ),
            golden(
                0x0a5e_aeae_cd21_235a,
                331_127,
                [46_080, 42_400, 1_024, 1_024, 2_585_203],
            ),
        ],
    );
}

#[test]
fn mediawiki_read_stream() {
    check(
        "MediaWiki read",
        mediawiki_read,
        64,
        8,
        [
            golden(
                0x3551_5814_85e3_0d28,
                139_507,
                [18_968, 16_081, 784, 8, 1_160_404],
            ),
            golden(
                0x4225_3b14_c917_1e82,
                139_793,
                [18_968, 16_161, 784, 8, 1_184_113],
            ),
        ],
    );
}

#[test]
fn rails_cross_transaction_stream() {
    check(
        "Rails",
        rails,
        64,
        12,
        [
            golden(
                0xb20b_767b_d2eb_d048,
                141_902,
                [18_588, 17_797, 660, 12, 1_266_216],
            ),
            golden(
                0x08c2_4842_ce00_0e6a,
                142_259,
                [18_588, 17_853, 660, 12, 1_276_725],
            ),
        ],
    );
}

/// At 1/1024 a Rails transaction is 96 ticks, so its cross-transaction
/// deaths (1–5 transactions ahead) all land beyond the generator's
/// in-transaction horizon.
#[test]
fn rails_small_transactions_deaths_beyond_horizon() {
    check(
        "Rails",
        rails,
        1024,
        256,
        [
            golden(
                0xead9_5a96_866d_41db,
                185_042,
                [24_576, 24_038, 768, 256, 1_671_153],
            ),
            golden(
                0xddf9_db7f_1648_848d,
                185_113,
                [24_576, 24_022, 768, 256, 1_693_756],
            ),
        ],
    );
}
