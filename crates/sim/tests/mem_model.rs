//! `SimMemory` against a reference model: the original hash-map backing
//! store, kept here as the oracle.
//!
//! Random sequences of reservations, typed reads and writes, and copies
//! (crossing frames, unaligned, from never-touched frames, overlapping in
//! both directions) run on both. Every read, and `resident_bytes()` after
//! every step, must agree; so must the final images.

use proptest::prelude::*;
use std::collections::HashMap;
use webmm_sim::{Addr, SimMemory};

const FRAME: u64 = 4096;

/// The hash-map memory image `SimMemory` used to be: frames keyed by
/// absolute frame number, materialized on first write, copies done by the
/// forward byte loop. It does not police the reservation window; the
/// generated writes stay inside it.
struct RefMemory {
    frames: HashMap<u64, Box<[u8; FRAME as usize]>>,
    brk: u64,
}

impl RefMemory {
    fn new(base: u64) -> Self {
        RefMemory {
            frames: HashMap::new(),
            brk: base.max(FRAME),
        }
    }

    fn os_alloc(&mut self, len: u64, align: u64) -> Addr {
        let start = Addr::new(self.brk).align_up(align);
        self.brk = start.raw() + len;
        start
    }

    fn resident_bytes(&self) -> u64 {
        self.frames.len() as u64 * FRAME
    }

    fn read(&self, addr: u64, width: u64) -> u64 {
        let frame = self.frames.get(&(addr / FRAME));
        let off = (addr % FRAME) as usize;
        let mut bytes = [0u8; 8];
        if let Some(f) = frame {
            bytes[..width as usize].copy_from_slice(&f[off..off + width as usize]);
        }
        u64::from_le_bytes(bytes)
    }

    fn write(&mut self, addr: u64, width: u64, val: u64) {
        let frame = self
            .frames
            .entry(addr / FRAME)
            .or_insert_with(|| Box::new([0u8; FRAME as usize]));
        let off = (addr % FRAME) as usize;
        frame[off..off + width as usize].copy_from_slice(&val.to_le_bytes()[..width as usize]);
    }

    fn copy(&mut self, dst: u64, src: u64, len: u64) {
        for i in 0..len {
            let b = self.read(src + i, 1);
            self.write(dst + i, 1, b);
        }
    }
}

fn sim_read(m: &SimMemory, addr: u64, width: u64) -> u64 {
    let a = Addr::new(addr);
    match width {
        1 => u64::from(m.read_u8(a)),
        4 => u64::from(m.read_u32(a)),
        _ => m.read_u64(a),
    }
}

fn sim_write(m: &mut SimMemory, addr: u64, width: u64, val: u64) {
    let a = Addr::new(addr);
    match width {
        1 => m.write_u8(a, val as u8),
        4 => m.write_u32(a, val as u32),
        _ => m.write_u64(a, val),
    }
}

/// Where a copy reads from, relative to its destination.
#[derive(Clone, Copy, Debug)]
enum Src {
    /// Anywhere around the window, often in frames nobody wrote.
    Anywhere(u64),
    /// `dst - d` for `d` in `0..=len`: for `0 < d < len` the byte loop
    /// reads back bytes it already wrote.
    Behind(u64),
    /// `dst + d` for `d` in `0..=len`: for `0 < d < len` the byte loop
    /// overwrites source bytes after reading them.
    Ahead(u64),
}

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Reserve `len` bytes aligned to `1 << align_log2`.
    Reserve { len: u64, align_log2: u32 },
    /// Store `width` bytes of `val` at window position `pos`.
    Write { width: u64, pos: u64, val: u64 },
    /// Load `width` bytes at position `pos` of the window widened by two
    /// frames on each side.
    Read { width: u64, pos: u64 },
    /// Copy `len` bytes to window position `pos`.
    Copy { pos: u64, src: Src, len: u64 },
}

fn width() -> impl Strategy<Value = u64> {
    prop_oneof![Just(1u64), Just(4u64), Just(8u64)]
}

fn copy_len() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..64, 0u64..3 * FRAME + 64]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        1 => (1u64..3 * FRAME + 100, prop_oneof![7 => 0u32..14, 1 => 14u32..23])
            .prop_map(|(len, align_log2)| Op::Reserve { len, align_log2 }),
        5 => (width(), any::<u64>(), any::<u64>())
            .prop_map(|(width, pos, val)| Op::Write { width, pos, val }),
        4 => (width(), any::<u64>()).prop_map(|(width, pos)| Op::Read { width, pos }),
        3 => (any::<u64>(), 0u8..3, any::<u64>(), copy_len()).prop_map(|(pos, kind, d, len)| {
            let src = match kind {
                0 => Src::Anywhere(d),
                1 => Src::Behind(d),
                _ => Src::Ahead(d),
            };
            Op::Copy { pos, src, len }
        }),
    ]
}

/// Pulls a `width`-byte access back so it does not cross a frame.
fn in_frame(addr: u64, width: u64) -> u64 {
    if addr % FRAME > FRAME - width {
        addr - addr % FRAME + FRAME - width
    } else {
        addr
    }
}

/// Applies `op` to both images, checking every observable result.
fn step(sim: &mut SimMemory, oracle: &mut RefMemory, op: Op) {
    let base = sim.base().raw();
    let window = oracle.brk - base;
    let around = |pos: u64| base - 2 * FRAME + pos % (window + 4 * FRAME);
    match op {
        Op::Reserve { len, align_log2 } => {
            let a = sim.os_alloc(len, 1 << align_log2);
            assert_eq!(a, oracle.os_alloc(len, 1 << align_log2));
        }
        Op::Write { width, pos, val } => {
            if window >= width {
                let addr = in_frame(base + pos % (window - width + 1), width);
                sim_write(sim, addr, width, val);
                oracle.write(addr, width, val);
            }
        }
        Op::Read { width, pos } => {
            let addr = in_frame(around(pos), width);
            assert_eq!(
                sim_read(sim, addr, width),
                oracle.read(addr, width),
                "read of {width} bytes at {addr:#x}"
            );
        }
        Op::Copy { pos, src, len } => {
            let len = len.min(window);
            let dst = base + pos % (window - len + 1);
            let src = match src {
                Src::Anywhere(p) => around(p),
                Src::Behind(d) => dst - d % (len + 1),
                Src::Ahead(d) => dst + d % (len + 1),
            };
            sim.copy(Addr::new(dst), Addr::new(src), len);
            oracle.copy(dst, src, len);
        }
    }
    assert_eq!(
        sim.resident_bytes(),
        oracle.resident_bytes(),
        "after {op:?}"
    );
}

/// Compares the window plus two frames on each side: every word of the
/// frames the oracle materialized, and sample words (which must be zero)
/// of the frames it did not, which large alignments make numerous.
fn assert_same_image(sim: &SimMemory, oracle: &RefMemory) {
    let base = sim.base().raw();
    let mut frame = base / FRAME - 2;
    while frame * FRAME < oracle.brk + 2 * FRAME {
        let offsets: Vec<u64> = if oracle.frames.contains_key(&frame) {
            (0..FRAME).step_by(8).collect()
        } else {
            vec![0, FRAME / 2, FRAME - 8]
        };
        for off in offsets {
            let a = frame * FRAME + off;
            assert_eq!(
                sim.read_u64(Addr::new(a)),
                oracle.read(a, 8),
                "word at {a:#x}"
            );
        }
        frame += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn frame_table_matches_hash_map_reference(ops in collection::vec(op(), 1..160)) {
        let base = 1u64 << 32;
        let mut sim = SimMemory::new(base);
        let mut oracle = RefMemory::new(base);
        step(&mut sim, &mut oracle, Op::Reserve { len: 2 * FRAME, align_log2: 3 });
        for op in ops {
            step(&mut sim, &mut oracle, op);
        }
        assert_same_image(&sim, &oracle);
    }
}

#[test]
fn overlapping_copies_match_the_byte_loop() {
    // Lags (dst - src) in both directions, around and across frame edges,
    // with copies long enough to cross several frames.
    let lags: [i64; 12] = [
        -8193, -4097, -4096, -4095, -9, -1, 0, 1, 7, 4095, 4096, 4097,
    ];
    for lag in lags {
        for dst_off in [0u64, 3, 4093] {
            let base = 1u64 << 32;
            let mut sim = SimMemory::new(base);
            let mut oracle = RefMemory::new(base);
            let w = sim.os_alloc(8 * FRAME, FRAME).raw();
            assert_eq!(oracle.os_alloc(8 * FRAME, FRAME).raw(), w);
            // A recognisable pattern in frames 1 and 2; frame 3 stays
            // untouched so some runs read never-written memory.
            for i in 0..2 * FRAME {
                let a = w + FRAME + i;
                sim.write_u8(Addr::new(a), (i % 251) as u8 + 1);
                oracle.write(a, 1, i % 251 + 1);
            }
            let dst = w + 3 * FRAME + dst_off;
            let src = dst.wrapping_sub(lag as u64);
            let len = 2 * FRAME + 11;
            sim.copy(Addr::new(dst), Addr::new(src), len);
            oracle.copy(dst, src, len);
            assert_eq!(sim.resident_bytes(), oracle.resident_bytes(), "lag {lag}");
            assert_same_image(&sim, &oracle);
        }
    }
}
