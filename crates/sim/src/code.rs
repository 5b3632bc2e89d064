//! Instruction-footprint model.
//!
//! The paper observes that "the reduction in instructions and L1
//! instruction cache misses for DDmalloc and the region-based allocator
//! were because of the smaller size of the allocator code": allocator code
//! size is a first-order effect on L1I behaviour. We model each component
//! (interpreter, runtime, each allocator) as a *code region* with a total
//! size and a hot-path size. Executing `n` instructions advances a cursor
//! through the hot path (sequential fetch, wrapping), with periodic
//! excursions into the cold remainder — so a 2 KB bump allocator stays
//! resident in L1I while a 32 KB general-purpose allocator contends with
//! the interpreter for it.

use crate::addr::Addr;
use serde::Serialize;

/// Static description of one component's code footprint.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize)]
pub struct CodeSpec {
    /// Total code size in bytes.
    pub len: u64,
    /// Size of the hot path that executes most instructions.
    pub hot_len: u64,
}

impl CodeSpec {
    /// Creates a spec, validating `hot_len <= len` and nonzero sizes.
    ///
    /// # Panics
    ///
    /// Panics if `hot_len` is zero or exceeds `len`.
    pub fn new(len: u64, hot_len: u64) -> Self {
        assert!(hot_len > 0, "hot path must be nonzero");
        assert!(hot_len <= len, "hot path cannot exceed total code size");
        CodeSpec { len, hot_len }
    }
}

/// Handle to a registered code region.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct CodeRegionId(pub(crate) usize);

/// Bytes of sequential hot-path execution per cold-code excursion.
const COLD_EVERY_BYTES: u64 = 8192;
/// Bytes fetched per instruction (fixed-width RISC-flavoured encoding).
const BYTES_PER_INSTR: u64 = 4;
/// Cache line granularity for fetches.
const LINE: u64 = 64;

#[derive(Debug)]
struct Region {
    base: Addr,
    spec: CodeSpec,
    /// Byte offset of the hot-path cursor within `hot_len`.
    cursor: u64,
    /// Bytes accumulated toward the next cold excursion.
    cold_acc: u64,
    /// Deterministic generator for cold-excursion targets.
    lcg: u64,
}

/// Per-process code-fetch state: registered regions and their cursors.
///
/// Executing instructions yields a list of line addresses to fetch, which
/// the memory port routes through the L1I.
#[derive(Debug, Default)]
pub struct CodeState {
    regions: Vec<Region>,
    current: Option<CodeRegionId>,
}

impl CodeState {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a region whose code occupies `[base, base + spec.len)`.
    pub fn register(&mut self, base: Addr, spec: CodeSpec) -> CodeRegionId {
        let id = CodeRegionId(self.regions.len());
        self.regions.push(Region {
            base,
            spec,
            cursor: 0,
            cold_acc: 0,
            lcg: 0x9e37_79b9_7f4a_7c15 ^ base.raw(),
        });
        if self.current.is_none() {
            self.current = Some(id);
        }
        id
    }

    /// Selects the region subsequent [`CodeState::execute`] calls fetch from.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by this registry.
    #[inline]
    pub fn set_current(&mut self, id: CodeRegionId) {
        assert!(id.0 < self.regions.len(), "unknown code region");
        self.current = Some(id);
    }

    /// The currently selected region, if any.
    pub fn current(&self) -> Option<CodeRegionId> {
        self.current
    }

    /// Advances the current region's cursors by `n_instr` instructions and
    /// appends the cache-line addresses that must be fetched to `out`.
    ///
    /// Returns silently without fetches if no region is registered (useful
    /// for ports that do not model instruction fetch).
    pub fn execute(&mut self, n_instr: u64, out: &mut Vec<Addr>) {
        let Some(CodeRegionId(idx)) = self.current else {
            return;
        };
        let r = &mut self.regions[idx];
        let bytes = n_instr * BYTES_PER_INSTR;

        // Hot-path sequential fetch with wraparound.
        let start = r.cursor;
        let end = r.cursor + bytes;
        let first_line = start / LINE;
        let last_line = end / LINE;
        // Cap per-call fetches at the number of distinct hot lines — a long
        // exec that wraps the hot path many times still touches each line
        // once per residence.
        let hot_lines = r.spec.hot_len.div_ceil(LINE);
        let n_lines = (last_line - first_line).min(hot_lines);
        for k in 0..n_lines {
            let line_off = ((first_line + 1 + k) * LINE) % (r.spec.hot_len / LINE * LINE).max(LINE);
            out.push(r.base + line_off);
        }
        r.cursor = end % r.spec.hot_len.max(1);

        // Cold excursions into the rest of the code.
        if r.spec.len > r.spec.hot_len {
            r.cold_acc += bytes;
            let cold_len = r.spec.len - r.spec.hot_len;
            while r.cold_acc >= COLD_EVERY_BYTES {
                r.cold_acc -= COLD_EVERY_BYTES;
                // xorshift for a deterministic pseudo-random cold target.
                r.lcg ^= r.lcg << 13;
                r.lcg ^= r.lcg >> 7;
                r.lcg ^= r.lcg << 17;
                let off = r.spec.hot_len + (r.lcg % cold_len);
                out.push((r.base + off).align_down(LINE));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation() {
        let s = CodeSpec::new(8192, 2048);
        assert_eq!(s.len, 8192);
    }

    #[test]
    #[should_panic(expected = "hot path cannot exceed")]
    fn spec_rejects_hot_beyond_len() {
        CodeSpec::new(100, 200);
    }

    #[test]
    fn sequential_fetch_within_hot_path() {
        let mut cs = CodeState::new();
        let id = cs.register(Addr::new(0x1000), CodeSpec::new(4096, 1024));
        cs.set_current(id);
        let mut out = Vec::new();
        cs.execute(64, &mut out); // 256 bytes = 4 lines
        assert_eq!(out.len(), 4);
        // All fetches fall inside the hot path.
        for a in &out {
            assert!(a.raw() >= 0x1000 && a.raw() < 0x1000 + 1024);
        }
    }

    #[test]
    fn hot_path_wraps() {
        let mut cs = CodeState::new();
        let id = cs.register(Addr::new(0), CodeSpec::new(256, 256));
        cs.set_current(id);
        let mut out = Vec::new();
        // 512 instructions = 2 KB of fetch through a 256-byte hot loop:
        // at most the loop's 4 distinct lines per call.
        cs.execute(512, &mut out);
        assert!(out.len() <= 4);
        let distinct: std::collections::HashSet<u64> = out.iter().map(|a| a.raw() / 64).collect();
        assert!(distinct.len() <= 4);
    }

    #[test]
    fn cold_excursions_happen_for_big_regions() {
        let mut cs = CodeState::new();
        let id = cs.register(Addr::new(0x100000), CodeSpec::new(512 * 1024, 8 * 1024));
        cs.set_current(id);
        let mut out = Vec::new();
        for _ in 0..100 {
            cs.execute(500, &mut out); // 2 KB/call → one cold line every ~2 calls
        }
        let cold: Vec<&Addr> = out
            .iter()
            .filter(|a| a.raw() >= 0x100000 + 8 * 1024)
            .collect();
        assert!(!cold.is_empty(), "large regions must produce cold fetches");
        for a in &cold {
            assert!(a.raw() < 0x100000 + 512 * 1024);
        }
    }

    #[test]
    fn small_region_stays_hot() {
        let mut cs = CodeState::new();
        // A 2 KB allocator (region-based) with hot == len: no cold fetches.
        let id = cs.register(Addr::new(0x2000), CodeSpec::new(2048, 2048));
        cs.set_current(id);
        let mut out = Vec::new();
        for _ in 0..1000 {
            cs.execute(100, &mut out);
        }
        let distinct: std::collections::HashSet<u64> = out.iter().map(|a| a.raw() / 64).collect();
        assert!(distinct.len() <= 2048 / 64);
    }

    #[test]
    fn execute_without_region_is_noop() {
        let mut cs = CodeState::new();
        let mut out = Vec::new();
        cs.execute(1000, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn deterministic_across_instances() {
        let run = || {
            let mut cs = CodeState::new();
            let id = cs.register(Addr::new(0x9000), CodeSpec::new(64 * 1024, 4096));
            cs.set_current(id);
            let mut out = Vec::new();
            for _ in 0..50 {
                cs.execute(333, &mut out);
            }
            out
        };
        assert_eq!(run(), run());
    }
}
