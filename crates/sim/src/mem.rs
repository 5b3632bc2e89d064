//! Simulated memory with real backing bytes.
//!
//! Allocators in this repository keep their metadata (free-list links,
//! boundary tags, size-class tables) *inside* the simulated address space,
//! so that every metadata operation produces the same memory traffic it
//! would on real hardware. [`SimMemory`] provides the backing store, plus a
//! tiny mmap-like reservation interface ([`SimMemory::os_alloc`]) standing
//! in for the operating system.
//!
//! # Frame table
//!
//! `os_alloc` hands out addresses from one contiguous reservation window,
//! `base..brk`, like a large virtual reservation whose pages the OS
//! materializes on demand. So the backing store is a direct-indexed frame
//! table rather than a map: the slot of an address is its 4 KiB frame
//! number counted from `base`'s frame. A slot is a `u32`, zero for a frame
//! never written and otherwise one plus the frame's index in an arena of
//! boxed 4 KiB frames. A load or store is a window check and two indexed
//! loads; nothing is hashed. The table costs 4 B per reserved 4 KiB frame
//! (512 KiB for a 512 MiB DDmalloc heap) and grows with `os_alloc`; the
//! arena costs one pointer per materialized frame on top of its bytes.

use crate::addr::Addr;

/// Backing frame granularity.
const FRAME: u64 = 4096;

/// One materialized backing frame.
type Frame = [u8; FRAME as usize];

/// A byte-addressable memory image for one process.
///
/// Reads of never-written locations return zero, like freshly-mapped
/// anonymous pages; so do reads outside the reservation window (below
/// `base`, or at or above the current `brk`). A write outside the window
/// panics: it means an allocator wrote memory it never reserved. Frames
/// are materialized on first write, never by a read. The image also tracks
/// how many bytes the "OS" has handed out, which the allocators' footprint
/// accounting builds on.
///
/// # Examples
///
/// ```
/// use webmm_sim::SimMemory;
/// let mut m = SimMemory::new(0x10_0000_0000);
/// let heap = m.os_alloc(1 << 20, 4096);
/// m.write_u64(heap, 0xdead_beef);
/// assert_eq!(m.read_u64(heap), 0xdead_beef);
/// assert_eq!(m.read_u64(heap + 8), 0); // untouched → zero
/// ```
#[derive(Debug, Default)]
pub struct SimMemory {
    /// One slot per frame from `base`'s frame up to `brk`: 0 while the
    /// frame is untouched, else 1 + its index in `frames`.
    slots: Vec<u32>,
    /// Materialized frames, in order of first write.
    frames: Vec<Box<Frame>>,
    /// Next address handed out by `os_alloc`.
    brk: u64,
    /// First address of this process's reservation window.
    base: u64,
    /// Total bytes reserved via `os_alloc`.
    reserved: u64,
}

impl SimMemory {
    /// Creates an empty memory image whose OS allocations start at `base`.
    ///
    /// Distinct processes should use distinct, widely-spaced bases so their
    /// addresses never collide in shared caches (the simulator treats the
    /// simulated address as physical).
    pub fn new(base: u64) -> Self {
        SimMemory {
            slots: Vec::new(),
            frames: Vec::new(),
            brk: base.max(FRAME),
            base: base.max(FRAME),
            reserved: 0,
        }
    }

    /// Reserves `len` bytes aligned to `align` (power of two), like an
    /// anonymous `mmap`. Never fails: the address space is 64-bit. The
    /// frame table grows to cover the new end of the window.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two or `len` is zero.
    pub fn os_alloc(&mut self, len: u64, align: u64) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        assert!(len > 0, "cannot reserve zero bytes");
        let start = Addr::new(self.brk).align_up(align);
        self.brk = start.raw() + len;
        self.reserved += len;
        let frames = self.brk.div_ceil(FRAME) - self.base / FRAME;
        let frames = usize::try_from(frames).expect("frame table fits in memory");
        if frames > self.slots.len() {
            self.slots.resize(frames, 0);
        }
        start
    }

    /// Total bytes reserved through [`SimMemory::os_alloc`].
    pub fn reserved_bytes(&self) -> u64 {
        self.reserved
    }

    /// Bytes of backing frames actually materialized (touched).
    pub fn resident_bytes(&self) -> u64 {
        self.frames.len() as u64 * FRAME
    }

    /// The base of this process's reservation window.
    pub fn base(&self) -> Addr {
        Addr::new(self.base)
    }

    /// Arena index of the frame holding `addr`, if it was ever written.
    /// Addresses outside the table have no frame.
    #[inline]
    fn frame_index(&self, addr: u64) -> Option<usize> {
        let slot = (addr / FRAME).wrapping_sub(self.base / FRAME);
        match *self.slots.get(usize::try_from(slot).ok()?)? {
            0 => None,
            s => Some(s as usize - 1),
        }
    }

    /// The frame holding `addr` and the offset of `addr` in it, if written.
    #[inline]
    fn frame(&self, addr: Addr) -> Option<(&Frame, usize)> {
        let i = self.frame_index(addr.raw())?;
        Some((&self.frames[i], (addr.raw() % FRAME) as usize))
    }

    /// Arena index of the frame holding `addr`, materializing it (zeroed)
    /// on first write. The caller has checked the window.
    #[inline]
    fn materialize(&mut self, addr: u64) -> usize {
        let slot = &mut self.slots[((addr / FRAME) - self.base / FRAME) as usize];
        if *slot == 0 {
            self.frames.push(Box::new([0u8; FRAME as usize]));
            *slot = u32::try_from(self.frames.len()).expect("fewer than 2^32 frames");
        }
        *slot as usize - 1
    }

    /// Panics unless `addr..addr + len` lies inside the reservation window.
    #[inline]
    fn check_write(&self, addr: u64, len: u64) {
        let inside = addr >= self.base && addr.checked_add(len).is_some_and(|end| end <= self.brk);
        assert!(
            inside,
            "write of {len} bytes at {addr:#x} outside the reservation window {:#x}..{:#x}",
            self.base, self.brk
        );
    }

    /// The frame to write `len` bytes at `addr` into, and the offset.
    #[inline]
    fn frame_mut(&mut self, addr: Addr, len: u64) -> (&mut Frame, usize) {
        self.check_write(addr.raw(), len);
        let i = self.materialize(addr.raw());
        (&mut self.frames[i], (addr.raw() % FRAME) as usize)
    }

    /// Reads a little-endian `u64`. The access must not cross a frame
    /// boundary (allocator metadata is always 8-byte aligned).
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a 4 KB frame boundary.
    #[inline]
    pub fn read_u64(&self, addr: Addr) -> u64 {
        assert!(
            addr.raw() % FRAME <= FRAME - 8,
            "u64 read crosses frame boundary"
        );
        match self.frame(addr) {
            Some((f, off)) => u64::from_le_bytes(f[off..off + 8].try_into().expect("8 bytes")),
            None => 0,
        }
    }

    /// Writes a little-endian `u64`.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a 4 KB frame boundary or leaves the
    /// reservation window.
    #[inline]
    pub fn write_u64(&mut self, addr: Addr, val: u64) {
        assert!(
            addr.raw() % FRAME <= FRAME - 8,
            "u64 write crosses frame boundary"
        );
        let (frame, off) = self.frame_mut(addr, 8);
        frame[off..off + 8].copy_from_slice(&val.to_le_bytes());
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: Addr) -> u8 {
        self.frame(addr).map_or(0, |(f, off)| f[off])
    }

    /// Writes one byte.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the reservation window.
    #[inline]
    pub fn write_u8(&mut self, addr: Addr, val: u8) {
        let (frame, off) = self.frame_mut(addr, 1);
        frame[off] = val;
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a 4 KB frame boundary.
    #[inline]
    pub fn read_u32(&self, addr: Addr) -> u32 {
        assert!(
            addr.raw() % FRAME <= FRAME - 4,
            "u32 read crosses frame boundary"
        );
        match self.frame(addr) {
            Some((f, off)) => u32::from_le_bytes(f[off..off + 4].try_into().expect("4 bytes")),
            None => 0,
        }
    }

    /// Writes a little-endian `u32`.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a 4 KB frame boundary or leaves the
    /// reservation window.
    #[inline]
    pub fn write_u32(&mut self, addr: Addr, val: u32) {
        assert!(
            addr.raw() % FRAME <= FRAME - 4,
            "u32 write crosses frame boundary"
        );
        let (frame, off) = self.frame_mut(addr, 4);
        frame[off..off + 4].copy_from_slice(&val.to_le_bytes());
    }

    /// Copies `len` bytes from `src` to `dst`, one frame-bounded run at a
    /// time. The result is exactly that of the forward byte loop
    /// `for i in 0..len { write_u8(dst + i, read_u8(src + i)) }`, overlaps
    /// included: every destination frame is materialized, even where the
    /// source was never written.
    ///
    /// # Panics
    ///
    /// Panics if `len > 0` and `dst..dst + len` leaves the reservation
    /// window.
    pub fn copy(&mut self, dst: Addr, src: Addr, len: u64) {
        if len == 0 {
            return;
        }
        let (dst, src) = (dst.raw(), src.raw());
        self.check_write(dst, len);
        // When `dst` starts inside the source range, the byte loop reads
        // back bytes it wrote `lag` steps earlier (the source pattern
        // repeats); runs of at most `lag` bytes replay that exactly, since
        // a run then never reads what it writes itself.
        let lag = dst.wrapping_sub(src);
        let max_run = if lag > 0 && lag < len { lag } else { FRAME };
        let mut done = 0;
        while done < len {
            let (s, d) = (src.wrapping_add(done), dst + done);
            let run = (len - done)
                .min(max_run)
                .min(FRAME - s % FRAME)
                .min(FRAME - d % FRAME);
            let (so, doff, n) = ((s % FRAME) as usize, (d % FRAME) as usize, run as usize);
            let di = self.materialize(d);
            match self.frame_index(s) {
                None => self.frames[di][doff..doff + n].fill(0),
                // Same frame: `copy_within` is a memmove, which equals the
                // forward loop whenever the run does not read its own writes.
                Some(si) if si == di => self.frames[di].copy_within(so..so + n, doff),
                Some(si) => {
                    let [sf, df] = self
                        .frames
                        .get_disjoint_mut([si, di])
                        .expect("distinct frames");
                    df[doff..doff + n].copy_from_slice(&sf[so..so + n]);
                }
            }
            done += run;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = SimMemory::new(1 << 32);
        assert_eq!(m.read_u64(Addr::new(0x12345678)), 0);
        assert_eq!(m.read_u8(Addr::new(99)), 0);
    }

    #[test]
    fn read_back_written_values() {
        let mut m = SimMemory::new(1 << 32);
        let a = m.os_alloc(4096, 4096);
        m.write_u64(a, u64::MAX);
        m.write_u64(a + 8, 42);
        m.write_u8(a + 16, 7);
        m.write_u32(a + 20, 0xabcd);
        assert_eq!(m.read_u64(a), u64::MAX);
        assert_eq!(m.read_u64(a + 8), 42);
        assert_eq!(m.read_u8(a + 16), 7);
        assert_eq!(m.read_u32(a + 20), 0xabcd);
    }

    #[test]
    fn os_alloc_respects_alignment_and_no_overlap() {
        let mut m = SimMemory::new(1 << 32);
        let a = m.os_alloc(100, 8);
        let b = m.os_alloc(32 * 1024, 32 * 1024);
        let c = m.os_alloc(10, 8);
        assert!(b.is_aligned(32 * 1024));
        assert!(b.raw() >= a.raw() + 100);
        assert!(c.raw() >= b.raw() + 32 * 1024);
        assert_eq!(m.reserved_bytes(), 100 + 32 * 1024 + 10);
    }

    #[test]
    fn distinct_bases_do_not_collide() {
        let mut p0 = SimMemory::new(1 << 40);
        let mut p1 = SimMemory::new(2 << 40);
        let a0 = p0.os_alloc(4096, 4096);
        let a1 = p1.os_alloc(4096, 4096);
        assert!(a1.raw() - a0.raw() >= 1 << 40);
    }

    #[test]
    fn resident_tracks_touched_frames() {
        let mut m = SimMemory::new(1 << 32);
        let a = m.os_alloc(1 << 20, 4096);
        assert_eq!(m.resident_bytes(), 0); // reservation alone is not resident
        m.write_u8(a, 1);
        m.write_u8(a + 4096 * 3, 1);
        assert_eq!(m.resident_bytes(), 2 * 4096);
    }

    #[test]
    #[should_panic(expected = "crosses frame boundary")]
    fn straddling_u64_rejected() {
        let m = SimMemory::new(1 << 32);
        m.read_u64(Addr::new(4096 - 4));
    }

    #[test]
    fn reads_outside_the_window_are_zero() {
        let mut m = SimMemory::new(1 << 32);
        let a = m.os_alloc(100, 8);
        m.write_u64(a, u64::MAX);
        m.write_u64(a + 92, u64::MAX); // last word of the window
        let brk = a + 100;
        assert_eq!(m.read_u8(a - 1), 0);
        assert_eq!(m.read_u8(brk), 0); // same frame as written bytes
        assert_eq!(m.read_u64(brk + 4), 0);
        assert_eq!(m.read_u32(brk + 4096), 0); // beyond the frame table
        assert_eq!(m.resident_bytes(), 4096);
    }

    #[test]
    #[should_panic(expected = "outside the reservation window")]
    fn write_past_brk_rejected() {
        let mut m = SimMemory::new(1 << 32);
        let a = m.os_alloc(100, 8);
        m.write_u64(a + 96, 1); // straddles brk
    }

    #[test]
    #[should_panic(expected = "outside the reservation window")]
    fn write_below_base_rejected() {
        let mut m = SimMemory::new(1 << 32);
        m.os_alloc(4096, 4096);
        m.write_u8(m.base() - 1, 1);
    }

    #[test]
    #[should_panic(expected = "outside the reservation window")]
    fn copy_past_brk_rejected() {
        let mut m = SimMemory::new(1 << 32);
        let a = m.os_alloc(4096, 4096);
        m.copy(a + 4000, a, 200);
    }

    #[test]
    fn base_floor_is_nonzero() {
        // A zero base would make Addr(0) (the free-list NULL) a valid
        // allocation target; SimMemory must prevent that.
        let mut m = SimMemory::new(0);
        let a = m.os_alloc(16, 8);
        assert!(!a.is_null());
    }
}
