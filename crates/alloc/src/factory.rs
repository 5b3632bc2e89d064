//! Allocator registry: build any of the paper's allocators by name.

use crate::api::{Allocator, DynAllocator};
use crate::ddmalloc::{ClassMapping, DdConfig, DdMalloc};
use crate::dl::{DlAlloc, DlConfig};
use crate::hoard::{HoardAlloc, HoardConfig};
use crate::obstack::{ObstackAlloc, ObstackConfig};
use crate::php_default::{PhpConfig, PhpDefaultAlloc};
use crate::reaps::{ReapAlloc, ReapConfig};
use crate::region::{RegionAlloc, RegionConfig};
use crate::tcmalloc::{TcAlloc, TcConfig};
use webmm_sim::MemoryPort;

/// Boxes a default-configured allocator of `$kind` for process `$pid`;
/// the box's type comes from the caller's return type, so both
/// constructors share this one match.
macro_rules! build_kind {
    ($kind:expr, $pid:expr) => {
        match $kind {
            AllocatorKind::DdMalloc => Box::new(DdMalloc::new(DdConfig {
                pid: $pid,
                ..DdConfig::default()
            })),
            AllocatorKind::Region => Box::new(RegionAlloc::new(RegionConfig::default())),
            AllocatorKind::Obstack => Box::new(ObstackAlloc::new(ObstackConfig::default())),
            AllocatorKind::PhpDefault => Box::new(PhpDefaultAlloc::new(PhpConfig::default())),
            AllocatorKind::Dl => Box::new(DlAlloc::new(DlConfig::default())),
            AllocatorKind::Hoard => Box::new(HoardAlloc::new(HoardConfig::default())),
            AllocatorKind::TcMalloc => Box::new(TcAlloc::new(TcConfig::default())),
            AllocatorKind::Reaps => Box::new(ReapAlloc::new(ReapConfig::default())),
        }
    };
}

/// Every allocator studied in the paper, as a buildable enum.
///
/// # One heap, one thread
///
/// The paper's serving model is *process-per-worker*: each PHP/Ruby worker
/// owns a private heap and never shares allocator state (§2.1). The
/// allocators here mirror that — none of them is internally synchronized,
/// so a built allocator must only ever be driven from one thread at a
/// time. Handing a whole heap *to* a thread is fine and is the intended
/// pattern for native execution: `AllocatorKind` is `Copy + Send`, and
/// [`AllocatorKind::build_send`] certifies at compile time that every
/// concrete allocator can move across the spawn boundary. What is *not*
/// supported is two threads calling into the same allocator concurrently;
/// nothing hands out `Sync` access, so the compiler rejects that too.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, serde::Serialize)]
pub enum AllocatorKind {
    /// The paper's contribution: the defrag-dodging DDmalloc (§3).
    DdMalloc,
    /// 256 MB-chunk bump allocator without per-object free (§4.1).
    Region,
    /// GNU-obstack-style chunked region allocator (§4.1).
    Obstack,
    /// The default (Zend-style) allocator of the PHP runtime (§2.2).
    PhpDefault,
    /// Doug-Lea-style glibc malloc (§4.4).
    Dl,
    /// Hoard 3.7-style superblock allocator (§4.4).
    Hoard,
    /// TCmalloc-style thread-caching allocator (§4.4).
    TcMalloc,
    /// Reaps-style region-with-malloc/free allocator (§6 related work).
    Reaps,
}

impl AllocatorKind {
    /// The three allocators of the main PHP study (Figures 1 and 5-9,
    /// Tables 3-4), in the paper's presentation order.
    pub const PHP_STUDY: [AllocatorKind; 3] = [
        AllocatorKind::PhpDefault,
        AllocatorKind::Region,
        AllocatorKind::DdMalloc,
    ];

    /// The four allocators of the Ruby on Rails study (Figures 10-12).
    pub const RUBY_STUDY: [AllocatorKind; 4] = [
        AllocatorKind::Dl,
        AllocatorKind::Hoard,
        AllocatorKind::TcMalloc,
        AllocatorKind::DdMalloc,
    ];

    /// All allocators in this crate.
    pub const ALL: [AllocatorKind; 8] = [
        AllocatorKind::PhpDefault,
        AllocatorKind::Region,
        AllocatorKind::Obstack,
        AllocatorKind::DdMalloc,
        AllocatorKind::Dl,
        AllocatorKind::Hoard,
        AllocatorKind::TcMalloc,
        AllocatorKind::Reaps,
    ];

    /// Builds the allocator with default configuration, tagged with the
    /// simulated process id `pid` (used by DDmalloc's metadata-placement
    /// optimization; ignored by the others), driven through a
    /// `dyn MemoryPort` of any lifetime. This is the constructor the
    /// simulator uses: its [`ContextPort`](webmm_sim::ContextPort) borrows
    /// the machine for one execution slice only.
    pub fn build(self, pid: u32) -> Box<DynAllocator> {
        build_kind!(self, pid)
    }

    /// Builds the allocator for the port type `P`, certified to be
    /// handed to an OS thread: the returned box is `Send`, which holds
    /// because no allocator in this crate keeps `Rc`/`RefCell`/raw-pointer
    /// state.
    ///
    /// This is the constructor the native serving harness
    /// (`webmm-server`) uses — one worker thread, one heap, per the
    /// invariant documented on [`AllocatorKind`] — with `P` the concrete
    /// [`PlainPort`](webmm_sim::PlainPort), so the allocator's simulated
    /// loads and stores are direct calls rather than virtual ones.
    pub fn build_send<P: MemoryPort + ?Sized>(self, pid: u32) -> Box<dyn Allocator<P> + Send> {
        build_kind!(self, pid)
    }

    /// Builds a DDmalloc with an explicit configuration (ablation studies).
    pub fn build_dd(config: DdConfig) -> Box<DynAllocator> {
        Box::new(DdMalloc::new(config))
    }

    /// Builds a DDmalloc variant for a given segment size / mapping /
    /// large-page setting, for the ablation benches.
    pub fn build_dd_with(
        segment_bytes: u64,
        mapping: ClassMapping,
        large_pages: bool,
        metadata_offset: bool,
        pid: u32,
    ) -> Box<DynAllocator> {
        Box::new(DdMalloc::new(DdConfig {
            segment_bytes,
            // Keep the heap capacity constant at 512 MB across segment sizes.
            max_segments: ((512u64 << 20) / segment_bytes) as u32,
            large_pages,
            metadata_offset,
            pid,
            mapping,
        }))
    }

    /// Short stable identifier (for CLI arguments and JSON output).
    pub fn id(self) -> &'static str {
        match self {
            AllocatorKind::DdMalloc => "ddmalloc",
            AllocatorKind::Region => "region",
            AllocatorKind::Obstack => "obstack",
            AllocatorKind::PhpDefault => "php-default",
            AllocatorKind::Dl => "glibc",
            AllocatorKind::Hoard => "hoard",
            AllocatorKind::TcMalloc => "tcmalloc",
            AllocatorKind::Reaps => "reaps",
        }
    }

    /// Parses an id produced by [`AllocatorKind::id`].
    pub fn from_id(id: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.id() == id)
    }
}

impl std::fmt::Display for AllocatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webmm_sim::PlainPort;

    #[test]
    fn every_kind_builds_and_allocates() {
        for kind in AllocatorKind::ALL {
            let mut a = kind.build(3);
            let mut port = PlainPort::new();
            let x = a
                .malloc(&mut port, 100)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(!x.is_null());
            if a.alloc_traits().per_object_free {
                a.free(&mut port, x);
            }
            if a.alloc_traits().bulk_free {
                a.free_all(&mut port);
            }
            assert_eq!(a.stats().mallocs, 1);
        }
    }

    #[test]
    fn id_roundtrip() {
        for kind in AllocatorKind::ALL {
            assert_eq!(AllocatorKind::from_id(kind.id()), Some(kind));
        }
        assert_eq!(AllocatorKind::from_id("nonsense"), None);
    }

    #[test]
    fn study_sets_match_paper() {
        assert_eq!(AllocatorKind::PHP_STUDY.len(), 3);
        assert_eq!(AllocatorKind::RUBY_STUDY.len(), 4);
        // Every PHP-study allocator supports bulk free; the Ruby-study
        // baselines (all but DDmalloc) do not.
        for k in AllocatorKind::PHP_STUDY {
            assert!(k.build(0).alloc_traits().bulk_free, "{k}");
        }
        for k in AllocatorKind::RUBY_STUDY {
            if k != AllocatorKind::DdMalloc {
                assert!(!k.build(0).alloc_traits().bulk_free, "{k}");
            }
        }
    }

    #[test]
    fn names_match_paper_figures() {
        assert_eq!(AllocatorKind::DdMalloc.build(0).name(), "our DDmalloc");
        assert_eq!(
            AllocatorKind::Region.build(0).name(),
            "region-based allocator"
        );
        assert_eq!(
            AllocatorKind::PhpDefault.build(0).name(),
            "default allocator of the PHP runtime"
        );
        assert_eq!(AllocatorKind::Dl.build(0).name(), "glibc");
    }
}
