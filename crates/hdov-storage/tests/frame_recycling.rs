//! Safety of frame recycling in the shared pool, on every backend (mem,
//! mmap, pread).
//!
//! A stripe parks an evicted frame that no session holds and refills its
//! page on the stripe's next copying miss. These tests pin what that must
//! never change:
//!
//! 1. a frame a session still holds is never recycled — its bytes and
//!    overlay survive its eviction and every later admission;
//! 2. a recycled frame never shows the overlay of its previous page;
//! 3. a corrupt or failed miss pools nothing, and the spare it read into
//!    serves the next miss correctly;
//! 4. a scripted read trace gives exactly the hit/miss counts and cursor
//!    charges of a reference model of the striped LRU and the
//!    sequential-run cost rule.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;

use hdov_storage::{
    DiskModel, FaultPlan, FrozenPages, IoCursor, IoStats, MemPagedFile, Page, PageId, PagedFile,
    RetryPolicy, SharedCachedFile, StorageError, PAGE_SIZE,
};

const N_PAGES: u64 = 32;

/// The full contents of page `i`: `i` in the first 8 bytes, then a pattern
/// that differs from every other page's at every offset.
fn page_bytes(i: u64) -> Vec<u8> {
    let mut b: Vec<u8> = (0..PAGE_SIZE)
        .map(|j| (j as u64).wrapping_mul(7).wrapping_add(i * 13) as u8)
        .collect();
    b[..8].copy_from_slice(&i.to_le_bytes());
    b
}

fn page_no(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

fn mem_file() -> MemPagedFile {
    let mut f = MemPagedFile::new();
    for i in 0..N_PAGES {
        let id = f.allocate_page().unwrap();
        f.write_page(id, &Page::from_bytes(&page_bytes(i))).unwrap();
    }
    f
}

/// The three backends over the same pages, with the directory holding the
/// file store (removed by the caller).
fn backends(test: &str) -> (PathBuf, Vec<(&'static str, FrozenPages)>) {
    let dir = std::env::temp_dir().join(format!(
        "hdov_frame_recycling_{}_{test}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pages.hdov");
    FrozenPages::from_mem(mem_file())
        .write_store(&path, 1)
        .unwrap();
    let backends = vec![
        ("mem", FrozenPages::from_mem(mem_file())),
        ("mmap", FrozenPages::open_mmap(&path).unwrap()),
        ("pread", FrozenPages::open_pread(&path).unwrap()),
    ];
    (dir, backends)
}

#[test]
fn held_frame_survives_eviction_and_later_admissions() {
    let (dir, backends) = backends("held");
    for (label, data) in backends {
        // One stripe of two frames: page 0 is evicted by the second miss
        // after it, and every later miss recycles a parked frame.
        let pool = SharedCachedFile::new(data, DiskModel::PAPER_ERA, 2, 1);
        let mut cur = IoCursor::new();
        let held = pool.read_frame(&mut cur, PageId(0)).unwrap();
        let overlay: Arc<u64> = held.overlay(|b| Ok(page_no(b))).unwrap();
        for i in 1..N_PAGES {
            let f = pool.read_frame(&mut cur, PageId(i)).unwrap();
            assert!(!Arc::ptr_eq(&f, &held), "{label}: held frame recycled");
            assert_eq!(f.bytes(), &page_bytes(i)[..], "{label}: page {i}");
            let v: Arc<u64> = f.overlay(|b| Ok(page_no(b))).unwrap();
            assert_eq!(*v, i, "{label}: overlay of page {i}");
        }
        assert!(!pool.contains(PageId(0)), "{label}: page 0 was evicted");
        assert_eq!(held.id(), PageId(0), "{label}");
        assert_eq!(held.bytes(), &page_bytes(0)[..], "{label}: held bytes");
        assert!(held.has_overlay(), "{label}: held overlay dropped");
        let again: Arc<u64> = held.overlay(|_| Ok(u64::MAX)).unwrap();
        assert!(
            Arc::ptr_eq(&again, &overlay),
            "{label}: held overlay replaced"
        );
        assert_eq!(*overlay, 0, "{label}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recycled_frame_never_shows_a_stale_overlay() {
    let (dir, backends) = backends("stale");
    for (label, data) in backends {
        // One single-frame stripe: every miss evicts, and on the owned
        // backends every miss after the first two refills a parked frame.
        let pool = SharedCachedFile::new(data, DiskModel::PAPER_ERA, 1, 1);
        let mut cur = IoCursor::new();
        let mut decodes = 0u64;
        for pass in 0..2 {
            for i in 0..N_PAGES {
                let f = pool.read_frame(&mut cur, PageId(i)).unwrap();
                assert!(!f.has_overlay(), "{label}: page {i} admitted decoded");
                assert_eq!(f.id(), PageId(i), "{label}");
                assert_eq!(f.bytes(), &page_bytes(i)[..], "{label}: page {i}");
                drop(f);
                // The pool-level overlay read decodes the resident frame
                // afresh (a hit on an undecoded frame) and then memoizes.
                for _ in 0..2 {
                    let v = pool
                        .read_overlay(
                            &mut cur,
                            PageId(i),
                            |b| {
                                decodes += 1;
                                Ok(page_no(b))
                            },
                            Arc::clone,
                        )
                        .unwrap();
                    assert_eq!(*v, i, "{label}: pass {pass}, page {i}");
                }
            }
        }
        assert_eq!(decodes, 2 * N_PAGES, "{label}: one decode per residency");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_miss_pools_nothing_and_spare_stays_usable() {
    let (dir, backends) = backends("failed");
    for (label, data) in backends {
        let pool =
            SharedCachedFile::new(data, DiskModel::PAPER_ERA, 2, 1).with_retry(RetryPolicy::NONE);
        // Armed before any read, so every backend (mmap included) takes the
        // copying miss path that recycles frames.
        let injector = pool.arm_faults(&FaultPlan {
            fail_read_pages: vec![6],
            ..FaultPlan::corrupt_one(5)
        });
        let mut cur = IoCursor::new();
        let first = pool.read_frame(&mut cur, PageId(0)).unwrap();
        let parked = Arc::as_ptr(&first) as usize;
        drop(first);
        pool.read_frame(&mut cur, PageId(1)).unwrap();
        pool.read_frame(&mut cur, PageId(2)).unwrap(); // parks page 0's frame
        let before = (pool.hit_stats(), cur.stats());

        let err = pool.read_frame(&mut cur, PageId(5)).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{label}: {err}");
        let err = pool.read_frame(&mut cur, PageId(6)).unwrap_err();
        assert!(err.is_transient(), "{label}: {err}");
        assert!(!pool.contains(PageId(5)) && !pool.contains(PageId(6)));
        assert_eq!(
            (pool.hit_stats(), cur.stats().page_reads),
            (before.0, before.1.page_reads),
            "{label}: failed misses are neither pooled nor counted"
        );
        assert!(pool.contains(PageId(1)) && pool.contains(PageId(2)));

        // The spare the failed fetches read into serves the next miss.
        let f = pool.read_frame(&mut cur, PageId(7)).unwrap();
        assert_eq!(Arc::as_ptr(&f) as usize, parked, "{label}: spare reused");
        assert_eq!(f.bytes(), &page_bytes(7)[..], "{label}: no poison left");
        assert!(!f.has_overlay());
        let v: Arc<u64> = f.overlay(|b| Ok(page_no(b))).unwrap();
        assert_eq!(*v, 7);
        drop(f);

        // No negative caching: disarmed, the failed pages read clean.
        injector.disarm();
        for i in [5, 6] {
            let f = pool.read_frame(&mut cur, PageId(i)).unwrap();
            assert_eq!(f.bytes(), &page_bytes(i)[..], "{label}: page {i}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Reference model of a striped LRU pool and a session cursor: the hit/miss
/// and charging semantics the pool had before frames were recycled.
struct Model {
    stripes: Vec<VecDeque<u64>>, // front = most recently used
    per_stripe: usize,
    hits: u64,
    misses: u64,
    last_page: Option<u64>,
    stats: IoStats,
    disk: DiskModel,
}

impl Model {
    fn new(capacity: usize, stripes: usize, disk: DiskModel) -> Self {
        Model {
            stripes: vec![VecDeque::new(); stripes],
            per_stripe: capacity.div_ceil(stripes),
            hits: 0,
            misses: 0,
            last_page: None,
            stats: IoStats::new(),
            disk,
        }
    }

    fn access(&mut self, id: u64, promote: bool) {
        let n = self.stripes.len() as u64;
        let lru = &mut self.stripes[(id % n) as usize];
        if let Some(pos) = lru.iter().position(|&p| p == id) {
            self.hits += 1;
            if promote {
                lru.remove(pos);
                lru.push_front(id);
            }
            return;
        }
        self.misses += 1;
        let sequential = self.last_page == Some(id.wrapping_sub(1)) || self.last_page == Some(id);
        self.stats.elapsed_us += if sequential {
            self.disk.transfer_us
        } else {
            self.disk.seek_us + self.disk.transfer_us
        };
        self.stats.page_reads += 1;
        if sequential {
            self.stats.sequential_reads += 1;
        } else {
            self.stats.random_reads += 1;
        }
        self.last_page = Some(id);
        lru.push_front(id);
        if lru.len() > self.per_stripe {
            lru.pop_back();
        }
    }
}

/// SplitMix64: deterministic trace generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn scripted_trace_charges_like_the_reference_model() {
    let (dir, backends) = backends("trace");
    for (label, data) in backends {
        // 7 frames over 3 stripes (3 per stripe): constant eviction, so the
        // trace runs almost entirely on recycled frames.
        let pool = SharedCachedFile::new(data, DiskModel::PAPER_ERA, 7, 3);
        let mut model = Model::new(7, 3, DiskModel::PAPER_ERA);
        let mut cur = IoCursor::new();
        let mut s = 2003u64;
        let mut held = Vec::new();
        for step in 0..3_000u64 {
            let id = if step % 5 == 0 {
                splitmix(&mut s) % N_PAGES
            } else {
                (step * 3 + splitmix(&mut s) % 4) % N_PAGES
            };
            match splitmix(&mut s) % 5 {
                0 => {
                    let f = pool.read_frame(&mut cur, PageId(id)).unwrap();
                    assert_eq!(f.bytes(), &page_bytes(id)[..], "{label}: page {id}");
                    // Hold some frames across evictions, so both the
                    // recycled and the dropped eviction arms run.
                    if step % 7 == 0 {
                        held.push(f);
                    }
                    model.access(id, true);
                }
                1 => {
                    let v = pool
                        .read_overlay(&mut cur, PageId(id), |b| Ok(page_no(b)), Arc::clone)
                        .unwrap();
                    assert_eq!(*v, id, "{label}: overlay of page {id}");
                    model.access(id, true);
                }
                2 => {
                    pool.touch(&mut cur, PageId(id)).unwrap();
                    model.access(id, true);
                }
                3 => {
                    pool.warm(&mut cur, PageId(id)).unwrap();
                    model.access(id, false);
                }
                _ => {
                    let len = (N_PAGES - id).min(3);
                    pool.warm_run(&mut cur, PageId(id), len).unwrap();
                    for k in 0..len {
                        model.access(id + k, false);
                    }
                }
            }
            if held.len() > 4 {
                held.remove(0);
            }
        }
        assert_eq!(
            pool.hit_stats(),
            (model.hits, model.misses),
            "{label}: hit/miss counts"
        );
        assert_eq!(cur.stats(), model.stats, "{label}: cursor charges");
        for f in &held {
            assert_eq!(f.bytes(), &page_bytes(f.id().0)[..], "{label}: held frame");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
