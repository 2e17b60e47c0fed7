//! Paged storage substrate for the HDoV-tree reproduction.
//!
//! The paper evaluates everything in terms of *page I/Os* against a disk, so
//! this crate provides:
//!
//! * fixed-size [`page`]s and little-endian [`codec`] helpers,
//! * the [`PagedFile`] abstraction with in-memory and real-file backends,
//! * a [`SimulatedDisk`] wrapper that charges a seek + transfer cost model and
//!   keeps exact [`IoStats`] (page reads/writes, sequential vs. random,
//!   simulated elapsed time), and
//! * an [`LruCache`] used for buffer pools.
//!
//! All experiment "search time" numbers in the benchmark harness come from
//! the simulated clock, which makes the reproduction deterministic and
//! hardware-independent (see `DESIGN.md` §3).

// `unsafe` is denied everywhere except the mmap syscall bindings, which
// carry per-site `#[allow]`s with safety arguments (see `mmap`).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cached;
pub mod checksum;
pub mod codec;
pub mod disk;
pub mod error;
pub mod fault;
pub mod file;
pub mod frame;
pub mod frozen;
pub mod lru;
pub mod mmap;
pub mod mutable;
pub mod page;
pub mod pread;
pub mod replica;
pub mod retry;
pub mod scrub;
pub mod shared;
pub mod stats;
pub mod wal;

pub use backend::{replica_path, FileMode, StorageBackend};
pub use cached::CachedFile;
pub use checksum::page_checksum;
pub use codec::{read_varint, unzigzag, varint_len, zigzag, ByteReader, ByteWriter};
pub use disk::{DiskModel, SimulatedDisk};
pub use error::{Result, StorageError, StoreOrigin};
pub use fault::{FaultPlan, FaultyFile, SharedFaultyFile};
pub use file::{FilePagedFile, MemPagedFile, PagedFile, StoreFile};
pub use frame::Frame;
pub use lru::LruCache;
pub use mmap::MappedStore;
pub use mutable::{MutTxn, MutableStore, PageLoc, PageTable, StoreSnapshot};
pub use page::{Page, PageId, PAGE_SIZE};
pub use pread::PreadStore;
pub use replica::{ReplicaHealth, ReplicaSet};
pub use retry::RetryPolicy;
pub use scrub::{verify_pool, ManualScrubClock, ScrubClock, ScrubConfig, ScrubReport, Scrubber};
pub use shared::{AtomicIoStats, FrozenPages, IoCursor, OverlayPick, SharedCachedFile};
pub use stats::IoStats;
pub use wal::{RecoveredTxn, Wal};
