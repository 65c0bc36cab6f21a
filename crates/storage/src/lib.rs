//! # cm-storage
//!
//! Storage substrate for the Correlation Maps (VLDB 2009) reproduction.
//!
//! The paper runs on PostgreSQL over a 7200rpm disk and all of its
//! experiments are disk-bound: what matters is the *pattern* of page
//! accesses (random seeks vs. sequential reads), priced with the constants
//! from Table 1 of the paper (`seek_cost = 5.5 ms`,
//! `seq_page_cost = 0.078 ms`). This crate provides that substrate:
//!
//! * [`Value`], [`Schema`], [`Row`] — a small dynamically-typed tuple model
//!   sufficient for the eBay / TPC-H / SDSS schemas used in the paper.
//! * [`DiskSim`] — a simulated disk that records every page access and
//!   charges seek or sequential cost depending on head position, exactly
//!   the methodology the paper itself uses in §6.1.1 ("we simulated the
//!   disk behavior by counting scanned pages and seeks"). Vectored
//!   `read_run`/`write_run` charge a whole contiguous page run atomically
//!   under one lock — one seek plus sequential pages — so concurrent
//!   sessions cannot interleave into the middle of a sweep and shatter
//!   its sequential pricing.
//! * [`HeapFile`] — a paged heap of rows, each page one typed vector per
//!   column plus a null bitmap, strings as codes into a per-heap
//!   [`Dictionary`]; readers get [`PageRef`] column views, and rows are
//!   materialised only where one must leave the page. Pages are held in
//!   segments of [`SEGMENT_PAGES`] pages shared copy-on-write with the
//!   checkpoint images ([`HeapImage`]) taken of the heap. Clustering is
//!   achieved by bulk loading rows sorted on the clustered attribute.
//! * [`BufferPool`] — a capacity-bounded page cache with dirty write-back,
//!   reproducing the mechanism behind the paper's Experiment 3 (index
//!   maintenance pressure on the buffer pool).
//! * [`Wal`] — a write-ahead log whose flushes are charged to the disk,
//!   used to give CMs recoverability comparable to B+Trees (§7.1). Since
//!   the recovery PR its records are typed, checksummed [`LogPayload`]
//!   frames ([`logrec`]) with stream-offset LSNs, and the framed stream
//!   is retained so [`decode_stream`] can replay it after a crash.
//! * [`FileDisk`] — a real-file page store (`pread`/`pwrite`, one
//!   vectored syscall per contiguous run, optional `O_DIRECT`). Pair it
//!   with [`DiskSim::with_backing`] ([`Backend::File`]) and every charge
//!   also hits the device, landing wall-clock nanoseconds in
//!   [`IoStats::read_wall_ns`]/[`IoStats::write_wall_ns`] next to the
//!   sim-ms — the `file_io` bench's sim-vs-hardware methodology.
//! * [`StorageShard`] — one disk + pool pair; a set of them lets a higher
//!   layer partition data so concurrent scans stop interleaving a single
//!   simulated head. [`Backend`] picks the device each shard runs on.
//! * [`GroupCommitWal`] — leader-elected batched commits over a [`Wal`]:
//!   concurrent committers share one tail flush.
//! * [`FxHasher`] — one fixed-seed, avalanching multiply-rotate hasher
//!   for the engine's per-row hash tables (join build keys, group keys,
//!   pool frames, the heap dictionary, typed page keys); see the [`hash`] module docs.
//! * [`MvccState`] / [`Snapshot`] — the multi-version commit clock,
//!   commit table, and registered read snapshots that let the engine
//!   serve readers under shard *read* locks while writers stamp new
//!   versions (see the [`mvcc`] module docs for the protocol).
//!
//! All higher layers (`cm-index`, `cm-core`, `cm-query`, …) charge their
//! I/O through the [`PageAccessor`] trait so that an experiment can route
//! accesses either straight to the simulated disk (cold runs) or through a
//! buffer pool (mixed workloads).

pub mod bufferpool;
pub mod cache;
pub mod disk;
pub mod error;
pub mod filedisk;
pub mod group_commit;
pub mod hash;
pub mod heap;
pub mod logrec;
pub mod mvcc;
pub mod rid;
pub mod schema;
pub mod shard;
pub mod value;
pub mod wal;

pub use bufferpool::{BufferPool, PoolStats};
pub use cache::ReadCache;
pub use disk::{for_each_page_run, DiskConfig, DiskSim, FileId, IoStats, PageAccessor};
pub use error::StorageError;
pub use filedisk::{FileDisk, TempDir};
pub use group_commit::{GroupCommitConfig, GroupCommitStats, GroupCommitWal};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use heap::{
    key_bits, null_bit, ColumnSlice, Dictionary, HeapFile, HeapImage, PageRef, SEGMENT_PAGES,
};
pub use logrec::{
    crc32, decode_stream, encode_into, DecodedLog, LogPayload, LogRecord, Lsn, AUTOCOMMIT_TXN,
    FRAME_HEADER_BYTES, PAYLOAD_HEADER_BYTES,
};
pub use mvcc::{
    is_pending, pending_stamp, pending_txn, MvccState, MvccStats, Snapshot, LIVE_TS, TXN_STAMP_BIT,
};
pub use rid::Rid;
pub use schema::{Column, Row, Schema, ValueType};
pub use shard::{aggregate_io, aggregate_pool, makespan_ms, Backend, StorageShard};
pub use value::{OrdF64, Value};
pub use wal::{LogWrite, Wal, WalBatch, MAINTENANCE_OVERHEAD_BYTES};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
