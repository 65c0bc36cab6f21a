//! MVCC garbage collection: resolving pending stamps and reclaiming
//! versions no live snapshot can see, on demand or on a commit-count
//! trigger.

use crate::engine::Engine;
use crate::Result;
use std::sync::atomic::Ordering;

/// Versions a vacuum pass physically reclaims per shard write-lock
/// hold. Between chunks the lock is released, bounding how long any
/// concurrent reader can be held up by garbage collection.
const VACUUM_CHUNK: usize = 128;

impl Engine {
    /// Multi-version garbage collection: under each shard's write lock,
    /// rewrite every resolvable pending stamp to its plain commit
    /// timestamp, then physically reclaim (dead heap slot + access
    /// structure retraction) the versions whose end timestamp is at or
    /// below the oldest live snapshot — no current or future reader can
    /// see them. Returns `(stamps_resolved, versions_reclaimed)`; a
    /// no-op `(0, 0)` without MVCC. Logs nothing: the logical deletes
    /// that ended these versions are already in the WAL, and a
    /// checkpoint image records ended versions as dead slots.
    ///
    /// Reclaim work is chunked: each shard write-lock hold retracts at
    /// most `VACUUM_CHUNK` versions, keeping reader stalls bounded
    /// however large the dead backlog has grown.
    pub fn vacuum(&self) -> Result<(u64, u64)> {
        let _serialized = self.vacuum_lock.lock();
        self.vacuum_locked()
    }

    /// The vacuum pass body; callers must hold `vacuum_lock`.
    fn vacuum_locked(&self) -> Result<(u64, u64)> {
        let Some(mv) = &self.mvcc else { return Ok((0, 0)) };
        // Commit-table entries at or below the clock *now* are prunable
        // afterwards: a transaction's stamps are all written before its
        // commit record, so this pass rewrites every one of them.
        let cutoff = mv.now();
        let oldest = mv.oldest_live();
        let mut resolved = 0u64;
        let mut reclaimed = 0u64;
        for entry in self.entries() {
            let Some(lt) = entry.loaded.get() else { continue };
            for (i, part) in lt.parts.iter().enumerate() {
                // One hold rewrites stamps and collects the victims...
                let victims = {
                    let mut t = part.write();
                    resolved += t.resolve_stamps(|stamp| mv.resolve(stamp));
                    t.reclaimable(oldest)
                };
                // ...then the physical reclaim runs in bounded holds so
                // concurrent readers never wait out a full pass. Rids
                // are stable slot ids, nothing resurrects an ended
                // version, and `vacuum_lock` keeps other vacuums (and
                // design installs) out, so releasing the shard between
                // chunks is safe.
                for chunk in victims.chunks(VACUUM_CHUNK) {
                    let mut t = part.write();
                    for rid in chunk {
                        t.delete_row(self.backends[i].pool(), None, *rid)?;
                        reclaimed += 1;
                    }
                }
            }
        }
        mv.prune_commits(cutoff);
        mv.note_resolved(resolved);
        mv.note_reclaimed(reclaimed);
        mv.note_vacuum();
        Ok((resolved, reclaimed))
    }

    /// Auto-vacuum trigger, piggybacked on commit points: runs a
    /// [`Engine::vacuum`] pass once
    /// [`EngineConfig::gc_every`](crate::EngineConfig::gc_every) MVCC
    /// deletes have accumulated. Skips (rather than queues) when a
    /// vacuum or a design install is running.
    pub(crate) fn maybe_vacuum(&self) {
        if self.mvcc.is_none() || self.config.gc_every == 0 {
            return;
        }
        if self.gc_deletes.load(Ordering::Relaxed) < self.config.gc_every {
            return;
        }
        if let Some(_serialized) = self.vacuum_lock.try_lock() {
            self.gc_deletes.store(0, Ordering::Relaxed);
            let _ = self.vacuum_locked();
        }
    }

    /// Versions that have ended but not yet been reclaimed, summed over
    /// every loaded table — the version-chain-length signal a vacuum
    /// pass would work through. Always 0 when MVCC is off.
    pub fn dead_versions(&self) -> u64 {
        if self.mvcc.is_none() {
            return 0;
        }
        self.entries()
            .iter()
            .filter_map(|entry| entry.loaded.get())
            .flat_map(|lt| &lt.parts)
            .map(|part| part.read().dead_versions())
            .sum()
    }
}
