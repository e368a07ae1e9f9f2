//! The sharded document store with epoch-based copy-on-write snapshots
//! and per-document versions.
//!
//! Scaling the serve layer to many concurrent clients means the document
//! map can no longer be one `RwLock<HashMap>`: a single writer loading a
//! large document would stall every reader, and every reader bounces the
//! same cache line. [`DocStore`] shards documents over N independent
//! slots (by name hash) and gives each shard an immutable *epoch*:
//!
//! * **Readers** take a [`StoreSnapshot`] — one `Arc` clone per shard
//!   under a briefly-held read lock — and then resolve documents with no
//!   locking at all. A snapshot is a consistent view: it never observes
//!   a later write, however long the request runs.
//! * **Writers** never mutate an installed epoch. They clone the shard's
//!   map (cheap: values are `Arc`s or paths), apply the change, bump the
//!   epoch counter, and swap the new `Arc` in under a briefly-held write
//!   lock. In-flight readers keep their old epoch alive through their
//!   snapshot `Arc`s; memory is reclaimed when the last snapshot drops.
//!
//! ## The epoch invariant
//!
//! For every shard: epochs strictly increase with each write; an epoch's
//! contents never change after installation; and a snapshot holding
//! epoch *e* of a shard sees exactly the writes ordered before *e* and
//! none after. Outstanding snapshots are counted
//! ([`DocStore::active_snapshots`]) so tests can prove that failed or
//! abandoned requests — including dropped streaming sessions — release
//! their snapshots and never poison the store.
//!
//! ## Per-document versions
//!
//! The shard epoch is the *consistency* token (snapshots, install
//! ordering) but a poor *identity* token for one document's content: it
//! advances on any write to the shard, so "epoch changed" does not mean
//! "this document changed". Every document therefore carries its own
//! **version** — the epoch installed by the write that last wrote *it*
//! ([`VersionedDoc`]). A write to a neighbour bumps the shard epoch but
//! leaves the version alone, so consumers keyed by version (the
//! view-result cache) are provably unaffected by neighbour writes.
//!
//! Version invariant: within a shard, a document's version changes iff
//! that document is written, versions strictly increase across writes to
//! the same name, and — because versions are drawn from the
//! never-restarting epoch counter — a name that is removed and later
//! re-inserted gets a version strictly greater than any it ever had.
//! A dead version can never be minted again, so a cache entry keyed to
//! one can never be wrongly served for a re-created document.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering}; // lint: atomic-ok (snapshot counter only)
use std::sync::{Arc, OnceLock, RwLock};

use xust_intern::Interner;
use xust_tree::Serialized;

use crate::server::DocSource;

/// A stored document plus the version of its content: the shard epoch
/// installed by the write that last wrote this document.
#[derive(Debug, Clone)]
pub struct VersionedDoc {
    /// Where the document lives.
    pub source: DocSource,
    /// Content version — bumped only by writes to *this* document.
    pub version: u64,
    /// This version's [`Serialized`] index cell: created empty when the
    /// version is installed and dropped with the version. Epochs that
    /// keep the version share the cell.
    pub(crate) serialized: Arc<IndexCell>,
}

/// A version's [`Serialized`] index, built on demand: the version's
/// first in-memory `TRANSFORM` only marks the cell and walks the tree,
/// its second builds the index (once, however many requests race for
/// it), and every later one copies slices of it. A version that is
/// written after at most one `TRANSFORM` never pays a build.
#[derive(Debug, Default)]
pub(crate) struct IndexCell {
    /// Set by the version's first in-memory `TRANSFORM`.
    pub(crate) transformed: OnceLock<()>,
    /// The index; `None` inside when the document does not fit 32-bit
    /// offsets.
    pub(crate) index: OnceLock<Option<Serialized>>,
}

impl VersionedDoc {
    fn new(source: DocSource, version: u64) -> VersionedDoc {
        VersionedDoc {
            source,
            version,
            serialized: Arc::default(),
        }
    }
}

/// One shard's immutable epoch: a version counter plus the name →
/// versioned-source map as of that version.
struct ShardEpoch {
    epoch: u64,
    docs: HashMap<String, VersionedDoc>,
}

struct Shard {
    current: RwLock<Arc<ShardEpoch>>,
}

/// What one write installed: the shard epoch it created, the written
/// document's new version, and the version it replaced (0 when the name
/// was not present before — real versions are never 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteStamp {
    /// The shard epoch this write installed.
    pub epoch: u64,
    /// The written document's new version (== `epoch` by construction;
    /// kept separate because readers of the *document* must compare
    /// versions, never epochs).
    pub version: u64,
    /// The version this write replaced; 0 for a fresh insert.
    pub prev_version: u64,
}

/// The sharded, snapshot-consistent document store. See the module docs.
pub struct DocStore {
    shards: Box<[Shard]>,
    active: Arc<AtomicUsize>,
    snapshots_taken: AtomicU64,
}

impl DocStore {
    /// Creates a store with `shards` independent shards (minimum 1).
    pub fn new(shards: usize) -> DocStore {
        let n = shards.max(1);
        DocStore {
            shards: (0..n)
                .map(|_| Shard {
                    current: RwLock::new(Arc::new(ShardEpoch {
                        epoch: 0,
                        docs: HashMap::new(),
                    })),
                })
                .collect(),
            active: Arc::new(AtomicUsize::new(0)),
            snapshots_taken: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The label interner shared by every shard and every snapshot: the
    /// process-global [`Interner`]. Documents loaded into any shard, and
    /// queries compiled against any snapshot, resolve labels through
    /// this one table, so a `Sym` carried across shards, epochs, or
    /// worker threads always means the same label — batch and streaming
    /// execution never re-intern.
    pub fn interner(&self) -> &'static Interner {
        Interner::global()
    }

    /// Which shard owns `name` (FNV-1a over the name bytes).
    pub fn shard_of(&self, name: &str) -> usize {
        shard_index(name, self.shards.len())
    }

    /// Installs (or replaces) a document: copy-on-write into a fresh
    /// epoch of its shard. Readers holding snapshots are unaffected.
    pub fn insert(&self, name: impl Into<String>, source: DocSource) -> WriteStamp {
        match self.insert_with(name, source, |_| Ok::<(), std::convert::Infallible>(())) {
            Ok(stamp) => stamp,
            Err(never) => match never {},
        }
    }

    /// Like [`DocStore::insert`], but runs `before_install` under the
    /// shard write lock after the stamp is decided and *before* the new
    /// epoch is installed. On `Err` nothing is installed — the shard
    /// keeps its epoch and contents. This is the hook the write-ahead
    /// log uses: log order equals install order because both happen
    /// under the same lock, and a failed append installs nothing.
    pub fn insert_with<E>(
        &self,
        name: impl Into<String>,
        source: DocSource,
        before_install: impl FnOnce(WriteStamp) -> Result<(), E>,
    ) -> Result<WriteStamp, E> {
        let name = name.into();
        let shard = &self.shards[self.shard_of(&name)];
        // lock-order: shard write lock first; `before_install` may take
        // the Wal mutex (innermost) — never the reverse.
        let mut current = shard.current.write().expect("doc store lock poisoned");
        let prev_version = current.docs.get(&name).map_or(0, |d| d.version);
        let epoch = current.epoch + 1;
        let stamp = WriteStamp {
            epoch,
            version: epoch,
            prev_version,
        };
        before_install(stamp)?;
        let mut docs = current.docs.clone();
        docs.insert(name, VersionedDoc::new(source, epoch));
        *current = Arc::new(ShardEpoch { epoch, docs });
        Ok(stamp)
    }

    /// Atomically transforms one document in place: read-modify-write
    /// under the owning shard's write lock, so two concurrent updates to
    /// the same shard can never lose each other's work. `apply` receives
    /// the [`WriteStamp`] the write *will* install — the new epoch, the
    /// document's new version, and the version being replaced — plus the
    /// current source, and returns the replacement source (plus any
    /// caller payload, e.g. cache-maintenance bookkeeping that must be
    /// ordered with the install). On `Err` nothing is installed: the
    /// shard keeps its epoch and contents — the write path's
    /// all-or-nothing guarantee.
    ///
    /// The shard's readers block for the duration of `apply`; snapshots
    /// and other shards are unaffected. Keep `apply` proportional to the
    /// delta being written, not to unrelated work.
    pub fn update<T, E>(
        &self,
        name: &str,
        apply: impl FnOnce(WriteStamp, &DocSource) -> Result<(DocSource, T), E>,
    ) -> Result<(WriteStamp, T), StoreUpdateError<E>> {
        let shard = &self.shards[self.shard_of(name)];
        let mut current = shard.current.write().expect("doc store lock poisoned");
        let existing = current
            .docs
            .get(name)
            .ok_or(StoreUpdateError::NotFound)?
            .clone();
        let epoch = current.epoch + 1;
        let stamp = WriteStamp {
            epoch,
            version: epoch,
            prev_version: existing.version,
        };
        let (replacement, payload) =
            apply(stamp, &existing.source).map_err(StoreUpdateError::Apply)?;
        let mut docs = current.docs.clone();
        docs.insert(name.to_string(), VersionedDoc::new(replacement, epoch));
        *current = Arc::new(ShardEpoch { epoch, docs });
        Ok((stamp, payload))
    }

    /// Current epoch of the shard owning `name` (whether or not the
    /// document exists — epochs are per shard).
    pub fn epoch_of(&self, name: &str) -> u64 {
        self.shards[self.shard_of(name)]
            .current
            .read()
            .expect("doc store lock poisoned")
            .epoch
    }

    /// Current version of `name`, if loaded. Unlike [`DocStore::
    /// epoch_of`], this changes only when `name` itself is written.
    pub fn version_of(&self, name: &str) -> Option<u64> {
        self.shards[self.shard_of(name)]
            .current
            .read()
            .expect("doc store lock poisoned")
            .docs
            .get(name)
            .map(|d| d.version)
    }

    /// Removes a document (copy-on-write); true if it existed. The
    /// removed name's version is *retired*, never reused: a later
    /// re-insert draws a strictly larger version from the epoch counter.
    pub fn remove(&self, name: &str) -> bool {
        match self.remove_with(name, || Ok::<(), std::convert::Infallible>(())) {
            Ok(removed) => removed,
            Err(never) => match never {},
        }
    }

    /// Like [`DocStore::remove`], but runs `before_remove` under the
    /// shard write lock once the document is known to exist and *before*
    /// the removal is installed. On `Err` the document stays — the
    /// write-ahead-log hook, mirroring [`DocStore::insert_with`]. The
    /// callback is not invoked for a name that is not loaded.
    pub fn remove_with<E>(
        &self,
        name: &str,
        before_remove: impl FnOnce() -> Result<(), E>,
    ) -> Result<bool, E> {
        let shard = &self.shards[self.shard_of(name)];
        // lock-order: shard write lock first; `before_remove` may take
        // the Wal mutex (innermost) — never the reverse.
        let mut current = shard.current.write().expect("doc store lock poisoned");
        if !current.docs.contains_key(name) {
            return Ok(false);
        }
        before_remove()?;
        let mut docs = current.docs.clone();
        docs.remove(name);
        let epoch = current.epoch + 1;
        *current = Arc::new(ShardEpoch { epoch, docs });
        Ok(true)
    }

    /// Resolves one document against the *current* epoch of its owning
    /// shard — one read lock on one shard, no cross-shard pinning, no
    /// snapshot bookkeeping. This is the hot path for single-document
    /// requests; use [`DocStore::snapshot`] when several lookups must
    /// observe the same world (batches, streaming sessions).
    pub fn get(&self, name: &str) -> Option<DocSource> {
        self.get_versioned(name).map(|d| d.source)
    }

    /// Like [`DocStore::get`], but returns the source *with* the version
    /// of its content, read atomically under one shard read lock — the
    /// pair a cache-filling reader needs (content and tag provably
    /// belong together).
    pub fn get_versioned(&self, name: &str) -> Option<VersionedDoc> {
        self.shards[self.shard_of(name)]
            .current
            .read()
            .expect("doc store lock poisoned")
            .docs
            .get(name)
            .cloned()
    }

    /// Takes a consistent snapshot across all shards. The snapshot pins
    /// each shard's current epoch until it is dropped.
    pub fn snapshot(&self) -> StoreSnapshot {
        let epochs = self
            .shards
            .iter()
            .map(|s| Arc::clone(&s.current.read().expect("doc store lock poisoned")))
            .collect();
        self.active.fetch_add(1, Ordering::SeqCst);
        self.snapshots_taken.fetch_add(1, Ordering::Relaxed); // relaxed: monotone counter; no data published
        StoreSnapshot {
            epochs,
            active: Arc::clone(&self.active),
        }
    }

    /// Snapshots currently outstanding (not yet dropped). Failure tests
    /// assert this returns to zero after aborted requests and sessions.
    pub fn active_snapshots(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Cumulative snapshots ever taken (a monotone counter, unlike the
    /// [`active_snapshots`](Self::active_snapshots) gauge) — `METRICS`
    /// exports both so snapshot churn is visible even when the gauge
    /// idles at zero.
    pub fn snapshots_taken(&self) -> u64 {
        self.snapshots_taken.load(Ordering::Relaxed) // relaxed: point-in-time read; staleness is fine
    }

    /// Current epoch number of every shard, in shard order.
    pub fn epochs(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.current.read().expect("doc store lock poisoned").epoch)
            .collect()
    }

    /// Total documents across shards (as of now).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.current
                    .read()
                    .expect("doc store lock poisoned")
                    .docs
                    .len()
            })
            .sum()
    }

    /// True when no shard holds any document.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Why [`DocStore::update`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreUpdateError<E> {
    /// The named document is not in the store.
    NotFound,
    /// The caller's `apply` closure failed; the shard was left untouched.
    Apply(E),
}

/// A consistent, immutable view of the whole store: one pinned epoch per
/// shard. Resolving documents through a snapshot takes no locks.
pub struct StoreSnapshot {
    epochs: Vec<Arc<ShardEpoch>>,
    active: Arc<AtomicUsize>,
}

impl StoreSnapshot {
    /// The same shared interner as [`DocStore::interner`] — snapshots
    /// never carry a private label table, so `Sym`s resolved against an
    /// old epoch stay valid forever.
    pub fn interner(&self) -> &'static Interner {
        Interner::global()
    }

    /// Resolves `name` in this snapshot (lock-free).
    pub fn get(&self, name: &str) -> Option<&DocSource> {
        self.get_versioned(name).map(|d| &d.source)
    }

    /// Resolves `name` with the version of its content, as pinned by
    /// this snapshot (lock-free).
    pub fn get_versioned(&self, name: &str) -> Option<&VersionedDoc> {
        self.epochs[shard_index(name, self.epochs.len())]
            .docs
            .get(name)
    }

    /// The pinned version of `name`, if it exists in this snapshot.
    pub fn version_of(&self, name: &str) -> Option<u64> {
        self.get_versioned(name).map(|d| d.version)
    }

    /// The pinned epoch of every shard, in shard order.
    pub fn epochs(&self) -> Vec<u64> {
        self.epochs.iter().map(|e| e.epoch).collect()
    }

    /// The pinned epoch of the shard owning `name`.
    pub fn epoch_of(&self, name: &str) -> u64 {
        self.epochs[shard_index(name, self.epochs.len())].epoch
    }

    /// Document names visible in this snapshot, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .epochs
            .iter()
            .flat_map(|e| e.docs.keys().cloned())
            .collect();
        v.sort();
        v
    }

    /// Documents visible in this snapshot.
    pub fn doc_count(&self) -> usize {
        self.epochs.iter().map(|e| e.docs.len()).sum()
    }
}

impl Drop for StoreSnapshot {
    fn drop(&mut self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
    }
}

fn shard_index(name: &str, shards: usize) -> usize {
    // FNV-1a: tiny, deterministic, good enough spread for names.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use xust_tree::Document;

    fn mem(xml: &str) -> DocSource {
        DocSource::Memory(Arc::new(Document::parse(xml).unwrap()))
    }

    #[test]
    fn snapshots_are_isolated_from_later_writes() {
        let store = DocStore::new(4);
        store.insert("a", mem("<a/>"));
        let snap = store.snapshot();
        store.insert("a", mem("<a2/>"));
        store.insert("b", mem("<b/>"));
        // The snapshot still sees the old world…
        assert!(snap.get("b").is_none());
        match snap.get("a") {
            Some(DocSource::Memory(d)) => assert_eq!(d.serialize(), "<a/>"),
            other => panic!("unexpected {other:?}"),
        }
        // …while a fresh snapshot sees the new one.
        let now = store.snapshot();
        match now.get("a") {
            Some(DocSource::Memory(d)) => assert_eq!(d.serialize(), "<a2/>"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(now.get("b").is_some());
    }

    #[test]
    fn epochs_strictly_increase_per_shard() {
        let store = DocStore::new(2);
        let before = store.epochs();
        let e1 = store.insert("x", mem("<x/>"));
        let e2 = store.insert("x", mem("<x/>"));
        assert!(e2.epoch > e1.epoch);
        let after = store.epochs();
        // Exactly one shard advanced, by exactly two.
        let advanced: Vec<_> = before.iter().zip(&after).filter(|(b, a)| a > b).collect();
        assert_eq!(advanced.len(), 1);
        assert_eq!(*advanced[0].1, advanced[0].0 + 2);
    }

    #[test]
    fn versions_bump_only_for_the_written_document() {
        let store = DocStore::new(1); // one shard: everyone is a neighbour
        let a = store.insert("a", mem("<a/>"));
        assert_eq!((a.version, a.prev_version), (1, 0));
        let b = store.insert("b", mem("<b/>"));
        assert_eq!((b.version, b.prev_version), (2, 0));
        // Writing b bumped the shard epoch but not a's version.
        assert_eq!(store.version_of("a"), Some(1));
        assert_eq!(store.version_of("b"), Some(2));
        assert_eq!(store.epoch_of("a"), 2);
        // A hammered neighbour never moves a's version.
        for _ in 0..5 {
            store.insert("b", mem("<b/>"));
        }
        assert_eq!(store.version_of("a"), Some(1));
        assert_eq!(store.epoch_of("a"), 7);
        // Re-writing a reports the version it replaced.
        let a2 = store.insert("a", mem("<a2/>"));
        assert_eq!((a2.version, a2.prev_version), (8, 1));
        assert!(store.version_of("missing").is_none());
    }

    #[test]
    fn removed_names_never_reuse_a_version() {
        let store = DocStore::new(1);
        store.insert("a", mem("<a/>"));
        store.insert("a", mem("<a2/>"));
        let dead = store.version_of("a").unwrap();
        assert!(store.remove("a"));
        assert!(store.version_of("a").is_none());
        // Re-creating the name draws a strictly larger version: any
        // cache entry keyed to the dead version can never hit again.
        let reborn = store.insert("a", mem("<a3/>"));
        assert!(
            reborn.version > dead,
            "reborn version {} must exceed dead version {dead}",
            reborn.version
        );
        assert_eq!(reborn.prev_version, 0, "the old lineage is gone");
    }

    #[test]
    fn versioned_reads_are_atomic_with_content() {
        let store = DocStore::new(2);
        store.insert("a", mem("<a/>"));
        let vd = store.get_versioned("a").unwrap();
        assert_eq!(vd.version, store.version_of("a").unwrap());
        match vd.source {
            DocSource::Memory(d) => assert_eq!(d.serialize(), "<a/>"),
            other => panic!("unexpected {other:?}"),
        }
        // Snapshots pin versions like they pin content.
        let snap = store.snapshot();
        store.insert("a", mem("<a2/>"));
        assert_eq!(snap.version_of("a"), Some(vd.version));
        assert_ne!(store.version_of("a"), Some(vd.version));
    }

    #[test]
    fn snapshot_guards_are_counted_and_released() {
        let store = DocStore::new(8);
        store.insert("a", mem("<a/>"));
        assert_eq!(store.active_snapshots(), 0);
        let s1 = store.snapshot();
        let s2 = store.snapshot();
        assert_eq!(store.active_snapshots(), 2);
        drop(s1);
        assert_eq!(store.active_snapshots(), 1);
        drop(s2);
        assert_eq!(store.active_snapshots(), 0);
    }

    #[test]
    fn remove_is_cow_too() {
        let store = DocStore::new(1);
        store.insert("a", mem("<a/>"));
        let snap = store.snapshot();
        assert!(store.remove("a"));
        assert!(!store.remove("a"));
        assert!(snap.get("a").is_some(), "snapshot keeps the removed doc");
        assert!(store.snapshot().get("a").is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn update_is_atomic_read_modify_write() {
        let store = Arc::new(DocStore::new(2));
        store.insert("ctr", mem("<v/>"));
        // N racing updaters each append one child; with the shard lock
        // held across the whole read-modify-write, none can be lost.
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        store
                            .update("ctr", |_, source| {
                                let DocSource::Memory(d) = source else {
                                    unreachable!()
                                };
                                let mut next = (**d).clone();
                                let root = next.root().unwrap();
                                let child = next.create_element("tick");
                                next.append_child(root, child);
                                Ok::<_, ()>((DocSource::Memory(Arc::new(next)), ()))
                            })
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        match store.get("ctr").unwrap() {
            DocSource::Memory(d) => {
                assert_eq!(d.serialize().matches("<tick/>").count(), 200);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(store.epochs().iter().sum::<u64>(), 201);
        assert_eq!(store.version_of("ctr"), Some(201));
    }

    #[test]
    fn failed_update_leaves_epoch_version_and_contents_alone() {
        let store = DocStore::new(4);
        store.insert("a", mem("<a/>"));
        let before = store.epochs();
        let version_before = store.version_of("a");
        let err = store.update("a", |_, _| Err::<(DocSource, ()), _>("boom"));
        assert_eq!(err.unwrap_err(), StoreUpdateError::Apply("boom"));
        let missing = store.update("nope", |_, _| Ok::<_, ()>((mem("<x/>"), ())));
        assert!(matches!(missing.unwrap_err(), StoreUpdateError::NotFound));
        assert_eq!(store.epochs(), before, "failed writes must not bump epochs");
        assert_eq!(store.version_of("a"), version_before);
        match store.get("a").unwrap() {
            DocSource::Memory(d) => assert_eq!(d.serialize(), "<a/>"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn update_reports_the_installed_stamp() {
        let store = DocStore::new(1);
        store.insert("a", mem("<a/>"));
        let snap_before = store.snapshot();
        let (stamp, payload) = store
            .update("a", |stamp, _| {
                Ok::<_, ()>((mem("<a2/>"), format!("installing {}", stamp.version)))
            })
            .unwrap();
        assert_eq!(
            stamp,
            WriteStamp {
                epoch: 2,
                version: 2,
                prev_version: 1
            }
        );
        assert_eq!(payload, "installing 2");
        assert_eq!(store.epoch_of("a"), 2);
        assert_eq!(store.version_of("a"), Some(2));
        assert_eq!(snap_before.epoch_of("a"), 1);
        assert_eq!(snap_before.version_of("a"), Some(1));
        // The pre-update snapshot still reads the old content.
        match snap_before.get("a") {
            Some(DocSource::Memory(d)) => assert_eq!(d.serialize(), "<a/>"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn insert_with_and_remove_with_are_all_or_nothing() {
        let store = DocStore::new(2);
        // A failing pre-install hook installs nothing at all.
        let err = store.insert_with("a", mem("<a/>"), |_| Err("append failed"));
        assert_eq!(err.unwrap_err(), "append failed");
        assert!(store.get("a").is_none());
        assert_eq!(store.epochs(), vec![0, 0]);
        // The hook sees the stamp the write will install.
        let stamp = store
            .insert_with("a", mem("<a/>"), |stamp| {
                assert_eq!((stamp.version, stamp.prev_version), (1, 0));
                Ok::<(), ()>(())
            })
            .unwrap();
        assert_eq!(stamp.version, 1);
        assert_eq!(store.version_of("a"), Some(1));
        // A failing pre-remove hook keeps the document.
        let err = store.remove_with("a", || Err("append failed"));
        assert_eq!(err.unwrap_err(), "append failed");
        assert_eq!(store.version_of("a"), Some(1));
        // Missing names never invoke the hook.
        let ok = store.remove_with("missing", || -> Result<(), ()> {
            panic!("hook must not run for a missing doc")
        });
        assert_eq!(ok, Ok(false));
        assert_eq!(store.remove_with("a", || Ok::<(), ()>(())), Ok(true));
        assert!(store.get("a").is_none());
    }

    #[test]
    fn names_span_all_shards() {
        let store = DocStore::new(8);
        for i in 0..32 {
            store.insert(format!("doc{i}"), mem("<d/>"));
        }
        assert_eq!(store.len(), 32);
        let names = store.snapshot().names();
        assert_eq!(names.len(), 32);
        assert!(names.windows(2).all(|w| w[0] < w[1]), "sorted");
        // The hash actually spreads names over multiple shards.
        let used = store.epochs().iter().filter(|&&e| e > 0).count();
        assert!(used > 1, "expected >1 shard used, got {used}");
    }

    #[test]
    fn concurrent_readers_and_writers_stay_consistent() {
        let store = Arc::new(DocStore::new(4));
        store.insert("hot", mem("<v>0</v>"));
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        store.insert("hot", mem(&format!("<v>{w}-{i}</v>")));
                        store.insert(format!("w{w}-{i}"), mem("<x/>"));
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let snap = store.snapshot();
                        // "hot" is never missing, and the snapshot's view
                        // doesn't change while we hold it.
                        let a = snap.get("hot").cloned();
                        std::thread::yield_now();
                        let b = snap.get("hot").cloned();
                        match (a, b) {
                            (Some(DocSource::Memory(x)), Some(DocSource::Memory(y))) => {
                                assert!(Arc::ptr_eq(&x, &y));
                            }
                            other => panic!("hot doc missing or changed: {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for t in writers.into_iter().chain(readers) {
            t.join().unwrap();
        }
        assert_eq!(store.active_snapshots(), 0);
        assert_eq!(store.len(), 1 + 2 * 50);
    }
}
