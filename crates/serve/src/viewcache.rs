//! The materialized view-result cache with delta-aware maintenance,
//! sharded by document.
//!
//! [`PreparedCache`](crate::PreparedCache) makes *plans* cheap; this
//! cache makes *answers* cheap: it maps `(view, doc)` to the
//! materialized view result, keyed by the **document version** it was
//! computed from (see `store::VersionedDoc`) and the view definition's
//! registration generation. A read at the same `(generation, version)`
//! is a hit; anything else is a miss (and replaces the entry).
//!
//! Because the key is the *document's own* version — not the shard
//! epoch — a write to one document cannot disturb another document's
//! entries in any way: their versions did not move, so their keys still
//! match, and (see below) their locks are never taken.
//!
//! ## Per-document shards
//!
//! The cache is physically split into one shard per document — an
//! `Arc<Mutex<…>>` entry map created the first time a document's result
//! is cached and dropped with the document (`purge_doc`). Readers
//! resolve the shard through a read-mostly outer `RwLock` (briefly, in
//! shared mode) and then lock only their own document's mutex. The
//! write path's maintenance sweep — relevance tests plus target
//! re-evaluation over each retained result — therefore gates result
//! reads for *the written document only*; requests for every other
//! document proceed in parallel. Lock order is strictly outer → one
//! shard mutex; no path ever holds two shard mutexes at once.
//!
//! ## The write path
//!
//! When `UPDATE` applies a delta to a stored document, every entry for
//! that document faces one of three fates, decided by the relevance
//! test of `xust_core::delta` and the provenance map of
//! `xust_core::patch`:
//!
//! * **retained** — the update provably cannot change what the view's
//!   automata see, and the view provably cannot have changed what the
//!   update's selection reads: `delta ∩ view alphabet = ∅`,
//!   `update alphabet ∩ view structural-touched = ∅`, and
//!   `update value-labels ∩ view valued-touched = ∅`, with no
//!   wildcards on either side. The *same* update is then applied to
//!   the cached result (view and update commute under exactly these
//!   conditions), and the entry moves to the new document version
//!   without recomputation. If the retained update renamed nodes, the
//!   entry's stored touched-label sets are carried into the new
//!   vocabulary via [`TouchedLabels::apply_renames`] — they describe
//!   *nodes* whose names just changed, and later relevance tests must
//!   see the current names, not the materialization-time ones.
//! * **patched** — the relevance test fails (the write genuinely
//!   changes the view's output) but the write is a single-rule update
//!   whose sites localize to a small set of fragments recorded in the
//!   entry's [`FragmentTree`]: the view is re-evaluated **only under
//!   those base subtrees** with the fragment's stored NFA states, and
//!   the fresh result nodes are spliced over the stale ones in the
//!   cached tree. Unaffected fragments keep their memoized
//!   serialization bytes, so both patch time and the next assembly are
//!   proportional to the affected span, not the result size — the
//!   update-time-sublinear regime. Eligibility additionally requires
//!   the update's guard labels (every label on a site's ancestor chain,
//!   plus rename targets) to be disjoint from the view's qualifier
//!   *anchor* alphabet: a write can flip a qualifier verdict only at
//!   ancestors-or-self of its targets, so disjointness proves every
//!   selection decision outside the patched regions is unchanged.
//! * **recomputed** — the test fails and patching is ineligible
//!   (multi-rule write, guard overlap, affected span above the fallback
//!   threshold, or a site localizing to the root fragment, which every
//!   site of an opaque tree does): the entry is dropped and the next
//!   request rebuilds it lazily.
//!
//! An entry is a result tree plus a fragment tree whose leaves hold the
//! only serialized copy; a hit assembles them. Retained entries with a
//! non-empty delta get their provenance *repaired* rather than rebuilt:
//! the deepest fragment covering each update site (on the base side)
//! and each replayed target (on the result side) is collapsed to an
//! opaque leaf — still correct, just less granular, until the next full
//! materialization restores detail.
//!
//! There is no "stale" fate: under shard-epoch keying a
//! neighbour's write silently un-keyed every same-shard entry, and the
//! sweep had to drop them untested. Per-document versions make that
//! structurally impossible — a neighbour write moves neither this
//! document's version nor its shard's lock — and the regression tests
//! in `tests/update_maintenance.rs` hold the line. The three fates are
//! counted per view and per document in [`ServeStats`](crate::ServeStats),
//! and every recompute also under its [`Fallback`] reason.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering}; // lint: atomic-ok (hit/miss/size counters only)
use std::sync::{Arc, Mutex, RwLock};

use xust_core::delta::{RenameMapping, TouchedLabels};
use xust_core::{CompiledTransform, FragmentTree, LabelSet, Localized, PatchOutcome};
use xust_tree::{Document, NodeId};

/// Fallback threshold: patch only when the affected base span times
/// this factor fits inside the document (small documents always pass —
/// the span comparison floor is 256 nodes — since a recompute there is
/// cheap anyway but patching keeps the fuzzers honest).
const PATCH_SPAN_FACTOR: u64 = 4;

/// What a retained entry's delta replay touched in the *cached result*
/// tree: the deepest-first ancestor-or-self chain of every replayed
/// target, read off the result document **before** the replay mutated
/// it. Result-side provenance repair collapses along these.
#[derive(Debug, Default, Clone)]
pub struct DeltaReplay {
    /// One chain per replayed update target (see
    /// [`xust_core::site_chain`]).
    pub chains: Vec<Vec<NodeId>>,
}

/// Everything the patch fate needs to know about one registered view,
/// borrowed from its registration.
pub struct PatchView<'a> {
    /// The view's compiled transform (prebuilt selecting NFA included).
    pub ct: &'a CompiledTransform,
    /// The view path's qualifier anchor alphabet
    /// ([`xust_core::qualifier_anchor_alphabet_into`]), computed once
    /// when the view was registered.
    pub anchor_alphabet: &'a LabelSet,
    /// The registration generation `ct` belongs to.
    pub generation: u64,
}

/// Write-side context for the patch fate, built by the server for
/// **single-rule** updates only (multi-rule writes interleave arena
/// slot recycling between rules, so node ids captured for one rule can
/// be stale by the next — provenance cannot be trusted across them).
pub struct PatchCtx<'a> {
    /// The base document **after** the write applied.
    pub base: &'a Document,
    /// Per-target site chains (deepest-first ancestor-or-self of each
    /// update site, pre-apply ids — sites are chosen to survive the
    /// update: the parent for structural/sibling ops, the target itself
    /// for renames and into-inserts).
    pub sites: &'a [Vec<NodeId>],
    /// Union of every site-chain label plus rename target labels: the
    /// labels at which the write could have flipped a qualifier
    /// verdict or changed a name.
    pub guard: &'a LabelSet,
    /// Patch-eligible registered views by cache key.
    pub views: &'a HashMap<String, PatchView<'a>>,
}

/// One cached, maintained view result.
struct Entry {
    /// The materialized result as a tree — kept so retained entries can
    /// have the delta applied to them in place.
    doc: Document,
    /// The registration generation of the view definition this result
    /// was materialized under (see `ViewDef::generation`).
    generation: u64,
    /// The view's static alphabet, captured at insert.
    view_alphabet: LabelSet,
    /// The labels the view's own updates touched when this result was
    /// materialized, split into structural (removed subtrees, inserted
    /// fragments, renames) and valued (ancestor-or-self chains whose
    /// string values shifted) — the update side of the relevance test.
    view_touched: TouchedLabels,
    /// Version of the base document this result reflects — bumped only
    /// by writes to *that* document, never by shard neighbours.
    version: u64,
    /// Provenance of `doc` — which base subtrees produced which result
    /// fragments — with memoized per-fragment bytes, the entry's only
    /// serialized copy. Opaque when the materialization could not record
    /// provenance (multi-link chain, unalignable shape), which disables
    /// the patch fate; edits maintenance cannot localize collapse it.
    frags: FragmentTree,
    /// LRU clock value of the last hit.
    last_use: u64,
}

/// One document's slice of the cache: its own entry map behind its own
/// mutex, shared via `Arc` so readers can resolve it under the outer
/// read lock and then operate without it.
#[derive(Default)]
struct DocCacheShard {
    state: Mutex<DocShardState>,
}

#[derive(Default)]
struct DocShardState {
    /// `view → entry` for this one document.
    views: HashMap<String, Entry>,
    /// Set when `purge_doc` removes the shard from the outer map: an
    /// inserter racing the purge (it resolved the `Arc` just before)
    /// must not write into the orphaned map — entries there would be
    /// unreachable yet counted. It retries through the outer map
    /// instead, landing in a fresh shard (or nowhere).
    detached: bool,
}

/// What [`ViewResultCache::maintain`] did to one document's entries.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MaintainOutcome {
    /// Views whose entries were retained (delta applied in place).
    pub retained: Vec<String>,
    /// Views whose entries failed the relevance test but were patched
    /// in place through their provenance maps.
    pub patched: Vec<String>,
    /// Total fragments spliced across all patched entries.
    pub patched_fragments: u64,
    /// Views whose entries failed the relevance test and were dropped
    /// for lazy recomputation.
    pub recomputed: Vec<String>,
    /// Why each entry of `recomputed` was not patched, index-aligned.
    pub fallbacks: Vec<Fallback>,
}

/// Why an entry that failed the relevance test took the recompute fate
/// instead of the patch fate — one `STATS`/`METRICS` row per reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fallback {
    /// The affected span exceeds the fallback threshold.
    Threshold,
    /// An update site localized to the root fragment.
    Root,
    /// The write's guard labels meet the view's qualifier anchors.
    Guard,
    /// The view was re-registered (the entry's generation is not the
    /// registered one) or removed since the entry was materialized.
    Generation,
    /// The entry was computed from a version this write does not
    /// replace.
    Stale,
    /// The write carried no patch context (a multi-rule write, or
    /// patching switched off).
    NoCtx,
}

impl Fallback {
    /// Every reason, in declaration (index) order.
    pub const ALL: [Fallback; 6] = [
        Fallback::Threshold,
        Fallback::Root,
        Fallback::Guard,
        Fallback::Generation,
        Fallback::Stale,
        Fallback::NoCtx,
    ];

    /// The reason's name, as rendered in `STATS` and `METRICS`.
    pub fn name(self) -> &'static str {
        match self {
            Fallback::Threshold => "threshold",
            Fallback::Root => "root",
            Fallback::Guard => "guard",
            Fallback::Generation => "generation",
            Fallback::Stale => "stale",
            Fallback::NoCtx => "no_ctx",
        }
    }
}

/// See the module docs.
pub struct ViewResultCache {
    capacity: usize,
    /// `doc → shard`. Read-mostly: looked up in shared mode on every
    /// get/insert/maintain; taken exclusively only to create a shard
    /// for a newly cached document or to drop one with its document.
    shards: RwLock<HashMap<String, Arc<DocCacheShard>>>,
    /// Total entries across all shards, kept outside the shard mutexes
    /// so capacity checks and `len` never walk (or lock) the shards.
    entries: AtomicUsize,
    /// Global LRU clock (monotonic; ties are impossible).
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ViewResultCache {
    /// A cache holding at most `capacity` materialized results
    /// (`capacity == 0` disables caching entirely). The capacity is a
    /// high-water mark, not a hard wall: concurrent inserters can
    /// overshoot it by at most one entry each while an eviction is in
    /// flight.
    pub fn new(capacity: usize) -> ViewResultCache {
        ViewResultCache {
            capacity,
            shards: RwLock::new(HashMap::new()),
            entries: AtomicUsize::new(0),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1 // relaxed: monotone counter; no data published
    }

    /// The shard for `doc`, if one exists.
    fn shard_of(&self, doc: &str) -> Option<Arc<DocCacheShard>> {
        self.shards
            .read()
            .expect("view cache lock poisoned")
            .get(doc)
            .cloned()
    }

    /// The shard for `doc`, created if absent. Shard creation is rare
    /// (once per document whose results get cached), so the write-lock
    /// hold doubles as the reclamation point for **empty** shards:
    /// without it, a reader racing a `remove_doc` can re-create a shard
    /// for the just-purged document (its `still_at` check passed before
    /// the removal landed), and since `purge_doc` never runs again for
    /// that name, the dead shard would sit in the outer map forever
    /// under name-churn workloads. Any such entry is unreachable (its
    /// version is retired) and LRU-evicted at capacity; once its shard
    /// is empty, the next shard creation sweeps it out. Busy shards are
    /// skipped (`try_lock`), never waited on.
    fn shard_for(&self, doc: &str) -> Arc<DocCacheShard> {
        if let Some(shard) = self.shard_of(doc) {
            return shard;
        }
        let mut shards = self.shards.write().expect("view cache lock poisoned");
        shards.retain(|_, shard| {
            let Ok(mut state) = shard.state.try_lock() else {
                return true; // busy: keep, reclaim another time
            };
            if state.views.is_empty() {
                // Detach so an inserter still holding this Arc retries
                // through the outer map instead of writing into the
                // orphaned shard (same protocol as purge_doc).
                state.detached = true;
                false
            } else {
                true
            }
        });
        Arc::clone(shards.entry(doc.to_string()).or_default())
    }

    /// The cached body for `(view, doc)` **at exactly** document
    /// version `version`, under exactly view-definition `generation`,
    /// if any, assembled from the entry's fragment leaves. A counted
    /// miss means the caller is about to materialize. The first hit
    /// after a maintenance edit re-serializes the leaves it touched
    /// here — outside the store's shard lock.
    pub fn get(&self, view: &str, doc: &str, version: u64, generation: u64) -> Option<String> {
        if self.capacity == 0 {
            return None;
        }
        let found = self.shard_of(doc).and_then(|shard| {
            let mut state = shard.state.lock().expect("view cache shard poisoned");
            match state.views.get_mut(view) {
                Some(e) if e.version == version && e.generation == generation => {
                    e.last_use = self.next_tick();
                    Some(e.frags.assemble(&e.doc))
                }
                _ => None,
            }
        });
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed), // relaxed: monotone counter; no data published
            None => self.misses.fetch_add(1, Ordering::Relaxed), // relaxed: monotone counter; no data published
        };
        found
    }

    /// Whether `(view, doc)` is resident at exactly `(version,
    /// generation)` — **without** counting a hit/miss or bumping the
    /// entry's LRU age. This is the `EXPLAIN` probe: introspection must
    /// not perturb the statistics or retention order it reports on.
    pub fn peek(&self, view: &str, doc: &str, version: u64, generation: u64) -> bool {
        if self.capacity == 0 {
            return false;
        }
        self.shard_of(doc).is_some_and(|shard| {
            let state = shard.state.lock().expect("view cache shard poisoned");
            matches!(
                state.views.get(view),
                Some(e) if e.version == version && e.generation == generation
            )
        })
    }

    /// Installs (or replaces) the result for `(view, doc)` as of
    /// document version `version` under view-definition `generation`,
    /// evicting the least-recently-used entry cache-wide at capacity.
    /// A resident entry at a *newer* version or generation wins over
    /// the candidate: a batch pinned to an old snapshot must not
    /// clobber a maintained, up-to-date result with its older one.
    /// `frags` is the fragment tree recorded over `result` at
    /// materialization time; its leaves hold the served bytes.
    #[allow(clippy::too_many_arguments)]
    pub fn insert(
        &self,
        view: &str,
        doc: &str,
        version: u64,
        generation: u64,
        result: Document,
        view_alphabet: LabelSet,
        view_touched: TouchedLabels,
        frags: FragmentTree,
    ) {
        if self.capacity == 0 {
            return;
        }
        let entry = Entry {
            doc: result,
            generation,
            view_alphabet,
            view_touched,
            frags,
            version,
            last_use: self.next_tick(),
        };
        // When eviction finds nothing removable (every candidate shard
        // locked, or counter drift under a concurrent purge), insert
        // anyway rather than spin — the capacity is a high-water mark,
        // not a hard wall.
        let mut force = false;
        loop {
            let shard = self.shard_for(doc);
            {
                let mut state = shard.state.lock().expect("view cache shard poisoned");
                if state.detached {
                    // Lost a race with purge_doc: this Arc points at an
                    // orphaned map. Retry through the outer map.
                    continue;
                }
                // Every arm re-runs the residency check — however this
                // iteration was reached, a newer resident entry
                // (installed by a racing reader or a maintenance sweep
                // while the mutex was released) always wins.
                match state.views.get(view) {
                    Some(existing)
                        if existing.version > version || existing.generation > generation =>
                    {
                        return;
                    }
                    Some(_) => {
                        // Replacement: entry count unchanged, no
                        // eviction needed.
                        state.views.insert(view.to_string(), entry);
                        return;
                    }
                    // relaxed: point-in-time read; staleness is fine
                    None if force || self.entries.load(Ordering::Relaxed) < self.capacity => {
                        state.views.insert(view.to_string(), entry);
                        self.entries.fetch_add(1, Ordering::Relaxed); // relaxed: monotone counter; no data published
                        return;
                    }
                    None => {} // at capacity: fall through to evict
                }
            }
            // Eviction scans other shards' mutexes, so it must run with
            // this shard's mutex released (lock order: never two shard
            // mutexes at once).
            force = !self.evict_lru();
        }
    }

    /// Drops the least-recently-used entry cache-wide; false if nothing
    /// was evictable. Takes one shard mutex at a time, and only via
    /// `try_lock`: a shard whose mutex is busy — most importantly one
    /// held across a long maintenance sweep — is *skipped*, never
    /// waited on, so an at-capacity insert for one document can never
    /// stall behind another document's write. The LRU choice is
    /// approximate anyway (the tick races, the entries counter is
    /// loose); trading a little accuracy for never blocking is the
    /// point of the per-document sharding.
    fn evict_lru(&self) -> bool {
        let shards = self.shards.read().expect("view cache lock poisoned");
        let mut lru: Option<(&Arc<DocCacheShard>, String, u64)> = None;
        for shard in shards.values() {
            let Ok(state) = shard.state.try_lock() else {
                continue; // busy (or poisoned): skip, don't wait
            };
            for (view, e) in &state.views {
                if lru.as_ref().is_none_or(|(_, _, t)| e.last_use < *t) {
                    lru = Some((shard, view.clone(), e.last_use));
                }
            }
        }
        let Some((shard, view, _)) = lru else {
            return false;
        };
        let Ok(mut state) = shard.state.try_lock() else {
            return false; // became busy since the scan: give up, overshoot
        };
        if state.views.remove(&view).is_some() {
            self.entries.fetch_sub(1, Ordering::Relaxed); // relaxed: counter decrement; no data published
            true
        } else {
            false // raced with another eviction or a purge
        }
    }

    /// The write-path maintenance sweep for `doc`: runs the relevance
    /// test against every entry of this document, applies `apply_delta`
    /// (the same update the store is installing) to retained entries and
    /// moves them from document version `prev_version` to `new_version`,
    /// drops the rest. `renames` carries the old→new label mapping of
    /// every rename the write applied, in order: retained entries have
    /// it folded into their stored touched-label sets so later relevance
    /// tests compare against the document's *current* vocabulary (the
    /// cached tree was just renamed along with the base — the footprint
    /// must follow). Must be called while the store's shard write lock
    /// is held so maintenance is ordered exactly like the installs it
    /// mirrors.
    ///
    /// Only the written document's shard mutex is taken: result reads
    /// (and writes) for every other document proceed concurrently with
    /// the sweep, however long the target re-evaluation over retained
    /// results runs.
    ///
    /// An entry whose version is not `prev_version` was computed from
    /// content this write is not replacing — reachable only through the
    /// narrow race where a reader inserts a result it computed just
    /// before a write that found nothing to maintain. It is dropped for
    /// lazy recomputation like any failed relevance test (neighbour
    /// writes can no longer cause this; only the written document's own
    /// history can).
    ///
    /// `patch_ctx`, when present (single-rule writes only), enables two
    /// things: provenance *repair* on retained entries (collapse along
    /// site and replay chains instead of collapsing the whole fragment
    /// tree), and the **patch** fate for entries that fail the
    /// relevance test.
    /// Fates are tried in order retain → patch → recompute: retention
    /// is strictly cheaper than patching, so a commuting write never
    /// pays for localization.
    ///
    /// `apply_delta` replays the write on one retained entry's tree and
    /// reports the result-side chains provenance repair needs; callers
    /// without provenance return [`DeltaReplay::default`].
    #[allow(clippy::too_many_arguments)]
    pub fn maintain(
        &self,
        doc: &str,
        prev_version: u64,
        new_version: u64,
        update_alphabet: &LabelSet,
        update_values: &LabelSet,
        delta: &LabelSet,
        renames: &[RenameMapping],
        patch_ctx: Option<&PatchCtx<'_>>,
        apply_delta: &mut dyn FnMut(&mut Document) -> DeltaReplay,
    ) -> MaintainOutcome {
        let mut outcome = MaintainOutcome::default();
        if self.capacity == 0 {
            return outcome;
        }
        let Some(shard) = self.shard_of(doc) else {
            return outcome; // nothing cached; other documents never touched
        };
        let mut state = shard.state.lock().expect("view cache shard poisoned");
        let mut dropped = 0usize;
        state.views.retain(|view, e| {
            // All three directions of the relevance test must come back
            // disjoint (wildcards intersect everything non-empty — see
            // `LabelSet::intersects`): the delta vs what the view can
            // observe, the update's full selection alphabet vs what the
            // view structurally changed, and the update's
            // value-sensitive labels vs the nodes whose string values
            // the view perturbed. An empty delta means the update
            // matched nothing: the document is byte-identical, every
            // current entry rides along.
            let retain = e.version == prev_version
                && (delta.is_empty()
                    || (!delta.intersects(&e.view_alphabet)
                        && !update_alphabet.intersects(&e.view_touched.structural)
                        && !update_values.intersects(&e.view_touched.valued)));
            if retain {
                if !delta.is_empty() {
                    let replay = apply_delta(&mut e.doc);
                    // Provenance repair: the write changed both the base
                    // (site chains) and the cached result (replay
                    // chains). Collapse the deepest covering fragment of
                    // each to an opaque leaf, whose bytes the next hit
                    // re-serializes: the store's shard write lock is
                    // held here, and the sweep must stay proportional to
                    // the delta. Without a patch context the sites are
                    // unknown, so the whole tree collapses.
                    match patch_ctx {
                        Some(ctx) => e.frags.collapse(ctx.sites, &replay.chains),
                        None => e.frags.collapse_root(),
                    }
                    // The write just renamed nodes in the cached tree;
                    // rename the stored footprint with them. (For a
                    // retained entry only `valued` can actually move —
                    // a rename whose selection could read a label in
                    // `structural` is caught by the alphabet direction
                    // above — but folding into both is free and keeps
                    // the invariant local.)
                    if !renames.is_empty() {
                        e.view_touched.apply_renames(renames);
                    }
                }
                e.version = new_version;
                outcome.retained.push(view.clone());
                true
            } else {
                match patch_ctx.map_or(Err(Fallback::NoCtx), |ctx| {
                    try_patch(e, view, ctx, prev_version)
                }) {
                    Ok(po) => {
                        e.version = new_version;
                        outcome.patched.push(view.clone());
                        outcome.patched_fragments += po.fragments as u64;
                        true
                    }
                    Err(why) => {
                        outcome.recomputed.push(view.clone());
                        outcome.fallbacks.push(why);
                        dropped += 1;
                        false
                    }
                }
            }
        });
        self.entries.fetch_sub(dropped, Ordering::Relaxed); // relaxed: counter decrement; no data published
        outcome
    }

    /// Drops `doc`'s whole cache shard (a reload/remove is an unbounded
    /// delta — and a removed document's shard must not outlive it).
    /// Returns how many entries were dropped. Entries of every other
    /// document are untouched.
    pub fn purge_doc(&self, doc: &str) -> usize {
        let shard = {
            let mut shards = self.shards.write().expect("view cache lock poisoned");
            shards.remove(doc)
        };
        let Some(shard) = shard else {
            return 0;
        };
        let mut state = shard.state.lock().expect("view cache shard poisoned");
        state.detached = true;
        let dropped = state.views.len();
        state.views.clear();
        self.entries.fetch_sub(dropped, Ordering::Relaxed); // relaxed: counter decrement; no data published
        dropped
    }

    /// Every document's shard, collected so the outer lock is released
    /// before any shard mutex is taken.
    fn all_shards(&self) -> Vec<Arc<DocCacheShard>> {
        let shards = self.shards.read().expect("view cache lock poisoned");
        shards.values().cloned().collect()
    }

    /// Drops every entry for `view` across all documents
    /// (re-registering a view changes its meaning). Returns how many
    /// were dropped. Document shards themselves stay — their documents
    /// are still loaded.
    pub fn purge_view(&self, view: &str) -> usize {
        let mut dropped = 0;
        for shard in self.all_shards() {
            let mut state = shard.state.lock().expect("view cache shard poisoned");
            if state.views.remove(view).is_some() {
                dropped += 1;
            }
        }
        self.entries.fetch_sub(dropped, Ordering::Relaxed); // relaxed: counter decrement; no data published
        dropped
    }

    /// Cached entries right now.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed) // relaxed: point-in-time read; staleness is fine
    }

    /// Bytes the cached views hold: each entry's result tree (its
    /// buffers' capacity) plus its fragment tree's leaf bytes. Takes
    /// each shard mutex in turn.
    pub fn heap_bytes(&self) -> usize {
        let mut bytes = 0;
        for shard in self.all_shards() {
            let state = shard.state.lock().expect("view cache shard poisoned");
            for e in state.views.values() {
                bytes += e.doc.heap_bytes() + e.frags.leaf_bytes();
            }
        }
        bytes
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Documents that currently have a cache shard (loaded docs whose
    /// results have been cached and not purged).
    pub fn doc_count(&self) -> usize {
        self.shards.read().expect("view cache lock poisoned").len()
    }

    /// Version-valid hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed) // relaxed: point-in-time read; staleness is fine
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed) // relaxed: point-in-time read; staleness is fine
    }
}

/// The patch fate for one entry that just failed the relevance test.
/// `Err` names why the entry is ineligible — it falls through to
/// recompute. On success the entry's cached tree has been spliced and
/// its touched-label footprint widened by what the re-evaluation
/// selected; the caller moves the version forward.
fn try_patch(
    e: &mut Entry,
    view: &str,
    ctx: &PatchCtx<'_>,
    prev_version: u64,
) -> Result<PatchOutcome, Fallback> {
    if e.version != prev_version {
        return Err(Fallback::Stale); // computed from content this write is not replacing
    }
    let pv = ctx.views.get(view).ok_or(Fallback::Generation)?;
    if pv.generation != e.generation {
        return Err(Fallback::Generation); // the compiled view is not the one this entry reflects
    }
    // Guard test: the write may only have flipped qualifier verdicts at
    // nodes on its site chains; if those labels cannot anchor any of the
    // view's qualifiers, every selection decision outside the localized
    // regions still stands.
    if ctx.guard.intersects(pv.anchor_alphabet) {
        return Err(Fallback::Guard);
    }
    let frags = &mut e.frags;
    let chosen = match frags.localize(ctx.sites) {
        Localized::Fragments(chosen) if !chosen.is_empty() => chosen,
        _ => return Err(Fallback::Root), // a site reached the root fragment: whole-result span
    };
    // Fallback threshold: affected span vs document size. The size is
    // the live arena slot count: the node count of a served document
    // (writes delete, never detach), read without an O(|T|) walk.
    let span = frags.cost(&chosen);
    let size = ctx.base.arena_len() - ctx.base.free_slots();
    if span.saturating_mul(PATCH_SPAN_FACTOR) > (size as u64).max(256) {
        return Err(Fallback::Threshold);
    }
    let q = pv.ct.query();
    let po = frags.patch(ctx.base, &mut e.doc, q, pv.ct.selecting(), &chosen);
    // The splice changed what this materialization has touched: fold the
    // re-evaluated targets into the stored footprint so later relevance
    // tests see them. (This only widens the sets — never unsound — and
    // `record` wants the document the targets live in: the new base.)
    e.view_touched.record(ctx.base, &po.targets, &q.op);
    Ok(po)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xust_core::intern;

    fn labels(ls: &[&str]) -> LabelSet {
        ls.iter().map(|l| intern(l)).collect()
    }

    fn touched(structural: &[&str], valued: &[&str]) -> TouchedLabels {
        TouchedLabels {
            structural: labels(structural),
            valued: labels(valued),
        }
    }

    /// A provenance-free tree for a hand-built entry: its root leaf
    /// serializes whatever root the entry's result has.
    fn opaque() -> FragmentTree {
        FragmentTree::opaque(&Document::new(), &Document::new())
    }

    fn entry(cache: &ViewResultCache, view: &str, doc: &str, version: u64, alpha: &[&str]) {
        cache.insert(
            view,
            doc,
            version,
            1,
            Document::parse("<r><keep/></r>").unwrap(),
            labels(alpha),
            touched(alpha, &["r"]),
            opaque(),
        );
    }

    #[test]
    fn hits_are_version_exact() {
        let c = ViewResultCache::new(8);
        entry(&c, "v", "d", 3, &["x"]);
        assert_eq!(c.get("v", "d", 3, 1).as_deref(), Some("<r><keep/></r>"));
        assert_eq!(c.get("v", "d", 4, 1), None, "later version is a miss");
        assert_eq!(c.get("v", "d", 2, 1), None, "earlier version is a miss");
        assert_eq!(c.get("v", "d", 3, 2), None, "other generation is a miss");
        assert_eq!((c.hits(), c.misses()), (1, 3));
    }

    #[test]
    fn maintain_retains_disjoint_and_drops_intersecting() {
        let c = ViewResultCache::new(8);
        entry(&c, "disjoint", "d", 1, &["x"]);
        entry(&c, "overlap", "d", 1, &["hot"]);
        entry(&c, "elsewhere", "other", 1, &["hot"]);
        let mut applied = 0;
        let out = c.maintain(
            "d",
            1,
            2,
            &labels(&["hot", "new"]),
            &LabelSet::new(),
            &labels(&["hot", "new"]),
            &[],
            None,
            &mut |doc| {
                applied += 1;
                let root = doc.root().unwrap();
                let n = doc.create_element("new");
                doc.append_child(root, n);
                DeltaReplay::default()
            },
        );
        assert_eq!(out.retained, vec!["disjoint".to_string()]);
        assert_eq!(out.recomputed, vec!["overlap".to_string()]);
        assert_eq!(out.fallbacks, vec![Fallback::NoCtx], "no patch context");
        assert_eq!(applied, 1, "delta applied only to the retained entry");
        // The retained entry serves the *maintained* body at the new
        // version.
        assert_eq!(
            c.get("disjoint", "d", 2, 1).as_deref(),
            Some("<r><keep/><new/></r>")
        );
        assert_eq!(c.get("overlap", "d", 2, 1), None);
        // The other document's entry was never examined and still hits
        // at its own (unmoved) version.
        assert!(c.get("elsewhere", "other", 1, 1).is_some());
    }

    #[test]
    fn maintain_drops_wildcard_and_version_mismatched_entries() {
        let c = ViewResultCache::new(8);
        // Version mismatch: computed from content this write is not
        // replacing (the racing-reader shape) — dropped untested.
        entry(&c, "behind", "d", 1, &["x"]);
        // Wildcard view: sensitive to any vocabulary change.
        c.insert(
            "wild",
            "d",
            2,
            1,
            Document::parse("<r/>").unwrap(),
            {
                let mut a = labels(&["x"]);
                a.mark_wildcard();
                a
            },
            TouchedLabels::new(),
            opaque(),
        );
        let out = c.maintain(
            "d",
            2,
            3,
            &labels(&["zzz"]),
            &LabelSet::new(),
            &labels(&["zzz"]),
            &[],
            None,
            &mut |_| panic!("nothing should be maintained"),
        );
        assert!(out.retained.is_empty());
        let mut recomputed = out.recomputed.clone();
        recomputed.sort();
        assert_eq!(recomputed, vec!["behind".to_string(), "wild".to_string()]);
        assert!(c.is_empty());
    }

    #[test]
    fn empty_delta_retains_everything_without_applying() {
        let c = ViewResultCache::new(8);
        c.insert(
            "wild",
            "d",
            1,
            1,
            Document::parse("<r/>").unwrap(),
            {
                let mut a = LabelSet::new();
                a.mark_wildcard();
                a
            },
            TouchedLabels::new(),
            opaque(),
        );
        // A no-op write (update matched zero targets): even wildcard
        // views ride across the version bump untouched.
        let out = c.maintain(
            "d",
            1,
            2,
            &labels(&["q"]),
            &LabelSet::new(),
            &LabelSet::new(),
            &[],
            None,
            &mut |_| panic!("no delta to apply"),
        );
        assert_eq!(out.retained, vec!["wild".to_string()]);
        assert!(c.get("wild", "d", 2, 1).is_some());
    }

    #[test]
    fn update_alphabet_versus_view_structural_direction() {
        let c = ViewResultCache::new(8);
        // The view's own update removed subtrees containing "inner"
        // labels; an update whose *selection* can read those labels must
        // recompute even though its delta is disjoint from the view's
        // alphabet.
        c.insert(
            "v",
            "d",
            1,
            1,
            Document::parse("<r/>").unwrap(),
            labels(&["s"]),
            touched(&["s", "inner"], &["r", "s"]),
            opaque(),
        );
        let out = c.maintain(
            "d",
            1,
            2,
            &labels(&["p", "inner"]),
            &LabelSet::new(),
            &labels(&["p"]),
            &[],
            None,
            &mut |_| DeltaReplay::default(),
        );
        assert_eq!(out.recomputed, vec!["v".to_string()]);
    }

    #[test]
    fn update_values_versus_view_valued_direction() {
        let c = ViewResultCache::new(8);
        // The view changed string values along the r/b chain (it removed
        // text-bearing <t> content below b). An update may *mention* b
        // on its path (traversal reads structure, which the view did not
        // change there) — but one whose qualifier *compares* b's value
        // must recompute.
        c.insert(
            "v",
            "d",
            1,
            1,
            Document::parse("<r/>").unwrap(),
            labels(&["s"]),
            touched(&["t"], &["r", "b"]),
            opaque(),
        );
        let sel = labels(&["p", "b"]);
        // Plain path over b: value-insensitive → retained.
        let out = c.maintain(
            "d",
            1,
            2,
            &sel,
            &LabelSet::new(),
            &labels(&["p"]),
            &[],
            None,
            &mut |_| DeltaReplay::default(),
        );
        assert_eq!(out.retained, vec!["v".to_string()]);
        // Same write shape, but now the update compares b's value.
        let out = c.maintain(
            "d",
            2,
            3,
            &sel,
            &labels(&["b"]),
            &labels(&["p"]),
            &[],
            None,
            &mut |_| DeltaReplay::default(),
        );
        assert_eq!(out.recomputed, vec!["v".to_string()]);
    }

    #[test]
    fn retained_renames_remap_stored_touched_labels() {
        use xust_core::delta::RenameMapping;
        // The view's materialization perturbed string values along the
        // r/a/w ancestor chain (it deleted text-bearing content below
        // w). A retained rename write renames a→b and w→u in the cached
        // tree; the stored footprint must follow, or a later update
        // whose qualifier reads u's value slips past the relevance test
        // (REVIEW: false retention after renames).
        let c = ViewResultCache::new(8);
        c.insert(
            "v",
            "d",
            1,
            1,
            Document::parse("<r/>").unwrap(),
            labels(&["s"]),
            touched(&["s"], &["r", "a", "w"]),
            opaque(),
        );
        // The rename write: selection alphabet {a, b, w, u}, no value
        // reads, delta {a, b, w, u} — disjoint from everything stored.
        let renames = [
            RenameMapping {
                old: labels(&["a"]),
                new: intern("b"),
            },
            RenameMapping {
                old: labels(&["w"]),
                new: intern("u"),
            },
        ];
        let out = c.maintain(
            "d",
            1,
            2,
            &labels(&["a", "b", "w", "u"]),
            &LabelSet::new(),
            &labels(&["a", "b", "w", "u"]),
            &renames,
            None,
            &mut |_| DeltaReplay::default(),
        );
        assert_eq!(out.retained, vec!["v".to_string()]);
        // A later write whose qualifier compares u's value must now be
        // caught by the valued direction under the *new* name.
        let out = c.maintain(
            "d",
            2,
            3,
            &labels(&["b", "u", "m"]),
            &labels(&["u"]),
            &labels(&["m", "b", "u", "r"]),
            &[],
            None,
            &mut |_| DeltaReplay::default(),
        );
        assert_eq!(
            out.recomputed,
            vec!["v".to_string()],
            "the renamed ancestor's new label must stay in the footprint"
        );
    }

    /// The third fate, at the cache level: an entry that *fails* the
    /// relevance test but carries provenance is patched in place —
    /// reported as `patched`, kept resident at the new version, and its
    /// next read serves bytes identical to a full recompute.
    #[test]
    fn failed_relevance_with_provenance_patches_in_place() {
        use xust_core::{
            apply_update, qualifier_anchor_alphabet_into, site_chain, top_down,
            touched_labels_into, update_alphabet, value_alphabet_into, InsertPos, UpdateOp,
        };
        use xust_xpath::{eval_path_root, parse_path};
        let ct = Arc::new(
            CompiledTransform::parse(
                r#"transform copy $a := doc("d") modify do delete $a//price return $a"#,
            )
            .unwrap(),
        );
        let mut base = Document::parse(
            "<db><zone><part><pname>kb</pname><price>9</price></part>\
             <part><pname>m</pname><price>3</price></part></zone>\
             <other><pad>p</pad></other></db>",
        )
        .unwrap();
        let result = top_down(&base, ct.query());
        let mut vt = TouchedLabels::new();
        vt.record(
            &base,
            &eval_path_root(&base, &ct.query().path),
            &ct.query().op,
        );
        let frags = FragmentTree::build(&base, &result, ct.query(), ct.selecting(), 1);
        assert!(
            frags.fragment_count() > 1,
            "provenance must record for this shape"
        );
        let c = ViewResultCache::new(8);
        c.insert("v", "d", 1, 1, result, ct.alphabet().clone(), vt, frags);
        // The write: insert <w>1</w> into the first part. Its value
        // footprint (part, pname) collides with the view's valued
        // ancestors of the deleted prices, so retention must fail.
        let wpath = parse_path("//part[pname = 'kb']").unwrap();
        let targets = eval_path_root(&base, &wpath);
        assert_eq!(targets.len(), 1);
        let op = UpdateOp::Insert {
            elem: Document::parse("<w>1</w>").unwrap(),
            pos: InsertPos::LastInto,
        };
        let mut delta = LabelSet::new();
        touched_labels_into(&base, &targets, &op, &mut delta);
        let ua = update_alphabet(&wpath, &op);
        let mut uv = LabelSet::new();
        value_alphabet_into(&wpath, &mut uv);
        let sites: Vec<Vec<NodeId>> = targets.iter().map(|&t| site_chain(&base, t)).collect();
        let mut guard = LabelSet::new();
        for chain in &sites {
            for &n in chain {
                if let Some(s) = base.name_sym(n) {
                    guard.insert(s);
                }
            }
        }
        apply_update(&mut base, &targets, &op);
        let mut anchor = LabelSet::new();
        qualifier_anchor_alphabet_into(&ct.query().path, &mut anchor);
        let mut views = HashMap::new();
        views.insert(
            "v".to_string(),
            PatchView {
                ct: &ct,
                anchor_alphabet: &anchor,
                generation: 1,
            },
        );
        let ctx = PatchCtx {
            base: &base,
            sites: &sites,
            guard: &guard,
            views: &views,
        };
        let out = c.maintain("d", 1, 2, &ua, &uv, &delta, &[], Some(&ctx), &mut |_| {
            panic!("relevance must fail: this write changes the view")
        });
        assert_eq!(out.patched, vec!["v".to_string()]);
        assert!(out.retained.is_empty() && out.recomputed.is_empty());
        assert!(out.patched_fragments >= 1);
        let expect = top_down(&base, ct.query()).serialize();
        assert_eq!(c.get("v", "d", 2, 1).as_deref(), Some(expect.as_str()));
    }

    /// Caches view `view` of `xml` (provenance recorded with leaf limit
    /// `leaf`) at document version `version`
    /// and registration generation 1, then runs a write whose relevance
    /// test fails, with patch sites at `site`'s matches and the view
    /// registered at `generation`. Returns the recompute reason.
    fn fallback_of(
        view: &str,
        xml: &str,
        leaf: usize,
        site: &str,
        generation: u64,
        version: u64,
    ) -> Fallback {
        use xust_core::{qualifier_anchor_alphabet_into, site_chain, top_down};
        use xust_xpath::{eval_path_root, parse_path};
        let ct = Arc::new(CompiledTransform::parse(view).unwrap());
        let base = Document::parse(xml).unwrap();
        let result = top_down(&base, ct.query());
        let frags = FragmentTree::build(&base, &result, ct.query(), ct.selecting(), leaf);
        let c = ViewResultCache::new(8);
        let alphabet = ct.alphabet().clone();
        c.insert(
            "v",
            "d",
            version,
            1,
            result,
            alphabet.clone(),
            TouchedLabels::new(),
            frags,
        );
        let sites: Vec<Vec<NodeId>> = eval_path_root(&base, &parse_path(site).unwrap())
            .into_iter()
            .map(|t| site_chain(&base, t))
            .collect();
        let guard: LabelSet = sites
            .iter()
            .flatten()
            .filter_map(|&n| base.name_sym(n))
            .collect();
        let mut anchor_alphabet = LabelSet::new();
        qualifier_anchor_alphabet_into(&ct.query().path, &mut anchor_alphabet);
        let pv = PatchView {
            ct: &ct,
            anchor_alphabet: &anchor_alphabet,
            generation,
        };
        let views = HashMap::from([("v".to_string(), pv)]);
        let ctx = PatchCtx {
            base: &base,
            sites: &sites,
            guard: &guard,
            views: &views,
        };
        // The view's own alphabet as the delta: relevance always fails.
        let out = c.maintain(
            "d",
            1,
            2,
            &alphabet,
            &LabelSet::new(),
            &alphabet,
            &[],
            Some(&ctx),
            &mut |_| panic!("relevance must fail"),
        );
        assert_eq!(out.recomputed, vec!["v".to_string()]);
        assert_eq!(out.fallbacks.len(), 1, "one reason per recomputed entry");
        out.fallbacks[0]
    }

    /// Every recompute names why the patch fate was skipped, and each
    /// reason fires on an entry built to trip exactly that check.
    #[test]
    fn recompute_fallback_reasons_fire_on_hand_built_entries() {
        const DEL_PRICE: &str =
            r#"transform copy $a := doc("d") modify do delete $a//price return $a"#;
        let small = "<db><zone><part><pname>kb</pname><price>9</price></part></zone><o/></db>";
        let mut big = String::from("<db><zone>");
        for i in 0..100 {
            big.push_str(&format!("<part><price>{i}</price></part>"));
        }
        big.push_str("</zone><o/></db>");
        // One ~300-node leaf fragment under the write: 4× its span
        // exceeds the whole document.
        assert_eq!(
            fallback_of(DEL_PRICE, &big, 1000, "/db/zone/part", 1, 1),
            Fallback::Threshold
        );
        // A write at the document element localizes to the root fragment.
        assert_eq!(
            fallback_of(DEL_PRICE, small, 1, "/db", 1, 1),
            Fallback::Root
        );
        // The site chain passes through `part`, which anchors the view's
        // qualifier: the write may have flipped its verdict.
        let qualified = r#"transform copy $a := doc("d") modify do delete $a//part[pname = 'kb']/price return $a"#;
        assert_eq!(
            fallback_of(qualified, small, 1, "/db/zone/part", 1, 1),
            Fallback::Guard
        );
        // An opaque tree localizes every site to the root.
        let opaque = r#"transform copy $a := doc("d") modify do insert <x/> into $a//db return $a"#;
        assert_eq!(
            fallback_of(opaque, small, 1, "/db/zone/part", 1, 1),
            Fallback::Root
        );
        assert_eq!(
            fallback_of(DEL_PRICE, small, 1, "/db/zone/part", 2, 1),
            Fallback::Generation
        );
        assert_eq!(
            fallback_of(DEL_PRICE, small, 1, "/db/zone/part", 1, 0),
            Fallback::Stale
        );
    }

    /// A fresh entry stores its body once: its leaf bytes — the cache's
    /// bytes beyond the result tree — are at most the served body, for
    /// an aligned and an opaque fragment tree alike.
    #[test]
    fn fresh_entries_hold_at_most_one_body_of_leaf_bytes() {
        use xust_core::top_down;
        let base =
            Document::parse("<db><zone><part><price>9</price></part></zone><o/></db>").unwrap();
        for view in [
            r#"transform copy $a := doc("d") modify do delete $a//price return $a"#,
            r#"transform copy $a := doc("d") modify do insert <x/> into $a//db return $a"#,
        ] {
            let ct = CompiledTransform::parse(view).unwrap();
            let result = top_down(&base, ct.query());
            let mut frags = FragmentTree::build(&base, &result, ct.query(), ct.selecting(), 1);
            // What a fill serves, memoizing the leaves on the way.
            let body = frags.assemble(&result);
            let tree_bytes = result.heap_bytes();
            let c = ViewResultCache::new(8);
            let alphabet = ct.alphabet().clone();
            c.insert(
                "v",
                "d",
                1,
                1,
                result,
                alphabet,
                TouchedLabels::new(),
                frags,
            );
            let leaf_bytes = c.heap_bytes() - tree_bytes;
            assert!(leaf_bytes > 0 && leaf_bytes <= body.len(), "{view}");
            assert_eq!(c.get("v", "d", 1, 1), Some(body), "{view}");
        }
    }

    #[test]
    fn purges_and_lru() {
        let c = ViewResultCache::new(2);
        entry(&c, "v1", "d1", 1, &["x"]);
        entry(&c, "v2", "d1", 1, &["x"]);
        assert!(c.get("v1", "d1", 1, 1).is_some()); // refresh v1
        entry(&c, "v3", "d2", 1, &["x"]); // evicts v2 (LRU, cache-wide)
        assert_eq!(c.len(), 2);
        assert!(c.get("v2", "d1", 1, 1).is_none());
        assert_eq!(c.purge_doc("d1"), 1);
        assert_eq!(c.purge_doc("d1"), 0, "second purge finds no shard");
        assert_eq!(c.purge_view("v3"), 1);
        assert!(c.is_empty());
        // Capacity 0 disables the cache entirely.
        let off = ViewResultCache::new(0);
        entry(&off, "v", "d", 1, &["x"]);
        assert!(off.get("v", "d", 1, 1).is_none());
        assert!(off.is_empty());
    }

    #[test]
    fn purge_doc_drops_only_that_documents_shard() {
        let c = ViewResultCache::new(8);
        entry(&c, "v", "a", 1, &["x"]);
        entry(&c, "v", "b", 1, &["x"]);
        entry(&c, "w", "b", 1, &["x"]);
        assert_eq!(c.doc_count(), 2);
        assert_eq!(c.purge_doc("b"), 2);
        assert_eq!(c.doc_count(), 1);
        assert_eq!(c.len(), 1);
        assert!(c.get("v", "a", 1, 1).is_some(), "doc a's entry survives");
        assert!(c.get("v", "b", 1, 1).is_none());
    }

    #[test]
    fn insert_never_downgrades_a_newer_resident() {
        let c = ViewResultCache::new(8);
        entry(&c, "v", "d", 5, &["x"]);
        // An older-version candidate (a batch pinned to an old snapshot)
        // must lose against the resident entry.
        c.insert(
            "v",
            "d",
            3,
            1,
            Document::parse("<old/>").unwrap(),
            labels(&["x"]),
            TouchedLabels::new(),
            opaque(),
        );
        assert_eq!(c.get("v", "d", 5, 1).as_deref(), Some("<r><keep/></r>"));
        assert!(c.get("v", "d", 3, 1).is_none());
    }

    /// Empty shards — a raced removal's leftover, or a live document
    /// whose entries were all invalidated — are reclaimed the next time
    /// a shard is created, so the outer map cannot grow without bound
    /// under document-name churn.
    #[test]
    fn empty_shards_are_reclaimed_when_new_ones_are_created() {
        let c = ViewResultCache::new(8);
        entry(&c, "v", "d1", 1, &["x"]);
        // The write invalidates d1's only entry: shard empty, resident.
        let out = c.maintain(
            "d1",
            1,
            2,
            &labels(&["x"]),
            &LabelSet::new(),
            &labels(&["x"]),
            &[],
            None,
            &mut |_| DeltaReplay::default(),
        );
        assert_eq!(out.recomputed, vec!["v".to_string()]);
        assert_eq!((c.len(), c.doc_count()), (0, 1), "empty shard lingers");
        // Creating another document's shard sweeps the empty one out.
        entry(&c, "v", "d2", 1, &["x"]);
        assert_eq!((c.len(), c.doc_count()), (1, 1));
        assert!(c.get("v", "d2", 1, 1).is_some());
        // A later insert for d1 just re-creates its shard.
        entry(&c, "v", "d1", 3, &["x"]);
        assert_eq!((c.len(), c.doc_count()), (2, 2));
        assert!(c.get("v", "d1", 3, 1).is_some());
    }

    /// An at-capacity insert whose only eviction candidate sits in a
    /// shard locked by a maintenance sweep must not block on that
    /// mutex: eviction skips the busy shard and the insert lands as a
    /// bounded capacity overshoot instead of stalling behind another
    /// document's write.
    #[test]
    fn at_capacity_insert_skips_swept_shards_instead_of_blocking() {
        use std::sync::mpsc;
        let c = Arc::new(ViewResultCache::new(1)); // capacity 1: d1 fills it
        entry(&c, "v", "d1", 1, &["zzz"]);
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let sweeper = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                c.maintain(
                    "d1",
                    1,
                    2,
                    &labels(&["q"]),
                    &LabelSet::new(),
                    &labels(&["q"]),
                    &[],
                    None,
                    &mut |_| {
                        entered_tx.send(()).unwrap();
                        release_rx.recv().unwrap(); // hold d1's shard lock
                        DeltaReplay::default()
                    },
                )
            })
        };
        entered_rx.recv().unwrap(); // sweep is inside d1's shard mutex
                                    // The only evictable entry lives in the locked shard; this
                                    // insert must complete anyway (overshooting to 2 entries), not
                                    // deadlock waiting for the sweep.
        entry(&c, "w", "d2", 1, &["x"]);
        assert_eq!(c.len(), 2, "bounded overshoot instead of a stall");
        assert!(c.get("w", "d2", 1, 1).is_some());
        release_tx.send(()).unwrap();
        let out = sweeper.join().unwrap();
        assert_eq!(out.retained, vec!["v".to_string()]);
    }

    /// A maintenance sweep holding one document's shard must not block
    /// reads of another document: doc B's hit proceeds while doc A's
    /// sweep sits inside `apply_delta`.
    #[test]
    fn maintenance_of_one_doc_does_not_gate_reads_of_another() {
        use std::sync::mpsc;
        let c = Arc::new(ViewResultCache::new(8));
        entry(&c, "v", "a", 1, &["zzz"]);
        entry(&c, "v", "b", 1, &["zzz"]);
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let sweeper = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                c.maintain(
                    "a",
                    1,
                    2,
                    &labels(&["q"]),
                    &LabelSet::new(),
                    &labels(&["q"]),
                    &[],
                    None,
                    &mut |_| {
                        entered_tx.send(()).unwrap();
                        release_rx.recv().unwrap(); // hold a's shard lock
                        DeltaReplay::default()
                    },
                )
            })
        };
        entered_rx.recv().unwrap(); // sweep is inside a's shard mutex
        assert!(
            c.get("v", "b", 1, 1).is_some(),
            "doc b's read must not wait for doc a's sweep"
        );
        release_tx.send(()).unwrap();
        let out = sweeper.join().unwrap();
        assert_eq!(out.retained, vec!["v".to_string()]);
    }
}
