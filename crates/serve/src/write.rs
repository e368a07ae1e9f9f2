//! The live write path behind `UPDATE` ([`Server::update_doc`]), as
//! plain functions over the server's state.
//!
//! [`handle_update`] runs one write end to end:
//!
//! 1. the update is parsed, and a single update is compiled through the
//!    transform prepared cache (repeat update shapes skip parse and
//!    automaton construction like repeat reads do);
//! 2. under the owning shard's write lock, the WAL record is appended
//!    *before* anything mutates, then the current tree is cloned and
//!    [`apply_ops`] applies the rules in order, collecting the dynamic
//!    delta, the patch sites and guard, and the rename mappings;
//! 3. still under the lock, [`ViewResultCache::maintain`] gives every
//!    cached entry of this document one fate: retained (the same rules
//!    replayed on the cached tree, again through [`apply_ops`]),
//!    patched in place, or dropped;
//! 4. the new tree is installed; after the lock is released, every
//!    dropped single-link entry is refilled eagerly through the
//!    server's one cache fill over the installed tree.
//!
//! [`ViewResultCache::maintain`]: crate::ViewResultCache::maintain

use std::collections::HashMap;
use std::sync::Arc;

use xust_core::delta::RenameMapping;
use xust_core::{
    apply_update, intern, parse_multi_transform, site_chain, touched_labels_into, update_alphabet,
    value_alphabet_into, CompiledTransform, LabelSet, MultiTransformQuery, TransformQuery,
    UpdateOp,
};
use xust_tree::{Document, NodeId};
use xust_xpath::{eval_path_root, Path};

use crate::error::ServeError;
use crate::obs::{Phase, Trace};
use crate::registry::ViewDef;
use crate::server::{log, DocSource, DocView, Response, Server};
use crate::stats::bump;
use crate::store::{StoreUpdateError, WriteStamp};
use crate::viewcache::{DeltaReplay, PatchCtx, PatchView};
use crate::wal::WalRecord;

/// Applies `update` (transform syntax, single or multi `modify do
/// (…)`) to the stored in-memory document `doc`; see the module docs.
/// All-or-nothing: a parse error, a doc-name mismatch, a failed WAL
/// append, an unknown or file-backed document leave the epoch, the
/// stored tree, and every cached entry exactly as they were.
pub(crate) fn handle_update(
    server: &Server,
    doc: &str,
    update: &str,
    rt: &mut Trace,
) -> Result<Response, ServeError> {
    let inner = &server.inner;
    let t = rt.start();
    let mq = parse_multi_transform(update).map_err(|e| ServeError::Parse(e.to_string()))?;
    rt.phase(Phase::Parse, t);
    if mq.doc_name != doc {
        return Err(ServeError::Parse(format!(
            "update reads doc(\"{}\") but targets loaded document '{doc}'",
            mq.doc_name
        )));
    }
    let t = rt.start();
    let (ops, update_alpha, hit) = compile_ops(server, update, mq, rt)?;
    rt.phase(Phase::Cache, t);
    // The value-sensitive slice of the update's selection: only
    // qualifier-bearing reads — what the relevance test compares
    // against the string values a view materialization perturbed.
    let mut update_vals = LabelSet::new();
    for (path, _) in &ops {
        value_alphabet_into(path, &mut update_vals);
    }
    // The patch fate's view table — single-rule writes only
    // (multi-rule writes interleave arena slot recycling between
    // rules, so node ids captured for one rule can be stale by the
    // next). Resolved before the shard write lock: maintenance under
    // the lock only does hash lookups.
    let patching = inner.patching && ops.len() == 1;
    let defs = if patching {
        inner.registry.defs()
    } else {
        Vec::new()
    };
    let patch_views = patch_views(&defs);
    let wal = server.wal_handle();
    // The installed tree, smuggled out of the closure: the eager refill
    // below runs on it *after* the shard write lock is released.
    let mut new_tree: Option<Arc<Document>> = None;
    let (stamp, (outcome, targets)) = inner
        .docs
        .update(doc, |stamp: WriteStamp, source| {
            let DocSource::Memory(old) = source else {
                return Err(ServeError::Unsupported(format!(
                    "UPDATE needs an in-memory document; '{doc}' is file-backed \
                     (load it in memory to enable live updates)"
                )));
            };
            // Durability first: the record goes to the log before
            // anything — tree clone, cache maintenance — mutates shared
            // state, so a failed append leaves the write fully
            // un-happened (all-or-nothing), and log order equals install
            // order because both sit under this shard write lock.
            // lock-order: shard write lock → Wal mutex.
            log(wal.as_deref(), || WalRecord::Update {
                doc: doc.to_string(),
                text: update.to_string(),
            })?;
            let mut next = (**old).clone();
            let t = rt.start();
            let applied = apply_ops(&mut next, &ops, patching, true);
            rt.phase(Phase::Eval, t);
            // Maintenance runs while the shard write lock is held, so it
            // is ordered exactly like the install it mirrors (two racing
            // updates cannot maintain out of order). It sweeps only this
            // document's cache shard: entries — and result reads — of
            // every other document, same store shard or not, proceed
            // untouched.
            let t = rt.start();
            let ctx = PatchCtx {
                base: &next,
                sites: &applied.sites,
                guard: &applied.guard,
                views: &patch_views,
            };
            let outcome = inner.results.maintain(
                doc,
                stamp.prev_version,
                stamp.version,
                &update_alpha,
                &update_vals,
                &applied.delta,
                &applied.renames,
                patching.then_some(&ctx),
                &mut |cached| DeltaReplay {
                    chains: apply_ops(cached, &ops, patching, false).sites,
                },
            );
            // Localization and splicing get their own phase when any
            // entry took the patch fate; retention sweeps keep reporting
            // as maintenance.
            if outcome.patched.is_empty() {
                rt.phase(Phase::Maintain, t);
            } else {
                rt.phase(Phase::Patch, t);
            }
            // The per-doc row is recorded here, still under the shard
            // write lock, so it is ordered against a racing `remove_doc`
            // (which takes the same lock to remove the doc and only then
            // forgets the row): a write's row can never be re-created
            // *after* the removal's cleanup — once the doc is gone,
            // updates stop at NotFound.
            inner.stats.record_doc_delta(
                doc,
                outcome.retained.len() as u64,
                outcome.patched.len() as u64,
                outcome.patched_fragments,
                outcome.recomputed.len() as u64,
            );
            let next = Arc::new(next);
            new_tree = Some(Arc::clone(&next));
            Ok((DocSource::Memory(next), (outcome, applied.targets)))
        })
        .map_err(|e| match e {
            StoreUpdateError::NotFound => ServeError::UnknownDoc(doc.to_string()),
            StoreUpdateError::Apply(e) => e,
        })?;
    let stats = &inner.stats;
    bump(&stats.update_requests, 1);
    for v in &outcome.retained {
        stats.record_view_retained(v);
    }
    for v in &outcome.patched {
        stats.record_view_patched(v);
    }
    bump(&stats.patched_fragments, outcome.patched_fragments);
    for (v, &why) in outcome.recomputed.iter().zip(&outcome.fallbacks) {
        stats.record_view_recomputed(v, why);
    }
    // Every entry the write just dropped is refilled eagerly, outside
    // the store shard lock and the cache mutex, so a k-view document's
    // write holds shared state no longer than a 1-view document's (the
    // per-view work above is delta bookkeeping, not evaluation).
    if !outcome.recomputed.is_empty() {
        let tree = new_tree.expect("update installed a memory doc");
        let t = rt.start();
        refill(server, doc, stamp.version, &tree, &outcome.recomputed);
        rt.phase(Phase::Maintain, t);
    }
    Ok(Response {
        body: format!(
            "updated {doc} epoch={} version={} targets={targets} retained={} recomputed={} patched={}",
            stamp.epoch,
            stamp.version,
            outcome.retained.len(),
            outcome.recomputed.len(),
            outcome.patched.len()
        ),
        method: None,
        micros: 0,
        cache_hit: hit,
    })
}

/// A write's rules, in application order.
type Rules = Vec<(Path, UpdateOp)>;

/// The update's rules with their joint alphabet, and whether compiling
/// them hit the prepared cache. A single update reuses the transform
/// prepared cache (same key space as ad-hoc reads — an UPDATE that
/// mirrors a prepared TRANSFORM shares its compiled NFAs), compiling
/// from the parse already in hand on a miss (this also keeps
/// parenthesized single-update lists, `modify do (u1)`, working — they
/// are valid multi syntax but not valid single syntax to re-parse).
/// Multi updates carry one alphabet per rule, built fresh.
fn compile_ops(
    server: &Server,
    update: &str,
    mut mq: MultiTransformQuery,
    rt: &mut Trace,
) -> Result<(Rules, LabelSet, bool), ServeError> {
    if mq.updates.len() != 1 {
        let mut alpha = LabelSet::new();
        for (path, op) in &mq.updates {
            alpha.union_with(&update_alphabet(path, op));
        }
        return Ok((mq.updates, alpha, false));
    }
    let (path, op) = mq.updates.pop().expect("checked len == 1");
    let query = TransformQuery {
        var: mq.var,
        doc_name: mq.doc_name,
        path,
        op,
    };
    let stats = &server.inner.stats;
    let (ct, hit) =
        server
            .inner
            .transforms
            .get_or_try_insert(update, || -> Result<_, ServeError> {
                bump(&stats.compiles, 1);
                Ok(CompiledTransform::compile(query))
            })?;
    server.note_cache(hit);
    rt.note_prepared(hit);
    let ops = vec![(ct.query().path.clone(), ct.query().op.clone())];
    Ok((ops, ct.alphabet().clone(), hit))
}

/// The patch fate's view table, by cache key. Every live single-link
/// view is listed whatever `doc("…")` name it reads: VIEW serves any
/// view over any loaded document, so this document's cache shard can
/// hold entries of all of them.
fn patch_views(defs: &[Arc<ViewDef>]) -> HashMap<String, PatchView<'_>> {
    defs.iter()
        .filter(|def| !def.analysis.dead)
        .filter_map(|def| {
            let view = PatchView {
                ct: def.single()?,
                anchor_alphabet: &def.anchor_alphabet,
                generation: def.cache_generation,
            };
            Some((def.cache_key.to_string(), view))
        })
        .collect()
}

/// What applying a write's rules to one tree collected on the way.
#[derive(Default)]
struct Applied {
    /// Nodes the rules selected, summed over rules.
    targets: usize,
    /// One ancestor-or-self chain per target's update site, with
    /// pre-apply ids (see [`update_site`]).
    sites: Vec<Vec<NodeId>>,
    /// The labels the write touched: the dynamic delta.
    delta: LabelSet,
    /// Every site-chain label plus rename target names: where the write
    /// could flip a qualifier verdict or change a name.
    guard: LabelSet,
    /// Old→new label mappings of the applied renames, in order.
    /// Retained cache entries get the same renames applied to their
    /// trees, so their stored touched-label footprints must be carried
    /// into the new vocabulary (`TouchedLabels::apply_renames`) or later
    /// relevance tests would compare against pre-rename names.
    renames: Vec<RenameMapping>,
}

/// Applies `ops` to `doc` in order — the one per-rule loop that both
/// the base tree and every retained cache entry go through. Each rule's
/// targets are `r[[p]]` over the tree as the earlier rules left it.
/// With `sites`, each target's site chain is read before the rule
/// mutates the tree. With `base`, the delta, guard and rename mappings
/// are collected too; a retained entry needs only its chains.
fn apply_ops(doc: &mut Document, ops: &[(Path, UpdateOp)], sites: bool, base: bool) -> Applied {
    let mut out = Applied::default();
    for (path, op) in ops {
        let matched = eval_path_root(doc, path);
        out.targets += matched.len();
        if base {
            touched_labels_into(doc, &matched, op, &mut out.delta);
        }
        if sites {
            for &m in &matched {
                let chain = site_chain(doc, update_site(doc, m, op));
                if base {
                    for &n in &chain {
                        if let Some(l) = doc.name(n) {
                            out.guard.insert(intern(l));
                        }
                    }
                }
                out.sites.push(chain);
            }
        }
        if let (true, UpdateOp::Rename { name }) = (base, op) {
            out.renames
                .extend(RenameMapping::capture(doc, &matched, *name));
            out.guard.insert(*name);
        }
        apply_update(doc, &matched, op);
    }
    out
}

/// Refills the entries a write dropped, through the server's one cache
/// fill over the installed tree, at the write's version. Single-link
/// views only: multi-link chains stay lazy (their later links read
/// intermediate trees, so a refill would cost a full chain evaluation
/// per write). A view that raced a re-registration or removal since the
/// maintain sweep drops out — the next read recomputes it.
fn refill(server: &Server, doc: &str, version: u64, tree: &Arc<Document>, names: &[String]) {
    let defs: Vec<Arc<ViewDef>> = names
        .iter()
        .filter_map(|n| server.inner.registry.get(n))
        .filter(|def| def.single().is_some() && !def.analysis.dead)
        .collect();
    let docs = DocView::Live(&server.inner.docs);
    let mut untraced: Vec<Trace> = defs.iter().map(|_| Trace::off()).collect();
    let mut rts: Vec<&mut Trace> = untraced.iter_mut().collect();
    server.fill(doc, version, &docs, tree, &defs, &mut rts);
}

/// The update site whose ancestor-or-self chain localizes one target's
/// effect: the node that both *survives* the apply and *covers* every
/// node the op touches. Renames and into-inserts edit under the target,
/// so the target itself qualifies; deletes, replaces, and sibling
/// inserts change the target's parent's child list, so the parent is
/// the deepest surviving cover (a replaced root falls back to itself —
/// its chain then hits the root fragment and patching degrades to
/// recompute, which is correct).
fn update_site(doc: &Document, target: NodeId, op: &UpdateOp) -> NodeId {
    match op {
        UpdateOp::Rename { .. } => target,
        UpdateOp::Insert { pos, .. } if !pos.is_sibling() => target,
        _ => doc.parent(target).unwrap_or(target),
    }
}

/// Provenance granularity for one materialization: aim for fragments
/// of ~1/64th of the base document, clamped so tiny documents still
/// split (exercising the patch path) and huge ones don't track tens of
/// thousands of fragments. Sized from the live arena slots rather than
/// an O(|T|) walk: served documents delete (recycling slots) and never
/// detach, so the two counts agree.
pub(crate) fn frag_leaf_limit(base: &Document) -> usize {
    ((base.arena_len() - base.free_slots()) / 64).clamp(8, 512)
}
