//! One-pass factorised evaluation of several transform views over one
//! document (the FDB-inspired "shared plan" — see DESIGN.md "Factorised
//! evaluation").
//!
//! [`multi_view`] takes the transform queries of all views registered
//! over one document, unions their selecting NFAs into a
//! [`SharedNfa`] (per-view accept tags, prefix-shared states), and walks
//! the document **once**, emitting every view's output tree
//! simultaneously. The walk is [`top_down`]'s recursion generalised to k
//! output arenas:
//!
//! * shared automaton steps — and shared *qualifiers*, the expensive
//!   part — are evaluated once per node instead of once per view;
//! * a view whose tag bit leaves the live state set is dead for the
//!   whole subtree: its private topDown would see an empty state set, so
//!   it deep-copies wholesale and drops out of the recursion;
//! * recursion stops when every view is dead — the union automaton's
//!   analogue of Fig. 3's subtree prune.
//!
//! Each result also carries the view's selected nodes (`r[[p]]` in the
//! source document, document order) so callers can feed
//! [`TouchedLabels::record`](crate::delta::TouchedLabels::record)
//! without a separate `eval_path_root` pass per view.
//!
//! ## Fallback
//!
//! Views the union cannot host run their private evaluator instead,
//! transparently: ε paths (no automaton to share — the update applies to
//! the root directly) fall back to [`top_down`], and a batch wider than
//! [`MAX_SHARED_VIEWS`] is chunked into several shared passes. The
//! returned [`MultiViewStats`] says how many passes ran and how many
//! views rode them — `xust-serve` surfaces those as the
//! `shared_passes` / `shared_pass_views` counters.

use xust_automata::{SharedNfa, StateSet, MAX_SHARED_VIEWS};
use xust_tree::{Document, NodeId, NodeKind};
use xust_xpath::{eval_path_root, eval_qualifier, Path};

use crate::query::{InsertPos, TransformQuery, UpdateOp};
use crate::topdown::top_down;

/// One view's output of a shared pass.
#[derive(Debug)]
pub struct SharedViewResult {
    /// The materialised view (what the view's own `top_down` returns).
    pub doc: Document,
    /// The view's selected nodes `r[[p]]` in the *source* document, in
    /// document order (what `eval_path_root` returns).
    pub targets: Vec<NodeId>,
}

/// How a [`multi_view`] call distributed its views over evaluators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiViewStats {
    /// Shared sweeps over the document (one per ≤ [`MAX_SHARED_VIEWS`]
    /// chunk of automaton-hosted views; 0 when everything fell back).
    pub passes: usize,
    /// Views evaluated by a shared sweep.
    pub shared_views: usize,
    /// Views that fell back to their private evaluator (ε paths).
    pub fallback_views: usize,
}

/// Evaluates every query's view of `doc` in (at most) one shared sweep,
/// returning results in query order. See the module docs for sharing and
/// fallback semantics; output trees are byte-identical to per-view
/// [`top_down`] / `two_pass` evaluation (fuzzed in `tests/shared_eval.rs`).
pub fn multi_view(doc: &Document, queries: &[&TransformQuery]) -> Vec<SharedViewResult> {
    multi_view_with_stats(doc, queries).0
}

/// [`multi_view`], also reporting how many shared passes ran and how the
/// views were distributed over them.
pub fn multi_view_with_stats(
    doc: &Document,
    queries: &[&TransformQuery],
) -> (Vec<SharedViewResult>, MultiViewStats) {
    let mut results: Vec<Option<SharedViewResult>> = (0..queries.len()).map(|_| None).collect();
    let mut stats = MultiViewStats {
        passes: 0,
        shared_views: 0,
        fallback_views: 0,
    };
    let shareable: Vec<usize> = (0..queries.len())
        .filter(|&i| !queries[i].path.is_empty())
        .collect();
    for chunk in shareable.chunks(MAX_SHARED_VIEWS) {
        let qs: Vec<&TransformQuery> = chunk.iter().map(|&i| queries[i]).collect();
        if let Some(outs) = shared_pass(doc, &qs) {
            stats.passes += 1;
            stats.shared_views += chunk.len();
            for (&i, out) in chunk.iter().zip(outs) {
                results[i] = Some(out);
            }
        }
    }
    let results = results
        .into_iter()
        .zip(queries)
        .map(|(r, q)| {
            r.unwrap_or_else(|| {
                stats.fallback_views += 1;
                SharedViewResult {
                    doc: top_down(doc, q),
                    targets: eval_path_root(doc, &q.path),
                }
            })
        })
        .collect();
    (results, stats)
}

/// Where a view's output for the current subtree goes.
#[derive(Debug, Clone, Copy)]
enum Sink {
    /// Produced node becomes the output document's root.
    Root,
    /// Produced nodes are appended to this output node.
    Under(NodeId),
    /// Nothing is produced below here: the view is either dead (its
    /// subtree was already deep-copied) or inside a deleted/replaced
    /// match (no output, but the automaton keeps running so nested
    /// `r[[p]]` members are still collected into `targets`).
    Off,
}

/// Per-view output state during the shared walk.
struct Slot<'a> {
    q: &'a TransformQuery,
    out: Document,
    targets: Vec<NodeId>,
}

/// Runs one shared sweep for ≤ [`MAX_SHARED_VIEWS`] non-ε queries;
/// `None` when the union automaton cannot be built.
fn shared_pass(src: &Document, queries: &[&TransformQuery]) -> Option<Vec<SharedViewResult>> {
    let paths: Vec<&Path> = queries.iter().map(|q| &q.path).collect();
    let nfa = SharedNfa::build(&paths)?;
    let mut mv = Mv {
        src,
        nfa: &nfa,
        slots: queries
            .iter()
            .map(|&q| Slot {
                q,
                out: Document::with_capacity_of(src),
                targets: Vec::new(),
            })
            .collect(),
    };
    if let Some(root) = src.root() {
        let sinks = vec![Sink::Root; queries.len()];
        mv.visit(root, &nfa.initial(), &sinks, true);
    }
    Some(
        mv.slots
            .into_iter()
            .map(|s| SharedViewResult {
                doc: s.out,
                targets: s.targets,
            })
            .collect(),
    )
}

struct Mv<'a> {
    src: &'a Document,
    nfa: &'a SharedNfa,
    slots: Vec<Slot<'a>>,
}

impl Mv<'_> {
    /// Transforms the subtree at `n` for every view at once, given the
    /// shared states `s` reached at `n`'s parent. The per-view branches
    /// mirror `topdown::Cx::{rec, process}` exactly — the fuzzer holds
    /// each projection byte-identical to the private run.
    fn visit(&mut self, n: NodeId, s: &StateSet, sinks: &[Sink], is_root: bool) {
        // Text nodes are never matched by X steps: copy through for
        // every view that is currently emitting.
        if let NodeKind::Text(t) = self.src.kind(n) {
            for (v, sink) in sinks.iter().enumerate() {
                if let Sink::Under(p) = *sink {
                    let copy = self.slots[v].out.create_text(t);
                    self.slots[v].out.append_child(p, copy);
                }
            }
            return;
        }
        let label = self.src.name_sym(n).expect("non-text nodes are elements");
        let src = self.src;
        let s_next = self
            .nfa
            .next_states(s, label, |_, qual| eval_qualifier(src, n, qual));
        let accepts = self.nfa.accept_mask(&s_next);
        let alive = self.nfa.alive_mask(&s_next);
        // Selected nodes are recorded whatever the output mode — nested
        // matches inside a deleted/replaced subtree are still in r[[p]]
        // (mirroring eval_path_root, which serve's touched-label
        // recording is keyed on).
        for v in 0..sinks.len() {
            if accepts & (1u64 << v) != 0 {
                self.slots[v].targets.push(n);
            }
        }
        let mut child_sinks: Vec<Sink> = Vec::with_capacity(sinks.len());
        // Selected `insert … into` targets append their element *after*
        // the recursed children (Fig. 3 lines 7–8) — deferred here.
        let mut last_into: Vec<(usize, NodeId)> = Vec::new();
        for (v, &sink) in sinks.iter().enumerate() {
            let child = match sink {
                Sink::Off => Sink::Off,
                live_sink => {
                    if alive & (1u64 << v) == 0 {
                        // Dead view: its private automaton would have an
                        // empty state set — wholesale copy (Fig. 3
                        // lines 2–3) and drop out of the recursion.
                        let copy = self.slots[v].out.deep_copy_from(self.src, n);
                        self.attach(v, live_sink, copy);
                        Sink::Off
                    } else {
                        self.emit(
                            v,
                            n,
                            live_sink,
                            accepts & (1u64 << v) != 0,
                            is_root,
                            &mut last_into,
                        )
                    }
                }
            };
            child_sinks.push(child);
        }
        // Once every view is dead the union has nothing left to match or
        // emit below — the shared analogue of the subtree prune.
        if alive != 0 {
            // `src` is a copy of the `&'a Document` reference, so the
            // iteration does not hold a borrow of `self`.
            for c in src.children(n) {
                self.visit(c, &s_next, &child_sinks, false);
            }
        }
        for (v, node) in last_into {
            let q = self.slots[v].q;
            if let UpdateOp::Insert { elem, .. } = &q.op {
                if let Some(r) = elem.root() {
                    let copy = self.slots[v].out.deep_copy_from(elem, r);
                    self.slots[v].out.append_child(node, copy);
                }
            }
        }
    }

    /// Emits view `v`'s output for element `n` (automaton alive at `n`)
    /// and returns where its children go. One-view restatement of
    /// `topdown::Cx::process` plus `rec`'s sibling-insert wrap.
    fn emit(
        &mut self,
        v: usize,
        n: NodeId,
        sink: Sink,
        selected: bool,
        is_root: bool,
        last_into: &mut Vec<(usize, NodeId)>,
    ) -> Sink {
        let q = self.slots[v].q;
        if selected {
            match &q.op {
                UpdateOp::Delete => return Sink::Off,
                UpdateOp::Replace { elem } => {
                    if let Some(r) = elem.root() {
                        let copy = self.slots[v].out.deep_copy_from(elem, r);
                        self.attach(v, sink, copy);
                    }
                    return Sink::Off;
                }
                UpdateOp::Insert { .. } | UpdateOp::Rename { .. } => {}
            }
        }
        let name = match (selected, &q.op) {
            (true, UpdateOp::Rename { name }) => *name,
            _ => self.src.name_sym(n).expect("emit() is called on elements"),
        };
        let node = self.slots[v].out.copy_element_from(name, self.src, n);
        // Sibling inserts wrap the produced node; a selected *root* has
        // no sibling position, so they are skipped there (as in
        // `top_down_prebuilt`, which routes the root around the wrap).
        if selected && !is_root {
            if let UpdateOp::Insert {
                elem,
                pos: InsertPos::Before,
            } = &q.op
            {
                if let Some(r) = elem.root() {
                    let copy = self.slots[v].out.deep_copy_from(elem, r);
                    self.attach(v, sink, copy);
                }
            }
        }
        self.attach(v, sink, node);
        if selected {
            match &q.op {
                UpdateOp::Insert {
                    elem,
                    pos: InsertPos::After,
                } if !is_root => {
                    if let Some(r) = elem.root() {
                        let copy = self.slots[v].out.deep_copy_from(elem, r);
                        self.attach(v, sink, copy);
                    }
                }
                UpdateOp::Insert {
                    elem,
                    pos: InsertPos::FirstInto,
                } => {
                    if let Some(r) = elem.root() {
                        let copy = self.slots[v].out.deep_copy_from(elem, r);
                        self.slots[v].out.append_child(node, copy);
                    }
                }
                UpdateOp::Insert {
                    pos: InsertPos::LastInto,
                    ..
                } => last_into.push((v, node)),
                _ => {}
            }
        }
        Sink::Under(node)
    }

    /// Lands a produced node at view `v`'s sink.
    fn attach(&mut self, v: usize, sink: Sink, node: NodeId) {
        match sink {
            Sink::Root => self.slots[v].out.set_root(node),
            Sink::Under(p) => self.slots[v].out.append_child(p, node),
            Sink::Off => unreachable!("attach() is never called with an Off sink"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xust_xpath::parse_path;

    fn doc() -> Document {
        Document::parse(
            "<db><part><pname>keyboard</pname><supplier><sname>HP</sname><price>12</price></supplier><part><pname>key</pname></part></part><part><pname>mouse</pname><supplier><sname>IBM</sname><price>20</price></supplier></part></db>",
        )
        .unwrap()
    }

    fn elem() -> Document {
        Document::parse("<note><origin>shared</origin></note>").unwrap()
    }

    /// Every query in one shared batch must reproduce its private
    /// `top_down` output and its private `eval_path_root` target list.
    fn agree(queries: &[TransformQuery]) {
        let d = doc();
        let refs: Vec<&TransformQuery> = queries.iter().collect();
        let (results, _) = multi_view_with_stats(&d, &refs);
        assert_eq!(results.len(), queries.len());
        for (q, r) in queries.iter().zip(&results) {
            let private = top_down(&d, q);
            assert_eq!(
                r.doc.serialize(),
                private.serialize(),
                "shared output diverged for {:?} {}",
                q.op.kind(),
                q.path
            );
            assert_eq!(
                r.targets,
                eval_path_root(&d, &q.path),
                "shared targets diverged for {:?} {}",
                q.op.kind(),
                q.path
            );
        }
    }

    fn q(spec: &str, op: &str) -> TransformQuery {
        let path = parse_path(spec).unwrap();
        match op {
            "delete" => TransformQuery::delete("d", path),
            "replace" => TransformQuery::replace("d", path, elem()),
            "rename" => TransformQuery::rename("d", path, "renamed"),
            "insert" => TransformQuery::insert("d", path, elem()),
            "insert-first" => TransformQuery::insert_at("d", path, elem(), InsertPos::FirstInto),
            "insert-before" => TransformQuery::insert_at("d", path, elem(), InsertPos::Before),
            "insert-after" => TransformQuery::insert_at("d", path, elem(), InsertPos::After),
            other => panic!("unknown op {other}"),
        }
    }

    #[test]
    fn all_ops_share_one_pass() {
        let queries: Vec<TransformQuery> = [
            ("//price", "delete"),
            ("db/part/supplier", "replace"),
            ("//supplier", "rename"),
            ("//part[pname = 'keyboard']", "insert"),
            ("//part", "insert-first"),
            ("db/part", "insert-before"),
            ("db/part/supplier", "insert-after"),
        ]
        .iter()
        .map(|(p, op)| q(p, op))
        .collect();
        agree(&queries);
        let refs: Vec<&TransformQuery> = queries.iter().collect();
        let (_, stats) = multi_view_with_stats(&doc(), &refs);
        assert_eq!(
            stats,
            MultiViewStats {
                passes: 1,
                shared_views: 7,
                fallback_views: 0
            }
        );
    }

    #[test]
    fn dead_views_copy_wholesale_while_others_continue() {
        // View 0 dies immediately (no zzz), view 1 matches deep.
        agree(&[q("zzz/yyy", "delete"), q("//part[pname = 'key']", "rename")]);
    }

    #[test]
    fn root_matches_skip_sibling_inserts() {
        agree(&[
            q("//db", "insert-before"),
            q("//db", "insert-after"),
            q("//db", "insert-first"),
            q("//db", "insert"),
            q("db", "rename"),
        ]);
    }

    #[test]
    fn deleted_root_yields_empty_output() {
        agree(&[
            q("//db", "delete"),
            q("//db", "replace"),
            q("//price", "delete"),
        ]);
    }

    #[test]
    fn nested_matches_inside_deleted_subtrees_stay_in_targets() {
        // `//part` matches the nested part inside the deleted outer part;
        // the output drops both but targets must list both.
        let d = doc();
        let query = TransformQuery::delete("d", parse_path("//part").unwrap());
        let (results, _) = multi_view(&d, &[&query])
            .into_iter()
            .next()
            .map(|r| (r, ()))
            .unwrap();
        assert_eq!(results.targets, eval_path_root(&d, &query.path));
        assert_eq!(results.targets.len(), 3);
    }

    #[test]
    fn epsilon_paths_fall_back_per_view() {
        let d = doc();
        let eps = TransformQuery::rename("d", Path::empty(), "newroot");
        let normal = q("//price", "delete");
        let (results, stats) = multi_view_with_stats(&d, &[&eps, &normal]);
        assert_eq!(results[0].doc.serialize(), top_down(&d, &eps).serialize());
        assert_eq!(
            results[1].doc.serialize(),
            top_down(&d, &normal).serialize()
        );
        assert_eq!(results[0].targets, eval_path_root(&d, &eps.path));
        assert_eq!(
            stats,
            MultiViewStats {
                passes: 1,
                shared_views: 1,
                fallback_views: 1
            }
        );
    }

    #[test]
    fn wide_batches_chunk_into_multiple_passes() {
        let queries: Vec<TransformQuery> = (0..70).map(|_| q("//price", "delete")).collect();
        let refs: Vec<&TransformQuery> = queries.iter().collect();
        let (results, stats) = multi_view_with_stats(&doc(), &refs);
        assert_eq!(results.len(), 70);
        assert_eq!(stats.passes, 2);
        assert_eq!(stats.shared_views, 70);
        let expected = top_down(&doc(), &queries[0]).serialize();
        for r in &results {
            assert_eq!(r.doc.serialize(), expected);
        }
    }

    #[test]
    fn empty_document_produces_empty_views() {
        let empty = Document::new();
        let query = q("//part", "delete");
        let (results, _) = multi_view_with_stats(&empty, &[&query]);
        assert_eq!(results[0].doc.root(), None);
        assert!(results[0].targets.is_empty());
    }

    #[test]
    fn text_under_selected_nodes_copies_through() {
        let d = Document::parse("<a>x<b/>y<c>t</c>z</a>").unwrap();
        let queries = [
            TransformQuery::delete("d", parse_path("a/b").unwrap()),
            TransformQuery::rename("d", parse_path("a/c").unwrap(), "k"),
        ];
        let refs: Vec<&TransformQuery> = queries.iter().collect();
        let (results, _) = multi_view_with_stats(&d, &refs);
        assert_eq!(results[0].doc.serialize(), "<a>xy<c>t</c>z</a>");
        assert_eq!(results[1].doc.serialize(), "<a>x<b/>y<k>t</k>z</a>");
    }
}
