//! Algorithm `topDown` (Fig. 3) — the Top Down Method of Section 3.3.
//!
//! A single recursive pass drives the selecting NFA over the input tree
//! and produces the transformed output as it goes:
//!
//! * empty state set → the subtree cannot be affected, copy it wholesale
//!   (Fig. 3 lines 2–3 — the pruning that lets topDown touch only the
//!   necessary part of `T`);
//! * final state present (with its qualifier satisfied) → the node is in
//!   `r[[p]]`, apply the update action;
//! * otherwise recurse into children with the new state set.
//!
//! The output leaves the pass in document order through a `Sink`: a
//! `TreeSink` builds a result [`Document`] (views, fragment trees and
//! composition need the tree), while the string sink behind
//! `top_down_into` appends the serialized bytes directly, so a
//! transform that is only sent somewhere never materializes a result
//! tree at all. Given the base document's [`Serialized`] index, the
//! string sink copies every pruned subtree and base text node as one
//! slice of it.
//!
//! The qualifier oracle `checkp` is a parameter: the **GENTOP** variant
//! passes native XPath evaluation (`xust_xpath::eval_qualifier`), the
//! **TD-BU**/twoPass variant passes an O(1) lookup into the `bottomUp`
//! annotations (Section 5).

use xust_automata::{SelectingNfa, StateSet};
use xust_intern::Sym;
use xust_tree::{write_start_tag, Document, NodeId, NodeKind, Serialized};
use xust_xpath::{eval_qualifier, Qualifier};

use crate::query::{InsertPos, TransformQuery, UpdateOp};

/// The `checkp(q, n)` oracle: decides whether the qualifier of path step
/// `step` holds at node `n`.
pub type CheckP<'a> = dyn FnMut(&Document, NodeId, usize, &Qualifier) -> bool + 'a;

/// GENTOP's `checkp`: native qualifier evaluation at the node.
pub(crate) fn native_check(d: &Document, n: NodeId, _step: usize, qual: &Qualifier) -> bool {
    eval_qualifier(d, n, qual)
}

/// Receives topDown's output in document order.
trait Sink {
    /// Opens an element named `name` carrying the attributes of `src`'s
    /// element `n`.
    fn open(&mut self, name: Sym, src: &Document, n: NodeId);
    /// Closes the most recently opened element.
    fn close(&mut self);
    /// Emits the whole subtree rooted at the base document's node `n`
    /// unchanged.
    fn copy(&mut self, src: &Document, n: NodeId);
    /// Emits the query's inserted or replacing element rooted at `r` of
    /// `elem`.
    fn insert(&mut self, elem: &Document, r: NodeId);
}

/// Builds result nodes in a [`Document`] from the emitted output, with a
/// stack of open elements: each node is attached under the innermost
/// open element, or collected as a top-level node when none is open.
struct TreeSink<'d> {
    out: &'d mut Document,
    open: Vec<NodeId>,
    top: Vec<NodeId>,
}

impl<'d> TreeSink<'d> {
    fn new(out: &'d mut Document) -> Self {
        TreeSink {
            out,
            open: Vec::new(),
            top: Vec::new(),
        }
    }

    /// The detached top-level nodes emitted, in order.
    fn into_top(self) -> Vec<NodeId> {
        debug_assert!(self.open.is_empty(), "every opened element is closed");
        self.top
    }

    fn attach(&mut self, node: NodeId) {
        match self.open.last() {
            Some(&parent) => self.out.append_child(parent, node),
            None => self.top.push(node),
        }
    }
}

impl Sink for TreeSink<'_> {
    fn open(&mut self, name: Sym, src: &Document, n: NodeId) {
        let node = self.out.copy_element_from(name, src, n);
        self.attach(node);
        self.open.push(node);
    }

    fn close(&mut self) {
        self.open.pop();
    }

    fn copy(&mut self, src: &Document, n: NodeId) {
        let node = self.out.deep_copy_from(src, n);
        self.attach(node);
    }

    fn insert(&mut self, elem: &Document, r: NodeId) {
        self.copy(elem, r);
    }
}

/// Appends the serialized output to a string, byte-identical to
/// serializing the tree a [`TreeSink`] would build. A start tag's `>` is
/// deferred until the element's first child, so an element left with no
/// children still collapses to `/>`.
struct StrSink<'s> {
    out: &'s mut String,
    /// The base document's index, when the caller has one.
    index: Option<&'s Serialized>,
    /// Names of the open elements, resolved once at open.
    open: Vec<&'static str>,
    /// True while the last start tag still lacks its `>`.
    pending: bool,
}

impl StrSink<'_> {
    fn close_pending(&mut self) {
        if self.pending {
            self.out.push('>');
            self.pending = false;
        }
    }
}

impl Sink for StrSink<'_> {
    fn open(&mut self, name: Sym, src: &Document, n: NodeId) {
        self.close_pending();
        let name = name.as_str();
        write_start_tag(name, src.attrs(n), self.out);
        self.open.push(name);
        self.pending = true;
    }

    fn close(&mut self) {
        let name = self.open.pop().expect("close() matches an open()");
        if self.pending {
            self.out.push_str("/>");
            self.pending = false;
        } else {
            self.out.push_str("</");
            self.out.push_str(name);
            self.out.push('>');
        }
    }

    fn copy(&mut self, src: &Document, n: NodeId) {
        self.close_pending();
        match self.index {
            Some(index) => self.out.push_str(index.subtree(src, n)),
            None => src.serialize_into(n, self.out),
        }
    }

    fn insert(&mut self, elem: &Document, r: NodeId) {
        self.close_pending();
        elem.serialize_into(r, self.out);
    }
}

/// Evaluates `Qt(T)` with the Top Down Method and native qualifier
/// evaluation — the experiments' **GENTOP**.
pub fn top_down(doc: &Document, q: &TransformQuery) -> Document {
    top_down_with(doc, q, &mut native_check)
}

/// GENTOP with the empty-state-set subtree pruning (Fig. 3 lines 2–3)
/// disabled — every node is visited and rebuilt even when the automaton
/// is dead. Exists only for the `ablation_pruning` bench, which
/// quantifies how much of topDown's win comes from pruning.
pub fn top_down_no_prune(doc: &Document, q: &TransformQuery) -> Document {
    let nfa = SelectingNfa::new(&q.path);
    build_tree(Document::with_capacity_of(doc), |sink| {
        run(doc, q, &nfa, &mut native_check, false, sink)
    })
}

/// Evaluates `Qt(T)` with a caller-supplied `checkp` oracle.
pub fn top_down_with(doc: &Document, q: &TransformQuery, check: &mut CheckP<'_>) -> Document {
    let nfa = SelectingNfa::new(&q.path);
    top_down_prebuilt(doc, q, &nfa, check)
}

/// [`top_down_with`] over a pre-compiled selecting NFA, so callers that
/// evaluate the same query repeatedly (the prepared-query cache in
/// `xust-serve`) skip automaton construction entirely. `nfa` must have
/// been built from `q.path`.
pub fn top_down_prebuilt(
    doc: &Document,
    q: &TransformQuery,
    nfa: &SelectingNfa,
    check: &mut CheckP<'_>,
) -> Document {
    build_tree(Document::with_capacity_of(doc), |sink| {
        run(doc, q, nfa, check, true, sink)
    })
}

/// [`top_down_prebuilt`] writing the serialized result straight onto
/// `out` (nothing for an empty result), with no result tree in between.
/// `index`, when given, must be `doc`'s.
pub(crate) fn top_down_into(
    doc: &Document,
    index: Option<&Serialized>,
    q: &TransformQuery,
    nfa: &SelectingNfa,
    check: &mut CheckP<'_>,
    out: &mut String,
) {
    let mut sink = StrSink {
        out,
        index,
        open: Vec::new(),
        pending: false,
    };
    run(doc, q, nfa, check, true, &mut sink);
}

/// Runs `emit` into a [`TreeSink`] over the empty `out` and roots the
/// document at the (at most one) top-level node it produced.
fn build_tree(mut out: Document, emit: impl FnOnce(&mut TreeSink<'_>)) -> Document {
    let mut sink = TreeSink::new(&mut out);
    emit(&mut sink);
    let top = sink.into_top();
    debug_assert!(top.len() <= 1, "a document pass produces at most one root");
    if let Some(&root) = top.first() {
        out.set_root(root);
    }
    out
}

/// The whole-document pass. The root goes through [`Cx::process`], which
/// is sibling-free, so sibling inserts (`before` / `after`) on a selected
/// root are skipped: a document has exactly one root, so there is no
/// position to put the sibling.
fn run<S: Sink>(
    doc: &Document,
    q: &TransformQuery,
    nfa: &SelectingNfa,
    check: &mut CheckP<'_>,
    prune: bool,
    sink: &mut S,
) {
    let Some(root) = doc.root() else {
        return;
    };
    let init = nfa.initial();
    // ε path: r[[ε]] = {root} — the automaton has nothing to consume, so
    // the initial states (which contain the final one) hold at the root.
    let s_root = if q.path.is_empty() {
        init
    } else {
        let label = doc.name_sym(root).expect("root is an element");
        nfa.next_states(&init, label, |step, qual| check(doc, root, step, qual))
    };
    if prune && s_root.is_empty() {
        sink.copy(doc, root);
        return;
    }
    let mut cx = Cx {
        src: doc,
        sink,
        nfa,
        op: &q.op,
        check,
        prune,
        targets: None,
    };
    cx.process(root, &s_root);
}

struct Cx<'a, 'c, S> {
    src: &'a Document,
    sink: &'a mut S,
    nfa: &'a SelectingNfa,
    op: &'a UpdateOp,
    check: &'a mut CheckP<'c>,
    /// Fig. 3 lines 2–3; off only for [`top_down_no_prune`].
    prune: bool,
    /// Collects the selected source nodes when set.
    targets: Option<&'a mut Vec<NodeId>>,
}

impl<S: Sink> Cx<'_, '_, S> {
    /// Transforms the subtree rooted at `n`, given the states `s` reached
    /// at `n`'s *parent*: emits nothing for a deleted node, otherwise the
    /// produced node, wrapped by a selected node's sibling insert.
    fn rec(&mut self, n: NodeId, s: &StateSet) {
        // Text nodes are never matched by X steps: copy through.
        let label = match self.src.kind(n) {
            NodeKind::Text(_) => return self.sink.copy(self.src, n),
            NodeKind::Element { name, .. } => name,
        };
        let src = self.src;
        let check = &mut *self.check;
        let s_next = self
            .nfa
            .next_states(s, label, |step, qual| check(src, n, step, qual));

        // Fig. 3 lines 2–3: unaffected subtree — copy unchanged.
        if self.prune && s_next.is_empty() {
            return self.sink.copy(src, n);
        }
        // Sibling inserts: `process` is sibling-free (composition resumes
        // it mid-tree where the siblings belong to the caller), so wrap
        // the produced node here.
        let sibling = match self.op {
            UpdateOp::Insert { elem, pos }
                if pos.is_sibling() && s_next.contains(self.nfa.final_state) =>
            {
                elem.root().map(|r| (elem, r, *pos))
            }
            _ => None,
        };
        if let Some((elem, r, InsertPos::Before)) = sibling {
            self.sink.insert(elem, r);
        }
        self.process(n, &s_next);
        if let Some((elem, r, InsertPos::After)) = sibling {
            self.sink.insert(elem, r);
        }
    }

    /// The post-transition body of `rec`: transforms `n` given the states
    /// already reached *at* `n`. Exposed (via [`top_down_subtree`]) for the
    /// composition algorithm, whose inlined `topDown(Mp, S, Qt, $z)` calls
    /// resume the automaton mid-document with a compile-time state set.
    fn process(&mut self, n: NodeId, s_next: &StateSet) {
        let selected = s_next.contains(self.nfa.final_state);
        if selected {
            if let Some(targets) = self.targets.as_deref_mut() {
                targets.push(n);
            }
            match self.op {
                UpdateOp::Delete => return,
                UpdateOp::Replace { elem } => {
                    if let Some(e_root) = elem.root() {
                        self.sink.insert(elem, e_root);
                    }
                    return;
                }
                UpdateOp::Insert { .. } | UpdateOp::Rename { .. } => {
                    // fall through: children still processed (nested
                    // matches inside a selected node must be handled).
                }
            }
        }

        let out_name = match (selected, self.op) {
            (true, UpdateOp::Rename { name }) => *name,
            _ => self
                .src
                .name_sym(n)
                .expect("process() is called on elements"),
        };
        self.sink.open(out_name, self.src, n);
        let into = match self.op {
            UpdateOp::Insert { elem, pos } if selected => elem.root().map(|r| (elem, r, *pos)),
            _ => None,
        };
        if let Some((elem, r, InsertPos::FirstInto)) = into {
            self.sink.insert(elem, r);
        }
        let mut child = self.src.first_child(n);
        while let Some(c) = child {
            self.rec(c, s_next);
            child = self.src.next_sibling(c);
        }
        if let Some((elem, r, InsertPos::LastInto)) = into {
            // Fig. 3 lines 7–8: add e as the last child.
            self.sink.insert(elem, r);
        }
        self.sink.close();
    }
}

/// Entry point for composition (Section 4): transforms the subtree rooted
/// at `node`, where `states` are the selecting-NFA states already reached
/// *at* `node` (after consuming its label on the path from the root).
/// Returns a document holding zero or one produced roots.
pub fn top_down_subtree(
    src: &Document,
    node: NodeId,
    nfa: &SelectingNfa,
    states: &StateSet,
    q: &TransformQuery,
) -> Document {
    build_tree(Document::new(), |sink| {
        if states.is_empty() {
            return sink.copy(src, node);
        }
        Cx {
            src,
            sink,
            nfa,
            op: &q.op,
            check: &mut native_check,
            prune: true,
            targets: None,
        }
        .process(node, states);
    })
}

/// Re-runs GENTOP's `rec` at base node `n` with the states `s` reached at
/// its parent, producing detached nodes in `out` (zero, one, or two with
/// a sibling insert), returned in sibling order. Every selected base node
/// is appended to `targets`. The result-patching path
/// (`crate::patch`) splices the produced nodes over a stale fragment.
pub(crate) fn rec_into_tree(
    base: &Document,
    out: &mut Document,
    nfa: &SelectingNfa,
    op: &UpdateOp,
    n: NodeId,
    s: &StateSet,
    targets: &mut Vec<NodeId>,
) -> Vec<NodeId> {
    let mut sink = TreeSink::new(out);
    Cx {
        src: base,
        sink: &mut sink,
        nfa,
        op,
        check: &mut native_check,
        prune: true,
        targets: Some(targets),
    }
    .rec(n, s);
    sink.into_top()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::copy_update::copy_update;
    use xust_tree::docs_eq;
    use xust_xpath::parse_path;

    fn doc() -> Document {
        Document::parse(
            "<db><part><pname>keyboard</pname><supplier><sname>HP</sname><price>12</price></supplier><part><pname>key</pname></part></part><part><pname>mouse</pname><supplier><sname>IBM</sname><price>20</price></supplier></part></db>",
        )
        .unwrap()
    }

    fn agree(q: &TransformQuery) {
        let d = doc();
        let expected = copy_update(&d, q);
        let got = top_down(&d, q);
        assert!(
            docs_eq(&expected, &got),
            "topDown disagrees with copy-update\nexpected: {}\ngot:      {}",
            expected.serialize(),
            got.serialize()
        );
    }

    /// Streams `q` over `xml` into a string, with and without the
    /// document's index, and checks the bytes against the serialized
    /// tree result and the copy-update baseline.
    fn streamed(xml: &str, q: &TransformQuery) -> String {
        let d = Document::parse(xml).unwrap();
        let nfa = SelectingNfa::new(&q.path);
        let index = Serialized::build(&d).unwrap();
        let mut got = String::from("kept:");
        top_down_into(&d, None, q, &nfa, &mut native_check, &mut got);
        let got = got
            .strip_prefix("kept:")
            .expect("appends to out")
            .to_string();
        let mut indexed = String::new();
        top_down_into(&d, Some(&index), q, &nfa, &mut native_check, &mut indexed);
        assert_eq!(indexed, got, "indexed vs walked copies");
        assert_eq!(got, top_down(&d, q).serialize(), "stream vs tree");
        assert_eq!(got, copy_update(&d, q).serialize(), "stream vs baseline");
        got
    }

    #[test]
    fn streamed_delete_that_empties_an_element_collapses_it() {
        let q = TransformQuery::delete("d", parse_path("a/b").unwrap());
        assert_eq!(streamed("<a x=\"1\"><b/><b>t</b></a>", &q), "<a x=\"1\"/>");
        let q = TransformQuery::delete("d", parse_path("//c").unwrap());
        assert_eq!(streamed("<a><b><c/></b>z</a>", &q), "<a><b/>z</a>");
    }

    #[test]
    fn streamed_sibling_insert_on_selected_root_is_skipped() {
        let e = Document::parse("<s/>").unwrap();
        for pos in [InsertPos::Before, InsertPos::After] {
            let q = TransformQuery::insert_at("d", parse_path("a").unwrap(), e.clone(), pos);
            assert_eq!(streamed("<a><b/></a>", &q), "<a><b/></a>");
            let q = TransformQuery::insert_at("d", parse_path("//b").unwrap(), e.clone(), pos);
            let want = match pos {
                InsertPos::Before => "<a><s/><b/></a>",
                _ => "<a><b/><s/></a>",
            };
            assert_eq!(streamed("<a><b/></a>", &q), want);
        }
    }

    #[test]
    fn streamed_epsilon_path_ops() {
        let eps = xust_xpath::Path::empty;
        let e = Document::parse("<n>1</n>").unwrap();
        let xml = "<a><b/></a>";
        assert_eq!(streamed(xml, &TransformQuery::delete("d", eps())), "");
        assert_eq!(
            streamed(xml, &TransformQuery::replace("d", eps(), e.clone())),
            "<n>1</n>"
        );
        assert_eq!(
            streamed(xml, &TransformQuery::rename("d", eps(), "z")),
            "<z><b/></z>"
        );
        for (pos, want) in [
            (InsertPos::LastInto, "<a><b/><n>1</n></a>"),
            (InsertPos::FirstInto, "<a><n>1</n><b/></a>"),
            (InsertPos::Before, xml),
            (InsertPos::After, xml),
        ] {
            let q = TransformQuery::insert_at("d", eps(), e.clone(), pos);
            assert_eq!(streamed(xml, &q), want, "{pos:?}");
        }
        let q = TransformQuery::insert("d", eps(), e);
        assert_eq!(streamed("<a/>", &q), "<a><n>1</n></a>");
    }

    #[test]
    fn streamed_deleted_root_is_empty() {
        let q = TransformQuery::delete("d", parse_path("//db").unwrap());
        assert_eq!(streamed("<db><x/></db>", &q), "");
        let mut out = String::new();
        let nfa = SelectingNfa::new(&q.path);
        let empty = Document::new();
        let index = Serialized::build(&empty).unwrap();
        top_down_into(&empty, Some(&index), &q, &nfa, &mut native_check, &mut out);
        assert_eq!(out, "");
    }

    #[test]
    fn streamed_replace_with_empty_element() {
        let e = Document::parse("<hidden/>").unwrap();
        let q = TransformQuery::replace("d", parse_path("a/b").unwrap(), e);
        assert_eq!(
            streamed("<a><b>x</b>t<b/></a>", &q),
            "<a><hidden/>t<hidden/></a>"
        );
        let q = TransformQuery::replace(
            "d",
            parse_path("a").unwrap(),
            Document::parse("<e/>").unwrap(),
        );
        assert_eq!(streamed("<a><b/></a>", &q), "<e/>");
    }

    #[test]
    fn delete_matches_baseline() {
        agree(&TransformQuery::delete("d", parse_path("//price").unwrap()));
        agree(&TransformQuery::delete(
            "d",
            parse_path("db/part/supplier").unwrap(),
        ));
        agree(&TransformQuery::delete(
            "d",
            parse_path("//part[pname = 'keyboard']//part").unwrap(),
        ));
    }

    #[test]
    fn insert_matches_baseline() {
        let e = Document::parse("<supplier><sname>New</sname></supplier>").unwrap();
        agree(&TransformQuery::insert(
            "d",
            parse_path("//part[pname = 'keyboard']").unwrap(),
            e.clone(),
        ));
        agree(&TransformQuery::insert(
            "d",
            parse_path("//part").unwrap(),
            e,
        ));
    }

    #[test]
    fn replace_matches_baseline() {
        let e = Document::parse("<hidden/>").unwrap();
        agree(&TransformQuery::replace(
            "d",
            parse_path("//supplier[price < 15]").unwrap(),
            e,
        ));
    }

    #[test]
    fn rename_matches_baseline() {
        agree(&TransformQuery::rename(
            "d",
            parse_path("//supplier").unwrap(),
            "vendor",
        ));
    }

    #[test]
    fn qualifier_checked_at_correct_node() {
        // Example 3.1's p1: the nested part under keyboard qualifies (no
        // supplier at all ⇒ both negations hold).
        let q = TransformQuery::insert(
            "d",
            parse_path(
                "//part[pname = 'keyboard']//part[not(supplier/sname = 'HP') and not(supplier/price < 15)]",
            )
            .unwrap(),
            Document::parse("<supplier><sname>HP</sname></supplier>").unwrap(),
        );
        agree(&q);
        let out = top_down(&doc(), &q);
        let s = out.serialize();
        // exactly one insertion: under the nested part
        assert_eq!(s.matches("<sname>HP</sname></supplier></part>").count(), 1);
    }

    #[test]
    fn delete_root() {
        let q = TransformQuery::delete("d", parse_path("//db").unwrap());
        let out = top_down(&doc(), &q);
        assert_eq!(out.root(), None);
    }

    #[test]
    fn empty_document() {
        let q = TransformQuery::delete("d", parse_path("//x").unwrap());
        let out = top_down(&Document::new(), &q);
        assert_eq!(out.root(), None);
    }

    #[test]
    fn unmatched_path_is_identity() {
        let d = doc();
        let q = TransformQuery::delete("d", parse_path("zzz/yyy").unwrap());
        let out = top_down(&d, &q);
        assert!(docs_eq(&d, &out));
    }

    #[test]
    fn text_preserved_in_mixed_content() {
        let d = Document::parse("<a>x<b/>y<c/>z</a>").unwrap();
        let q = TransformQuery::delete("d", parse_path("a/b").unwrap());
        let out = top_down(&d, &q);
        assert_eq!(out.serialize(), "<a>xy<c/>z</a>");
    }

    #[test]
    fn oracle_call_sites() {
        // The check oracle must be consulted exactly for candidate steps
        // with qualifiers, at the right nodes.
        let d = doc();
        let q = TransformQuery::delete(
            "d",
            parse_path("db/part[pname = 'mouse']/supplier").unwrap(),
        );
        let mut consulted = Vec::new();
        let out = top_down_with(&d, &q, &mut |doc, n, step, qual| {
            consulted.push((doc.name(n).unwrap().to_string(), step));
            eval_qualifier(doc, n, qual)
        });
        // qualifier on step 1 (part) checked at each top-level part
        assert_eq!(
            consulted,
            vec![("part".to_string(), 1), ("part".to_string(), 1)]
        );
        assert!(out.serialize().contains("keyboard"));
        assert!(!out.serialize().contains("IBM"));
    }
}
