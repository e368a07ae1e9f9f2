//! Random edit scripts over the flat document layout: every primitive
//! edit, with heap compaction forced between steps, must leave the
//! serialization unchanged by `clone()` and by compaction, keep every
//! live node's name, text and attributes under its `NodeId`, slice
//! every live subtree out of a fresh [`Serialized`] index byte for
//! byte, and round-trip through parse∘serialize.

use proptest::prelude::*;
use xust_intern::Sym;
use xust_tree::{Document, NodeId, Serialized};

/// Non-empty, non-whitespace text (the parser drops whitespace-only and
/// empty runs, so those could not round-trip), with markup and
/// multi-byte characters.
const TEXTS: &[&str] = &["t", "a&b", "<x>", "é", "日本", "q\"'", "1 < 2"];
const VALUES: &[&str] = &["", "v", "a&b<c>\"d\"", "ü", "long attribute value"];
const NAMES: &[&str] = &["a", "b", "c", "item"];

/// One step: an operation code and three selectors, each reduced modulo
/// whatever it picks from.
type Step = (usize, usize, usize, usize);

type Payload = (NodeId, Option<Sym>, Option<String>, Vec<(Sym, String)>);

/// Reachable nodes in document order.
fn live(d: &Document) -> Vec<NodeId> {
    d.descendants_or_self(d.root().expect("scripts keep a root"))
        .collect()
}

/// A fresh detached subtree `<name k="v">text</name>`.
fn fresh(d: &mut Document, b: usize, c: usize) -> NodeId {
    let name = NAMES[b % NAMES.len()];
    let e = d.create_element_with_attrs(name, [("k".into(), VALUES[c % VALUES.len()])]);
    let t = d.create_text(TEXTS[c % TEXTS.len()]);
    d.append_child(e, t);
    e
}

fn apply(d: &mut Document, src: &Document, (op, a, b, c): Step) {
    let nodes = live(d);
    let target = nodes[a % nodes.len()];
    let other = nodes[b % nodes.len()];
    let is_root = d.root() == Some(target);
    let element = d.is_element(target);
    match op {
        0 if element => {
            let n = fresh(d, b, c);
            d.append_child(target, n);
        }
        1 if element => {
            let n = d.create_text(TEXTS[c % TEXTS.len()]);
            d.prepend_child(target, n);
        }
        2 if !is_root => {
            let n = fresh(d, b, c);
            d.insert_before(target, n);
        }
        3 if !is_root => {
            let n = fresh(d, b, c);
            d.insert_after(target, n);
        }
        4 if !is_root => d.delete(target),
        5 if element || !is_root => {
            let n = fresh(d, b, c);
            d.replace(target, n);
        }
        6 => d.rename(target, NAMES[b % NAMES.len()]),
        7 => d.set_attr(target, NAMES[b % NAMES.len()], VALUES[c % VALUES.len()]),
        8 if d.is_element(other) => {
            let copy = d.deep_copy(target);
            d.append_child(other, copy);
        }
        9 if element => {
            let r = src.root().expect("source has a root");
            let copy = d.deep_copy_from(src, r);
            d.append_child(target, copy);
        }
        _ => {}
    }
}

/// Name, text and attributes of every live node, keyed by id.
fn payloads(d: &Document) -> Vec<Payload> {
    live(d)
        .into_iter()
        .map(|n| {
            let text = d.text(n).map(str::to_owned);
            (n, d.name_sym(n), text, d.attrs(n).to_vec())
        })
        .collect()
}

/// Checks a fresh index of `d` against `serialize_subtree` at every
/// live node.
fn index_agrees(d: &Document) -> Result<(), TestCaseError> {
    let ix = Serialized::build(d).expect("small documents fit 32-bit offsets");
    for n in live(d) {
        prop_assert_eq!(
            ix.subtree(d, n),
            d.serialize_subtree(n),
            "subtree at {:?}",
            n
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn edits_survive_clone_compaction_and_reparse(
        script in prop::collection::vec((0usize..10, 0usize..64, 0usize..64, 0usize..64), 1..40),
    ) {
        let src = Document::parse("<s z=\"&amp;\"><t>copied</t>tail</s>").unwrap();
        let mut d = Document::parse("<r a=\"1\"><x>t</x><y k=\"v\"/>u</r>").unwrap();
        for step in script {
            apply(&mut d, &src, step);
            index_agrees(&d)?;
            let xml = d.serialize();
            prop_assert_eq!(d.clone().serialize(), xml.clone(), "clone changed the bytes");
            let before = payloads(&d);
            d.compact();
            prop_assert_eq!(d.serialize(), xml.clone(), "compaction changed the bytes");
            prop_assert_eq!(payloads(&d), before, "compaction moved a payload");
            index_agrees(&d)?;
            let back = Document::parse(&xml).expect("serialized output parses");
            prop_assert_eq!(back.serialize(), xml, "parse∘serialize is not the identity");
        }
    }
}
