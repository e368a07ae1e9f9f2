//! SAX layer invariants: parse→serialize roundtrips, event-stream
//! equivalence with the DOM, and escaping correctness on hostile text.

use proptest::prelude::*;

use xust::sax::{events_to_string, SaxEvent, SaxParser};
use xust::tree::{docs_eq, Document, ElementBuilder, NodeId, NodeKind};

const LABELS: [&str; 4] = ["a", "b", "long-name.x", "_u"];
// Texts that force escaping and whitespace handling — including CR/LF/
// tab content, which the writer must protect with character references
// so the reader's XML 1.0 §2.11/§3.3.3 normalization cannot corrupt a
// round-trip.
const TEXTS: [&str; 8] = [
    "plain",
    "a<b",
    "x&y",
    "\"q\" 'p'",
    "  padded  ",
    "2>1",
    "l1\r\nl2\rl3",
    "tab\there\nand newline",
];

fn arb_tree(depth: u32) -> impl Strategy<Value = ElementBuilder> {
    let leaf = (0..LABELS.len(), proptest::option::of(0..TEXTS.len())).prop_map(|(l, t)| {
        let mut b = ElementBuilder::new(LABELS[l]);
        if let Some(t) = t {
            b = b.text(TEXTS[t]);
        }
        b
    });
    leaf.prop_recursive(depth, 24, 4, |inner| {
        (
            0..LABELS.len(),
            proptest::option::of((0..2usize, 0..TEXTS.len())),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(l, attr, children)| {
                let mut b = ElementBuilder::new(LABELS[l]);
                if let Some((k, v)) = attr {
                    b = b.attr(["k", "id"][k], TEXTS[v]);
                }
                for c in children {
                    b = b.child(c);
                }
                b
            })
    })
}

fn arb_doc() -> impl Strategy<Value = Document> {
    arb_tree(3).prop_map(|b| ElementBuilder::new("root").child(b).build_document())
}

/// Collects the SAX events of a serialized document.
fn events_of(xml: &str) -> Vec<SaxEvent> {
    SaxParser::from_str(xml).collect_events().expect("parses")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, .. ProptestConfig::default() })]

    /// serialize ∘ parse = id on the event stream (modulo Start/End
    /// document framing).
    #[test]
    fn serialize_parse_event_fixpoint(doc in arb_doc()) {
        let xml = doc.serialize();
        let events = events_of(&xml);
        // Events re-serialized give back the same bytes.
        let again = events_to_string(&events).expect("serializable");
        prop_assert_eq!(again, xml);
    }

    /// The DOM built from SAX events equals the original document.
    #[test]
    fn dom_roundtrip(doc in arb_doc()) {
        let xml = doc.serialize();
        let reparsed = Document::parse(&xml).expect("well-formed");
        prop_assert!(docs_eq(&doc, &reparsed));
    }

    /// Escaping is involutive: text content and attribute values survive
    /// a full write/read cycle byte-for-byte.
    #[test]
    fn hostile_text_survives(t in prop::sample::select(TEXTS.to_vec()), a in prop::sample::select(TEXTS.to_vec())) {
        let mut d = Document::new();
        let r = d.create_element_with_attrs("r", vec![("k".into(), a.to_string())]);
        let txt = d.create_text(t);
        d.append_child(r, txt);
        d.set_root(r);
        let xml = d.serialize();
        let back = Document::parse(&xml).expect("well-formed");
        let root = back.root().unwrap();
        prop_assert_eq!(back.attr(root, "k"), Some(a));
        prop_assert_eq!(back.immediate_text(root), t);
    }
}

/// Every character some escaping rule rewrites, plus plain ASCII and
/// two- to four-byte UTF-8, for values drawn one character at a time.
const VALUE_CHARS: [char; 15] = [
    '&', '<', '>', '"', '\'', '\r', '\n', '\t', ' ', 'a', 'Z', '7', 'é', '中', '😀',
];

fn arb_value() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(VALUE_CHARS.to_vec()), 1..10)
        .prop_map(|cs| cs.into_iter().collect())
}

fn with_attrs(mut b: ElementBuilder, attrs: Vec<(&str, String)>) -> ElementBuilder {
    for (k, v) in attrs {
        b = b.attr(k, v);
    }
    b
}

/// Trees whose every text and attribute value is escape-heavy. Text
/// children never sit next to each other, so a reparse (which merges
/// adjacent character data) must rebuild the same tree.
fn arb_escape_doc() -> impl Strategy<Value = Document> {
    let attrs = || {
        prop::collection::vec(proptest::option::of(arb_value()), 3).prop_map(|vals| {
            ["k", "id", "v"]
                .into_iter()
                .zip(vals)
                .filter_map(|(k, v)| Some((k, v?)))
                .collect::<Vec<_>>()
        })
    };
    let leaf =
        (0..LABELS.len(), attrs(), proptest::option::of(arb_value())).prop_map(|(l, a, t)| {
            let b = with_attrs(ElementBuilder::new(LABELS[l]), a);
            match t {
                Some(t) => b.text(t),
                None => b,
            }
        });
    let tree = leaf.prop_recursive(3, 24, 4, move |inner| {
        (
            0..LABELS.len(),
            attrs(),
            prop::collection::vec((proptest::option::of(arb_value()), inner), 0..4),
            proptest::option::of(arb_value()),
        )
            .prop_map(|(l, a, children, tail)| {
                let mut b = with_attrs(ElementBuilder::new(LABELS[l]), a);
                for (text, child) in children {
                    if let Some(t) = text {
                        b = b.text(t);
                    }
                    b = b.child(child);
                }
                if let Some(t) = tail {
                    b = b.text(t);
                }
                b
            })
    });
    tree.prop_map(|b| ElementBuilder::new("root").child(b).build_document())
}

/// The SAX events of a tree, read straight off its links.
fn tree_events(doc: &Document, n: NodeId, out: &mut Vec<SaxEvent>) {
    match doc.kind(n) {
        NodeKind::Text(t) => out.push(SaxEvent::Text(t.to_owned())),
        NodeKind::Element { name, attrs } => {
            out.push(SaxEvent::StartElement {
                name,
                attrs: attrs.to_vec(),
            });
            for c in doc.children(n) {
                tree_events(doc, c, out);
            }
            out.push(SaxEvent::EndElement(name));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, .. ProptestConfig::default() })]

    /// The tree serializer writes exactly what the SAX writer writes for
    /// the same tree's events — so file-backed (streamed) and in-memory
    /// documents serve identical bytes — and parse ∘ serialize is the
    /// identity, on values full of characters that must be escaped.
    #[test]
    fn serializer_matches_sax_writer_on_escape_heavy_values(doc in arb_escape_doc()) {
        let xml = doc.serialize();
        let mut events = Vec::new();
        tree_events(&doc, doc.root().unwrap(), &mut events);
        prop_assert_eq!(&events_to_string(&events).expect("balanced events"), &xml);
        let reparsed = Document::parse(&xml).expect("well-formed");
        prop_assert!(docs_eq(&doc, &reparsed), "parse∘serialize changed the tree: {}", xml);
        prop_assert_eq!(reparsed.serialize(), xml);
    }
}

#[test]
fn event_shapes() {
    let events = events_of("<a k=\"v\">hi<b/></a>");
    assert!(matches!(&events[0], SaxEvent::StartDocument));
    assert!(
        matches!(&events[1], SaxEvent::StartElement { name, attrs } if name == "a" && attrs.len() == 1)
    );
    assert!(matches!(&events[2], SaxEvent::Text(t) if t == "hi"));
    assert!(matches!(&events[3], SaxEvent::StartElement { name, .. } if name == "b"));
    assert!(matches!(&events[4], SaxEvent::EndElement(n) if n == "b"));
    assert!(matches!(&events[5], SaxEvent::EndElement(n) if n == "a"));
    assert!(matches!(&events[6], SaxEvent::EndDocument));
}

#[test]
fn whitespace_only_text_preserved() {
    let xml = "<a> <b/> </a>";
    assert_eq!(events_to_string(&events_of(xml)).unwrap(), xml);
}

#[test]
fn crlf_cdata_entity_roundtrip() {
    // One document exercising every §2.11/§3.3.3 normalization case:
    // CRLF and bare CR in text, literal whitespace in attribute values,
    // CDATA with CRLF content, and character references (exempt).
    let xml = "<r a=\"v1\r\nv2\tv3\">line1\r\nline2\rline3<![CDATA[cd\r\nata <&]]>&#13;tail</r>";
    let d1 = Document::parse(xml).unwrap();
    let root = d1.root().unwrap();
    assert_eq!(d1.attr(root, "a"), Some("v1 v2 v3"));
    assert_eq!(
        d1.immediate_text(root),
        "line1\nline2\nline3cd\nata <&\rtail"
    );
    // parse ∘ serialize is an identity from here on.
    let s1 = d1.serialize();
    let d2 = Document::parse(&s1).unwrap();
    assert!(docs_eq(&d1, &d2));
    assert_eq!(d2.serialize(), s1);
}

#[test]
fn crlf_roundtrip_via_events() {
    // CRLF content normalizes on the first parse, then re-serializes to
    // a stable fixpoint (CR protected as a character reference).
    let once = events_to_string(&events_of("<a>x\r\ny</a>")).unwrap();
    assert_eq!(once, "<a>x\ny</a>");
    let twice = events_to_string(&events_of(&once)).unwrap();
    assert_eq!(twice, once);
    // A bare CR that must *survive* (entered via reference).
    let once = events_to_string(&events_of("<a>x&#13;y</a>")).unwrap();
    assert_eq!(once, "<a>x&#13;y</a>");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// parse → serialize → parse is an identity on XMark documents
    /// spiked with CDATA sections, entity references, and CRLF line
    /// endings — the workload shape the serve layer re-parses on every
    /// streamed response.
    #[test]
    fn xmark_parse_serialize_parse_identity(seed in 0u64..1024) {
        let base = xust::xmark::generate_string(
            xust::xmark::XmarkConfig::new(0.0015).with_seed(seed),
        );
        // Splice hostile content into the closing region of the doc so
        // the parser sees CDATA, entities, and CRLF in one pass.
        let tail = "</site>";
        assert!(base.ends_with(tail));
        let spiked = format!(
            "{}<extra note=\"a\r\nb\tc\">one\r\ntwo\rthree<![CDATA[x\r\n<&]]>&#13;&amp;end</extra>{}",
            &base[..base.len() - tail.len()],
            tail
        );
        let d1 = Document::parse(&spiked).expect("spiked xmark parses");
        let s1 = d1.serialize();
        let d2 = Document::parse(&s1).expect("serialized form parses");
        prop_assert!(docs_eq(&d1, &d2), "parse∘serialize is not an identity");
        prop_assert_eq!(d2.serialize(), s1, "serialization is not a fixpoint");
    }
}
