//! Soundness harness for the registration-time static analysis and the
//! write-path relevance test built on its alphabets.
//!
//! Two layers:
//!
//! 1. **Alphabet soundness** — `collect_alphabet` (the union of the
//!    selecting and filtering NFA alphabets) must contain every label
//!    the evaluation of a path can consult. The property is tested as
//!    label-independence: relabeling every document label *outside* the
//!    collected alphabet commutes with evaluation. If evaluation ever
//!    consulted a label the alphabet misses, some relabeling would
//!    change which nodes are selected and the two sides would diverge.
//!    This is the load-bearing premise of the dynamic relevance test.
//!
//! 2. **Maintenance partition** — for fuzzed writes against live
//!    cached views, every warmed entry takes exactly one fate (retained,
//!    patched, or recomputed), and every served view body stays
//!    byte-identical to a full recompute. Deterministic companions pin
//!    dynamic retention across renames, dead-view rejection, and
//!    equivalence-class cache sharing.

mod common;

use proptest::prelude::*;

use xust::automata::{FilteringNfa, LabelSet, SelectingNfa};
use xust::core::{
    apply_update, evaluate, intern, parse_multi_transform, parse_transform, Method, TransformQuery,
};
use xust::serve::{Request, Server};
use xust::tree::Document;
use xust::xmark::{generate_string, XmarkConfig};
use xust::xpath::{eval_path_root, parse_path};

/// Spike region grafted into the XMark document (vocabulary disjoint
/// from the XMark labels the views read).
const SPIKE: &str = concat!(
    "<spike-zone><sa><sc>10</sc></sa>",
    "<sb><sc>20</sc><zap>x</zap></sb><sa/></spike-zone>"
);

fn spiked_xmark(seed: u64) -> Document {
    let base = generate_string(XmarkConfig::new(0.0005).with_seed(seed));
    let open_end = base.find('>').expect("xmark has a root tag") + 1;
    let spiked = format!("{}{}{}", &base[..open_end], SPIKE, &base[open_end..]);
    Document::parse(&spiked).expect("spiked xmark parses")
}

// ---------------------------------------------------------------------
// Layer 1: collect_alphabet soundness
// ---------------------------------------------------------------------

/// Labels the path generator draws from — a mix of labels that occur in
/// spiked XMark documents and ones that do not (dead steps are part of
/// the property space too).
const POOL: [&str; 10] = [
    "part", "keyword", "bidder", "increase", "person", "emph", "sa", "sb", "sc", "zap",
];

/// Random label paths with qualifiers, in concrete syntax. No wildcard
/// and no `label()` tests: the former makes every label relevant (the
/// property becomes vacuous), the latter is accounted by
/// `qualifier_label_tests_into`, a separate channel from
/// `collect_alphabet`.
fn arb_pool_path() -> impl Strategy<Value = String> {
    let qual = prop_oneof![
        (0..POOL.len()).prop_map(|l| format!("[{}]", POOL[l])),
        (0..POOL.len()).prop_map(|l| format!("[{} = '10']", POOL[l])),
        Just("[. = '10']".to_string()),
        (0..POOL.len()).prop_map(|l| format!("[not({})]", POOL[l])),
        (0..POOL.len()).prop_map(|l| format!("[{} < 15]", POOL[l])),
    ];
    let step =
        ((0..POOL.len()), proptest::option::of(qual), prop::bool::ANY).prop_map(|(l, q, desc)| {
            let axis = if desc { "//" } else { "/" };
            match q {
                Some(q) => format!("{axis}{}{q}", POOL[l]),
                None => format!("{axis}{}", POOL[l]),
            }
        });
    prop::collection::vec(step, 1..4).prop_map(|steps| {
        let joined: String = steps.concat();
        // Paths are root-relative: strip the leading '/' unless the
        // first step is a descendant one.
        joined
            .strip_prefix('/')
            .filter(|rest| !rest.starts_with('/'))
            .map(str::to_string)
            .unwrap_or(joined)
    })
}

/// Every element label appearing in `doc`, by scanning its serialized
/// form for start tags.
fn doc_labels(doc: &Document) -> Vec<String> {
    let xml = doc.serialize();
    let mut labels = std::collections::BTreeSet::new();
    let bytes = xml.as_bytes();
    let mut i = 0;
    while let Some(pos) = xml[i..].find('<') {
        let at = i + pos + 1;
        if at < bytes.len() && bytes[at] != b'/' {
            let end = xml[at..]
                .find([' ', '>', '/'])
                .map(|e| at + e)
                .unwrap_or(xml.len());
            if at < end {
                labels.insert(xml[at..end].to_string());
            }
        }
        i = at;
    }
    labels.into_iter().collect()
}

/// Renames every element whose label is in `labels` to `zz<label>`,
/// using the engine's own update primitives.
fn relabel(doc: &mut Document, labels: &[String]) {
    for l in labels {
        let path = parse_path(&format!("//{l}")).expect("label path parses");
        let targets = eval_path_root(doc, &path);
        if targets.is_empty() {
            continue;
        }
        let q = TransformQuery::rename("d", path, format!("zz{l}"));
        apply_update(doc, &targets, &q.op);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Relabeling outside the collected alphabet commutes with
    /// evaluation: `eval(relabel(D)) == relabel(eval(D))`.
    #[test]
    fn collect_alphabet_covers_every_consulted_label(
        seed in 0u64..16,
        path_text in arb_pool_path(),
    ) {
        let path = parse_path(&path_text).expect("generated path parses");
        let mut alphabet = LabelSet::new();
        SelectingNfa::new(&path).collect_alphabet(&mut alphabet);
        FilteringNfa::new(&path).collect_alphabet(&mut alphabet);
        prop_assert!(!alphabet.has_wildcard(), "no wildcard steps generated");

        let doc = spiked_xmark(seed);
        let outside: Vec<String> = doc_labels(&doc)
            .into_iter()
            .filter(|l| !alphabet.contains(intern(l)))
            .collect();

        let q = TransformQuery::delete("d", path);
        // relabel(eval(D)): evaluate on the original, then rename.
        let mut evaluated_first = evaluate(&doc, &q, Method::TwoPass).unwrap();
        relabel(&mut evaluated_first, &outside);
        // eval(relabel(D)): rename the document, then evaluate.
        let mut relabeled = doc.clone();
        relabel(&mut relabeled, &outside);
        let relabeled_first = evaluate(&relabeled, &q, Method::TwoPass).unwrap();

        prop_assert_eq!(
            evaluated_first.serialize(),
            relabeled_first.serialize(),
            "path {} consulted a label outside its collected alphabet \
             (renamed: {:?})",
            path_text,
            outside
        );
    }
}

// ---------------------------------------------------------------------
// Layer 2: maintenance-partition differential fuzzer
// ---------------------------------------------------------------------

/// Registered views: two descendant renames and two deletes, one of
/// them qualified.
const VIEWS: [(&str, &str); 4] = [
    (
        "member",
        r#"transform copy $a := doc("xmark") modify do rename $a//part as member return $a"#,
    ),
    (
        "kwx",
        r#"transform copy $a := doc("xmark") modify do rename $a//keyword as kw return $a"#,
    ),
    (
        "nosc",
        r#"transform copy $a := doc("xmark") modify do delete $a//sc return $a"#,
    ),
    (
        "cheap",
        r#"transform copy $a := doc("xmark") modify do delete $a//bidder[increase > 5] return $a"#,
    ),
];

/// The fuzz pool: anchored and descendant spike inserts, an insert of a
/// label a view renames, spike and XMark renames, deletes, and a
/// two-rule write (never patched, so an entry it touches is recomputed).
const WRITE_POOL: [&str; 9] = [
    r#"insert <sx><t>v</t></sx> into $a/site/spike-zone/sb"#,
    r#"insert <sx/> into $a//spike-zone/sb"#,
    r#"insert <keyword>k</keyword> into $a/site/spike-zone/sa"#,
    r#"rename $a//zap as zz"#,
    r#"rename $a//emph as em"#,
    r#"rename $a//part as unit"#,
    r#"delete $a//sc[. = '10']"#,
    r#"delete $a//zap"#,
    r#"(delete $a//sc[. = '10'], rename $a//zap as zz)"#,
];

fn update_text(body: &str) -> String {
    format!(r#"transform copy $a := doc("xmark") modify do {body} return $a"#)
}

/// Full single-link recompute oracle.
fn recompute_view(base: &Document, link: &str) -> String {
    let q = parse_transform(link).unwrap();
    evaluate(base, &q, Method::TwoPass).unwrap().serialize()
}

fn apply_to_reference(reference: &mut Document, update: &str) {
    let mq = parse_multi_transform(update).unwrap();
    for (path, op) in &mq.updates {
        let targets = eval_path_root(reference, path);
        apply_update(reference, &targets, op);
    }
}

/// Pulls `retained=R recomputed=C patched=P` out of an UPDATE body.
fn parse_counts(body: &str) -> (u64, u64, u64) {
    let grab = |key: &str| -> u64 {
        let tail = &body[body.find(key).unwrap_or_else(|| panic!("{key} in {body}")) + key.len()..];
        tail.split_whitespace().next().unwrap().parse().unwrap()
    };
    (grab("retained="), grab("recomputed="), grab("patched="))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// For every fuzzed write: each warmed entry takes exactly one fate
    /// (`retained + patched + recomputed` is the warmed count, and the
    /// STATS counters move by the reply's numbers), and every served
    /// view stays byte-identical to full recompute.
    #[test]
    fn fuzzed_writes_partition_warmed_entries_and_match_recompute(
        seed in 0u64..16,
        picks in prop::collection::vec(0..WRITE_POOL.len(), 1..5),
    ) {
        let base = spiked_xmark(seed);
        let server = Server::builder().threads(1).shards(1).build();
        server.load_doc("xmark", base.clone());
        for (name, link) in VIEWS {
            server.register_view(name, link).unwrap();
        }
        let mut reference = base.clone();
        for (round, &pick) in picks.iter().enumerate() {
            // (Re-)warm every entry so each write has all views to judge.
            for (name, link) in VIEWS {
                let served = server
                    .handle(&Request::View { view: name.into(), doc: "xmark".into() })
                    .unwrap()
                    .body;
                prop_assert_eq!(&served, &recompute_view(&reference, link));
            }
            let warmed = server.view_results().len() as u64;
            prop_assert_eq!(warmed, VIEWS.len() as u64, "one entry per view");
            let text = update_text(WRITE_POOL[pick]);
            let before = server.stats();

            let resp = server.update_doc("xmark", &text).unwrap();
            apply_to_reference(&mut reference, &text);

            let (retained, recomputed, patched) = parse_counts(&resp.body);
            prop_assert_eq!(
                retained + patched + recomputed,
                warmed,
                "round {}: write {:?} left entries without a fate: {}",
                round, WRITE_POOL[pick], resp.body
            );
            let after = server.stats();
            prop_assert_eq!(after.delta_retained - before.delta_retained, retained);
            prop_assert_eq!(after.delta_patched - before.delta_patched, patched);
            prop_assert_eq!(after.delta_recomputed - before.delta_recomputed, recomputed);
            // Served results stay byte-identical to full recompute.
            for (name, link) in VIEWS {
                let served = server
                    .handle(&Request::View { view: name.into(), doc: "xmark".into() })
                    .unwrap()
                    .body;
                prop_assert_eq!(
                    &served,
                    &recompute_view(&reference, link),
                    "round {}: view '{}' diverged after {:?}",
                    round, name, WRITE_POOL[pick]
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic companions
// ---------------------------------------------------------------------

/// Disjoint inserts and a disjoint rename are retained by the dynamic
/// relevance test alone, including the insert after the rename, whose
/// entries carry footprints remapped into the post-rename vocabulary.
#[test]
fn disjoint_writes_stay_retained_across_a_rename() {
    let server = Server::builder().threads(1).shards(1).build();
    server.load_doc("xmark", spiked_xmark(3));
    server.register_view("member", VIEWS[0].1).unwrap();
    server.register_view("kwx", VIEWS[1].1).unwrap();
    for name in ["member", "kwx"] {
        server
            .handle(&Request::View {
                view: name.into(),
                doc: "xmark".into(),
            })
            .unwrap();
    }
    let insert = update_text(r#"insert <sx/> into $a/site/spike-zone/sb"#);
    let rename = update_text(r#"rename $a//zap as zz"#);
    for update in [&insert, &insert, &rename, &insert] {
        let resp = server.update_doc("xmark", update).unwrap();
        assert_eq!(parse_counts(&resp.body), (2, 0, 0), "{}", resp.body);
    }
    let stats = server.stats();
    assert_eq!(stats.delta_retained, 8);
    assert_eq!(stats.delta_recomputed, 0);
    // The exposition surfaces report the same count.
    assert!(stats.to_string().contains("delta_retained=8"));
    let metrics = server.metrics();
    assert!(
        metrics.contains("delta_retained_total 8"),
        "METRICS must carry the retain counter: {metrics}"
    );
}

/// A statically dead view (unsatisfiable qualifier) is rejected from
/// evaluation entirely: it serves the base document, occupies no cache
/// entry, and never participates in write maintenance.
#[test]
fn dead_views_serve_base_without_caching_or_maintenance() {
    const XML: &str = "<db><part><price>9</price></part></db>";
    let server = Server::builder().threads(1).shards(1).build();
    server.load_doc_str("db", XML).unwrap();
    server
        .register_view(
            "deadv",
            r#"transform copy $a := doc("db") modify do delete $a/db[label() = nope]//part return $a"#,
        )
        .unwrap();
    let analysis = server.analyze("deadv").unwrap().to_string();
    assert!(analysis.contains("dead=true"), "{analysis}");

    let served = server
        .handle(&Request::View {
            view: "deadv".into(),
            doc: "db".into(),
        })
        .unwrap();
    assert_eq!(served.body, XML, "a dead view is the identity transform");
    assert_eq!(
        server.view_results().len(),
        0,
        "dead views must not occupy result-cache entries"
    );
    // A write has nothing of the dead view's to maintain or recompute.
    let resp = server
        .update_doc(
            "db",
            r#"transform copy $a := doc("db") modify do insert <k/> into $a/db/part return $a"#,
        )
        .unwrap();
    assert_eq!(parse_counts(&resp.body), (0, 0, 0), "{}", resp.body);
    // And it still serves the (new) base afterwards.
    let served = server
        .handle(&Request::View {
            view: "deadv".into(),
            doc: "db".into(),
        })
        .unwrap();
    assert_eq!(served.body, "<db><part><price>9</price><k/></part></db>");
}

/// Two syntactically different but provably equivalent views share one
/// result-cache entry family: the second serve is a cache hit on the
/// first's entry.
#[test]
fn equivalent_views_share_one_cache_entry_family() {
    const XML: &str = "<db><part><price>9</price></part><part/></db>";
    let server = Server::builder().threads(1).shards(1).build();
    server.load_doc_str("db", XML).unwrap();
    // v2's qualifier folds to a tautology, making it equivalent to v1.
    server
        .register_view(
            "v1",
            r#"transform copy $a := doc("db") modify do delete $a//price return $a"#,
        )
        .unwrap();
    server
        .register_view(
            "v2",
            r#"transform copy $a := doc("db") modify do delete $a//price[label() = price] return $a"#,
        )
        .unwrap();
    let a2 = server.analyze("v2").unwrap().to_string();
    assert!(
        a2.contains("family: key=v1") && a2.contains("members=2"),
        "v2 must join v1's cache family: {a2}"
    );

    // Warm via v1 (one result-cache miss), then serve v2 from the same
    // entry (a hit, no further miss).
    let misses_start = server.stats().result_misses;
    let hits_start = server.stats().result_hits;
    let first = server
        .handle(&Request::View {
            view: "v1".into(),
            doc: "db".into(),
        })
        .unwrap();
    assert_eq!(server.stats().result_misses, misses_start + 1);
    let second = server
        .handle(&Request::View {
            view: "v2".into(),
            doc: "db".into(),
        })
        .unwrap();
    assert_eq!(
        server.stats().result_hits,
        hits_start + 1,
        "equivalent view must hit the shared entry"
    );
    assert_eq!(server.stats().result_misses, misses_start + 1);
    assert_eq!(first.body, second.body);
    assert_eq!(first.body, "<db><part/><part/></db>");
    assert_eq!(
        server.view_results().len(),
        1,
        "one family, one materialization"
    );
}
