//! Method-rule correctness property: whichever method a compiled
//! transform is fixed to — GENTOP by default, TD-BU when a qualifier
//! has a `//` step, twoPassSAX for file-backed documents — the served
//! result must be byte-identical to the NAIVE reference evaluation on
//! random XMark documents.

use proptest::prelude::*;

use xust::core::{evaluate, method_for, Method, TransformQuery};
use xust::serve::{Request, Server};
use xust::tree::Document;
use xust::xmark::{generate, XmarkConfig};
use xust::xpath::parse_path;

/// Workload-shaped paths over the XMark schema (subset of Fig. 11 plus
/// shape variants: no qualifier, qualifier, descendant, wildcard, and
/// qualifiers with a `//` step — the TD-BU side of the method rule).
const PATHS: [&str; 10] = [
    "/site/people/person",
    "/site/people/person[profile/age > 20]",
    "/site/regions//item",
    "/site//description",
    "/site/regions//item[location = \"United States\"]",
    "/site/open_auctions/open_auction[initial > 10]/bidder",
    "/site/*/person",
    "/site/closed_auctions/closed_auction/annotation",
    "//*[.//keyword]",
    "/site//item[.//text]/name",
];

fn build_query(path: &str, op: u8) -> TransformQuery {
    let p = parse_path(path).expect("workload paths parse");
    let e = Document::parse("<mark><by>planner</by></mark>").unwrap();
    match op {
        0 => TransformQuery::delete("xmark", p),
        1 => TransformQuery::insert("xmark", p, e),
        2 => TransformQuery::replace("xmark", p, e),
        _ => TransformQuery::rename("xmark", p, "renamed"),
    }
}

fn transform_syntax(path: &str, op: u8) -> String {
    match op {
        0 => format!(r#"transform copy $a := doc("xmark") modify do delete $a{path} return $a"#),
        1 => format!(
            r#"transform copy $a := doc("xmark") modify do insert <mark><by>planner</by></mark> into $a{path} return $a"#
        ),
        2 => format!(
            r#"transform copy $a := doc("xmark") modify do replace $a{path} with <mark><by>planner</by></mark> return $a"#
        ),
        _ => format!(
            r#"transform copy $a := doc("xmark") modify do rename $a{path} as renamed return $a"#
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    /// Random XMark document (factor × seed), random workload path and
    /// update kind: the server's execution, with the method the rule
    /// fixed at compile time, must be byte-identical to `Method::Naive`
    /// — on the cold request and on a repeat served from the prepared
    /// cache.
    #[test]
    fn planner_choice_is_byte_identical_to_naive(
        factor in prop::sample::select(vec![0.001f64, 0.002, 0.003]),
        seed in 0u64..3,
        path_idx in 0usize..PATHS.len(),
        op in 0u8..4,
    ) {
        let doc = generate(XmarkConfig::new(factor).with_seed(seed));
        let q = build_query(PATHS[path_idx], op);
        let reference = evaluate(&doc, &q, Method::Naive).unwrap().serialize();
        // Sanity: the syntax round-trip really produced the same query.
        let parsed = xust::core::parse_transform(&transform_syntax(PATHS[path_idx], op)).unwrap();
        prop_assert_eq!(parsed.path.to_string(), q.path.to_string());
        let expected = method_for(&q.path);

        let server = Server::builder().threads(1).build();
        server.load_doc("xmark", doc);
        let request = Request::Transform {
            doc: "xmark".into(),
            query: transform_syntax(PATHS[path_idx], op),
        };
        for round in 0..2 {
            let resp = server.handle(&request).unwrap();
            prop_assert_eq!(
                &resp.body,
                &reference,
                "round {} ran {:?} for {} (op {})",
                round,
                resp.method,
                PATHS[path_idx],
                op
            );
            prop_assert_eq!(resp.method, Some(expected));
        }
    }
}

#[test]
fn streamed_file_requests_match_naive_too() {
    // The file-backed path routes through twoPassSAX; its serialized
    // output must equal the DOM reference byte for byte.
    let xml = {
        let cfg = XmarkConfig::new(0.001).with_seed(11);
        xust::xmark::generate_string(cfg)
    };
    let dir = std::env::temp_dir();
    let path = dir.join("xust_serve_planner_stream.xml");
    std::fs::write(&path, &xml).unwrap();

    let server = Server::builder().threads(1).build();
    server.load_doc_file("xmark", &path).unwrap();
    let q = transform_syntax("/site/people/person[profile/age > 20]", 0);
    let resp = server
        .handle(&Request::Transform {
            doc: "xmark".into(),
            query: q.clone(),
        })
        .unwrap();
    assert_eq!(resp.method, Some(Method::TwoPassSax));

    let doc = Document::parse(&xml).unwrap();
    let parsed = xust::core::parse_transform(&q).unwrap();
    let reference = evaluate(&doc, &parsed, Method::Naive).unwrap().serialize();
    assert_eq!(resp.body, reference);
    std::fs::remove_file(&path).ok();
}

/// The shared batch sweep checks qualifiers natively, like GENTOP, so
/// views the rule sends to TD-BU (a qualifier with a `//` step) keep
/// their private pass in a batch and report TD-BU, while their GENTOP
/// neighbours still share one sweep.
#[test]
fn batched_views_keep_their_compiled_method() {
    const XML: &str =
        "<db><p0><x>1</x></p0><p1><x>2</x></p1><p2><x>3</x></p2><p3><x>4</x></p3></db>";
    let server = Server::builder().threads(2).shards(1).build();
    server.load_doc_str("db", XML).unwrap();
    let mut views = Vec::new();
    for i in 0..4 {
        let flat =
            format!(r#"transform copy $a := doc("db") modify do delete $a/db/p{i} return $a"#);
        let deep = format!(
            r#"transform copy $a := doc("db") modify do delete $a/db/*[.//x = "{}"] return $a"#,
            i + 1
        );
        views.push((format!("flat{i}"), flat, Method::TopDown));
        views.push((format!("deep{i}"), deep, Method::TwoPass));
    }
    for (name, text, _) in &views {
        server.register_view(name, text).unwrap();
    }
    let requests: Vec<Request> = views
        .iter()
        .map(|(name, _, _)| Request::View {
            view: name.clone(),
            doc: "db".into(),
        })
        .collect();
    let base = Document::parse(XML).unwrap();
    for (r, (name, text, method)) in server.execute_batch(requests).into_iter().zip(&views) {
        let resp = r.expect("view serves");
        let parsed = xust::core::parse_transform(text).unwrap();
        let expected = evaluate(&base, &parsed, Method::Naive).unwrap().serialize();
        assert_eq!(resp.body, expected, "batched {name} diverged");
        assert_eq!(resp.method, Some(*method), "{name}");
    }
    let snap = server.stats();
    assert_eq!(snap.shared_passes, 1, "the GENTOP views share one sweep");
    assert_eq!(snap.shared_pass_views, 4);
}
