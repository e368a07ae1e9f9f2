//! The per-version serialized index behind in-memory `TRANSFORM`
//! replies: every reply equals a from-scratch `two_pass` over the
//! document as it stands, the index is built once per version that
//! gets a second TRANSFORM (never by a version's only TRANSFORM, nor by
//! VIEW, QUERY or UPDATE traffic), and racing TRANSFORMs of a fresh
//! version build it once.

use std::sync::{Arc, Barrier};
use std::thread;

use xust::core::{evaluate, parse_transform, Method};
use xust::serve::{DocSource, Request, Server};
use xust::tree::Document;
use xust::xmark::{generate, XmarkConfig};

/// One GENTOP insert of an escape-heavy element, one TD-BU delete (its
/// qualifier has a `//` step) and one rename.
const TRANSFORMS: [&str; 3] = [
    r#"transform copy $a := doc("db") modify do insert <mark k="&quot;&lt;">a &amp; b</mark> into $a/site/people/person return $a"#,
    r#"transform copy $a := doc("db") modify do delete $a/site/regions//item[description//keyword] return $a"#,
    r#"transform copy $a := doc("db") modify do rename $a//category as cat return $a"#,
];

/// The method each of [`TRANSFORMS`] compiles to.
const METHODS: [Method; 3] = [Method::TopDown, Method::TwoPass, Method::TopDown];

const UPDATE: &str = r#"transform copy $a := doc("db") modify do insert <note>x &lt; y</note> into $a/site/people return $a"#;

const VIEW: &str = r#"transform copy $a := doc("db") modify do delete $a/site/people return $a"#;

fn xmark() -> Document {
    generate(XmarkConfig::new(0.001))
}

fn server() -> Server {
    let server = Server::builder().threads(2).build();
    server.load_doc("db", xmark());
    server
}

fn current(server: &Server) -> Arc<Document> {
    match server.store().get("db") {
        Some(DocSource::Memory(d)) => d,
        _ => panic!("db is an in-memory document"),
    }
}

fn transform(server: &Server, query: &str) -> String {
    let request = Request::Transform {
        doc: "db".into(),
        query: query.into(),
    };
    server.handle(&request).expect("transform succeeds").body
}

/// Sends every transform and checks each reply against `two_pass` over
/// the stored document (which each transform changes).
fn transforms_agree(server: &Server) {
    let doc = current(server);
    for (query, method) in TRANSFORMS.iter().zip(METHODS) {
        let q = parse_transform(query).unwrap();
        let expected = evaluate(&doc, &q, Method::TwoPass).unwrap().serialize();
        assert_ne!(expected, doc.serialize(), "{query} selects nothing");
        let request = Request::Transform {
            doc: "db".into(),
            query: query.to_string(),
        };
        let reply = server.handle(&request).unwrap();
        assert_eq!(reply.method, Some(method), "{query}");
        assert_eq!(reply.body, expected, "{query}");
    }
}

fn builds(server: &Server) -> u64 {
    server.stats().serialized_builds
}

#[test]
fn replies_follow_every_version_with_one_build_each() {
    let server = server();
    assert_eq!(builds(&server), 0);
    transforms_agree(&server);
    assert_eq!(builds(&server), 1, "three transforms of one version");

    server.update_doc("db", UPDATE).unwrap();
    assert_eq!(builds(&server), 1, "an UPDATE builds nothing");
    let q = parse_transform(TRANSFORMS[1]).unwrap();
    let expected = evaluate(&current(&server), &q, Method::TwoPass).unwrap();
    assert_eq!(transform(&server, TRANSFORMS[1]), expected.serialize());
    assert_eq!(builds(&server), 1, "a version's first transform walks");

    server.update_doc("db", UPDATE).unwrap();
    transforms_agree(&server);
    assert_eq!(builds(&server), 2);

    let mut reloaded = xmark();
    let site = reloaded.root().unwrap();
    let extra = reloaded.create_text("reloaded &");
    reloaded.append_child(site, extra);
    server.load_doc("db", reloaded);
    transforms_agree(&server);
    assert_eq!(builds(&server), 3);
    assert!(transform(&server, TRANSFORMS[0]).contains("reloaded &amp;</site>"));
}

#[test]
fn view_query_and_update_traffic_build_no_index() {
    let server = server();
    server.register_view("nopeople", VIEW).unwrap();
    let view = Request::View {
        view: "nopeople".into(),
        doc: "db".into(),
    };
    let query = Request::Query {
        view: "nopeople".into(),
        doc: "db".into(),
        query: r#"<out>{ for $x in doc("db")/site/regions return $x }</out>"#.into(),
    };
    for _ in 0..2 {
        server.handle(&view).unwrap();
        server.handle(&query).unwrap();
        server.update_doc("db", UPDATE).unwrap();
    }
    server.handle(&view).unwrap();
    assert_eq!(builds(&server), 0);
    assert!(server.stats().to_string().contains(" serialized_builds=0"));
}

#[test]
fn racing_transforms_build_once() {
    let server = server();
    let expected = |server: &Server| {
        let q = parse_transform(TRANSFORMS[0]).unwrap();
        evaluate(&current(server), &q, Method::TwoPass)
            .unwrap()
            .serialize()
    };
    for round in 1..=4 {
        let want = expected(&server);
        // One racer takes the version's first TRANSFORM and walks; the
        // other two race for the build.
        let barrier = Arc::new(Barrier::new(3));
        let racers: Vec<_> = (0..3)
            .map(|_| {
                let (server, barrier) = (server.clone(), Arc::clone(&barrier));
                thread::spawn(move || {
                    barrier.wait();
                    transform(&server, TRANSFORMS[0])
                })
            })
            .collect();
        for racer in racers {
            assert_eq!(racer.join().unwrap(), want);
        }
        assert_eq!(builds(&server), round, "one build for version {round}");
        server.update_doc("db", UPDATE).unwrap();
    }
}
