//! End-to-end observability: the METRICS exposition parses line by
//! line, histograms stay conserved under concurrency, TRACE captures a
//! slow request's phase breakdown, and EXPLAIN reports the method VIEW
//! and TRANSFORM then actually run.

use xust::serve::{LatencyHistogram, Method, Phase, Request, Server};

/// A memory document of `parts` parts (3 nodes per part + root).
fn big_doc(parts: usize) -> String {
    let mut xml = String::from("<db>");
    for i in 0..parts {
        xml.push_str(&format!("<part><price>{i}</price><n>p{i}</n></part>"));
    }
    xml.push_str("</db>");
    xml
}

fn view_query() -> &'static str {
    r#"transform copy $a := doc("db") modify do delete $a//price return $a"#
}

/// Validates one line of the Prometheus text exposition:
/// `name{label="v",…} value` (or a `#`-prefixed comment).
fn assert_metric_line(line: &str) {
    if let Some(comment) = line.strip_prefix('#') {
        assert!(comment.starts_with(' '), "malformed comment line: {line:?}");
        return;
    }
    let (series, value) = line
        .rsplit_once(' ')
        .unwrap_or_else(|| panic!("no value separator in {line:?}"));
    value
        .parse::<f64>()
        .unwrap_or_else(|e| panic!("unparseable value in {line:?}: {e}"));
    let name = match series.split_once('{') {
        Some((name, labels)) => {
            let labels = labels
                .strip_suffix('}')
                .unwrap_or_else(|| panic!("unterminated labels in {line:?}"));
            for pair in labels.split(',') {
                let (k, v) = pair
                    .split_once('=')
                    .unwrap_or_else(|| panic!("label without '=' in {line:?}"));
                assert!(
                    k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                    "bad label key {k:?} in {line:?}"
                );
                assert!(
                    v.len() >= 2 && v.starts_with('"') && v.ends_with('"'),
                    "unquoted label value {v:?} in {line:?}"
                );
            }
            name
        }
        None => series,
    };
    assert!(!name.is_empty(), "empty metric name in {line:?}");
    assert!(
        !name.starts_with(|c: char| c.is_ascii_digit()),
        "metric name starts with digit in {line:?}"
    );
    assert!(
        name.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "bad metric name {name:?} in {line:?}"
    );
}

#[test]
fn metrics_exposition_parses_and_covers_verbs_views_methods() {
    let server = Server::builder().threads(2).build();
    server.load_doc_str("db", &big_doc(40)).unwrap();
    server.register_view("public", view_query()).unwrap();
    // A mixed workload so every series family has data.
    server
        .handle(&Request::View {
            view: "public".into(),
            doc: "db".into(),
        })
        .unwrap();
    server
        .handle(&Request::View {
            view: "public".into(),
            doc: "db".into(),
        })
        .unwrap();
    server
        .handle(&Request::Query {
            view: "public".into(),
            doc: "db".into(),
            query: r#"<out>{ for $x in doc("db")/db/part return $x }</out>"#.into(),
        })
        .unwrap();
    server
        .handle(&Request::Transform {
            doc: "db".into(),
            query: view_query().into(),
        })
        .unwrap();
    server
        .handle(&Request::Update {
            doc: "db".into(),
            update: r#"transform copy $a := doc("db") modify do insert <x/> into $a/db return $a"#
                .into(),
        })
        .unwrap();
    server
        .handle(&Request::View {
            view: "nope".into(),
            doc: "db".into(),
        })
        .unwrap_err();

    let text = server.metrics();
    assert!(!text.is_empty());
    for line in text.lines().filter(|l| !l.is_empty()) {
        assert_metric_line(line);
    }
    // Per-verb counters, including the error and METRICS itself.
    assert!(text.contains("xust_verb_requests_total{verb=\"view\"} 3"));
    assert!(text.contains("xust_verb_errors_total{verb=\"view\"} 1"));
    assert!(text.contains("xust_verb_requests_total{verb=\"update\"} 1"));
    assert!(text.contains("xust_verb_requests_total{verb=\"metrics\"} 1"));
    // Latency summaries per verb, per view, and per method.
    assert!(text.contains("# TYPE xust_latency_micros summary"));
    for q in ["0.5", "0.9", "0.99"] {
        assert!(
            text.contains(&format!(
                "xust_latency_micros{{scope=\"verb\",key=\"view\",quantile=\"{q}\"}}"
            )),
            "missing verb quantile {q}: {text}"
        );
    }
    assert!(text.contains("xust_latency_micros{scope=\"view\",key=\"public\",quantile=\"0.5\"}"));
    assert!(text.contains("scope=\"method\""));
    assert!(text.contains("xust_method_executions_total"));
    // Gauges and cache counters ride along.
    assert!(text.contains("xust_store_docs"));
    assert!(text.contains("xust_prepared_cache_hits{cache=\"transforms\"}"));
}

#[test]
fn histograms_conserve_count_and_sum_under_concurrency() {
    use std::sync::Arc;
    let hist = Arc::new(LatencyHistogram::new());
    let reference = LatencyHistogram::new();
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let sample = |t: u64, i: u64| (t * 131 + i * 17) % 250_000 + 1;
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let hist = Arc::clone(&hist);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    hist.record(sample(t, i));
                }
            })
        })
        .collect();
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            reference.record(sample(t, i));
        }
    }
    for w in workers {
        w.join().unwrap();
    }
    let (got, want) = (hist.snapshot(), reference.snapshot());
    assert_eq!(got.count, THREADS * PER_THREAD);
    assert_eq!(got.sum, want.sum, "sum lost under concurrency");
    assert_eq!(got.max, want.max);
    // Quantiles land in exactly the same buckets: recording is
    // commutative, so the concurrent histogram equals the serial one.
    assert_eq!((got.p50, got.p90, got.p99), (want.p50, want.p90, want.p99));
}

#[test]
fn trace_captures_slow_request_phase_breakdown() {
    let server = Server::builder().threads(2).build();
    server.load_doc_str("db", &big_doc(3000)).unwrap();
    server.register_view("public", view_query()).unwrap();
    server
        .handle(&Request::View {
            view: "public".into(),
            doc: "db".into(),
        })
        .unwrap();

    let traces = server.obs().recent_traces(8);
    let view = traces
        .iter()
        .find(|t| t.target == "public/db")
        .expect("view request was traced");
    assert!(view.ok);
    assert!(view.micros > 0);
    assert!(
        view.phases().iter().any(|(p, _)| *p == Phase::Eval),
        "no Eval phase in {:?}",
        view.phases()
    );
    // The phase breakdown accounts for the request: each phase fits
    // inside the total, and together they cover most of it (the
    // remainder is dispatch glue between the bracketed sections).
    let phase_sum: u64 = view.phases().iter().map(|&(_, us)| us).sum();
    assert!(
        phase_sum <= view.micros + view.micros / 5 + 50,
        "phases sum to {phase_sum}µs but the request took {}µs",
        view.micros
    );
    assert!(
        phase_sum * 2 >= view.micros,
        "phases cover only {phase_sum}µs of {}µs",
        view.micros
    );
    // The materialization was slow enough to make the slow log, and the
    // rendered TRACE output carries the breakdown.
    assert!(server
        .obs()
        .slowest_traces()
        .iter()
        .any(|t| t.seq == view.seq));
    let rendered = server.traces(8);
    assert!(rendered.contains("view public/db"), "{rendered}");
    assert!(rendered.contains("phases["), "{rendered}");
    assert!(rendered.contains("slowest:"), "{rendered}");
}

#[test]
fn tracing_disabled_records_nothing_but_serves_metrics() {
    let server = Server::builder().threads(2).tracing(false).build();
    server.load_doc_str("db", &big_doc(20)).unwrap();
    server.register_view("public", view_query()).unwrap();
    server
        .handle(&Request::View {
            view: "public".into(),
            doc: "db".into(),
        })
        .unwrap();
    assert_eq!(server.obs().requests_traced(), 0);
    assert!(server.obs().recent_traces(8).is_empty());
    assert!(server.traces(8).contains("tracing disabled"));
    // Counters are unconditional: METRICS still reflects the request.
    let text = server.metrics();
    for line in text.lines().filter(|l| !l.is_empty()) {
        assert_metric_line(line);
    }
    assert!(text.contains("xust_verb_requests_total{verb=\"view\"} 1"));
}

/// The embedded paths U1–U10 of the paper's Fig. 11.
const U: [&str; 10] = [
    "/site/people/person",
    "/site/people/person[@id = \"person10\"]",
    "/site/people/person[profile/age > 20]",
    "/site/regions//item",
    "/site//description",
    "/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword",
    "/site/open_auctions/open_auction[bidder/increase>5]/annotation[happiness < 20]/description//text",
    "/site/open_auctions/open_auction[initial > 10 and reserve >50]/bidder",
    "/site/regions//item[location =\"United States\"]",
    "/site//open_auctions/open_auction[not(@id =\"open_auction2\")]/bidder[increase > 10]",
];

fn insert_into(path: &str) -> String {
    format!(r#"transform copy $a := doc("xmark") modify do insert <m/> into $a{path} return $a"#)
}

/// Registers `path` as a view, EXPLAINs it, then asserts that the
/// method EXPLAIN names is the one a VIEW and a TRANSFORM of the same
/// query report, and that it is `expected`.
fn assert_explain_matches(server: &Server, doc: &str, name: &str, path: &str, expected: Method) {
    let query = insert_into(path);
    server.register_view(name, &query).unwrap();
    let explanation = server.explain(name, doc).unwrap();
    assert_eq!(explanation.links.len(), 1, "{name}: {explanation}");
    let predicted = explanation.links[0].method;
    assert_eq!(predicted, expected, "{name} ({path}): {explanation}");
    let view = server
        .handle(&Request::View {
            view: name.into(),
            doc: doc.into(),
        })
        .unwrap();
    assert_eq!(view.method, Some(predicted), "VIEW {name} ({path})");
    let transform = server
        .handle(&Request::Transform {
            doc: doc.into(),
            query,
        })
        .unwrap();
    assert_eq!(
        transform.method,
        Some(predicted),
        "TRANSFORM {name} ({path})"
    );
}

#[test]
fn explain_predicts_the_method_the_planner_then_picks() {
    // A cold server: the method is fixed when a transform compiles, so
    // EXPLAIN must agree with the first VIEW and TRANSFORM, unwarmed.
    let xml = xust::xmark::generate_string(xust::xmark::XmarkConfig::new(0.002).with_seed(3));
    let server = Server::builder().threads(1).build();
    server.load_doc_str("xmark", &xml).unwrap();
    for (i, path) in U.iter().enumerate() {
        assert_explain_matches(
            &server,
            "xmark",
            &format!("u{}", i + 1),
            path,
            Method::TopDown,
        );
    }
    // A qualifier with a `//` step is the one shape sent to TD-BU.
    assert_explain_matches(
        &server,
        "xmark",
        "deepq",
        "//*[.//keyword]",
        Method::TwoPass,
    );
    let explanation = server.explain("deepq", "xmark").unwrap().to_string();
    assert!(explanation.contains("(qualifier with //)"), "{explanation}");
    assert!(server
        .explain("u1", "xmark")
        .unwrap()
        .to_string()
        .contains("(default)"));

    // A file-backed document streams, whatever the path's shape.
    let path = std::env::temp_dir().join(format!("xust_explain_{}.xml", std::process::id()));
    std::fs::write(&path, &xml).unwrap();
    server.load_doc_file("xmark_file", &path).unwrap();
    for (name, p) in [("f_u3", U[2]), ("f_deepq", "//*[.//keyword]")] {
        assert_explain_matches(&server, "xmark_file", name, p, Method::TwoPassSax);
    }
    std::fs::remove_file(&path).ok();

    // EXPLAIN executes nothing and never perturbs the plan: asking
    // again agrees, and the method counters did not move.
    let before = server.stats().per_method;
    assert_eq!(
        server.explain("deepq", "xmark").unwrap().links[0].method,
        Method::TwoPass
    );
    assert_eq!(server.stats().per_method, before);
}

#[test]
fn explain_and_view_agree_on_dead_views() {
    const XML: &str = "<db><part><price>9</price></part></db>";
    let server = Server::builder().threads(1).build();
    server.load_doc_str("db", XML).unwrap();
    server
        .register_view(
            "deadv",
            r#"transform copy $a := doc("db") modify do delete $a/db[label() = nope]//part return $a"#,
        )
        .unwrap();
    let explanation = server.explain("deadv", "db").unwrap();
    let view = server
        .handle(&Request::View {
            view: "deadv".into(),
            doc: "db".into(),
        })
        .unwrap();
    // VIEW serves the base document and evaluates nothing; EXPLAIN
    // says exactly that, with no planned link and no cache probe.
    assert_eq!(view.body, XML);
    assert_eq!(view.method, None);
    assert!(explanation.dead);
    assert!(explanation.links.is_empty(), "{explanation}");
    assert_eq!(explanation.result_cached, None);
    let text = explanation.to_string();
    assert!(text.contains("dead (serves the base document)"), "{text}");
    assert!(!text.contains("link 0"), "{text}");
    // A live view of the same document still plans a link.
    server
        .register_view(
            "livev",
            r#"transform copy $a := doc("db") modify do delete $a/db/part return $a"#,
        )
        .unwrap();
    let live = server.explain("livev", "db").unwrap();
    assert!(!live.dead);
    assert_eq!(live.links.len(), 1);
}
