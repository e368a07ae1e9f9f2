//! One counter table, three renderings: the `STATS` text, its JSON form
//! and the `METRICS` exposition are each parsed on their own and must
//! agree on every scalar row and every keyed row of the table, and the
//! `STATS` reply on the wire must keep every key the benchmark
//! (`xbench`) reads.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::sync::Mutex;

use xust::serve::{
    serve_pipelined, Family, PipelineOptions, Request, Server, Text, FAMILIES, SCALARS,
};

/// `interned_labels` reads the process-wide interner: the tests in
/// this binary take turns so one cannot mint labels while the other
/// compares renderings.
static INTERNER: Mutex<()> = Mutex::new(());

const NOPEOPLE: &str =
    r#"transform copy $a := doc("db") modify do delete $a/site/people return $a"#;
const NOPRICE: &str = r#"transform copy $a := doc("db") modify do delete $a//price return $a"#;
const DOC: &str = "<site><people><person><name>a</name></person></people>\
                   <regions><item><price>3</price><name>i</name></item></regions></site>";

/// `STATS` parsed by `xbench`'s rule: `section: k=v …`
/// lines become `section.k`, section-less tokens plain `k`, and a value
/// is its leading digits (units such as `µs` dropped).
fn parse_stats(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let (section, rest) = line.split_once(": ").unwrap_or(("", line));
        for tok in rest.split_whitespace() {
            let Some((k, v)) = tok.split_once('=') else {
                continue;
            };
            let num: String = v
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            if let Ok(x) = num.parse::<f64>() {
                let key = if section.is_empty() {
                    k.to_string()
                } else {
                    format!("{section}.{k}")
                };
                out.insert(key, x);
            }
        }
    }
    out
}

/// The JSON values `render_json` emits.
#[derive(Debug)]
enum Json {
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            other => panic!("not a number: {other:?}"),
        }
    }
}

/// A recursive-descent reader for the subset `render_json` produces
/// (objects, arrays, strings with `\"`/`\\` escapes, numbers).
fn parse_json(s: &str) -> Json {
    fn value(b: &[u8], i: &mut usize) -> Json {
        match b[*i] {
            b'{' => {
                *i += 1;
                let mut fields = Vec::new();
                while b[*i] != b'}' {
                    let Json::Str(k) = value(b, i) else {
                        panic!("object key at {i}")
                    };
                    assert_eq!(b[*i], b':');
                    *i += 1;
                    fields.push((k, value(b, i)));
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
                *i += 1;
                Json::Obj(fields)
            }
            b'[' => {
                *i += 1;
                let mut items = Vec::new();
                while b[*i] != b']' {
                    items.push(value(b, i));
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
                *i += 1;
                Json::Arr(items)
            }
            b'"' => {
                *i += 1;
                let mut out = Vec::new();
                while b[*i] != b'"' {
                    if b[*i] == b'\\' {
                        *i += 1;
                    }
                    out.push(b[*i]);
                    *i += 1;
                }
                *i += 1;
                Json::Str(String::from_utf8(out).unwrap())
            }
            _ => {
                let start = *i;
                while *i < b.len() && !matches!(b[*i], b',' | b'}' | b']') {
                    *i += 1;
                }
                Json::Num(std::str::from_utf8(&b[start..*i]).unwrap().parse().unwrap())
            }
        }
    }
    let mut i = 0;
    let v = value(s.as_bytes(), &mut i);
    assert_eq!(i, s.len(), "trailing input after the JSON object");
    v
}

/// `METRICS` series as `name` or `name{label="key"}` → value. Comment
/// lines are skipped; the summary family has several labels and is
/// keyed by its whole label set.
fn parse_prom(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| {
            let (series, v) = l.rsplit_once(' ').unwrap();
            (series.to_string(), v.parse().unwrap())
        })
        .collect()
}

/// The rows of `fam` in `METRICS`: key → one value per column.
fn prom_rows(prom: &BTreeMap<String, f64>, fam: &Family) -> BTreeMap<String, Vec<f64>> {
    let mut rows: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (i, col) in fam.cols.iter().enumerate() {
        let prefix = format!("xust_{}{{{}=\"", col.prom, fam.label);
        for (series, &v) in prom.range(prefix.clone()..) {
            let Some(key) = series.strip_prefix(&prefix) else {
                break;
            };
            let key = key.strip_suffix("\"}").unwrap().to_string();
            let row = rows.entry(key).or_insert_with(|| vec![0.0; fam.cols.len()]);
            row[i] = v;
        }
    }
    rows
}

fn same(what: &str, a: f64, b: f64) {
    // EWMAs print with 0 decimals in STATS and 1 elsewhere; every other
    // value is an exact integer.
    assert!((a - b).abs() <= 0.51, "{what}: {a} vs {b}");
}

#[test]
fn stats_json_and_metrics_agree_on_every_row() {
    let _turn = INTERNER.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::builder().threads(2).build();
    server.load_doc_str("db", DOC).unwrap();
    server.register_view("nopeople", NOPEOPLE).unwrap();
    server.register_view("noprice", NOPRICE).unwrap();
    for view in ["nopeople", "noprice"] {
        server
            .handle(&Request::View {
                view: view.into(),
                doc: "db".into(),
            })
            .unwrap();
    }
    server
        .handle(&Request::Query {
            view: "nopeople".into(),
            doc: "db".into(),
            query: r#"<out>{ for $x in doc("db")/site/regions return $x }</out>"#.into(),
        })
        .unwrap();
    server
        .handle(&Request::Transform {
            doc: "db".into(),
            query: NOPRICE.into(),
        })
        .unwrap();
    // A write at the document element: both cached entries fail the
    // relevance test, and the write's site is the root fragment, so
    // both are recomputed under reason `root`.
    server
        .handle(&Request::Update {
            doc: "db".into(),
            update: r#"transform copy $a := doc("db") modify do insert <price>4</price> into $a/site return $a"#.into(),
        })
        .unwrap();
    server
        .handle(&Request::View {
            view: "missing".into(),
            doc: "db".into(),
        })
        .unwrap_err();

    let prom = parse_prom(&server.metrics());
    let snap = server.stats();
    let text = snap.to_string();
    let stats = parse_stats(&text);
    let json = parse_json(&snap.render_json());
    let mut stats_keys_checked = 0;

    for row in SCALARS {
        let p = *prom
            .get(&format!("xust_{}", row.prom))
            .unwrap_or_else(|| panic!("METRICS lacks xust_{}", row.prom));
        if !row.stats.is_empty() {
            same(row.stats, stats[row.stats], p);
            stats_keys_checked += 1;
        }
        if !row.json.is_empty() {
            same(row.json, json.get(row.json).unwrap().num(), p);
        }
    }

    for fam in FAMILIES {
        let rows = prom_rows(&prom, fam);
        let json_rows: &[Json] = match json.get(fam.json) {
            Some(Json::Arr(items)) => items,
            None => {
                assert!(fam.json.is_empty(), "JSON lacks {}", fam.json);
                &[]
            }
            Some(other) => panic!("{} is not an array: {other:?}", fam.json),
        };
        let mut json_seen = 0;
        for (key, vals) in &rows {
            let zero = vals.iter().all(|&v| v == 0.0);
            // STATS.
            for (col, &v) in fam.cols.iter().zip(vals) {
                let stats_key = match fam.text {
                    Text::Hidden => continue,
                    Text::Inline(sec) => format!("{sec}.{key}"),
                    Text::Lines(prefix) => format!("{prefix} {key}.{}", col.stats),
                };
                match stats.get(&stats_key) {
                    Some(&s) => {
                        same(&stats_key, s, v);
                        stats_keys_checked += 1;
                    }
                    None => assert!(fam.sparse && zero, "STATS lacks {stats_key}"),
                }
            }
            // JSON.
            if fam.json.is_empty() {
                continue;
            }
            let obj = json_rows
                .iter()
                .find(|o| matches!(o.get(fam.label), Some(Json::Str(k)) if k == key));
            match obj {
                Some(obj) => {
                    json_seen += 1;
                    for (col, &v) in fam.cols.iter().zip(vals) {
                        let what = format!("{}[{key}].{}", fam.json, col.json);
                        same(&what, obj.get(col.json).unwrap().num(), v);
                    }
                }
                None => assert!(fam.sparse && zero, "JSON {} lacks {key}", fam.json),
            }
        }
        assert_eq!(
            json_seen,
            json_rows.len(),
            "JSON {} has rows METRICS lacks",
            fam.json
        );
    }
    // Nothing in STATS escapes the table.
    assert_eq!(
        stats_keys_checked,
        stats.len(),
        "STATS keys outside the table:\n{text}"
    );

    // The rows have real data: a failed verb, per-view and per-doc
    // maintenance rows, and recompute reasons that sum to the total.
    assert_eq!(prom["xust_verb_errors_total{verb=\"view\"}"], 1.0);
    for view in ["nopeople", "noprice"] {
        let key = format!("xust_view_delta_recomputed_total{{view=\"{view}\"}}");
        assert_eq!(prom[&key], 1.0, "{key}");
    }
    assert_eq!(prom["xust_doc_delta_recomputed_total{doc=\"db\"}"], 2.0);
    assert_eq!(prom["xust_recompute_fallback_total{reason=\"root\"}"], 2.0);
    let reasons: f64 = prom
        .iter()
        .filter(|(k, _)| k.starts_with("xust_recompute_fallback_total{"))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(reasons, prom["xust_delta_recomputed_total"]);
}

/// Every `section.key` `xbench/src/main.rs::counter_metrics` reads is in
/// the `STATS` reply a client gets over the line protocol.
#[test]
fn stats_reply_keeps_every_key_the_benchmark_reads() {
    let _turn = INTERNER.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::builder().threads(2).build();
    server.load_doc_str("db", DOC).unwrap();
    server.register_view("nopeople", NOPEOPLE).unwrap();
    server.register_view("noprice", NOPRICE).unwrap();
    let script = "VIEW nopeople db\nVIEW noprice db\n\
                  UPDATE db transform copy $a := doc(\"db\") modify do insert <x/> into $a/site return $a\n\
                  VIEW nopeople db\n\
                  TRANSFORM db transform copy $a := doc(\"db\") modify do delete $a//name return $a\n\
                  STATS\nQUIT\n";
    let mut out = Vec::new();
    serve_pipelined(
        &server,
        Cursor::new(script.as_bytes().to_vec()),
        &mut out,
        &PipelineOptions::default(),
    )
    .unwrap();
    let out = String::from_utf8(out).unwrap();
    // The last framed reply is STATS: `OK <len>\n<payload>\n`.
    let (head, tail) = out.rsplit_once("\nOK ").unwrap();
    assert!(!head.contains("ERR"), "{out}");
    let (len, body) = tail.split_once('\n').unwrap();
    let stats = parse_stats(&body[..len.parse::<usize>().unwrap()]);
    for key in [
        "cache.hits",
        "cache.misses",
        "updates.delta_retained",
        "updates.delta_patched",
        "updates.delta_recomputed",
        "updates.result_hits",
        "updates.result_misses",
        "batches.runs",
        "batches.items",
        "shared.passes",
        "shared.shared_pass_views",
        "methods.busy",
    ] {
        assert!(stats.contains_key(key), "STATS lacks {key}: {stats:?}");
    }
    // Method picks are `methods.<label>` with the paper's labels, and
    // nothing else shares the section with `busy`.
    let methods: Vec<&str> = stats
        .keys()
        .filter_map(|k| k.strip_prefix("methods."))
        .filter(|k| *k != "busy")
        .collect();
    assert_eq!(methods, ["GENTOP"], "{stats:?}");
}
