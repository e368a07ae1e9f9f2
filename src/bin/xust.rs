//! `xust` — command-line front end for transform queries.
//!
//! ```text
//! xust transform -q 'transform copy $a := doc("d") modify do delete $a//price return $a' \
//!                -i catalog.xml [-o out.xml] [--method dom|stream|naive|copy]
//! xust compose   -q '<transform …>' -u 'for $x in doc("d")/db/part return $x' \
//!                -i catalog.xml [--stream]
//! xust generate  --factor 0.1 [--seed 1] -o xmark.xml
//! xust validate  -i file.xml
//! xust exec      -q <transform|@file> -i catalog.xml [--stats]
//! xust serve     --doc db=catalog.xml --view 'public=@view.xq' [--port 7878 | --stdio]
//! ```
//!
//! `-q`/`-u` accept either inline text or `@path/to/file`. Multi-update
//! transforms (`modify do (u1, u2, …)`) are detected automatically and
//! routed to the fused multi-automaton (DOM) or the streaming
//! multi-pass (stream) evaluator.
//!
//! `exec` runs a transform through `xust-serve` with the method fixed
//! at compile time (printing it with `--stats`); `serve` starts the
//! concurrent view service speaking a line protocol over TCP or
//! stdin/stdout (see [`serve_connection`]).

use std::io::{BufRead, Write};
use std::process::ExitCode;

use xust::compose::{compose, compose_sax_files, compose_sax_str, UserQuery};
use xust::core::{
    multi_top_down, multi_two_pass_sax_files, multi_two_pass_sax_str, parse_multi_transform,
    two_pass_sax_files, two_pass_sax_str, LdStorage, Method, MultiTransformQuery, TransformQuery,
};
use xust::sax::SaxParser;
use xust::serve::{serve_pipelined, PipelineOptions, Request, Server};
use xust::tree::Document;
use xust::xmark::{generate_to_file, XmarkConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xust: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(USAGE.trim().to_string());
    };
    let opts = Opts::parse(&args[1..])?;
    match cmd.as_str() {
        "transform" => cmd_transform(&opts),
        "compose" => cmd_compose(&opts),
        "generate" => cmd_generate(&opts),
        "validate" => cmd_validate(&opts),
        "exec" => cmd_exec(&opts),
        "stream" => cmd_stream(&opts),
        "serve" => cmd_serve(&opts),
        "help" | "--help" | "-h" => {
            println!("{}", USAGE.trim());
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{}", USAGE.trim())),
    }
}

const USAGE: &str = r#"
usage:
  xust transform -q <query|@file> -i <input.xml> [-o <out.xml>] [--method dom|stream|naive|copy]
  xust compose   -q <transform|@file> -u <user-query|@file> -i <input.xml> [-o <out.xml>] [--stream]
  xust generate  --factor <f> [--seed <n>] -o <out.xml>
  xust validate  -i <input.xml>
  xust exec      -q <transform|@file> -i <input.xml> [-o <out.xml>] [--stats] [--stats-json]
  xust stream    -q <transform|@file> -i <input.xml> [-o <out.xml>] [--stats] [--stats-json]
  xust serve     [--doc <name>=<path>]… [--view <name>=<query|@file>]…
                 [--port <p> | --stdio] [--threads <n>] [--shards <n>] [--no-trace]
                 [--wal <path> | --no-wal]

serve protocol (one request per line, answers framed as `OK <len>`/`ERR <msg>`;
requests may be pipelined — replies always come back in request order, and
write verbs act as barriers, so a read after an UPDATE sees the update):
  VIEW <view> <doc>               materialize a registered view
  QUERY <view> <doc> <xquery…>    answer a user query over the virtual view
  TRANSFORM <doc> <transform…>    run an ad-hoc transform through the prepared cache
  UPDATE <doc> <transform…>       apply the embedded update(s) to the stored doc
                                  (COW version bump + delta-aware cache maintenance)
  LOAD <doc> <path>               load or reload a document from a server-side file
                                  (purges exactly that doc's cached view results)
  REMOVE <doc>                    unload a document (and its cached view results)
  STREAM <doc> <transform…>       stream a file-backed doc through a session;
                                  output arrives incrementally as `OUT <len>`
                                  frames followed by `DONE <total>`
  METRICS                         Prometheus-style text exposition of every
                                  counter, gauge, and latency histogram
  TRACE [n]                       the n most recent request traces (default 8)
                                  plus the slowest requests, phase by phase
  EXPLAIN <view> <doc>            the method each link of <view> runs over <doc>
                                  and why (GENTOP by default, TD-BU for a
                                  qualifier with //, twoPassSAX for a file-backed
                                  doc), plus result-cache state — without executing
  ANALYZE <view>                  the registration-time static analysis of
                                  <view>: satisfiability (dead views), NFA
                                  dead states, folded qualifiers, alphabet,
                                  and its cache family — without executing
  STATS | LIST | QUIT

durability: --wal <path> attaches a write-ahead log — every applied
UPDATE/LOAD/REMOVE is logged before its reply, and on start the log is
replayed (documents named by both the log and --doc keep their recovered
state). --no-wal wins over --wal.
"#;

/// Parsed command-line options (shared across subcommands).
#[derive(Debug, Default, PartialEq)]
struct Opts {
    query: Option<String>,
    user_query: Option<String>,
    input: Option<String>,
    output: Option<String>,
    method: Option<String>,
    stream: bool,
    factor: Option<f64>,
    seed: Option<u64>,
    stats: bool,
    stats_json: bool,
    no_trace: bool,
    stdio: bool,
    wal: Option<String>,
    no_wal: bool,
    port: Option<u16>,
    threads: Option<usize>,
    shards: Option<usize>,
    docs: Vec<(String, String)>,
    views: Vec<(String, String)>,
}

impl Opts {
    /// Hand-rolled flag parser: `-q/-u/-i/-o/--method/--factor/--seed`
    /// take values, `--stream` is boolean. `@file` values are loaded.
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts::default();
        let mut it = args.iter();
        let value = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        while let Some(a) = it.next() {
            match a.as_str() {
                "-q" | "--query" => o.query = Some(load_arg(&value(a, &mut it)?)?),
                "-u" | "--user-query" => o.user_query = Some(load_arg(&value(a, &mut it)?)?),
                "-i" | "--input" => o.input = Some(value(a, &mut it)?),
                "-o" | "--output" => o.output = Some(value(a, &mut it)?),
                "--method" => o.method = Some(value(a, &mut it)?),
                "--stream" => o.stream = true,
                "--factor" => {
                    o.factor = Some(
                        value(a, &mut it)?
                            .parse()
                            .map_err(|e| format!("--factor: {e}"))?,
                    )
                }
                "--seed" => {
                    o.seed = Some(
                        value(a, &mut it)?
                            .parse()
                            .map_err(|e| format!("--seed: {e}"))?,
                    )
                }
                "--stats" => o.stats = true,
                "--stats-json" => o.stats_json = true,
                "--no-trace" => o.no_trace = true,
                "--stdio" => o.stdio = true,
                "--wal" => o.wal = Some(value(a, &mut it)?),
                "--no-wal" => o.no_wal = true,
                "--port" => {
                    o.port = Some(
                        value(a, &mut it)?
                            .parse()
                            .map_err(|e| format!("--port: {e}"))?,
                    )
                }
                "--threads" => {
                    o.threads = Some(
                        value(a, &mut it)?
                            .parse()
                            .map_err(|e| format!("--threads: {e}"))?,
                    )
                }
                "--shards" => {
                    o.shards = Some(
                        value(a, &mut it)?
                            .parse()
                            .map_err(|e| format!("--shards: {e}"))?,
                    )
                }
                "--doc" => o.docs.push(parse_pair("--doc", &value(a, &mut it)?)?),
                "--view" => {
                    let (name, v) = parse_pair("--view", &value(a, &mut it)?)?;
                    o.views.push((name, load_arg(&v)?));
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(o)
    }
}

/// `@path` loads a file; anything else is taken verbatim.
fn load_arg(v: &str) -> Result<String, String> {
    match v.strip_prefix('@') {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}")),
        None => Ok(v.to_string()),
    }
}

/// Splits a `name=value` flag argument.
fn parse_pair(flag: &str, v: &str) -> Result<(String, String), String> {
    match v.split_once('=') {
        Some((name, value)) if !name.is_empty() && !value.is_empty() => {
            Ok((name.to_string(), value.to_string()))
        }
        _ => Err(format!("{flag} takes <name>=<value>, got '{v}'")),
    }
}

fn require<'a>(v: &'a Option<String>, what: &str) -> Result<&'a str, String> {
    v.as_deref().ok_or_else(|| format!("missing {what}"))
}

/// Routes the parsed multi-transform: singleton lists use the
/// single-update machinery (slightly leaner), larger ones the fused
/// multi plans.
enum AnyTransform {
    Single(TransformQuery),
    Multi(MultiTransformQuery),
}

fn parse_any_transform(text: &str) -> Result<AnyTransform, String> {
    let mq = parse_multi_transform(text).map_err(|e| e.to_string())?;
    if mq.updates.len() == 1 {
        let mut mq = mq;
        let (path, op) = mq.updates.remove(0);
        Ok(AnyTransform::Single(TransformQuery {
            var: mq.var,
            doc_name: mq.doc_name,
            path,
            op,
        }))
    } else {
        Ok(AnyTransform::Multi(mq))
    }
}

fn emit(output: &Option<String>, text: &str) -> Result<(), String> {
    match output {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("{path}: {e}")),
        None => {
            let mut stdout = std::io::stdout().lock();
            stdout
                .write_all(text.as_bytes())
                .and_then(|_| stdout.write_all(b"\n"))
                .map_err(|e| e.to_string())
        }
    }
}

fn cmd_transform(o: &Opts) -> Result<(), String> {
    let query = require(&o.query, "-q <transform query>")?;
    let input = require(&o.input, "-i <input.xml>")?;
    let method = o.method.as_deref().unwrap_or("dom");
    let q = parse_any_transform(query)?;

    if method == "stream" {
        // File→file when both ends are files; otherwise via strings.
        return match (&q, &o.output) {
            (AnyTransform::Single(q), Some(out)) => {
                two_pass_sax_files(input, q, out, LdStorage::TempFile)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            }
            (AnyTransform::Multi(q), Some(out)) => {
                multi_two_pass_sax_files(input, q, out, LdStorage::TempFile)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            }
            (q, None) => {
                let xml = std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
                let result = match q {
                    AnyTransform::Single(q) => two_pass_sax_str(&xml, q),
                    AnyTransform::Multi(q) => multi_two_pass_sax_str(&xml, q),
                }
                .map_err(|e| e.to_string())?;
                emit(&None, &result)
            }
        };
    }

    let xml = std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
    let doc = Document::parse(&xml).map_err(|e| e.to_string())?;
    let result = match (&q, method) {
        (AnyTransform::Single(q), "dom") => {
            xust::core::evaluate(&doc, q, Method::TwoPass).map_err(|e| e.to_string())?
        }
        (AnyTransform::Single(q), "naive") => {
            xust::core::evaluate(&doc, q, Method::Naive).map_err(|e| e.to_string())?
        }
        (AnyTransform::Single(q), "copy") => {
            xust::core::evaluate(&doc, q, Method::CopyUpdate).map_err(|e| e.to_string())?
        }
        (AnyTransform::Multi(q), "dom") => multi_top_down(&doc, q),
        (AnyTransform::Multi(_), m) => {
            return Err(format!(
                "multi-update transforms support --method dom|stream, not '{m}'"
            ))
        }
        (_, m) => return Err(format!("unknown method '{m}' (dom|stream|naive|copy)")),
    };
    emit(&o.output, &result.serialize())
}

fn cmd_compose(o: &Opts) -> Result<(), String> {
    let query = require(&o.query, "-q <transform query>")?;
    let user = require(&o.user_query, "-u <user query>")?;
    let input = require(&o.input, "-i <input.xml>")?;
    let AnyTransform::Single(qt) = parse_any_transform(query)? else {
        return Err("composition takes a single-update transform".into());
    };
    let uq = UserQuery::parse(user).map_err(|e| e.to_string())?;

    if o.stream {
        return match &o.output {
            Some(out) => compose_sax_files(input, &qt, &uq, out)
                .map(|_| ())
                .map_err(|e| e.to_string()),
            None => {
                let xml = std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
                let result = compose_sax_str(&xml, &qt, &uq).map_err(|e| e.to_string())?;
                emit(&None, &result)
            }
        };
    }

    let xml = std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
    let doc = Document::parse(&xml).map_err(|e| e.to_string())?;
    let qc = compose(&qt, &uq).map_err(|e| e.to_string())?;
    let result = qc.execute_to_string(&doc).map_err(|e| e.to_string())?;
    emit(&o.output, &result)
}

fn cmd_generate(o: &Opts) -> Result<(), String> {
    let factor = o.factor.ok_or("missing --factor")?;
    let output = require(&o.output, "-o <out.xml>")?;
    let mut cfg = XmarkConfig::new(factor);
    if let Some(seed) = o.seed {
        cfg = cfg.with_seed(seed);
    }
    generate_to_file(cfg, output).map_err(|e| e.to_string())?;
    let size = std::fs::metadata(output).map(|m| m.len()).unwrap_or(0);
    eprintln!("wrote {output} ({size} bytes)");
    Ok(())
}

fn cmd_validate(o: &Opts) -> Result<(), String> {
    let input = require(&o.input, "-i <input.xml>")?;
    let mut parser = SaxParser::from_file(input).map_err(|e| e.to_string())?;
    let mut elements = 0u64;
    let mut depth = 0usize;
    let mut max_depth = 0usize;
    loop {
        match parser.next_event() {
            Ok(Some(xust::sax::SaxEvent::StartElement { .. })) => {
                elements += 1;
                depth += 1;
                max_depth = max_depth.max(depth);
            }
            Ok(Some(xust::sax::SaxEvent::EndElement(_))) => depth -= 1,
            Ok(Some(_)) => {}
            Ok(None) => break,
            Err(e) => return Err(format!("{input}: {e}")),
        }
    }
    println!("{input}: well-formed, {elements} elements, depth {max_depth}");
    Ok(())
}

/// `exec`: one-shot execution through the serving layer.
fn cmd_exec(o: &Opts) -> Result<(), String> {
    let query = require(&o.query, "-q <transform query>")?;
    let input = require(&o.input, "-i <input.xml>")?;
    let server = Server::builder()
        .threads(o.threads.unwrap_or(1))
        .tracing(!o.no_trace)
        .build();
    // `--stream` keeps the input file-backed (the server then streams it
    // with twoPassSAX); otherwise parse once for the DOM methods.
    if o.stream {
        server
            .load_doc_file("doc", input)
            .map_err(|e| e.to_string())?;
    } else {
        let doc = Document::parse_file(input).map_err(|e| format!("{input}: {e}"))?;
        server.load_doc("doc", doc);
    }
    let resp = server
        .handle(&Request::Transform {
            doc: "doc".into(),
            query: query.into(),
        })
        .map_err(|e| e.to_string())?;
    let method = resp
        .method
        .map(|m| m.to_string())
        .unwrap_or_else(|| "-".into());
    if o.stats {
        eprintln!(
            "method={method} micros={} cache_hit={}",
            resp.micros, resp.cache_hit
        );
        eprintln!("{}", server.stats());
    }
    if o.stats_json {
        // One machine-readable object on stderr; stdout stays the
        // transform result alone so pipelines keep working.
        eprintln!(
            "{{\"command\":\"exec\",\"method\":\"{}\",\"micros\":{},\"cache_hit\":{},\"stats\":{}}}",
            xust::serve::json_escape(&method),
            resp.micros,
            resp.cache_hit,
            server.stats().render_json()
        );
    }
    emit(&o.output, &resp.body)
}

/// `stream`: drive a streaming session over a file, writing transformed
/// output incrementally — the input tree is never materialized.
fn cmd_stream(o: &Opts) -> Result<(), String> {
    let query = require(&o.query, "-q <transform query>")?;
    let input = require(&o.input, "-i <input.xml>")?;
    let server = Server::builder().threads(1).build();
    let mut session = server.begin_stream(query).map_err(|e| e.to_string())?;

    let mut parser = SaxParser::from_file(input).map_err(|e| format!("{input}: {e}"))?;
    while let Some(ev) = parser.next_event().map_err(|e| format!("{input}: {e}"))? {
        session.feed(ev).map_err(|e| e.to_string())?;
    }
    session.begin_replay().map_err(|e| e.to_string())?;

    let mut out: Box<dyn Write> = match &o.output {
        Some(path) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?,
        )),
        None => Box::new(std::io::stdout().lock()),
    };
    let mut parser = SaxParser::from_file(input).map_err(|e| format!("{input}: {e}"))?;
    while let Some(ev) = parser.next_event().map_err(|e| format!("{input}: {e}"))? {
        let chunk = session.replay(ev).map_err(|e| e.to_string())?;
        out.write_all(&chunk).map_err(|e| e.to_string())?;
    }
    let emitted = session.bytes_emitted();
    let (tail, stats) = session.finish().map_err(|e| e.to_string())?;
    out.write_all(&tail).map_err(|e| e.to_string())?;
    if o.output.is_none() {
        out.write_all(b"\n").map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())?;
    let bytes = emitted + tail.len() as u64;
    if o.stats {
        eprintln!(
            "elements={} ld_entries={} max_depth={} bytes={}",
            stats.elements, stats.ld_entries, stats.max_depth, bytes
        );
    }
    if o.stats_json {
        eprintln!(
            "{{\"command\":\"stream\",\"elements\":{},\"ld_entries\":{},\"max_depth\":{},\"bytes\":{}}}",
            stats.elements, stats.ld_entries, stats.max_depth, bytes
        );
    }
    Ok(())
}

/// `serve`: the concurrent view service over TCP or stdio.
fn cmd_serve(o: &Opts) -> Result<(), String> {
    let wal = if o.no_wal { None } else { o.wal.as_deref() };
    if o.docs.is_empty() && wal.is_none() {
        return Err("serve needs at least one --doc <name>=<path>".into());
    }
    let server = Server::builder()
        .threads(o.threads.unwrap_or(4))
        .shards(o.shards.unwrap_or(8))
        .tracing(!o.no_trace)
        .build();
    // Recovery first: the write-ahead log replays every applied write
    // since it was started, then attaches so new writes are logged.
    // Documents it recreates are *newer* than their --doc seed files,
    // so the seeding below skips names the log already recovered.
    if let Some(path) = wal {
        let rec = server
            .attach_wal(path)
            .map_err(|e| format!("wal {path}: {e}"))?;
        if rec.applied > 0 || rec.truncated {
            eprintln!(
                "xust-serve: wal replay from {path}: recovered={} truncated={}{}",
                rec.applied,
                rec.truncated,
                if rec.truncated {
                    " (dropped a torn tail)"
                } else {
                    ""
                }
            );
        }
    }
    for (name, path) in &o.docs {
        if server.store().get(name).is_some() {
            eprintln!("xust-serve: '{name}' recovered from the WAL; skipping --doc seed {path}");
            continue;
        }
        // Documents small enough to parse eagerly are shared in memory;
        // callers opting into streaming keep them file-backed.
        if o.stream {
            server
                .load_doc_file(name, path)
                .map_err(|e| e.to_string())?;
        } else {
            let doc = Document::parse_file(path).map_err(|e| format!("{path}: {e}"))?;
            server
                .try_load_doc(name.as_str(), doc)
                .map_err(|e| e.to_string())?;
        }
    }
    for (name, query) in &o.views {
        server
            .register_view(name, query)
            .map_err(|e| e.to_string())?;
        // Registration-time analysis already ran; a dead view is almost
        // certainly a typo in the query — serve it (as the identity
        // transform) but tell the operator now, not at request time.
        if let Ok(a) = server.analyze(name) {
            if a.dead {
                eprintln!(
                    "xust-serve: warning: view '{name}' is statically dead \
                     (no rule can ever select a node; it serves the base document)"
                );
            }
        }
    }
    if o.stdio || o.port.is_none() {
        // The pipelined loop's reader runs on its own thread, so it
        // needs an owned (Send) handle — `StdinLock` is not one.
        let stdin = std::io::BufReader::new(std::io::stdin());
        let stdout = std::io::stdout().lock();
        serve_connection(&server, stdin, stdout).map_err(|e| e.to_string())?;
        return Ok(());
    }
    let port = o.port.expect("checked above");
    let listener = std::net::TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("bind 127.0.0.1:{port}: {e}"))?;
    eprintln!(
        "xust-serve listening on 127.0.0.1:{port} (docs: {}, views: {})",
        server.doc_names().join(","),
        server.view_names().join(",")
    );
    for conn in listener.incoming() {
        // A failed accept (ECONNABORTED, EMFILE, …) affects one client;
        // the daemon and its other connections must survive it.
        let stream = match conn {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xust-serve: accept failed: {e}");
                continue;
            }
        };
        // Nagle + delayed-ACK adds avoidable latency to every small
        // request/reply round trip; replies are already batched through
        // a buffered writer, so there is nothing for Nagle to save.
        if let Err(e) = stream.set_nodelay(true) {
            eprintln!("xust-serve: set_nodelay failed: {e}");
        }
        let server = server.clone();
        std::thread::spawn(move || {
            let reader = std::io::BufReader::new(match stream.try_clone() {
                Ok(s) => s,
                Err(e) => {
                    // Like a failed accept this costs one client, and
                    // it must be just as visible: a log line for the
                    // operator plus the `conn` error counter METRICS
                    // exports.
                    eprintln!("xust-serve: connection setup failed: {e}");
                    server.record_conn_failure();
                    return;
                }
            });
            let _ = serve_connection(&server, reader, stream);
        });
    }
    Ok(())
}

/// Drives one client connection of the line protocol (see `USAGE`).
/// Returns when the client sends `QUIT` or closes the stream.
///
/// This is a thin front over [`serve_pipelined`]: a reader thread
/// decodes (length-capped) request lines continuously, consecutive
/// read-only requests ride the batch executor as one grouped batch,
/// and replies come back strictly in request order through a buffered
/// writer — see the `xust_serve::pipeline` module docs for the exact
/// pipelining and barrier semantics.
fn serve_connection(
    server: &Server,
    reader: impl BufRead + Send,
    writer: impl Write,
) -> std::io::Result<()> {
    serve_pipelined(server, reader, writer, &PipelineOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_flags() {
        let o = Opts::parse(&s(&[
            "-q", "qtext", "-i", "in.xml", "-o", "out.xml", "--method", "stream",
        ]))
        .unwrap();
        assert_eq!(o.query.as_deref(), Some("qtext"));
        assert_eq!(o.input.as_deref(), Some("in.xml"));
        assert_eq!(o.output.as_deref(), Some("out.xml"));
        assert_eq!(o.method.as_deref(), Some("stream"));
        assert!(!o.stream);
    }

    #[test]
    fn parse_stream_and_numbers() {
        let o = Opts::parse(&s(&["--stream", "--factor", "0.25", "--seed", "7"])).unwrap();
        assert!(o.stream);
        assert_eq!(o.factor, Some(0.25));
        assert_eq!(o.seed, Some(7));
    }

    #[test]
    fn parse_rejects_unknown_and_dangling() {
        assert!(Opts::parse(&s(&["--nope"])).is_err());
        assert!(Opts::parse(&s(&["-q"])).is_err());
        assert!(Opts::parse(&s(&["--factor", "abc"])).is_err());
    }

    #[test]
    fn at_file_loading() {
        let p = std::env::temp_dir().join("xust_cli_q.txt");
        std::fs::write(&p, "query from file").unwrap();
        let loaded = load_arg(&format!("@{}", p.display())).unwrap();
        assert_eq!(loaded, "query from file");
        assert!(load_arg("@/no/such/file").is_err());
        assert_eq!(load_arg("inline").unwrap(), "inline");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn parse_serve_flags() {
        let o = Opts::parse(&s(&[
            "--doc",
            "db=catalog.xml",
            "--doc",
            "aux=other.xml",
            "--view",
            "public=inline query",
            "--port",
            "7878",
            "--threads",
            "8",
            "--shards",
            "16",
            "--stats",
            "--stdio",
        ]))
        .unwrap();
        assert_eq!(o.docs.len(), 2);
        assert_eq!(o.docs[0], ("db".into(), "catalog.xml".into()));
        assert_eq!(o.views, vec![("public".into(), "inline query".into())]);
        assert_eq!(o.port, Some(7878));
        assert_eq!(o.threads, Some(8));
        assert_eq!(o.shards, Some(16));
        assert!(o.stats && o.stdio);
        assert!(Opts::parse(&s(&["--doc", "nosign"])).is_err());
        assert!(Opts::parse(&s(&["--view", "=empty"])).is_err());
    }

    #[test]
    fn parse_wal_flags() {
        let o = Opts::parse(&s(&["--wal", "/tmp/x.wal"])).unwrap();
        assert_eq!(o.wal.as_deref(), Some("/tmp/x.wal"));
        assert!(!o.no_wal);
        let o = Opts::parse(&s(&["--wal", "/tmp/x.wal", "--no-wal"])).unwrap();
        assert!(o.no_wal);
        assert!(Opts::parse(&s(&["--wal"])).is_err(), "--wal needs a value");
    }

    #[test]
    fn parse_observability_flags() {
        let o = Opts::parse(&s(&["--stats-json", "--no-trace"])).unwrap();
        assert!(o.stats_json);
        assert!(o.no_trace);
        let o = Opts::parse(&s(&["--stats"])).unwrap();
        assert!(!o.stats_json && !o.no_trace);
    }

    #[test]
    fn metrics_trace_explain_protocol_verbs() {
        use std::io::Cursor;
        let server = Server::builder().threads(2).build();
        server
            .load_doc_str("db", "<db><part><price>9</price><n>kb</n></part></db>")
            .unwrap();
        server
            .register_view(
                "public",
                r#"transform copy $a := doc("db") modify do delete $a//price return $a"#,
            )
            .unwrap();
        let input = concat!(
            "VIEW public db\n",
            "VIEW missing db\n",
            "METRICS\n",
            "TRACE\n",
            "TRACE 2\n",
            "TRACE notanumber\n",
            "EXPLAIN public db\n",
            "EXPLAIN public nosuchdoc\n",
            "EXPLAIN public\n",
            "ANALYZE public\n",
            "ANALYZE missing\n",
            "ANALYZE\n",
            "QUIT\n",
        );
        let mut out = Vec::new();
        serve_connection(&server, Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        // METRICS: Prometheus-style lines with per-verb counters.
        assert!(
            text.contains("xust_verb_requests_total{verb=\"view\"} 2"),
            "verb counter missing: {text}"
        );
        assert!(text.contains("xust_verb_errors_total{verb=\"view\"} 1"));
        assert!(text.contains("# TYPE xust_latency_micros summary"));
        assert!(text.contains("scope=\"verb\",key=\"view\""));
        // TRACE: per-request phase breakdowns, newest first.
        assert!(text.contains("traced="), "trace header missing: {text}");
        assert!(text.contains("view public/db"));
        assert!(text.contains("ERR TRACE [n]"));
        // EXPLAIN: a per-link plan without executing anything.
        assert!(
            text.contains("explain view=public doc=db"),
            "explain missing: {text}"
        );
        assert!(text.contains("link 0: method=GENTOP (default)"), "{text}");
        assert!(text.contains("ERR unknown document 'nosuchdoc'"));
        assert!(text.contains("ERR EXPLAIN <view> <doc>"));
        // ANALYZE: the registration-time static-analysis report.
        assert!(
            text.contains("analyze view=public doc=db dead=false rules=1"),
            "analyze missing: {text}"
        );
        assert!(text.contains("alphabet: {"), "{text}");
        assert!(text.contains("family: key=public"));
        assert!(text.contains("ERR unknown view 'missing'"));
        assert!(text.contains("ERR ANALYZE <view>"));
    }

    #[test]
    fn serve_connection_protocol() {
        use std::io::Cursor;
        let server = Server::builder().threads(2).build();
        server
            .load_doc_str("db", "<db><part><price>9</price><n>kb</n></part></db>")
            .unwrap();
        server
            .register_view(
                "public",
                r#"transform copy $a := doc("db") modify do delete $a//price return $a"#,
            )
            .unwrap();
        let input = concat!(
            "LIST\n",
            "VIEW public db\n",
            "QUERY public db <out>{ for $x in doc(\"db\")/db/part return $x }</out>\n",
            "TRANSFORM db transform copy $a := doc(\"db\") modify do rename $a/db/part as item return $a\n",
            "VIEW missing db\n",
            "STATS\n",
            "nonsense\n",
            "QUIT\n",
            "VIEW public db\n", // after QUIT: never processed
        );
        let mut out = Vec::new();
        serve_connection(&server, Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("OK "), "LIST: {}", lines[0]);
        assert!(lines[1].contains("docs: db"));
        let body = "<db><part><n>kb</n></part></db>";
        assert_eq!(lines[3], format!("OK {}", body.len()));
        assert_eq!(lines[4], body);
        assert_eq!(lines[6], "<out><part><n>kb</n></part></out>");
        assert!(text.contains("<item>"));
        assert!(text.contains("ERR unknown view 'missing'"));
        assert!(text.contains("cache: hits="));
        assert!(text.contains("ERR unknown verb 'nonsense'"));
        // QUIT stopped the loop: exactly one successful VIEW of 'public'.
        assert_eq!(text.matches(&format!("OK {}", body.len())).count(), 1);
    }

    #[test]
    fn update_protocol_verb_writes_and_serves_maintained_views() {
        use std::io::Cursor;
        let server = Server::builder().threads(2).build();
        server
            .load_doc_str(
                "db",
                "<db><part><price>9</price><n>kb</n></part><aux><k/></aux></db>",
            )
            .unwrap();
        server
            .register_view(
                "public",
                r#"transform copy $a := doc("db") modify do delete $a//price return $a"#,
            )
            .unwrap();
        let input = concat!(
            "VIEW public db\n", // warm the result cache
            "UPDATE db transform copy $a := doc(\"db\") modify do insert <spare/> into $a//k return $a\n",
            "VIEW public db\n", // served from the maintained entry
            "UPDATE db garbage\n",
            "UPDATE db transform copy $a := doc(\"other\") modify do delete $a//k return $a\n",
            "UPDATE nosuchdoc transform copy $a := doc(\"nosuchdoc\") modify do delete $a//k return $a\n",
            "STATS\n",
            "QUIT\n",
        );
        let mut out = Vec::new();
        serve_connection(&server, Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("updated db epoch=2 version=2 targets=1 retained=1 recomputed=0"),
            "UPDATE report missing: {text}"
        );
        // The post-update view reflects the write and still hides price.
        assert!(text.contains("<db><part><n>kb</n></part><aux><k><spare/></k></aux></db>"));
        assert!(text.contains("ERR parse error"));
        assert!(text.contains("ERR unknown document 'nosuchdoc'"));
        assert!(text.contains("delta_retained=1"));
        // The write is durable: the stored doc itself changed.
        assert_eq!(server.store().epochs().iter().sum::<u64>(), 2);
    }

    #[test]
    fn load_and_remove_protocol_verbs_purge_exactly_one_doc() {
        use std::io::Cursor;
        let dir = std::env::temp_dir();
        let path = dir.join("xust_cli_load_verb.xml");
        std::fs::write(&path, "<db><part><k/></part></db>").unwrap();
        let server = Server::builder().threads(2).shards(1).build();
        server
            .load_doc_str("a", "<db><part><price>1</price></part></db>")
            .unwrap();
        server
            .load_doc_str("b", "<db><part><price>2</price></part></db>")
            .unwrap();
        server
            .register_view(
                "public",
                r#"transform copy $a := doc("db") modify do delete $a//price return $a"#,
            )
            .unwrap();
        // Warm both docs' cached results, then reload A and remove it;
        // B's entry must survive both (same store shard — shards=1).
        let input = concat!(
            "VIEW public a\n",
            "VIEW public b\n",
            "LOAD a ", // path appended below
        );
        let input = format!(
            "{input}{}\nVIEW public a\nVIEW public b\nREMOVE a\nVIEW public a\nREMOVE a\nVIEW public b\nQUIT\n",
            path.display()
        );
        let hits_before = server.stats().result_hits;
        let mut out = Vec::new();
        serve_connection(&server, Cursor::new(input.as_str()), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("loaded a version="), "LOAD reply: {text}");
        // The reload really replaced a's content (no stale cache serve).
        assert!(text.contains("<db><part><k/></part></db>"));
        assert!(text.contains("removed a"));
        assert!(text.contains("ERR unknown document 'a'"));
        // B's post-warm reads are both cache hits — the reload and
        // removal of A never touched B's entries.
        assert_eq!(server.stats().result_hits, hits_before + 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn exec_end_to_end() {
        let dir = std::env::temp_dir();
        let input = dir.join("xust_cli_exec_in.xml");
        let output = dir.join("xust_cli_exec_out.xml");
        std::fs::write(&input, "<db><part><price>9</price><n>kb</n></part></db>").unwrap();
        run(&s(&[
            "exec",
            "-q",
            r#"transform copy $a := doc("db") modify do delete $a//price return $a"#,
            "-i",
            input.to_str().unwrap(),
            "-o",
            output.to_str().unwrap(),
            "--stats",
            "--stats-json",
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&output).unwrap(),
            "<db><part><n>kb</n></part></db>"
        );
        // Streaming variant produces the same bytes.
        run(&s(&[
            "exec",
            "--stream",
            "-q",
            r#"transform copy $a := doc("db") modify do delete $a//price return $a"#,
            "-i",
            input.to_str().unwrap(),
            "-o",
            output.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&output).unwrap(),
            "<db><part><n>kb</n></part></db>"
        );
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
    }

    #[test]
    fn stream_subcommand_end_to_end() {
        let dir = std::env::temp_dir();
        let input = dir.join("xust_cli_stream_in.xml");
        let output = dir.join("xust_cli_stream_out.xml");
        std::fs::write(&input, "<db><part><price>9</price><n>kb</n></part></db>").unwrap();
        run(&s(&[
            "stream",
            "-q",
            r#"transform copy $a := doc("db") modify do delete $a//price return $a"#,
            "-i",
            input.to_str().unwrap(),
            "-o",
            output.to_str().unwrap(),
            "--stats-json",
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&output).unwrap(),
            "<db><part><n>kb</n></part></db>"
        );
        // Malformed input surfaces as an error, not a panic.
        std::fs::write(&input, "<db><part>").unwrap();
        assert!(run(&s(&[
            "stream",
            "-q",
            r#"transform copy $a := doc("db") modify do delete $a//price return $a"#,
            "-i",
            input.to_str().unwrap(),
        ]))
        .is_err());
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
    }

    #[test]
    fn stream_protocol_verb_frames_output() {
        use std::io::Cursor;
        let dir = std::env::temp_dir();
        let path = dir.join("xust_cli_stream_verb.xml");
        std::fs::write(&path, "<db><part><price>9</price><n>kb</n></part></db>").unwrap();
        let server = Server::builder().threads(2).build();
        server.load_doc_file("disk", &path).unwrap();
        server
            .load_doc_str("mem", "<db><part><price>9</price></part></db>")
            .unwrap();
        let input = concat!(
            "STREAM disk transform copy $a := doc(\"db\") modify do delete $a//price return $a\n",
            "STREAM mem transform copy $a := doc(\"db\") modify do delete $a//price return $a\n",
            "STREAM disk garbage query\n",
            "QUIT\n"
        );
        let mut out = Vec::new();
        serve_connection(&server, Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        // Frames arrive, reassemble to the transformed document.
        let mut body = String::new();
        let mut lines = text.lines();
        let mut done = None;
        while let Some(line) = lines.next() {
            if let Some(n) = line.strip_prefix("OUT ") {
                let n: usize = n.parse().unwrap();
                let payload = lines.next().unwrap();
                assert_eq!(payload.len(), n);
                body.push_str(payload);
            } else if let Some(total) = line.strip_prefix("DONE ") {
                done = Some(total.parse::<usize>().unwrap());
                break;
            }
        }
        assert_eq!(body, "<db><part><n>kb</n></part></db>");
        assert_eq!(done, Some(body.len()));
        // In-memory docs and bad queries degrade to ERR, connection alive.
        assert!(text.contains("ERR STREAM needs a file-backed document"));
        assert!(text.contains("ERR parse error"));
        assert_eq!(server.store().active_snapshots(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn any_transform_routing() {
        let single = parse_any_transform(
            r#"transform copy $a := doc("d") modify do delete $a//x return $a"#,
        )
        .unwrap();
        assert!(matches!(single, AnyTransform::Single(_)));
        let multi = parse_any_transform(
            r#"transform copy $a := doc("d") modify do (delete $a//x, delete $a//y) return $a"#,
        )
        .unwrap();
        assert!(matches!(multi, AnyTransform::Multi(_)));
        assert!(parse_any_transform("garbage").is_err());
    }

    #[test]
    fn end_to_end_transform_and_compose() {
        let dir = std::env::temp_dir();
        let input = dir.join("xust_cli_in.xml");
        let output = dir.join("xust_cli_out.xml");
        std::fs::write(&input, "<db><part><price>9</price><n>kb</n></part></db>").unwrap();

        // transform, DOM method, file→file
        run(&s(&[
            "transform",
            "-q",
            r#"transform copy $a := doc("d") modify do delete $a//price return $a"#,
            "-i",
            input.to_str().unwrap(),
            "-o",
            output.to_str().unwrap(),
        ]))
        .unwrap();
        let got = std::fs::read_to_string(&output).unwrap();
        assert_eq!(got, "<db><part><n>kb</n></part></db>");

        // same through the streaming path
        run(&s(&[
            "transform",
            "--method",
            "stream",
            "-q",
            r#"transform copy $a := doc("d") modify do delete $a//price return $a"#,
            "-i",
            input.to_str().unwrap(),
            "-o",
            output.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(std::fs::read_to_string(&output).unwrap(), got);

        // composition
        run(&s(&[
            "compose",
            "-q",
            r#"transform copy $a := doc("d") modify do delete $a//price return $a"#,
            "-u",
            r#"<out>{ for $x in doc("d")/db/part return $x }</out>"#,
            "-i",
            input.to_str().unwrap(),
            "-o",
            output.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&output).unwrap(),
            "<out><part><n>kb</n></part></out>"
        );

        // validate
        run(&s(&["validate", "-i", input.to_str().unwrap()])).unwrap();

        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
    }
}
