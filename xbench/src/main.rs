//! `xbench` — the wire-level serving benchmark.
//!
//! ```text
//! xbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --xust <path> [--workdir <dir>]
//! ```
//!
//! Generates the workload's XMark documents from the seed, then starts
//! `xust serve` on a free loopback port five times in turn. Each server
//! is timed through set-up, driven for a fifth of `--seconds` with the
//! workload's closed-loop connections, read for `STATS` and peak RSS,
//! stopped, and every reply it gave is checked against a from-scratch
//! reference. With `--trace 1` the first server's seeded stream is then
//! replayed in process with spans, and the per-layer ledger replaces
//! the end-to-end metrics in the result. The last line of stdout is the
//! JSON result; earlier lines report every figure by name with its
//! unit.

mod oracle;
mod report;
mod rng;
mod spans;
mod traced;
mod wire;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{result_line, Latency, Metric};
use wire::{Conn, DocClock, Frame, Outcome, Sample, ServerProc};
use workload::{Req, Stream, Targets, Verb, Workload};
use xust_xmark::{generate_string, XmarkConfig};

/// Servers per run: each is set up (`setup_s` is their median) and then
/// serves an equal share of the timed run.
const SERVERS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    xust: PathBuf,
    workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    Ok(Args {
        workload: get("workload")?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
        },
        xust: PathBuf::from(get("xust")?),
        workdir: PathBuf::from(map.get("workdir").cloned().unwrap_or(".bench_tmp".into())),
    })
}

/// The requests that end set-up: every view of every document (and
/// each user query once), or each Fig. 11 transform once.
pub fn warmup(w: &Workload) -> Vec<Req> {
    let mut reqs = Vec::new();
    if w.views.is_empty() {
        reqs.extend((0..xust_bench::WORKLOAD.len()).map(|u| Req::Transform { doc: 0, u }));
    }
    for doc in 0..w.docs.len() {
        reqs.extend((0..w.views.len()).map(|view| Req::View { view, doc }));
    }
    for view in 0..w.views.len() {
        reqs.extend(
            w.user_queries
                .iter()
                .map(|&uq| Req::Query { view, doc: 0, uq }),
        );
    }
    reqs
}

/// `STATS` as `section.key → value` (`requests`, `cache.hits`, …).
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

fn stats(c: &mut Conn) -> Result<BTreeMap<String, f64>, String> {
    match c.call("STATS") {
        Ok(Frame::Ok(body)) => Ok(parse_stats(&String::from_utf8_lossy(&body))),
        Ok(Frame::Err(e)) => Err(format!("STATS: {e}")),
        Err(e) => Err(format!("STATS: {e}")),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The layer metrics read from the wire run's counters.
fn counter_metrics(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    wall_s: f64,
    conns: usize,
) -> Vec<Metric> {
    let d = |k: &str| after.get(k).unwrap_or(&0.0) - before.get(k).unwrap_or(&0.0);
    let retained = d("updates.delta_retained");
    let patched = d("updates.delta_patched");
    let recomputed = d("updates.delta_recomputed");
    let maintained = retained + patched + recomputed;
    // Planner picks by the STATS method names (the paper's labels).
    let picks = [
        ("top_down", "GENTOP"),
        ("two_pass", "TD-BU"),
        ("naive", "NAIVE"),
        ("copy_update", "GalaXUpdate"),
    ];
    let all_picks: f64 = after
        .keys()
        .filter(|k| k.starts_with("methods.") && *k != "methods.busy")
        .map(|k| d(k))
        .sum();
    let mut m = vec![
        Metric::new(
            "serve.cache.hit_rate",
            ratio(d("cache.hits"), d("cache.hits") + d("cache.misses")),
            "ratio",
        ),
        Metric::new(
            "serve.viewcache.hit_rate",
            ratio(
                d("updates.result_hits"),
                d("updates.result_hits") + d("updates.result_misses"),
            ),
            "ratio",
        ),
        Metric::new(
            "serve.maintain.retained_share",
            ratio(retained, maintained),
            "ratio",
        ),
        Metric::new(
            "serve.maintain.static_share",
            ratio(d("updates.static_retained"), maintained),
            "ratio",
        ),
        Metric::new(
            "serve.maintain.patched_share",
            ratio(patched, maintained),
            "ratio",
        ),
        Metric::new(
            "serve.maintain.recomputed_share",
            ratio(recomputed, maintained),
            "ratio",
        ),
    ];
    for (name, label) in picks {
        m.push(Metric::new(
            format!("serve.planner.share.{name}"),
            ratio(d(&format!("methods.{label}")), all_picks),
            "ratio",
        ));
    }
    m.push(Metric::new(
        "serve.pipeline.items_per_batch",
        ratio(d("batches.items"), d("batches.runs")),
        "count",
    ));
    m.push(Metric::new(
        "serve.shared_pass.views_per_pass",
        ratio(d("shared.shared_pass_views"), d("shared.passes")),
        "count",
    ));
    m.push(Metric::new(
        "serve.busy_share",
        ratio(d("methods.busy"), wall_s * 1e6 * conns as f64),
        "ratio",
    ));
    m
}

/// One start-up: spawn, wait until it listens, answer the warm-up.
/// Returns the server, its control connection, the warm-up samples and
/// the seconds it took.
fn set_up(
    args: &Args,
    w: &Workload,
    files: &[PathBuf],
    dir: &Path,
) -> Result<(ServerProc, Conn, Vec<Sample>, f64), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let mut server = ServerProc::spawn(&args.xust, w, files, dir)
        .map_err(|e| format!("spawn {}: {e}", args.xust.display()))?;
    let fail = |server: ServerProc, msg: String| {
        let log = std::fs::read_to_string(&server.stderr_path).unwrap_or_default();
        let _ = server.stop();
        format!("{msg}\n--- server stderr ---\n{log}")
    };
    let mut conn = match server.connect_when_ready(Duration::from_secs(120)) {
        Ok(c) => c,
        Err(e) => return Err(fail(server, format!("server never listened: {e}"))),
    };
    let mut samples = Vec::new();
    for req in warmup(w) {
        let sent = Instant::now();
        let outcome = match conn.call(&req.line(w)) {
            Ok(Frame::Ok(body)) => {
                let (len, hash) = wire::fingerprint(&body);
                Outcome::Ok { len, hash }
            }
            Ok(Frame::Err(e)) => Outcome::Err(e),
            Err(e) => Outcome::Transport(e.to_string()),
        };
        samples.push(Sample {
            conn: usize::MAX,
            req,
            latency_us: sent.elapsed().as_secs_f64() * 1e6,
            done_s: 0.0,
            outcome,
            lo: 0,
            hi: 0,
            version: None,
        });
    }
    Ok((server, conn, samples, t.elapsed().as_secs_f64()))
}

fn run(args: &Args) -> Result<bool, String> {
    let w = Workload::by_name(&args.workload, args.seed).ok_or_else(|| {
        format!(
            "unknown workload '{}' (known: {})",
            args.workload,
            Workload::NAMES.join(", ")
        )
    })?;
    let run_dir = args
        .workdir
        .join(format!("{}-{}-{}", w.name, args.seed, std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let result = run_in(args, &w, &run_dir);
    match &result {
        Ok(true) => {
            let _ = std::fs::remove_dir_all(&run_dir);
        }
        // A failed run keeps the server's stderr (and nothing bulky).
        _ => {
            for entry in std::fs::read_dir(&run_dir).into_iter().flatten().flatten() {
                let p = entry.path();
                if p.extension().is_some_and(|e| e == "xml" || e == "log") {
                    let _ = std::fs::remove_file(&p);
                }
            }
            eprintln!("xbench: run files kept in {}", run_dir.display());
        }
    }
    result
}

/// One server's share of a run.
struct Segment {
    setup_s: f64,
    /// The timed replies (the warm-up is verified, not timed).
    samples: Vec<Sample>,
    before: BTreeMap<String, f64>,
    after: BTreeMap<String, f64>,
    wall_s: f64,
    peak_rss_mb: f64,
    /// `ERR` replies, transport failures and oracle mismatches.
    failed: u64,
}

/// Sets up server `index` in its own directory under `run_dir`, drives
/// it for its share of the run with streams seeded from the run's seed
/// and `index`, reads its counters, stops it, and verifies every reply
/// it gave.
fn segment(
    args: &Args,
    w: &Workload,
    xmls: &[String],
    files: &[PathBuf],
    targets: &[Targets],
    index: usize,
    run_dir: &Path,
) -> Result<Segment, String> {
    let dir = run_dir.join(format!("s{index}"));
    let (server, mut control, warm, setup_s) = set_up(args, w, files, &dir)?;
    let before = stats(&mut control)?;
    let clock = DocClock::new(w.docs.len());
    let conns: Vec<Conn> = (0..w.conns)
        .map(|_| Conn::open(server.port))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let seed = segment_seed(args.seed, index);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds / SERVERS as f64);
    let results: Vec<(Vec<Sample>, Conn)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let stream = Stream::new(w, i, seed, targets);
                let clock = &clock;
                scope.spawn(move || wire::run_conn(w, i, c, stream, clock, start, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut samples: Vec<Sample> = Vec::new();
    let mut open = Vec::new();
    for (s, c) in results {
        samples.extend(s);
        open.push(c);
    }
    let wall_s = samples
        .iter()
        .map(|s| s.done_s)
        .fold(0.0, f64::max)
        .max(1e-9);
    let after = stats(&mut control)?;
    let peak_rss_mb = server.peak_rss_mb().map_err(|e| e.to_string())?;
    for c in open {
        c.quit();
    }
    control.quit();
    let server_log = server.stderr_path.clone();
    server.stop().map_err(|e| e.to_string())?;

    // Verification over the timed and the warm-up replies.
    let timed = samples.len();
    samples.extend(warm);
    let mut failed = 0u64;
    for s in &samples {
        if let Outcome::Err(e) | Outcome::Transport(e) = &s.outcome {
            eprintln!("xbench: {:?} failed: {e}", s.req);
            failed += 1;
        }
    }
    let t = Instant::now();
    let verdict = oracle::verify(w, xmls, &samples, 2);
    for m in verdict.mismatches.iter().take(20) {
        eprintln!("xbench: mismatch: {m}");
    }
    failed += verdict.mismatches.len() as u64;
    println!(
        "# server {index}: set-up {setup_s:.3}s, {timed} requests in {wall_s:.2}s; \
         verified {} replies against {} references in {:.1}s: {} mismatches",
        verdict.checked,
        verdict.references,
        t.elapsed().as_secs_f64(),
        verdict.mismatches.len()
    );
    if failed > 0 {
        let log = std::fs::read_to_string(&server_log).unwrap_or_default();
        eprintln!("--- server {index} stderr ---\n{log}");
    }
    samples.truncate(timed);
    Ok(Segment {
        setup_s,
        samples,
        before,
        after,
        wall_s,
        peak_rss_mb,
        failed,
    })
}

/// The request-stream seed of server `index`; server 0 uses the run's
/// seed itself, so the traced run replays its stream.
fn segment_seed(seed: u64, index: usize) -> u64 {
    seed ^ ((index as u64) << 40)
}

fn sum_maps(maps: impl Iterator<Item = BTreeMap<String, f64>>) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for m in maps {
        for (k, v) in m {
            *out.entry(k).or_insert(0.0) += v;
        }
    }
    out
}

fn run_in(args: &Args, w: &Workload, run_dir: &Path) -> Result<bool, String> {
    // Inputs: generated XMark documents only.
    let xmls: Vec<String> = w
        .docs
        .iter()
        .map(|d| generate_string(XmarkConfig::new(w.factor).with_seed(d.seed)))
        .collect();
    let targets: Vec<Targets> = xmls.iter().map(|x| Targets::of(x)).collect();
    let files: Vec<PathBuf> = w
        .docs
        .iter()
        .zip(&xmls)
        .map(|(d, xml)| {
            let p = run_dir.join(format!("{}.xml", d.name));
            std::fs::write(&p, xml).map(|_| p)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    println!(
        "# {} seed={} factor={} docs={} bytes/doc={} views={} conns={} window={} wal={} cpus={}",
        w.name,
        args.seed,
        w.factor,
        w.docs.len(),
        xmls[0].len(),
        w.views.len(),
        w.conns,
        w.window,
        if w.wal {
            "flush-per-append,no-fsync"
        } else {
            "off"
        },
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    // The run is split over several servers, each set up from scratch
    // and driven for an equal share of the time: every server's planner
    // settles on its own, so one run averages over several of them.
    let segments: Vec<Segment> = (0..SERVERS)
        .map(|i| segment(args, w, &xmls, &files, &targets, i, run_dir))
        .collect::<Result<_, _>>()?;
    let failed: u64 = segments.iter().map(|s| s.failed).sum();
    let wall_s: f64 = segments.iter().map(|s| s.wall_s).sum();
    let mut setup_times: Vec<f64> = segments.iter().map(|s| s.setup_s).collect();
    let mut rss: Vec<f64> = segments.iter().map(|s| s.peak_rss_mb).collect();
    let before = sum_maps(segments.iter().map(|s| s.before.clone()));
    let after = sum_maps(segments.iter().map(|s| s.after.clone()));
    let samples: Vec<Sample> = segments.into_iter().flat_map(|s| s.samples).collect();
    let timed = samples.len();
    let attempted = timed as u64;

    // End-to-end figures, per verb and for the workload's reads.
    let lat = |pred: &dyn Fn(Verb) -> bool| {
        Latency::of(
            samples
                .iter()
                .filter(|s| pred(s.req.verb()) && matches!(s.outcome, Outcome::Ok { .. }))
                .map(|s| s.latency_us)
                .collect(),
        )
    };
    let mut lines: Vec<Metric> = Vec::new();
    for verb in Verb::ALL {
        if let Some(l) = lat(&|v| v == verb) {
            let name = verb.name();
            lines.push(Metric::new(format!("{name}_p50_ms"), l.p50_ms, "ms"));
            if let Some((p, v)) = l.tail {
                lines.push(Metric::new(format!("{name}_p99_ms"), v, "ms"));
                println!("# {name}: {} samples; the p99 figure is p{p:.2}", l.n);
            } else {
                println!("# {name}: {} samples; too few for a tail percentile", l.n);
            }
        }
    }
    let reads = lat(&|v| v != Verb::Update).ok_or("the run answered no reads")?;
    lines.push(Metric::new("read_p50_ms", reads.p50_ms, "ms"));
    if let Some((p, v)) = reads.tail {
        lines.push(Metric::new("read_p99_ms", v, "ms"));
        println!("# read: {} samples; the p99 figure is p{p:.2}", reads.n);
    }
    lines.push(Metric::new(
        "error_rate",
        ratio(failed as f64, attempted as f64),
        "ratio",
    ));
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        report::median(v).expect("SERVERS > 0")
    };
    let end_to_end = vec![
        Metric::new("setup_s", median(&mut setup_times), "s"),
        Metric::new("throughput_rps", timed as f64 / wall_s, "1/s"),
        Metric::new("read_mean_ms", reads.mean_ms, "ms"),
        Metric::new("peak_rss_mb", median(&mut rss), "MB"),
    ];
    let wire = counter_metrics(&before, &after, wall_s, w.conns);
    for m in end_to_end.iter().chain(&lines) {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    let (metrics, attempted, failed) = if args.trace {
        let t = Instant::now();
        let spans_out = args.workdir.join(format!("spans-{}.tsv", w.name));
        let tr = traced::run(w, args.seed, &xmls, &targets, run_dir, &spans_out, wire)?;
        println!("# traced run: {:.1}s", t.elapsed().as_secs_f64());
        for (layer, ms) in &tr.ledger {
            println!("ledger {layer} self_ms={ms:.3}");
        }
        println!("# spans written to {}", spans_out.display());
        for m in &tr.metrics {
            println!("metric {} {} {}", m.name, m.value, m.unit);
        }
        (tr.metrics, attempted + tr.attempted, failed + tr.failed)
    } else {
        // The counters are printed on every run, so a planner flip
        // shows even without the traced run.
        for m in &wire {
            println!("counter {} {} {}", m.name, m.value, m.unit);
        }
        (end_to_end, attempted, failed)
    };
    let correct = failed == 0;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("xbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_lines_parse_by_section() {
        let s = parse_stats(
            "requests=28 failures=0 views=8\n\
             cache: hits=10 misses=10 compiles=10\n\
             updates: accepted=20 delta_retained=32 result_hits=5\n\
             methods: GENTOP=8 TD-BU=2 busy=275170µs\n\
             view kw: ewma=6849µs samples=1",
        );
        assert_eq!(s["requests"], 28.0);
        assert_eq!(s["cache.hits"], 10.0);
        assert_eq!(s["updates.delta_retained"], 32.0);
        assert_eq!(s["methods.TD-BU"], 2.0);
        assert_eq!(s["methods.busy"], 275170.0);
        assert_eq!(s["view kw.ewma"], 6849.0);
    }

    #[test]
    fn counter_metrics_are_deltas() {
        let before = parse_stats("cache: hits=10 misses=10\nmethods: GENTOP=8 busy=0µs");
        let after = parse_stats(
            "cache: hits=40 misses=10\n\
             updates: delta_retained=3 static_retained=1 delta_patched=1 delta_recomputed=0\n\
             methods: GENTOP=9 TD-BU=3 busy=1000000µs",
        );
        let m: BTreeMap<String, f64> = counter_metrics(&before, &after, 1.0, 2)
            .into_iter()
            .map(|m| (m.name, m.value))
            .collect();
        assert_eq!(m["serve.cache.hit_rate"], 1.0);
        assert_eq!(m["serve.maintain.retained_share"], 0.75);
        assert_eq!(m["serve.maintain.static_share"], 0.25);
        assert_eq!(m["serve.planner.share.top_down"], 0.25);
        assert_eq!(m["serve.planner.share.two_pass"], 0.75);
        assert_eq!(m["serve.busy_share"], 0.5);
        assert_eq!(m["serve.viewcache.hit_rate"], 0.0);
    }
}
