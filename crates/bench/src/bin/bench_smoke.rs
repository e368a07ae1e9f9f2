//! Quick-mode bench smoke harness: runs a served-throughput sample, a
//! factorised multi-view sweep, and a mixed read/write workload (hot
//! writer + same-shard neighbour reads), among others, prints a table,
//! and optionally records the numbers as a `BENCH_*.json` baseline so
//! future PRs have a perf trajectory to compare against.
//!
//! ```text
//! cargo run -p xust-bench --release --bin bench_smoke            # print
//! cargo run -p xust-bench --release --bin bench_smoke -- --quick # CI mode
//! cargo run -p xust-bench --release --bin bench_smoke -- --out BENCH_baseline.json
//! ```
//!
//! `--check` additionally exits non-zero if a row crosses its margin —
//! for example if the mixed workload's neighbour hit rate falls below
//! [`NEIGHBOUR_HIT_MARGIN`]. That hit rate is deterministic (counter
//! arithmetic, not timing): with the result cache keyed by per-document
//! versions a hot writer causes *zero* neighbour misses, so anything
//! under the margin is a real re-keying regression, not jitter.

use std::io::Cursor;
use std::time::Instant;

use xust_bench::{
    insert_query, mixed_workload, mixed_workload_with, shared_view_queries, u_name, xmark_doc,
    MixedWorkload, WORKLOAD,
};
use xust_core::{multi_view_with_stats, two_pass, CompiledTransform, TransformQuery};
use xust_serve::{serve_pipelined, PipelineOptions, Request, Server};
use xust_tree::{Document, Serialized};

struct ServeRow {
    name: String,
    requests_per_sec: f64,
}

struct MixedRow {
    workload: String,
    requests_per_sec: f64,
    neighbour_hit_rate: f64,
}

struct ObsRow {
    workload: String,
    instrumented_rps: f64,
    no_trace_rps: f64,
    overhead_pct: f64,
}

struct MultiViewRow {
    views: usize,
    shared_ms: f64,
    single_sum_ms: f64,
    /// shared / single_sum; the factorisation pays off below 1.0.
    ratio: f64,
}

struct PipelinedRow {
    /// Requests in flight before the client reads a reply.
    depth: usize,
    requests_per_sec: f64,
    /// Pipelined req/s over the same run's blocking `serve_throughput`
    /// U1 row — the "how much does not waiting per request buy" ratio.
    speedup_vs_u1: f64,
}

struct WalRow {
    workload: String,
    wal_rps: f64,
    no_wal_rps: f64,
    overhead_pct: f64,
}

struct IvmPatchRow {
    /// Elements in the written document (the gate is stated against an
    /// 8K+-element document in full mode).
    elements: usize,
    patch_micros_per_write: f64,
    recompute_micros_per_write: f64,
    /// patch / recompute write time; sublinear maintenance pays off
    /// below 1.0 and the `--check` gate demands ≤ [`IVM_PATCH_MARGIN`].
    ratio: f64,
}

struct TransformReplyRow {
    /// Elements in the transformed document.
    elements: usize,
    /// U1–U10 mean of one streamed reply (`evaluate_into` over the
    /// document's serialized index, built once outside the timed loop,
    /// as the server builds one per document version).
    streamed_ms: f64,
    /// U1–U10 mean of the tree path it replaced (`evaluate` + `serialize`).
    tree_ms: f64,
    /// streamed / tree; the `--check` gate demands ≤ [`TRANSFORM_REPLY_MARGIN`].
    ratio: f64,
}

struct WriteFloorRow {
    /// Elements in the document.
    elements: usize,
    /// Fastest whole-document `clone()`.
    tree_clone_us: f64,
    /// Fastest drop of such a clone.
    tree_drop_us: f64,
    /// Mean of the fastest pass of UPDATEs on a server with no views:
    /// the copy-apply-install cost every write pays before maintenance.
    update_no_views_us: f64,
}

struct SerializeRow {
    /// Serialized document size.
    bytes: usize,
    /// Serialized bytes per second of the fastest pass, in MB/s.
    mb_s: f64,
    /// Arena slots the serialized index records a start for.
    index_slots: usize,
    /// Fastest build of the document's serialized index, in ms: what
    /// the second TRANSFORM of each document version pays.
    index_ms: f64,
}

/// Minimum neighbour result-cache hit rate `--check` accepts for the
/// mixed read/write workload. Per-document version keying makes the
/// true value exactly 1.0 (a hot writer moves neither a neighbour's
/// version nor its cache shard); under the old shard-epoch keying it
/// was ~0 (every write un-keyed every same-shard neighbour). The
/// margin only forgives counter noise, never a keying regression.
const NEIGHBOUR_HIT_MARGIN: f64 = 0.99;

/// Maximum `multi_view` cost ratio `--check` accepts: one factorised
/// sweep answering k=8 views must cost under half of the k private
/// `two_pass` evaluations it replaces (the ISSUE gate "8 views < 4×
/// one view"). The true ratio sits well below: the shared pass walks
/// the tree once and checks the views' common qualifier once per node,
/// where the private passes do both k times — only the per-view result
/// copies are inherently k-fold. The headroom absorbs runner noise,
/// not a lost factorisation.
const MULTI_VIEW_MARGIN: f64 = 0.5;

/// Budget for the slowest per-view registration-time analysis, in
/// microseconds: folding, liveness and containment must add < 1 ms per
/// view to `VIEW REGISTER`. Measured cost is a few microseconds — the
/// NFAs are already built for evaluation, analysis only walks them — so
/// the budget is two orders of magnitude of headroom.
const ANALYSIS_MICROS_BUDGET: u64 = 1_000;

/// Minimum pipelined-over-blocking speedup `--check` accepts: depth-16
/// pipelined view reads through `serve_pipelined` must serve at least
/// 4× the same run's blocking `serve_throughput` U1 requests/s (the
/// ISSUE gate, stated against the seed baseline's 469.6 req/s U1 —
/// comparing against the same-run U1 keeps the gate meaningful on any
/// machine). The true ratio sits orders of magnitude above: U1 runs a
/// full transform per request, while the pipelined row's maintained
/// views answer from the result cache and whole batches share one
/// framing/flush cycle — so a trip means the pipelined front end (or
/// the result cache behind it) broke, not that the runner was slow.
const PIPELINED_SPEEDUP_MARGIN: f64 = 4.0;

/// Maximum write-ahead-log overhead (percent of wall-clock on a pure
/// update loop, WAL attached vs not) `--check` accepts. Each applied
/// update appends one length+CRC framed record and flushes the
/// `BufWriter` (no fsync), a few microseconds against an update path
/// that parses, applies, and maintains — measured cost is single-digit
/// percent. The comparison takes the minimum over order-alternated
/// pass pairs and re-measures once before reporting a breach, so a
/// trip means logging itself got more expensive, not runner jitter.
const WAL_OVERHEAD_MARGIN: f64 = 15.0;

/// Maximum observability overhead (tracing + histograms, percent of
/// wall-clock on the mixed workload) `--check` accepts. The budget in
/// DESIGN.md is 3%; the measured cost sits around 1%. The comparison
/// takes the minimum over 24 order-alternated pass pairs per mode, on
/// one server toggled at runtime, and re-measures once before
/// reporting a breach, so a trip means the instrumentation itself got
/// slower, not that the runner hiccuped.
const OBS_OVERHEAD_MARGIN: f64 = 3.0;

/// Maximum patch-over-recompute write-time ratio `--check` accepts for
/// the ivm_patch row: after a single-subtree write into an
/// 8K+-element document's cached view, splicing the affected fragments
/// of the provenance-annotated result must cost at most a quarter of
/// recomputing the view from scratch (the ISSUE gate). The true ratio
/// sits far below: the patch re-evaluates one probe-sized subtree and
/// splices its bytes into the retained serialisation, where the
/// recompute walks every element. Fates are counter-verified before
/// anything is timed, so a trip means localisation itself degraded
/// (e.g. every write spills past the span threshold), not jitter.
const IVM_PATCH_MARGIN: f64 = 0.25;

/// Maximum streamed-over-tree cost ratio `--check` accepts for the
/// transform_reply row: writing a TRANSFORM reply straight out of the
/// top-down pass must cost at most 0.6× evaluating into a result tree
/// and serializing it. The measured ratio sits near 0.45: the streamed
/// pass skips building, re-walking and dropping a whole result
/// document, while both sides pay for the walk and the escaping.
/// Outputs are asserted byte-identical before anything is timed, so a
/// trip means the fused pass lost its edge.
const TRANSFORM_REPLY_MARGIN: f64 = 0.6;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let factor = if quick { 0.002 } else { 0.005 };
    let doc = xmark_doc(factor);
    let elements = element_count(&doc);
    println!(
        "# bench_smoke: xmark factor {factor}, {elements} elements{}",
        if quick { " (quick)" } else { "" }
    );

    // ---- multi_view: one factorised sweep vs k private passes ----
    let mv_row = run_multi_view(&doc, if quick { 6 } else { 16 });
    println!("\n## multi_view (k views of one document, shared sweep vs k private two_pass)");
    println!(
        "{:<6} {:>12} {:>14} {:>8}",
        "views", "shared_ms", "single_sum_ms", "ratio"
    );
    println!(
        "{:<6} {:>12.2} {:>14.2} {:>8.3}",
        mv_row.views, mv_row.shared_ms, mv_row.single_sum_ms, mv_row.ratio
    );

    // ---- TRANSFORM replies: streamed pass vs result tree + serialize ----
    // Always the full-size document, like ivm_patch: the gate is stated
    // against the 8K-element document.
    let reply_doc = xmark_doc(0.005);
    let reply_row = run_transform_reply(&reply_doc, if quick { 3 } else { 8 });
    println!("\n## transform_reply (U1–U10 insert, mean per reply: streamed vs tree + serialize)");
    println!(
        "{:>10.3} ms streamed  {:>10.3} ms tree+serialize  ratio={:.3}  ({} elements)",
        reply_row.streamed_ms, reply_row.tree_ms, reply_row.ratio, reply_row.elements
    );

    // ---- serializer throughput (absolute) ----
    let ser_row = run_serialize(&reply_doc, if quick { 5 } else { 20 });
    println!("\n## serialize_mb_s (whole-document serialization, fastest pass)");
    println!("{:>10.1} MB/s  ({} bytes)", ser_row.mb_s, ser_row.bytes);
    println!("\n## serialized_index_ms (serialized index build, fastest pass)");
    println!(
        "{:>10.3} ms  ({} slots)",
        ser_row.index_ms, ser_row.index_slots
    );

    // ---- the write floor (absolute): document copy, drop, bare UPDATE ----
    let floor_row = run_write_floor(&reply_doc, if quick { 5 } else { 20 });
    println!("\n## write_floor (whole-document clone / drop, UPDATE with no views)");
    println!(
        "{:>10.1} µs clone  {:>10.1} µs drop  {:>10.1} µs/update  ({} elements)",
        floor_row.tree_clone_us,
        floor_row.tree_drop_us,
        floor_row.update_no_views_us,
        floor_row.elements
    );

    // ---- served throughput through the full stack ----
    let server = Server::builder().threads(4).build();
    server.load_doc("xmark", doc);
    let mut serve_rows = Vec::new();
    println!("\n## serve_throughput (requests/s through the prepared cache)");
    for i in [0, 4] {
        let request = Request::Transform {
            doc: "xmark".into(),
            query: format!(
                r#"transform copy $a := doc("xmark") modify do delete $a{} return $a"#,
                WORKLOAD[i]
            ),
        };
        for _ in 0..4 {
            server.handle(&request).expect("warm-up request serves");
        }
        let n = if quick { 12 } else { 40 };
        let t = Instant::now();
        for _ in 0..n {
            std::hint::black_box(server.handle(&request).expect("request serves").body.len());
        }
        let rps = n as f64 / t.elapsed().as_secs_f64();
        println!("{:<6} {:>10.1} req/s", u_name(i), rps);
        serve_rows.push(ServeRow {
            name: u_name(i),
            requests_per_sec: rps,
        });
    }

    // ---- pipelined serving: depth-16 batches through the front end ----
    let u1_rps = serve_rows[0].requests_per_sec;
    let pipe_row = run_pipelined(factor, 16, quick, u1_rps);
    println!("\n## serve_pipelined (depth-16 pipelined view reads, in-memory transport)");
    println!(
        "depth={:<3} {:>12.1} req/s  {:>8.1}x vs blocking U1",
        pipe_row.depth, pipe_row.requests_per_sec, pipe_row.speedup_vs_u1
    );

    // ---- mixed read/write: hot writer vs same-shard neighbours ----
    // One store shard, so every document is the hot writer's neighbour
    // — the layout that used to collapse neighbour hit rates under
    // shard-epoch keying (see ROADMAP history / DESIGN "Update path").
    let mixed_rows = run_mixed_workload(factor, if quick { 6 } else { 20 });
    println!("\n## serve_mixed (hot-writer updates interleaved with neighbour view reads)");
    for r in &mixed_rows {
        println!(
            "{:<22} {:>10.1} req/s  neighbour_hit_rate={:.3}",
            r.workload, r.requests_per_sec, r.neighbour_hit_rate
        );
    }

    // ---- registration-time analysis cost ----
    let max_analysis_micros = max_analysis_micros();
    println!("\n## analysis (registration-time static analysis, four rename views)");
    println!("max_analysis_micros={max_analysis_micros}");

    // ---- observability overhead: instrumented vs --no-trace ----
    // Longer passes than serve_mixed: the effect measured here is ~1%
    // per request, so each pass must be long enough (tens of
    // milliseconds) that scheduler jitter cannot masquerade as
    // instrumentation cost.
    let obs_row = run_obs_overhead(factor, 50);
    println!("\n## obs_overhead (mixed workload, tracing+histograms vs --no-trace)");
    println!(
        "{:<22} {:>10.1} req/s instrumented  {:>10.1} req/s no-trace  overhead={:.2}%",
        obs_row.workload, obs_row.instrumented_rps, obs_row.no_trace_rps, obs_row.overhead_pct
    );

    // ---- durability overhead: WAL attached vs not, pure update loop ----
    let wal_row = run_wal_overhead(factor, if quick { 8 } else { 24 });
    println!("\n## wal_overhead (update loop, length+CRC framed log appended before install)");
    println!(
        "{:<22} {:>10.1} req/s wal  {:>10.1} req/s no-wal  overhead={:.2}%",
        wal_row.workload, wal_row.wal_rps, wal_row.no_wal_rps, wal_row.overhead_pct
    );

    // ---- IVM patching: spliced fragments vs full view recompute ----
    // Always the full-size document, even in quick mode: the gate is
    // stated against an 8K+-element doc, and the smaller quick doc
    // would narrow the recompute/patch gap enough to make the 0.25
    // margin noise-sensitive.
    let ivm_row = run_ivm_patch(0.005, if quick { 8 } else { 24 });
    println!("\n## ivm_patch (single-subtree write into a cached view: splice vs recompute)");
    println!(
        "{:>10.1} µs/write patched  {:>10.1} µs/write recomputed  ratio={:.4}  ({} elements)",
        ivm_row.patch_micros_per_write,
        ivm_row.recompute_micros_per_write,
        ivm_row.ratio,
        ivm_row.elements
    );

    if let Some(path) = out_path {
        let json = render_json(
            factor,
            elements,
            quick,
            &mv_row,
            &serve_rows,
            &pipe_row,
            &mixed_rows,
            &obs_row,
            &wal_row,
            &ivm_row,
            &reply_row,
            &ser_row,
            &floor_row,
        );
        std::fs::write(&path, json).expect("baseline file written");
        println!("\nbaseline recorded to {path}");
    }

    if check {
        let mut failed = false;
        for r in mixed_rows
            .iter()
            .filter(|r| r.neighbour_hit_rate < NEIGHBOUR_HIT_MARGIN)
        {
            eprintln!(
                "FAIL {}: neighbour hit rate {:.3} below margin {NEIGHBOUR_HIT_MARGIN} — \
                 a hot writer is evicting neighbour entries again",
                r.workload, r.neighbour_hit_rate
            );
            failed = true;
        }
        if mv_row.ratio >= MULTI_VIEW_MARGIN {
            eprintln!(
                "FAIL multi_view: shared sweep {:.2}ms is {:.3}× the {} private passes' {:.2}ms, \
                 at or above the {MULTI_VIEW_MARGIN} margin — the factorised pass lost its edge",
                mv_row.shared_ms, mv_row.ratio, mv_row.views, mv_row.single_sum_ms
            );
            failed = true;
        }
        if max_analysis_micros >= ANALYSIS_MICROS_BUDGET {
            eprintln!(
                "FAIL analysis: slowest registration-time analysis {max_analysis_micros}µs \
                 at or above the {ANALYSIS_MICROS_BUDGET}µs budget"
            );
            failed = true;
        }
        if pipe_row.speedup_vs_u1 < PIPELINED_SPEEDUP_MARGIN {
            eprintln!(
                "FAIL serve_pipelined: {:.1} req/s is only {:.1}× the blocking U1 row's \
                 {:.1} req/s, below the {PIPELINED_SPEEDUP_MARGIN}× margin — pipelined \
                 batches are no longer amortising per-request costs",
                pipe_row.requests_per_sec, pipe_row.speedup_vs_u1, u1_rps
            );
            failed = true;
        }
        if wal_row.overhead_pct > WAL_OVERHEAD_MARGIN {
            eprintln!(
                "FAIL {}: WAL overhead {:.2}% above the {WAL_OVERHEAD_MARGIN}% budget \
                 (wal {:.1} req/s vs no-wal {:.1} req/s)",
                wal_row.workload, wal_row.overhead_pct, wal_row.wal_rps, wal_row.no_wal_rps
            );
            failed = true;
        }
        if obs_row.overhead_pct > OBS_OVERHEAD_MARGIN {
            eprintln!(
                "FAIL {}: observability overhead {:.2}% above the {OBS_OVERHEAD_MARGIN}% budget \
                 (instrumented {:.1} req/s vs no-trace {:.1} req/s)",
                obs_row.workload,
                obs_row.overhead_pct,
                obs_row.instrumented_rps,
                obs_row.no_trace_rps
            );
            failed = true;
        }
        if ivm_row.ratio > IVM_PATCH_MARGIN {
            eprintln!(
                "FAIL ivm_patch: patched write {:.1}µs is {:.4}× the recomputed write's \
                 {:.1}µs, above the {IVM_PATCH_MARGIN} margin — fragment localisation is \
                 no longer sublinear in the document",
                ivm_row.patch_micros_per_write, ivm_row.ratio, ivm_row.recompute_micros_per_write
            );
            failed = true;
        }
        if reply_row.ratio > TRANSFORM_REPLY_MARGIN {
            eprintln!(
                "FAIL transform_reply: streamed reply {:.3}ms is {:.3}× the tree path's \
                 {:.3}ms, above the {TRANSFORM_REPLY_MARGIN} margin — the fused top-down \
                 pass no longer saves the result tree",
                reply_row.streamed_ms, reply_row.ratio, reply_row.tree_ms
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "\ncheck passed: shared multi_view sweep under {MULTI_VIEW_MARGIN}× the private passes, \
             pipelined serving at or above {PIPELINED_SPEEDUP_MARGIN}× the blocking U1 row, \
             neighbour hit rate at or above {NEIGHBOUR_HIT_MARGIN}, \
             per-view analysis under {ANALYSIS_MICROS_BUDGET}µs, \
             observability overhead within {OBS_OVERHEAD_MARGIN}%, \
             WAL overhead within {WAL_OVERHEAD_MARGIN}%, \
             patched maintenance under {IVM_PATCH_MARGIN}× a full recompute, \
             streamed TRANSFORM replies under {TRANSFORM_REPLY_MARGIN}× the tree path"
        );
    }
}

/// Times the factorised sweep against the k private passes it
/// replaces: one `multi_view` call over k=8 views sharing the
/// qualifier-bearing `open_auction[bidder/increase>5]` prefix, vs the
/// sum of the same views' individual `two_pass` evaluations over the
/// same document. Outputs are asserted byte-identical first, so the
/// timed comparison cannot drift onto different work.
fn run_multi_view(doc: &Document, reps: usize) -> MultiViewRow {
    let queries = shared_view_queries(8);
    let refs: Vec<&TransformQuery> = queries.iter().collect();
    let (results, stats) = multi_view_with_stats(doc, &refs);
    assert_eq!(
        stats.shared_views,
        queries.len(),
        "every bench view must ride the shared pass (none may fall back)"
    );
    assert_eq!(stats.passes, 1);
    for (q, r) in queries.iter().zip(&results) {
        assert_eq!(
            r.doc.serialize(),
            two_pass(doc, q).serialize(),
            "shared pass diverges from private two_pass on {}",
            q.path
        );
    }
    // Warm both sides once, then interleave timed runs so neither
    // benefits from cache warm-up order (same shape as label_matching).
    std::hint::black_box(multi_view_with_stats(doc, &refs).0.len());
    for q in &queries {
        std::hint::black_box(two_pass(doc, q).arena_len());
    }
    let (mut t_shared, mut t_single) = (0u128, 0u128);
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(multi_view_with_stats(doc, &refs).0.len());
        t_shared += t.elapsed().as_nanos();
        let t = Instant::now();
        for q in &queries {
            std::hint::black_box(two_pass(doc, q).arena_len());
        }
        t_single += t.elapsed().as_nanos();
    }
    let denom = reps as f64 * 1e6;
    MultiViewRow {
        views: queries.len(),
        shared_ms: t_shared as f64 / denom,
        single_sum_ms: t_single as f64 / denom,
        ratio: t_shared as f64 / t_single as f64,
    }
}

/// Drives the mixed workload: a server with ONE store shard holding a
/// hot document plus three neighbours, all with a warmed cached view;
/// each round applies one `UPDATE` to the hot document and reads every
/// neighbour's view. Reports overall request throughput and the
/// neighbours' result-cache hit rate across the run.
fn run_mixed_workload(factor: f64, rounds: usize) -> Vec<MixedRow> {
    // Setup (server + docs + view + warm-up) is shared with the
    // criterion `serve_mixed` bench so both measure the same workload.
    let w = mixed_workload(factor / 2.0);
    let server = &w.server;
    let hits_before = server.stats().result_hits;
    let misses_before = server.stats().result_misses;
    let (requests, elapsed) = mixed_pass(&w, rounds);
    let stats = server.stats();
    let neighbour_reads = (rounds * w.neighbours.len()) as f64;
    let hits = (stats.result_hits - hits_before) as f64;
    let misses = (stats.result_misses - misses_before) as f64;
    assert_eq!(
        hits + misses,
        neighbour_reads,
        "every neighbour read consults the result cache exactly once"
    );
    vec![MixedRow {
        workload: "hot_writer_neighbours".into(),
        requests_per_sec: requests as f64 / elapsed,
        neighbour_hit_rate: hits / neighbour_reads,
    }]
}

/// One timed pass of the mixed workload: `rounds` hot writes, each
/// followed by every neighbour's view read. Returns `(requests,
/// seconds)`. Rounds alternate insert/delete, so any even count leaves
/// the hot document at its starting size — passes are repeatable.
fn mixed_pass(w: &MixedWorkload, rounds: usize) -> (usize, f64) {
    assert!(
        rounds.is_multiple_of(2),
        "odd round counts grow the hot document"
    );
    let mut requests = 0usize;
    let t = Instant::now();
    for round in 0..rounds {
        // Alternating insert/delete keeps the hot document the same
        // size across rounds, so every round measures the same work.
        let update = if round % 2 == 0 { w.insert } else { w.delete };
        w.server
            .update_doc("hot", update)
            .expect("hot write applies");
        requests += 1;
        for n in w.neighbours {
            let req = Request::View {
                view: "nopeople".into(),
                doc: n.into(),
            };
            std::hint::black_box(
                w.server
                    .handle(&req)
                    .expect("neighbour view serves")
                    .body
                    .len(),
            );
            requests += 1;
        }
    }
    (requests, t.elapsed().as_secs_f64())
}

/// The slowest registration-time analysis, in microseconds, over four
/// descendant rename views — the `ANALYZE` report's `analysis_micros`.
fn max_analysis_micros() -> u64 {
    let server = Server::builder().threads(1).build();
    let views = [
        ("kw", "keyword", "kw2"),
        ("em", "emph", "em2"),
        ("pp", "person", "pp2"),
        ("bd", "bidder", "bd2"),
    ];
    for (name, from, to) in views {
        server
            .register_view(
                name,
                &format!(
                    r#"transform copy $a := doc("hot") modify do rename $a//{from} as {to} return $a"#
                ),
            )
            .expect("rename view registers");
    }
    views
        .iter()
        .map(|(name, _, _)| server.analyze(name).expect("view analyzes").micros)
        .max()
        .expect("at least one view registered")
}

/// Drives the pipelined front end the way a batching client would:
/// `n` `VIEW` lines (cycling four maintained views of one XMark
/// document) are written before any reply is read, and
/// [`serve_pipelined`] serves them over an in-memory transport
/// (`Cursor` in, `Vec` out) with `max_batch = depth` — the depth-16
/// shape of the ISSUE gate. Views are registered and warmed first, so
/// the steady state is what a pipelined deployment sees: result-cache
/// hits, with whole batches sharing one decode/frame/flush cycle. The
/// blocking comparison point is the same run's `serve_throughput` U1
/// row (full transform per request, one reply awaited per send).
fn run_pipelined(factor: f64, depth: usize, quick: bool, u1_rps: f64) -> PipelinedRow {
    let server = Server::builder().threads(4).build();
    server.load_doc("xmark", xmark_doc(factor));
    let views = [
        ("pv-people", "people"),
        ("pv-regions", "regions"),
        ("pv-categories", "categories"),
        ("pv-closed", "closed_auctions"),
    ];
    for (name, target) in views {
        server
            .register_view(
                name,
                &format!(
                    r#"transform copy $a := doc("xmark") modify do delete $a/site/{target} return $a"#
                ),
            )
            .expect("pipelined view registers");
    }
    for (name, _) in views {
        server
            .handle(&Request::View {
                view: name.into(),
                doc: "xmark".into(),
            })
            .expect("warm-up view serves");
    }
    let n = if quick { 512 } else { 2048 };
    let mut input = String::new();
    for i in 0..n {
        let (name, _) = views[i % views.len()];
        input.push_str(&format!("VIEW {name} xmark\n"));
    }
    input.push_str("QUIT\n");
    let opts = PipelineOptions {
        max_batch: depth,
        ..PipelineOptions::default()
    };
    // One untimed pass warms the reply path (allocator, result-cache
    // serialisations) before the timed passes.
    let mut sink = Vec::new();
    serve_pipelined(&server, Cursor::new(input.as_bytes()), &mut sink, &opts)
        .expect("pipelined warm-up pass serves");
    let reps = if quick { 3 } else { 6 };
    let mut best = f64::INFINITY;
    let mut out = Vec::new();
    for _ in 0..reps {
        out.clear();
        let t = Instant::now();
        serve_pipelined(&server, Cursor::new(input.as_bytes()), &mut out, &opts)
            .expect("pipelined pass serves");
        best = best.min(t.elapsed().as_secs_f64());
    }
    // Reply bodies are serialized XML (every line starts with '<'), so
    // counting `OK ` prefixes counts exactly the reply frames.
    let ok = out
        .split(|&b| b == b'\n')
        .filter(|line| line.starts_with(b"OK "))
        .count();
    assert_eq!(ok, n, "every pipelined VIEW must reply OK, in order");
    let rps = n as f64 / best;
    PipelinedRow {
        depth,
        requests_per_sec: rps,
        speedup_vs_u1: rps / u1_rps,
    }
}

/// Measures what durability costs on the write path: two identically
/// loaded servers run the same alternating insert/delete update loop
/// on a hot document, one with a WAL attached (every applied update
/// appends a length+CRC framed record and flushes before the reply)
/// and one without. Pass pairs alternate which server goes first and
/// the fastest pass per side is compared, same estimator as
/// `obs_overhead`; an apparent breach gets one re-measure before it
/// counts.
fn run_wal_overhead(factor: f64, rounds: usize) -> WalRow {
    assert!(
        rounds.is_multiple_of(2),
        "odd round counts grow the hot document"
    );
    let wal_path = std::env::temp_dir().join(format!("xust-bench-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal_path);
    let build = || {
        let server = Server::builder().threads(4).shards(1).build();
        server.load_doc("hot", xmark_doc(factor / 2.0));
        server
    };
    let walled = build();
    walled.attach_wal(&wal_path).expect("fresh WAL attaches");
    let plain = build();
    let insert = r#"transform copy $a := doc("hot") modify do insert <xust-mark><t>w</t></xust-mark> into $a/site return $a"#;
    let delete = r#"transform copy $a := doc("hot") modify do delete $a//xust-mark return $a"#;
    let update_pass = |server: &Server| -> f64 {
        let t = Instant::now();
        for round in 0..rounds {
            let update = if round % 2 == 0 { insert } else { delete };
            server.update_doc("hot", update).expect("hot write applies");
        }
        t.elapsed().as_secs_f64()
    };
    // Untimed warm-up per server so neither pays first-run effects.
    update_pass(&walled);
    update_pass(&plain);
    const PASSES: usize = 12;
    let measure = || -> (f64, f64) {
        let (mut best_wal, mut best_plain) = (f64::INFINITY, f64::INFINITY);
        for i in 0..PASSES {
            let (w, p) = if i % 2 == 0 {
                let w = update_pass(&walled);
                (w, update_pass(&plain))
            } else {
                let p = update_pass(&plain);
                (update_pass(&walled), p)
            };
            best_wal = best_wal.min(w);
            best_plain = best_plain.min(p);
        }
        (best_wal, best_plain)
    };
    let (mut best_wal, mut best_plain) = measure();
    if best_wal / best_plain - 1.0 > WAL_OVERHEAD_MARGIN / 100.0 {
        // Same rationale as obs_overhead: the min estimator shrugs off
        // slow outliers but not a CPU-frequency step between the two
        // sides' fastest passes. A real logging regression reproduces.
        let (w2, p2) = measure();
        if w2 / p2 < best_wal / best_plain {
            (best_wal, best_plain) = (w2, p2);
        }
    }
    let _ = std::fs::remove_file(&wal_path);
    WalRow {
        workload: "hot_writer_wal".into(),
        wal_rps: rounds as f64 / best_wal,
        no_wal_rps: rounds as f64 / best_plain,
        overhead_pct: ((best_wal / best_plain) - 1.0).max(0.0) * 100.0,
    }
}

/// Measures what in-place result patching buys on the write path: two
/// identically loaded servers (patching on vs `.patching(false)`) each
/// hold a warmed rename view of an XMark document with a
/// `patch-probe-zone` element grafted in as the root's first child.
/// Rounds alternate inserting and deleting a `<keyword>` probe inside
/// the zone — a single-subtree write whose delta intersects the view's
/// alphabet, so the cached entry can never be retained: the patching
/// server localises the write against the provenance map and splices
/// the affected fragments, the control recomputes the whole view.
/// Fates are counter-verified and the served bodies asserted
/// byte-identical before anything is timed; the timed comparison takes
/// the minimum over order-alternated pass pairs with one re-measure on
/// an apparent breach, same estimator as `wal_overhead`.
fn run_ivm_patch(factor: f64, rounds: usize) -> IvmPatchRow {
    assert!(
        rounds.is_multiple_of(2),
        "odd round counts grow the probed document"
    );
    let base = xmark_doc(factor).serialize();
    let open_end = base.find('>').expect("xmark has a root tag") + 1;
    let spiked = format!(
        "{}<patch-probe-zone/>{}",
        &base[..open_end],
        &base[open_end..]
    );
    let probed = Document::parse(&spiked).expect("probed xmark parses");
    let elements = element_count(&probed);
    let view = Request::View {
        view: "kwren".into(),
        doc: "xmark".into(),
    };
    let build = |patching: bool| {
        let server = Server::builder()
            .threads(4)
            .shards(1)
            .patching(patching)
            .build();
        server.load_doc("xmark", probed.clone());
        server
            .register_view(
                "kwren",
                r#"transform copy $a := doc("xmark") modify do rename $a//keyword as kw return $a"#,
            )
            .expect("rename view registers");
        server.handle(&view).expect("warm-up view serves");
        server
    };
    let patcher = build(true);
    let control = build(false);
    let insert = r#"transform copy $a := doc("xmark") modify do insert <keyword>probe</keyword> into $a/site/patch-probe-zone return $a"#;
    let delete = r#"transform copy $a := doc("xmark") modify do delete $a/site/patch-probe-zone/keyword return $a"#;
    let update_pass = |server: &Server| -> f64 {
        let t = Instant::now();
        for round in 0..rounds {
            let update = if round % 2 == 0 { insert } else { delete };
            server
                .update_doc("xmark", update)
                .expect("probe write applies");
        }
        t.elapsed().as_secs_f64()
    };
    // One counter-verified warm-up pass per server: the comparison only
    // means anything if every probe write takes its intended fate.
    update_pass(&patcher);
    update_pass(&control);
    let (ps, cs) = (patcher.stats(), control.stats());
    assert_eq!(
        ps.delta_patched as usize, rounds,
        "every probe write against the patching server must take the patch fate"
    );
    assert_eq!(
        ps.delta_recomputed, 0,
        "no probe write may spill past the span threshold into a recompute"
    );
    assert_eq!(
        cs.delta_patched, 0,
        "the patching(false) control must never patch"
    );
    assert_eq!(
        cs.delta_recomputed as usize, rounds,
        "every control write must recompute the view"
    );
    assert_eq!(
        patcher.handle(&view).expect("patched view serves").body,
        control.handle(&view).expect("recomputed view serves").body,
        "patched view body must stay byte-identical to the recomputed one"
    );
    const PASSES: usize = 8;
    let measure = || -> (f64, f64) {
        let (mut best_patch, mut best_rec) = (f64::INFINITY, f64::INFINITY);
        for i in 0..PASSES {
            let (p, r) = if i % 2 == 0 {
                let p = update_pass(&patcher);
                (p, update_pass(&control))
            } else {
                let r = update_pass(&control);
                (update_pass(&patcher), r)
            };
            best_patch = best_patch.min(p);
            best_rec = best_rec.min(r);
        }
        (best_patch, best_rec)
    };
    let (mut best_patch, mut best_rec) = measure();
    if best_patch / best_rec > IVM_PATCH_MARGIN {
        // Same rationale as wal_overhead: the min estimator shrugs off
        // slow outliers but not a CPU-frequency step between the two
        // sides' fastest passes. A real localisation regression
        // reproduces; a drift artifact does not.
        let (p2, r2) = measure();
        if p2 / r2 < best_patch / best_rec {
            (best_patch, best_rec) = (p2, r2);
        }
    }
    IvmPatchRow {
        elements,
        patch_micros_per_write: best_patch / rounds as f64 * 1e6,
        recompute_micros_per_write: best_rec / rounds as f64 * 1e6,
        ratio: best_patch / best_rec,
    }
}

/// Measures what the tracing/histogram layer costs: ONE server runs
/// the mixed workload with tracing toggled on and off between passes
/// (`Server::set_tracing`), so heap layout, caches, and documents are
/// byte-identical across the comparison — only the instrumentation
/// differs. Pass pairs alternate which mode goes first (drift hits
/// both sides alike) and the fastest pass per mode is compared: the
/// min estimates the true floor, noise only ever inflates a pass.
fn run_obs_overhead(factor: f64, rounds: usize) -> ObsRow {
    let w = mixed_workload_with(factor / 2.0, true);
    // One untimed pass per mode so neither side pays first-run cache
    // effects inside a timed window.
    w.server.set_tracing(true);
    mixed_pass(&w, 2);
    w.server.set_tracing(false);
    mixed_pass(&w, 2);
    const PASSES: usize = 24;
    let mut requests = 0usize;
    let mut measure = || -> (f64, f64) {
        let (mut best_on, mut best_off) = (f64::INFINITY, f64::INFINITY);
        let mut timed = |on: bool| -> f64 {
            w.server.set_tracing(on);
            let (n, secs) = mixed_pass(&w, rounds);
            requests = n;
            secs
        };
        for i in 0..PASSES {
            let (a, b) = if i % 2 == 0 {
                let a = timed(true);
                (a, timed(false))
            } else {
                let b = timed(false);
                (timed(true), b)
            };
            best_on = best_on.min(a);
            best_off = best_off.min(b);
        }
        (best_on, best_off)
    };
    let (mut best_on, mut best_off) = measure();
    if best_on / best_off - 1.0 > OBS_OVERHEAD_MARGIN / 100.0 {
        // An apparent breach gets one re-measure: the min estimator is
        // immune to slow outliers but not to a CPU-frequency step
        // between the two modes' fastest passes. A real regression
        // reproduces; a drift artifact does not.
        let (on2, off2) = measure();
        if on2 / off2 < best_on / best_off {
            (best_on, best_off) = (on2, off2);
        }
    }
    w.server.set_tracing(true);
    ObsRow {
        workload: "hot_writer_neighbours".into(),
        instrumented_rps: requests as f64 / best_on,
        no_trace_rps: requests as f64 / best_off,
        overhead_pct: ((best_on / best_off) - 1.0).max(0.0) * 100.0,
    }
}

/// Times a TRANSFORM reply both ways over U1–U10 (Fig. 11 inserts, each
/// with its compile-time method): `evaluate_into` writing the bytes
/// straight out of the top-down pass, against `evaluate` building a
/// result tree that `serialize` then walks. Bytes are asserted
/// identical first. Per query, the fastest of `reps` order-alternated
/// pass pairs counts; the row reports the means over the ten queries.
fn run_transform_reply(doc: &Document, reps: usize) -> TransformReplyRow {
    let index = Serialized::build(doc).expect("fits 32-bit offsets");
    let (mut streamed, mut tree) = (0.0, 0.0);
    for i in 0..WORKLOAD.len() {
        let ct = CompiledTransform::compile(insert_query(i));
        let method = ct.method();
        let via_tree = || ct.evaluate(doc, method).expect("evaluates").serialize();
        let via_stream = || {
            let mut out = String::new();
            ct.evaluate_into(doc, Some(&index), method, &mut out)
                .expect("evaluates");
            out
        };
        assert_eq!(
            via_stream(),
            via_tree(),
            "streamed {} reply diverges from the tree path",
            u_name(i)
        );
        let time = |f: &dyn Fn() -> String| {
            let t = Instant::now();
            std::hint::black_box(f().len());
            t.elapsed().as_secs_f64()
        };
        let (mut best_s, mut best_t) = (f64::INFINITY, f64::INFINITY);
        for r in 0..reps {
            let (s, t) = if r % 2 == 0 {
                let s = time(&via_stream);
                (s, time(&via_tree))
            } else {
                let t = time(&via_tree);
                (time(&via_stream), t)
            };
            best_s = best_s.min(s);
            best_t = best_t.min(t);
        }
        streamed += best_s;
        tree += best_t;
    }
    let n = WORKLOAD.len() as f64;
    TransformReplyRow {
        elements: element_count(doc),
        streamed_ms: streamed / n * 1e3,
        tree_ms: tree / n * 1e3,
        ratio: streamed / tree,
    }
}

/// Absolute serializer throughput and serialized-index build time: the
/// fastest of `reps` whole-document `serialize` passes and of `reps`
/// [`Serialized::build`]s.
fn run_serialize(doc: &Document, reps: usize) -> SerializeRow {
    let bytes = doc.serialize().len();
    let (mut best, mut best_index) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(doc.serialize().len());
        best = best.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(Serialized::build(doc).map(|ix| ix.len()));
        best_index = best_index.min(t.elapsed().as_secs_f64());
    }
    SerializeRow {
        bytes,
        mb_s: bytes as f64 / best / 1e6,
        index_slots: doc.arena_len(),
        index_ms: best_index * 1e3,
    }
}

/// The absolute floor under every write: the fastest of `reps`
/// whole-document clones and drops, and the mean UPDATE cost on a
/// server with no views (so no maintenance runs), over the fastest of
/// `reps` passes of insert/delete pairs that keep the document's size.
fn run_write_floor(doc: &Document, reps: usize) -> WriteFloorRow {
    let (mut clone, mut dropt) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t = Instant::now();
        let copy = std::hint::black_box(doc.clone());
        clone = clone.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        drop(copy);
        dropt = dropt.min(t.elapsed().as_secs_f64());
    }
    let server = Server::builder().threads(1).shards(1).build();
    server.load_doc("xmark", doc.clone());
    let insert = r#"transform copy $a := doc("xmark") modify do insert <floor-probe/> into $a/site return $a"#;
    let delete =
        r#"transform copy $a := doc("xmark") modify do delete $a/site/floor-probe return $a"#;
    const PAIRS: usize = 4;
    let mut update = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..PAIRS {
            for u in [insert, delete] {
                server.update_doc("xmark", u).expect("probe write applies");
            }
        }
        update = update.min(t.elapsed().as_secs_f64() / (2 * PAIRS) as f64);
    }
    assert_eq!(
        server.stats().update_requests as usize,
        reps * PAIRS * 2,
        "every probe write must apply"
    );
    WriteFloorRow {
        elements: element_count(doc),
        tree_clone_us: clone * 1e6,
        tree_drop_us: dropt * 1e6,
        update_no_views_us: update * 1e6,
    }
}

/// Elements in `doc` (the size the per-element rows are stated against).
fn element_count(doc: &Document) -> usize {
    doc.root().map_or(0, |root| {
        doc.descendants_or_self(root)
            .filter(|&n| doc.is_element(n))
            .count()
    })
}

/// Hand-rolled JSON (the workspace is offline — no serde).
#[allow(clippy::too_many_arguments)]
fn render_json(
    factor: f64,
    elements: usize,
    quick: bool,
    mv: &MultiViewRow,
    serve: &[ServeRow],
    pipe: &PipelinedRow,
    mixed: &[MixedRow],
    obs: &ObsRow,
    wal: &WalRow,
    ivm: &IvmPatchRow,
    reply: &TransformReplyRow,
    ser: &SerializeRow,
    floor: &WriteFloorRow,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"harness\": \"bench_smoke\",\n");
    s.push_str(&format!("  \"xmark_factor\": {factor},\n"));
    s.push_str(&format!("  \"elements\": {elements},\n"));
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!(
        "  \"multi_view\": {{\"views\": {}, \"shared_ms\": {:.3}, \"single_sum_ms\": {:.3}, \"ratio\": {:.3}}},\n",
        mv.views, mv.shared_ms, mv.single_sum_ms, mv.ratio
    ));
    s.push_str("  \"serve_throughput\": [\n");
    for (i, r) in serve.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"query\": \"{}\", \"requests_per_sec\": {:.1}}}{}\n",
            r.name,
            r.requests_per_sec,
            if i + 1 < serve.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"serve_pipelined\": {{\"depth\": {}, \"requests_per_sec\": {:.1}, \"speedup_vs_u1\": {:.1}}},\n",
        pipe.depth, pipe.requests_per_sec, pipe.speedup_vs_u1
    ));
    s.push_str("  \"serve_mixed\": [\n");
    for (i, r) in mixed.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"{}\", \"requests_per_sec\": {:.1}, \"neighbour_hit_rate\": {:.3}}}{}\n",
            r.workload,
            r.requests_per_sec,
            r.neighbour_hit_rate,
            if i + 1 < mixed.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"obs_overhead\": {{\"workload\": \"{}\", \"instrumented_rps\": {:.1}, \"no_trace_rps\": {:.1}, \"overhead_pct\": {:.2}}},\n",
        obs.workload, obs.instrumented_rps, obs.no_trace_rps, obs.overhead_pct
    ));
    s.push_str(&format!(
        "  \"wal_overhead\": {{\"workload\": \"{}\", \"wal_rps\": {:.1}, \"no_wal_rps\": {:.1}, \"overhead_pct\": {:.2}}},\n",
        wal.workload, wal.wal_rps, wal.no_wal_rps, wal.overhead_pct
    ));
    s.push_str(&format!(
        "  \"ivm_patch\": {{\"elements\": {}, \"patch_micros_per_write\": {:.1}, \"recompute_micros_per_write\": {:.1}, \"ratio\": {:.4}}},\n",
        ivm.elements, ivm.patch_micros_per_write, ivm.recompute_micros_per_write, ivm.ratio
    ));
    s.push_str(&format!(
        "  \"transform_reply\": {{\"elements\": {}, \"streamed_ms\": {:.3}, \"tree_ms\": {:.3}, \"ratio\": {:.3}}},\n",
        reply.elements, reply.streamed_ms, reply.tree_ms, reply.ratio
    ));
    s.push_str(&format!(
        "  \"serialize_mb_s\": {{\"bytes\": {}, \"mb_s\": {:.1}}},\n",
        ser.bytes, ser.mb_s
    ));
    s.push_str(&format!(
        "  \"serialized_index_ms\": {{\"bytes\": {}, \"slots\": {}, \"ms\": {:.3}}},\n",
        ser.bytes, ser.index_slots, ser.index_ms
    ));
    s.push_str(&format!(
        "  \"write_floor\": {{\"elements\": {}, \"tree_clone_us\": {:.1}, \"tree_drop_us\": {:.1}, \"update_no_views_us\": {:.1}}}\n",
        floor.elements, floor.tree_clone_us, floor.tree_drop_us, floor.update_no_views_us
    ));
    s.push_str("}\n");
    s
}
