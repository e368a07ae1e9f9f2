//! `xust-serve` throughput: prepared execution versus fixed methods
//! that re-parse and re-compile per request (what a naive service would
//! do).
//!
//! The `served/*` rows go through the full serving stack — prepared
//! cache, the compiled transform's fixed method, stats — and should
//! comfortably beat the worst fixed method on the same XMark workload. The batch row measures the multi-document entry
//! point fanning out over the worker pool.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xust_bench::{u_name, xmark_doc, WORKLOAD};
use xust_core::{evaluate, parse_transform, Method};
use xust_serve::{Request, Server};

const FACTOR: f64 = 0.005;

fn transform_syntax(i: usize) -> String {
    format!(
        r#"transform copy $a := doc("xmark") modify do insert <xust-mark><origin>bench</origin></xust-mark> into $a{} return $a"#,
        WORKLOAD[i]
    )
}

/// Fixed-method baseline: parse + compile + evaluate on every request,
/// as a stateless handler would.
fn fixed(c: &mut Criterion) {
    let doc = xmark_doc(FACTOR);
    let mut g = c.benchmark_group("serve_fixed");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(900));
    for i in [0, 3, 7] {
        let text = transform_syntax(i);
        for m in [Method::CopyUpdate, Method::Naive, Method::TwoPass] {
            g.bench_with_input(
                BenchmarkId::new(format!("{m}"), u_name(i)),
                &text,
                |b, text| {
                    b.iter(|| {
                        // A stateless handler's full request cost:
                        // parse, compile, evaluate, serialize the body.
                        let q = parse_transform(text).expect("parses");
                        evaluate(&doc, &q, m).expect("evaluates").serialize().len()
                    })
                },
            );
        }
    }
    g.finish();
}

/// The serving stack: compiled once, with the method fixed at compile
/// time.
fn served(c: &mut Criterion) {
    let doc = xmark_doc(FACTOR);
    let server = Server::builder().threads(8).build();
    server.load_doc("xmark", doc);
    let mut g = c.benchmark_group("serve_prepared");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(900));
    for i in [0, 3, 7] {
        let request = Request::Transform {
            doc: "xmark".into(),
            query: transform_syntax(i),
        };
        // Warm the prepared cache.
        for _ in 0..8 {
            server.handle(&request).expect("served");
        }
        g.bench_with_input(
            BenchmarkId::new("prepared", u_name(i)),
            &request,
            |b, request| b.iter(|| server.handle(request).expect("served").body.len()),
        );
    }
    let snap = server.stats();
    assert!(
        snap.cache_hits > snap.compiles,
        "bench must exercise the cache: {snap}"
    );
    println!("serve stats after bench: {snap}");
    g.finish();
}

/// The batched multi-document entry point, 64 requests per batch.
fn batched(c: &mut Criterion) {
    let server = Server::builder().threads(8).build();
    server.load_doc("xmark", xmark_doc(FACTOR));
    server.load_doc("xmark2", xmark_doc(FACTOR / 2.0));
    server
        .register_view(
            "nopeople",
            r#"transform copy $a := doc("xmark") modify do delete $a/site/people return $a"#,
        )
        .expect("registers");
    let mut g = c.benchmark_group("serve_batch");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(1));
    let batch: Vec<Request> = (0..64)
        .map(|i| match i % 3 {
            0 => Request::View {
                view: "nopeople".into(),
                doc: "xmark".into(),
            },
            1 => Request::View {
                view: "nopeople".into(),
                doc: "xmark2".into(),
            },
            _ => Request::Transform {
                doc: "xmark".into(),
                query: transform_syntax(0),
            },
        })
        .collect();
    g.bench_function("batch64", |b| {
        b.iter(|| {
            let results = server.execute_batch(batch.clone());
            assert!(results.iter().all(|r| r.is_ok()));
            results.len()
        })
    });
    g.finish();
}

/// Work-stealing batch execution across shard counts vs a sequential
/// loop over the same requests: the speedup the sharded store + parallel
/// executor buy, and the cost (if any) of finer sharding.
fn sharded_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve_sharded_batch");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(1));
    let docs: Vec<_> = (0..8)
        .map(|i| (format!("doc{i}"), xmark_doc(FACTOR / 4.0)))
        .collect();
    let batch: Vec<Request> = (0..64)
        .map(|i| Request::Transform {
            doc: format!("doc{}", i % docs.len()),
            query: transform_syntax(i % 3),
        })
        .collect();
    for shards in [1usize, 8] {
        let server = Server::builder().threads(8).shards(shards).build();
        for (name, doc) in &docs {
            server.load_doc(name.clone(), doc.clone());
        }
        // Warm the prepared cache so the rows measure execution.
        for r in server.execute_batch(batch.clone()) {
            r.expect("warms");
        }
        g.bench_with_input(
            BenchmarkId::new("parallel", format!("shards{shards}")),
            &server,
            |b, server| {
                b.iter(|| {
                    let results = server.execute_batch(batch.clone());
                    assert!(results.iter().all(|r| r.is_ok()));
                    results.len()
                })
            },
        );
        if shards == 8 {
            g.bench_with_input(
                BenchmarkId::new("sequential", format!("shards{shards}")),
                &server,
                |b, server| {
                    b.iter(|| {
                        batch
                            .iter()
                            .map(|r| server.handle(r).expect("serves").body.len())
                            .sum::<usize>()
                    })
                },
            );
        }
    }
    g.finish();
}

/// Mixed read/write: one `UPDATE` to a hot document followed by view
/// reads of three same-store-shard neighbours per iteration. With the
/// result cache keyed by per-document versions the neighbour reads are
/// all cache hits (asserted after the group) — the row measures the
/// cost of a write *plus* three hits, and regresses loudly if neighbour
/// reads ever fall back to re-materialization.
fn mixed_read_write(c: &mut Criterion) {
    // Setup shared with bench_smoke's CI-gated `serve_mixed` row — the
    // trend benchmark and the smoke check measure the same workload.
    let w = xust_bench::mixed_workload(FACTOR / 2.0);
    let server = &w.server;
    let mut g = c.benchmark_group("serve_mixed");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(900));
    let hits_before = server.stats().result_hits;
    let misses_before = server.stats().result_misses;
    let mut flip = false;
    g.bench_function("hot_writer_neighbours", |b| {
        b.iter(|| {
            flip = !flip;
            server
                .update_doc("hot", if flip { w.insert } else { w.delete })
                .expect("writes");
            w.neighbours
                .iter()
                .map(|n| {
                    server
                        .handle(&Request::View {
                            view: "nopeople".into(),
                            doc: (*n).into(),
                        })
                        .expect("serves")
                        .body
                        .len()
                })
                .sum::<usize>()
        })
    });
    g.finish();
    let snap = server.stats();
    assert_eq!(
        snap.result_misses, misses_before,
        "a hot writer must cause zero neighbour misses: {snap}"
    );
    assert!(snap.result_hits > hits_before);
}

criterion_group!(
    benches,
    fixed,
    served,
    batched,
    sharded_batch,
    mixed_read_write
);
criterion_main!(benches);
