//! End-to-end served-query benchmark.
//!
//! Drives a real `dq-server` over TCP, in-process, with one connection
//! in a closed loop. Each workload sends a fixed, seed-generated
//! sequence of statements and checks every answer against an embedded
//! twin. With `--trace 1` the same sequence is replayed in-process
//! through each layer's public functions to split the time by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload point_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Working files go under `.bench_out/` in the current directory.

mod bench;
mod client;
mod gen;
mod replay;
mod sys;
mod trace;

#[global_allocator]
static HEAP: sys::CountingAlloc = sys::CountingAlloc;

use bench::{Kind, Tally, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// `setup_s`, `first_answer_s` and `recovery_s` report the median of
/// their set-ups and restarts. The timed phase is cut into slices of
/// `bench::SLICE_READS` reads; `read_p99_us` and `cpu_us_per_op` report
/// the lower quartile of their per-slice values and `read_qps` the upper
/// one, so that the seconds in which the shared host takes the CPU away
/// move only the slices they fall in. A median of slices was tried
/// first: on a 2-vCPU VM whose neighbours steal 5-10% of the time, four
/// in ten runs still had most slices disturbed.
const QUIET: f64 = 0.25;
const IDLE_INTERVAL: Duration = Duration::from_secs(1);
const OUT_DIR: &str = ".bench_out";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: bad number `{value}`"));
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required (point_hot, paged_cold, tag_mixed)")?,
        seed,
        seconds,
        trace,
    })
}

/// Metric name → (value, unit), printed in name order.
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(OUT_DIR).join(format!("run-{}-{}", args.kind.name(), std::process::id()));
    let mut tally = Tally::default();
    let result = run(&args, &root, &mut tally);
    let _ = std::fs::remove_dir_all(&root);
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.kind.name());
            std::process::exit(2);
        }
    };
    if let Some(failure) = tally.first_failure() {
        eprintln!("perfbench: correctness check failed: {failure}");
    }
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(line, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    line.push_str("}}");
    println!("{line}");
    if tally.failed > 0 {
        std::process::exit(1);
    }
}

fn run(args: &Args, root: &Path, tally: &mut Tally) -> Result<Metrics, String> {
    std::fs::create_dir_all(root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let mut w = Workload::generate(args.kind, args.seed, args.seconds, root.to_path_buf())?;
    println!(
        "perfbench: {} seed {}: {} warm-up + {} timed ops ({} writes)",
        args.kind.name(),
        args.seed,
        w.warm.len(),
        w.ops.len(),
        w.writes()
    );
    if args.trace {
        traced(args, &mut w, tally)
    } else {
        untraced(&mut w, tally)
    }
}

fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics: several set-ups, the served timed phase,
/// several restarts.
fn untraced(w: &mut Workload, tally: &mut Tally) -> Result<Metrics, String> {
    let mut setup_s = Vec::new();
    let mut first_s = Vec::new();
    let mut set_up = |w: &mut Workload, tally: &mut Tally| -> Result<bench::Served, String> {
        let (served, obs) = w.setup(tally)?;
        setup_s.push(obs.setup_s);
        first_s.push(obs.first_answer_s);
        Ok(served)
    };
    // Half the set-ups run before the timed phase and the rest between
    // the restarts after it, so that both kinds of sample span the run
    // rather than one moment of the host's load.
    let setups = w.kind.setups();
    let restarts = w.kind.restarts();
    let before = setups.div_ceil(2);
    for _ in 1..before {
        let served = set_up(w, tally)?;
        w.discard(served);
    }
    let heap_base = sys::reset_peak_heap();
    let mut served = set_up(w, tally)?;
    let mut timed = w.timed(&mut served, tally)?;
    let peak_heap_mb = sys::peak_heap_since(heap_base);
    let stopped = w.stop(served);
    let mut restart_s = Vec::with_capacity(restarts);
    let mut later = setups - before;
    for i in 0..restarts {
        restart_s.push(w.restart(&stopped, tally, i + 1 == restarts)?.0);
        if later > 0 && i + 1 < restarts {
            let served = set_up(w, tally)?;
            w.discard(served);
            later -= 1;
        }
    }
    w.forget(stopped);
    for _ in 0..later {
        let served = set_up(w, tally)?;
        w.discard(served);
    }

    let ms = |v: &[f64]| v.iter().map(|s| format!("{:.1}", s * 1e3)).collect::<Vec<_>>().join(" ");
    println!("perfbench: set-up ms: {}", ms(&setup_s));
    println!("perfbench: first answer ms: {}", ms(&first_s));
    println!("perfbench: restart ms: {}", ms(&restart_s));
    println!(
        "perfbench: {} reads, {} writes in {:.2}s, {} slices of {} reads",
        timed.reads.len(),
        timed.writes.len(),
        timed.wall.as_secs_f64(),
        timed.slices.len(),
        bench::SLICE_READS
    );
    for (what, samples) in [("read", &mut timed.reads), ("write", &mut timed.writes)] {
        if !samples.is_empty() {
            let pcts: Vec<String> = [10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9]
                .iter()
                .map(|&p| format!("p{p}={:.0}", sys::percentile_us(samples, p)))
                .collect();
            println!("perfbench: {what} round trip (us): {}", pcts.join(" "));
        }
    }
    let mut m = Metrics::new();
    m.insert("setup_s", (sys::median(&mut setup_s), "s"));
    m.insert("first_answer_s", (sys::median(&mut first_s), "s"));
    m.insert("recovery_s", (sys::median(&mut restart_s), "s"));
    let mut slice_p99: Vec<f64> = timed.slices.iter().map(|s| s.read_p99_us).collect();
    println!(
        "perfbench: slice read p99 (us): min={:.0} q1={:.0} median={:.0} q3={:.0} max={:.0}",
        sys::quantile(&mut slice_p99, 0.0),
        sys::quantile(&mut slice_p99, 0.25),
        sys::quantile(&mut slice_p99, 0.5),
        sys::quantile(&mut slice_p99, 0.75),
        sys::quantile(&mut slice_p99, 1.0)
    );
    // Per-slice figures report their quiet quartile, see QUIET.
    let quiet = |f: fn(&bench::Slice) -> f64, q: f64| {
        sys::quantile(&mut timed.slices.iter().map(f).collect::<Vec<_>>(), q)
    };
    m.insert("read_qps", (quiet(|s| s.reads_per_s, 1.0 - QUIET), "1/s"));
    m.insert("read_p99_us", (quiet(|s| s.read_p99_us, QUIET), "us"));
    m.insert("cpu_us_per_op", (quiet(|s| s.cpu_us_per_op, QUIET), "us"));
    m.insert("read_p50_us", (sys::percentile_us(&mut timed.reads, 50.0), "us"));
    m.insert("peak_heap_mb", (peak_heap_mb, "MB"));
    let ok = (tally.attempted - tally.failed) as f64;
    m.insert("success_rate", (per(ok, tally.attempted as f64), "ratio"));
    print_metrics(&m);
    Ok(m)
}

/// Counts that must come out the same from the served run and from the
/// replay, and across runs of one seed.
const REPEATED_COUNTS: [&str; 12] = [
    "storage.pool.page_reads",
    "storage.pool.hits",
    "storage.pool.misses",
    "storage.pool.evictions",
    "storage.pool.readahead_pages",
    "wal.fsync",
    "wal.append.bytes",
    "mvcc.epochs_published",
    "tagstore.index.rebuilds",
    "columnar.conversions",
    "storage.paged.key_hash_builds",
    "query.point_lookups",
];

/// Counts that must repeat over the first answer, which builds the lazy
/// indexes.
const FIRST_ANSWER_COUNTS: [&str; 4] = [
    "storage.pool.page_reads",
    "storage.paged.index_builds",
    "storage.paged.key_hash_builds",
    "tagstore.index.rebuilds",
];

/// The per-layer metrics: one served set-up and timed phase for the
/// counts, then an untraced and a traced in-process replay for the
/// times and the tracing overhead.
fn traced(args: &Args, w: &mut Workload, tally: &mut Tally) -> Result<Metrics, String> {
    let (mut served, setup) = w.setup(tally)?;
    if w.pages > 0 {
        println!("perfbench: paged relation of {} pages", w.pages);
    }
    let mut timed = w.timed(&mut served, tally)?;
    let disk_mb = w.data_mb(&served);
    let idle_cpu_pct = w.idle_cpu_pct(IDLE_INTERVAL);
    let stopped = w.stop(served);
    let before_restart = bench::snap();
    let (_, replayed_records) = w.restart(&stopped, tally, true)?;
    let restart = bench::Delta::since(before_restart);
    w.forget(stopped);
    let plain = w.replay(false, tally)?;
    let rp = w.replay(true, tally)?;

    let c = &timed.counters;
    let reads = timed.reads.len() as f64;
    let writes = timed.writes.len() as f64;
    let ops = reads + writes;
    let cf = |name: &str| c.counter(name) as f64;

    // ---- counts: served vs replay, and vs the last run of this seed
    let mut counts: Vec<(String, u64, u64)> = REPEATED_COUNTS
        .iter()
        .map(|&n| (n.to_owned(), c.counter(n), rp.counters.counter(n)))
        .collect();
    for n in FIRST_ANSWER_COUNTS {
        let first = |d: &bench::Delta| d.counter(n);
        counts.push((format!("first_answer.{n}"), first(&setup.first_answer), first(&rp.first_answer)));
    }
    counts.push(("server.stmt_cache.hits".into(), c.counter("server.stmt_cache.hits"), rp.hits));
    counts.push(("server.stmt_cache.misses".into(), c.counter("server.stmt_cache.misses"), rp.misses));
    counts.push((
        "server.stmt_cache.invalidations".into(),
        c.counter("server.stmt_cache.invalidations"),
        rp.invalidations,
    ));
    let mut mismatches = 0u64;
    for (name, served_n, replay_n) in &counts {
        if served_n != replay_n {
            mismatches += 1;
            println!("perfbench: count {name} differs: served {served_n}, replay {replay_n}");
        }
    }
    mismatches += compare_with_last_run(args, &counts)?;

    // ---- spans: self time per name and per layer
    let by_name = trace::self_times(&rp.spans);
    let total = |name: &str| by_name.get(name).map(|s| s.1 as f64 / 1e3).unwrap_or(0.0);
    let count = |name: &str| by_name.get(name).map(|s| s.0 as f64).unwrap_or(0.0);
    let mean = |name: &str| per(total(name), count(name));
    let read_span_us = mean("request.read");
    // The fsync runs inside commit_write; charge it to storage.
    let (_, fsync_sum_us) = rp.counters.histogram("wal.fsync_us");
    let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, (_, _, self_ns)) in &by_name {
        *layers.entry(trace::layer(name)).or_default() += *self_ns as f64 / 1e3;
    }
    if let Some(server) = layers.get_mut("server") {
        *server -= fsync_sum_us as f64;
    }
    *layers.entry("storage").or_default() += fsync_sum_us as f64;
    let overhead_pct = (rp.wall.as_secs_f64() / plain.wall.as_secs_f64() - 1.0) * 100.0;
    write_trace_files(args, &rp.spans, &by_name, &layers, ops, overhead_pct, &rp, &plain)?;

    let (fsyncs, fsync_us) = c.histogram("wal.fsync_us");
    let (pool_hits, pool_misses) = (cf("storage.pool.hits"), cf("storage.pool.misses"));
    let (stmt_hits, stmt_misses) = (cf("server.stmt_cache.hits"), cf("server.stmt_cache.misses"));
    let (rec_runs, rec_us) = restart.histogram("recovery.duration_us");
    let candidates =
        rp.counters.counter("tagstore.bitmap.candidate_rows") as f64 + rp.paged_candidates as f64;
    let write_p99 = if timed.writes.is_empty() {
        0.0
    } else {
        sys::p99_us(&mut timed.writes, "writes")?
    };
    let layer_us = |l: &str| per(layers.get(l).copied().unwrap_or(0.0), ops);

    let mut m = Metrics::new();
    let us = "us";
    m.insert("server.wait_us", (sys::mean_us(&timed.reads) - read_span_us, us));
    m.insert("server.codec_us", (per(total("server.codec"), ops), us));
    m.insert("server.render_us", (per(total("server.render"), ops), us));
    m.insert("server.idle_cpu_pct", (idle_cpu_pct, "%"));
    m.insert("server.commit_write_us", (mean("server.commit_write"), us));
    m.insert("mvcc.epochs_per_write", (per(cf("mvcc.epochs_published"), writes), "ratio"));
    m.insert("query.parse_us", (mean("query.parse"), us));
    m.insert("query.plan_us", (mean("query.plan"), us));
    m.insert("query.exec_us", (mean("query.exec"), us));
    m.insert("query.prepare_write_us", (mean("query.prepare_write"), us));
    m.insert("query.stmt_cache_hit_rate", (per(stmt_hits, stmt_hits + stmt_misses), "ratio"));
    m.insert(
        "query.stmt_cache_invalidations_per_write",
        (per(cf("server.stmt_cache.invalidations"), writes), "ratio"),
    );
    m.insert("query.point_lookup_share", (per(cf("query.point_lookups"), reads), "ratio"));
    m.insert("query.rows_out_per_read", (per(rp.rows_out as f64, reads), "count"));
    m.insert(
        "tagstore.index_rebuilds_per_write",
        (per(cf("tagstore.index.rebuilds"), writes), "ratio"),
    );
    m.insert(
        "tagstore.columnar_conversions_per_write",
        (per(cf("columnar.conversions"), writes), "ratio"),
    );
    m.insert(
        "tagstore.candidate_rows_per_row_out",
        (per(candidates, rp.rows_out as f64), "ratio"),
    );
    m.insert("wal.fsyncs_per_write", (per(cf("wal.fsync"), writes), "ratio"));
    m.insert("wal.fsync_us", (per(fsync_us as f64, fsyncs as f64), us));
    m.insert("wal.bytes_per_write", (per(cf("wal.append.bytes"), writes), "B"));
    m.insert("pool.hit_rate", (per(pool_hits, pool_hits + pool_misses), "ratio"));
    m.insert("pool.page_reads_per_read", (per(cf("storage.pool.page_reads"), reads), "ratio"));
    m.insert("pool.evictions_per_read", (per(cf("storage.pool.evictions"), reads), "ratio"));
    m.insert(
        "pool.readahead_pages_per_read",
        (per(cf("storage.pool.readahead_pages"), reads), "ratio"),
    );
    m.insert(
        "pool.dirty_flushes",
        (setup.load.counter("storage.pool.dirty_flushes") as f64, "count"),
    );
    m.insert(
        "checkpoint.pages_flushed",
        (setup.load.counter("storage.checkpoint.pages_flushed") as f64, "count"),
    );
    m.insert(
        "paged.index_build_us",
        (setup.first_answer.histogram("storage.paged.index_build_us").1 as f64, us),
    );
    m.insert(
        "paged.first_answer_page_reads_per_page",
        (
            per(setup.first_answer.counter("storage.pool.page_reads") as f64, w.pages as f64),
            "ratio",
        ),
    );
    m.insert("recovery.duration_us", (per(rec_us as f64, rec_runs as f64), us));
    m.insert("recovery.replayed_records", (replayed_records as f64, "count"));
    m.insert("write_p50_us", (sys::percentile_us(&mut timed.writes, 50.0), us));
    m.insert("write_p99_us", (write_p99, us));
    m.insert("disk_mb", (disk_mb, "MB"));
    m.insert("self.server_us_per_op", (layer_us("server"), us));
    m.insert("self.query_us_per_op", (layer_us("query"), us));
    m.insert("self.storage_us_per_op", (layer_us("storage"), us));
    m.insert("trace.overhead_pct", (overhead_pct, "%"));
    m.insert("counts.mismatches", (mismatches as f64, "count"));
    print_metrics(&m);
    Ok(m)
}

/// Compares this run's counts with the previous run of the same
/// workload, seed and length (if any), then records this run's.
fn compare_with_last_run(args: &Args, counts: &[(String, u64, u64)]) -> Result<u64, String> {
    let name = format!("counts-{}-seed{}-{}s.txt", args.kind.name(), args.seed, args.seconds);
    let path = Path::new(OUT_DIR).join(name);
    let mut mismatches = 0;
    if let Ok(previous) = std::fs::read_to_string(&path) {
        let last: BTreeMap<&str, u64> = previous
            .lines()
            .filter_map(|l| l.split_once(' '))
            .filter_map(|(n, v)| Some((n, v.parse().ok()?)))
            .collect();
        for (name, now, _) in counts {
            if let Some(&was) = last.get(name.as_str()) {
                if was != *now {
                    mismatches += 1;
                    println!("perfbench: count {name} did not repeat: last run {was}, this run {now}");
                }
            }
        }
    }
    let text: String = counts.iter().map(|(n, v, _)| format!("{n} {v}\n")).collect();
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(mismatches)
}

#[allow(clippy::too_many_arguments)]
fn write_trace_files(
    args: &Args,
    spans: &[trace::SpanRec],
    by_name: &BTreeMap<&'static str, (u64, u64, u64)>,
    layers: &BTreeMap<&str, f64>,
    ops: f64,
    overhead_pct: f64,
    traced: &bench::ReplayOut,
    plain: &bench::ReplayOut,
) -> Result<(), String> {
    let name = args.kind.name();
    let dir = Path::new(OUT_DIR);
    let write = |file: String, text: String| {
        let path = dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
    };
    write(format!("{name}-spans.jsonl"), trace::dump_jsonl(spans))?;
    let mut s = String::new();
    let _ = writeln!(s, "# {name} seed {}: self time per span and per layer, {ops} ops", args.seed);
    let _ = writeln!(s, "{:<24} {:>10} {:>14} {:>12}", "span", "count", "self_ms", "self_us/op");
    for (span, (n, _, self_ns)) in by_name {
        let ms = *self_ns as f64 / 1e6;
        let _ = writeln!(s, "{span:<24} {n:>10} {ms:>14.3} {:>12.3}", ms * 1e3 / ops);
    }
    let _ = writeln!(s, "{:<24} {:>10} {:>14} {:>12}", "layer", "", "self_ms", "self_us/op");
    for (layer, us) in layers {
        let _ = writeln!(s, "{layer:<24} {:>10} {:>14.3} {:>12.3}", "", us / 1e3, us / ops);
    }
    let _ = writeln!(
        s,
        "{:<24} {:>10} {:>14.3} {:>12.3}   traced {:.3}s vs untraced {:.3}s = {overhead_pct:+.2}%",
        "tracing_overhead",
        "",
        (traced.wall.as_secs_f64() - plain.wall.as_secs_f64()) * 1e3,
        (traced.wall.as_secs_f64() - plain.wall.as_secs_f64()) * 1e6 / ops,
        traced.wall.as_secs_f64(),
        plain.wall.as_secs_f64(),
    );
    print!("{s}");
    write(format!("{name}-layers.txt"), s)
}

fn print_metrics(m: &Metrics) {
    for (name, (value, unit)) in m {
        println!("  {name:<42} {value:>16.4} {unit}");
    }
}
