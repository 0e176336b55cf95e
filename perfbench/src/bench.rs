//! Workload set-up, the served timed phase, restarts, and the replays.

use crate::gen::{self, Op};
use crate::replay::{Engine, Replayer, TracedPaged};
use crate::sys::{self, Place};
use crate::trace;
use dq_obs::Snapshot;
use dq_query::QueryCatalog;
use crate::client::SpinClient;
use dq_server::{start, start_durable, ServerConfig, ServerHandle, SharedCatalog, WriteMode};
use dq_storage::{DurableDb, DurableOptions};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tagstore::{IndicatorDictionary, TaggedRelation, TaggedRow};

/// Server workers: one per core of the 2-core reference host.
const WORKERS: usize = 2;
/// Per-session statement-cache capacity, the server default.
pub const STMT_CACHE: usize = 256;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PointHot,
    PagedCold,
    TagMixed,
}

/// Sizes and rates per workload. Op counts are fixed for a given
/// `--seconds`: the nominal rate times the seconds, never fewer than a
/// p99 needs.
struct Shape {
    rows: usize,
    /// Set-ups per untraced run, for the `setup_s` and `first_answer_s`
    /// medians, and restarts, for the `recovery_s` median.
    setups: usize,
    restarts: usize,
    warmup: usize,
    /// Timed ops per second of `--seconds` (reads; writes for tag_mixed).
    per_second: usize,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "point_hot" => Some(Kind::PointHot),
            "paged_cold" => Some(Kind::PagedCold),
            "tag_mixed" => Some(Kind::TagMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::PointHot => "point_hot",
            Kind::PagedCold => "paged_cold",
            Kind::TagMixed => "tag_mixed",
        }
    }

    pub fn setups(self) -> usize {
        self.shape().setups
    }

    pub fn restarts(self) -> usize {
        self.shape().restarts
    }

    fn shape(self) -> Shape {
        match self {
            Kind::PointHot => Shape {
                rows: 100_000,
                setups: 15,
                restarts: 9,
                warmup: 500,
                per_second: 3_000,
            },
            Kind::PagedCold => Shape {
                rows: PAGED_ROWS,
                setups: 7,
                restarts: 25,
                warmup: 200,
                per_second: 2_500,
            },
            Kind::TagMixed => Shape {
                rows: 10_000,
                setups: 25,
                restarts: 25,
                warmup: 500,
                per_second: 100,
            },
        }
    }
}

// paged_cold storage geometry: 4 KiB pages and a 16-frame pool, against
// a relation of 391 pages, so the pool holds ~4% of it.
const PAGED_ROWS: usize = 13_000;
const PAGE_SIZE: usize = 4096;
const POOL_PAGES: usize = 16;

fn config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        stmt_cache_capacity: STMT_CACHE,
        write_mode: WriteMode::Mvcc,
    }
}

fn options(kind: Kind) -> DurableOptions {
    match kind {
        Kind::PagedCold => DurableOptions {
            group_commit: true,
            page_size: PAGE_SIZE,
            pool_pages: POOL_PAGES,
            readahead: true,
            ..Default::default()
        },
        // one WAL group commit (one fsync) per TAG statement
        _ => DurableOptions {
            group_commit: true,
            ..Default::default()
        },
    }
}

/// Served answers checked against the embedded twin.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    pub fn check<E: std::fmt::Display>(&mut self, sql: &str, got: Result<String, E>, want: &str) {
        self.attempted += 1;
        let problem = match got {
            Ok(body) if body == want => return,
            Ok(body) => format!("answer differs from the twin\n got: {body}\nwant: {want}"),
            Err(e) => format!("error: {e}"),
        };
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(format!("`{sql}`: {problem}"));
        }
    }

    pub fn first_failure(&self) -> Option<&str> {
        self.first_failure.as_deref()
    }
}

/// A freshly loaded database, before a server fronts it.
enum Loaded {
    Resident(QueryCatalog),
    Durable(Box<DurableDb>, PathBuf),
}

/// A running server with its one client connection.
pub struct Served {
    server: ServerHandle,
    client: SpinClient,
    dir: Option<PathBuf>,
}

/// Registry readings around one set-up.
pub struct SetupObs {
    pub setup_s: f64,
    pub first_answer_s: f64,
    pub load: Delta,
    pub first_answer: Delta,
}

/// Reads per slice of the timed phase: the fewest a p99 may come from.
pub const SLICE_READS: usize = sys::MIN_P99_SAMPLES;

/// The served timed phase.
pub struct Timed {
    /// Every round trip, in op order.
    pub reads: Vec<Duration>,
    pub writes: Vec<Duration>,
    /// Consecutive stretches of [`SLICE_READS`] reads.
    pub slices: Vec<Slice>,
    pub wall: Duration,
    pub counters: Delta,
}

pub struct Slice {
    pub reads_per_s: f64,
    pub cpu_us_per_op: f64,
    pub read_p99_us: f64,
}

/// A served database whose server has stopped, kept for restarts.
pub struct Stopped {
    dir: Option<PathBuf>,
}

pub struct ReplayOut {
    /// Registry change over the first (warm-up) query.
    pub first_answer: Delta,
    pub wall: Duration,
    pub spans: Vec<trace::SpanRec>,
    pub counters: Delta,
    pub hits: u64,
    pub misses: u64,
    pub invalidations: u64,
    pub rows_out: u64,
    /// Candidate rows the paged indexed path proposed.
    pub paged_candidates: u64,
}

/// Difference of two registry snapshots.
pub struct Delta {
    before: Snapshot,
    after: Snapshot,
}

impl Delta {
    pub fn since(before: Snapshot) -> Delta {
        Delta {
            before,
            after: dq_obs::registry().snapshot(),
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.after.counter(name) - self.before.counter(name)
    }

    /// (count, sum µs) recorded into histogram `name`.
    pub fn histogram(&self, name: &str) -> (u64, u64) {
        let get = |s: &Snapshot| {
            s.histograms
                .get(name)
                .map(|h| (h.count, h.sum_us))
                .unwrap_or((0, 0))
        };
        let (c0, s0) = get(&self.before);
        let (c1, s1) = get(&self.after);
        (c1 - c0, s1 - s0)
    }
}

pub fn snap() -> Snapshot {
    dq_obs::registry().snapshot()
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// One workload's generated inputs and expected answers.
pub struct Workload {
    pub kind: Kind,
    rows: Vec<TaggedRow>,
    pub warm: Vec<Op>,
    pub ops: Vec<Op>,
    expected_warm: Vec<Arc<str>>,
    expected_ops: Vec<Arc<str>>,
    /// The first query's answer once every timed write has landed: what
    /// each restart must answer.
    restart_answer: Arc<str>,
    /// Checked once after the last restart: (statement, expected answer).
    probes: Vec<(String, Arc<str>)>,
    root: PathBuf,
    dirs: usize,
    /// Heap plus directory pages of the paged relation after its load.
    pub pages: u64,
}

impl Workload {
    /// Generates rows and ops from `seed` and computes every expected
    /// answer on an embedded twin, all before any timing.
    pub fn generate(kind: Kind, seed: u64, seconds: u64, root: PathBuf) -> Result<Workload, String> {
        let shape = kind.shape();
        let timed = (shape.per_second * seconds as usize).max(sys::MIN_P99_SAMPLES);
        let (rows, warm, ops, tagged) = match kind {
            Kind::PointHot => {
                let (warm, ops) = gen::point_hot_ops(shape.rows, seed, shape.warmup, timed);
                (gen::quotes_rows(shape.rows, seed), warm, ops, Vec::new())
            }
            Kind::PagedCold => {
                let (warm, ops) = gen::paged_cold_ops(shape.rows, seed, shape.warmup, timed);
                (gen::trades_rows(shape.rows, seed), warm, ops, Vec::new())
            }
            Kind::TagMixed => {
                let (warm, ops, tagged) = gen::tag_mixed_ops(shape.rows, seed, shape.warmup, timed);
                (gen::quotes_rows(shape.rows, seed), warm, ops, tagged)
            }
        };

        let (schema, table) = match kind {
            Kind::PagedCold => (gen::trades_schema(), gen::TRADES),
            _ => (gen::quotes_schema(), gen::QUOTES),
        };
        let rel = TaggedRelation::new(schema, IndicatorDictionary::with_paper_defaults(), rows.clone())
            .map_err(err("twin relation"))?;
        let mut twin = QueryCatalog::new();
        twin.register(table, rel);

        // Reads are memoised per statement until the next write.
        let mut memo: HashMap<String, Arc<str>> = HashMap::new();
        let mut expect = |twin: &mut QueryCatalog, op: &Op| -> Result<Arc<str>, String> {
            if op.write {
                memo.clear();
                let res = dq_query::run_mut(twin, &op.sql).map_err(err("twin write"))?;
                return Ok(dq_server::render_result(&res).into());
            }
            if let Some(hit) = memo.get(&op.sql) {
                return Ok(Arc::clone(hit));
            }
            let res = dq_query::run(twin, &op.sql).map_err(err("twin read"))?;
            let body: Arc<str> = dq_server::render_result(&res).into();
            memo.insert(op.sql.clone(), Arc::clone(&body));
            Ok(body)
        };
        let expected_warm = warm
            .iter()
            .map(|op| expect(&mut twin, op))
            .collect::<Result<Vec<_>, _>>()?;
        let expected_ops = ops
            .iter()
            .map(|op| expect(&mut twin, op))
            .collect::<Result<Vec<_>, _>>()?;

        let restart_answer = expect(&mut twin, &warm[0])?;

        // After the restart: every row an acknowledged TAG touched must
        // show its last tag; other workloads re-check a few reads.
        let probes = if tagged.is_empty() {
            warm.iter()
                .zip(&expected_warm)
                .take(50)
                .map(|(op, want)| (op.sql.clone(), Arc::clone(want)))
                .collect()
        } else {
            let mut keys = tagged;
            keys.sort_unstable();
            keys.dedup();
            keys.into_iter()
                .map(|k| {
                    let probe = gen::quote_probe(k);
                    let want = expect(&mut twin, &Op { sql: probe.clone(), write: false })?;
                    Ok((probe, want))
                })
                .collect::<Result<Vec<_>, String>>()?
        };

        Ok(Workload {
            kind,
            rows,
            warm,
            ops,
            expected_warm,
            expected_ops,
            restart_answer,
            probes,
            root,
            dirs: 0,
            pages: 0,
        })
    }

    pub fn writes(&self) -> usize {
        self.ops.iter().filter(|o| o.write).count()
    }

    fn fresh_dir(&mut self) -> Result<PathBuf, String> {
        self.dirs += 1;
        let dir = self.root.join(format!("db{}", self.dirs));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(err("create data dir"))?;
        Ok(dir)
    }

    /// Loads the workload's table from `rows`: the part of set-up the
    /// database does before a server can start.
    fn load(&mut self, rows: Vec<TaggedRow>) -> Result<Loaded, String> {
        let dict = IndicatorDictionary::with_paper_defaults();
        match self.kind {
            Kind::PointHot => {
                let rel = TaggedRelation::new(gen::quotes_schema(), dict, rows)
                    .map_err(err("load quotes"))?;
                let mut catalog = QueryCatalog::new();
                catalog.register(gen::QUOTES, rel);
                Ok(Loaded::Resident(catalog))
            }
            Kind::TagMixed => {
                let dir = self.fresh_dir()?;
                let (mut db, _) =
                    DurableDb::open_dir(&dir, options(self.kind)).map_err(err("open db"))?;
                db.create_tagged(gen::QUOTES, gen::quotes_schema(), dict)
                    .map_err(err("create quotes"))?;
                for row in rows {
                    db.push(gen::QUOTES, row).map_err(err("push"))?;
                }
                db.commit().map_err(err("commit"))?;
                db.checkpoint().map_err(err("checkpoint"))?;
                Ok(Loaded::Durable(Box::new(db), dir))
            }
            Kind::PagedCold => {
                let dir = self.fresh_dir()?;
                let (mut db, _) =
                    DurableDb::open_dir(&dir, options(self.kind)).map_err(err("open db"))?;
                db.create_paged(gen::TRADES, gen::trades_schema(), dict)
                    .map_err(err("create trades"))?;
                for (i, row) in rows.into_iter().enumerate() {
                    db.paged_push(gen::TRADES, row).map_err(err("paged push"))?;
                    if i % 1000 == 999 {
                        db.commit().map_err(err("commit"))?;
                    }
                }
                db.commit().map_err(err("commit"))?;
                db.checkpoint().map_err(err("checkpoint"))?;
                let (heap, directory) = db.paged_pages(gen::TRADES).map_err(err("pages"))?;
                self.pages = u64::from(heap) + u64::from(directory);
                Ok(Loaded::Durable(Box::new(db), dir))
            }
        }
    }

    fn start(&self, loaded: Loaded) -> Result<(ServerHandle, Option<PathBuf>), String> {
        Ok(match loaded {
            Loaded::Resident(catalog) => (start(config(), catalog).map_err(err("start"))?, None),
            Loaded::Durable(db, dir) => (start_durable(config(), *db).map_err(err("start"))?, Some(dir)),
        })
    }

    /// Load, start the server, answer the first quality query, warm up.
    pub fn setup(&mut self, tally: &mut Tally) -> Result<(Served, SetupObs), String> {
        let rows = self.rows.clone();
        sys::place(Place::All);
        let s0 = snap();
        let t0 = Instant::now();
        let loaded = self.load(rows)?;
        let load_s = t0.elapsed();
        let load = Delta::since(s0);

        let s1 = snap();
        let t1 = Instant::now();
        sys::place(Place::Server);
        let (server, dir) = self.start(loaded)?;
        sys::place(Place::Client);
        let mut client = SpinClient::connect(server.addr()).map_err(err("connect"))?;
        let got = client.query(&self.warm[0].sql);
        let first_answer = t1.elapsed();
        let first = Delta::since(s1);
        tally.check(&self.warm[0].sql, got, &self.expected_warm[0]);

        let t2 = Instant::now();
        for (op, want) in self.warm.iter().zip(&self.expected_warm).skip(1) {
            tally.check(&op.sql, client.query(&op.sql), want);
        }
        let warm_s = t2.elapsed();
        Ok((
            Served { server, client, dir },
            SetupObs {
                setup_s: (load_s + warm_s).as_secs_f64(),
                first_answer_s: first_answer.as_secs_f64(),
                load,
                first_answer: first,
            },
        ))
    }

    /// Shuts the server down and deletes its database directory.
    pub fn discard(&self, served: Served) {
        let Served { server, client, dir, .. } = served;
        drop(client);
        server.shutdown();
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// The timed phase: every op in order on the one connection, each
    /// answer checked against the twin.
    pub fn timed(&self, served: &mut Served, tally: &mut Tally) -> Result<Timed, String> {
        let mut reads = Vec::with_capacity(self.ops.len());
        let mut writes = Vec::new();
        let mut slices = Vec::new();
        let before = snap();
        let t0 = Instant::now();
        let (mut slice_t, mut slice_cpu, mut slice_ops) = (t0, sys::server_cpu(), 0usize);
        for (op, want) in self.ops.iter().zip(&self.expected_ops) {
            let t = Instant::now();
            let got = served.client.query(&op.sql);
            let rtt = t.elapsed();
            tally.check(&op.sql, got, want);
            slice_ops += 1;
            if op.write {
                writes.push(rtt);
                continue;
            }
            reads.push(rtt);
            if reads.len() % SLICE_READS == 0 {
                let (now, cpu) = (Instant::now(), sys::server_cpu());
                let mut last = reads[reads.len() - SLICE_READS..].to_vec();
                slices.push(Slice {
                    reads_per_s: SLICE_READS as f64 / (now - slice_t).as_secs_f64(),
                    cpu_us_per_op: (cpu - slice_cpu).as_secs_f64() * 1e6 / slice_ops as f64,
                    read_p99_us: sys::p99_us(&mut last, "reads")?,
                });
                (slice_t, slice_cpu, slice_ops) = (now, cpu, 0);
            }
        }
        Ok(Timed {
            reads,
            writes,
            slices,
            wall: t0.elapsed(),
            counters: Delta::since(before),
        })
    }

    pub fn data_mb(&self, served: &Served) -> f64 {
        served.dir.as_deref().map(sys::dir_mb).unwrap_or(0.0)
    }

    /// Process CPU, as a percentage of one core, while the server idles
    /// with the connection open.
    pub fn idle_cpu_pct(&self, interval: Duration) -> f64 {
        let cpu0 = sys::process_cpu();
        let t0 = Instant::now();
        std::thread::sleep(interval);
        let cpu = sys::process_cpu().saturating_sub(cpu0);
        cpu.as_secs_f64() * 100.0 / t0.elapsed().as_secs_f64()
    }

    /// Stops the server after the timed phase, keeping its database for
    /// the restarts.
    pub fn stop(&self, served: Served) -> Stopped {
        let Served { server, client, dir } = served;
        drop(client);
        server.shutdown();
        Stopped { dir }
    }

    /// One restart, timed until the first quality query is answered.
    /// Durable workloads reopen the database (checkpoint plus WAL replay).
    /// The resident workload has nothing durable: it starts the server on
    /// a fresh catalog of the same rows, loaded before the clock starts,
    /// so the lazy indexes are rebuilt as after a real restart. With
    /// `probe`, the probes are checked afterwards. Returns the seconds and
    /// the WAL records replayed.
    pub fn restart(&mut self, stopped: &Stopped, tally: &mut Tally, probe: bool) -> Result<(f64, u64), String> {
        let resident = match &stopped.dir {
            Some(_) => None,
            None => Some(self.load(self.rows.clone())?),
        };
        sys::place(Place::Server);
        let t = Instant::now();
        let mut replayed = 0;
        let loaded = match (&stopped.dir, resident) {
            (_, Some(loaded)) => loaded,
            (Some(dir), None) => {
                let (db, report) =
                    DurableDb::open_dir(dir, options(self.kind)).map_err(err("reopen db"))?;
                replayed = report.replayed_records;
                Loaded::Durable(Box::new(db), dir.clone())
            }
            (None, None) => unreachable!("resident restarts load a catalog"),
        };
        let (server, _) = self.start(loaded)?;
        sys::place(Place::Client);
        let mut client = SpinClient::connect(server.addr()).map_err(err("connect"))?;
        let got = client.query(&self.warm[0].sql);
        let seconds = t.elapsed().as_secs_f64();
        tally.check(&self.warm[0].sql, got, &self.restart_answer);
        if probe {
            for (sql, want) in &self.probes {
                tally.check(sql, client.query(sql), want);
            }
        }
        drop(client);
        server.shutdown();
        Ok((seconds, replayed))
    }

    /// Deletes the stopped server's database.
    pub fn forget(&self, stopped: Stopped) {
        if let Some(dir) = stopped.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// Replays warm-up and timed ops in-process on a freshly loaded
    /// twin of the served database; only the timed ops are measured.
    pub fn replay(&mut self, traced: bool, tally: &mut Tally) -> Result<ReplayOut, String> {
        let rows = self.rows.clone();
        sys::place(Place::All);
        let loaded = self.load(rows)?;
        let mut paged: Option<Arc<TracedPaged>> = None;
        let (engine, dir) = match loaded {
            Loaded::Resident(catalog) => (Engine::Shared(Arc::new(SharedCatalog::new(catalog))), None),
            Loaded::Durable(db, dir) if self.kind == Kind::PagedCold => {
                let provider = Arc::new(TracedPaged {
                    name: gen::TRADES.into(),
                    db: Arc::new(Mutex::new(*db)),
                    candidate_rows: AtomicU64::new(0),
                });
                let mut catalog = QueryCatalog::new();
                catalog.register_paged(gen::TRADES, provider.clone());
                paged = Some(provider);
                (Engine::Fixed(catalog), Some(dir))
            }
            Loaded::Durable(db, dir) => (
                Engine::Shared(Arc::new(SharedCatalog::with_db(*db).map_err(err("with_db"))?)),
                Some(dir),
            ),
        };
        let mut rp = Replayer::new(engine, STMT_CACHE);
        let s0 = snap();
        tally.check(&self.warm[0].sql, rp.run(&self.warm[0]), &self.expected_warm[0]);
        let first_answer = Delta::since(s0);
        for (op, want) in self.warm.iter().zip(&self.expected_warm).skip(1) {
            tally.check(&op.sql, rp.run(op), want);
        }
        let (h0, m0, i0, r0) = (rp.hits, rp.misses, rp.invalidations, rp.rows_out);
        let paged0 = paged_candidates(&paged);
        let before = snap();
        trace::record(traced);
        let t0 = Instant::now();
        for (i, (op, want)) in self.ops.iter().zip(&self.expected_ops).enumerate() {
            trace::request(i as u32);
            let got = rp.run(op);
            tally.check(&op.sql, got, want);
        }
        let wall = t0.elapsed();
        let spans = trace::take();
        let counters = Delta::since(before);
        let paged1 = paged_candidates(&paged);
        let out = ReplayOut {
            first_answer,
            wall,
            spans,
            counters,
            hits: rp.hits - h0,
            misses: rp.misses - m0,
            invalidations: rp.invalidations - i0,
            rows_out: rp.rows_out - r0,
            paged_candidates: paged1 - paged0,
        };
        drop(rp);
        drop(paged);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(out)
    }
}

fn paged_candidates(paged: &Option<Arc<TracedPaged>>) -> u64 {
    paged
        .as_ref()
        .map(|p| p.candidate_rows.load(std::sync::atomic::Ordering::Relaxed))
        .unwrap_or(0)
}
