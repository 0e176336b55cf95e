//! In-process replay of a workload's op sequence through the public
//! functions of each layer, with a span around every layer call.
//!
//! The replay does what a server session does for each request — the
//! request codec, the snapshot pin, the statement cache, parse, plan,
//! execution, rendering and the response codec — but calls each step
//! itself so it can time them apart. Its statement cache mirrors
//! `dq_query::PlanCache` (same key, same generation check, same FIFO
//! eviction), so its hit and miss counts must equal the server's.

use crate::gen::Op;
use crate::trace::span;
use dq_query::{
    execute, normalize, parse, prepare_write, PagedProvider, PagedScanStats, Plan, Planner,
    QueryCatalog, QueryResult, Statement,
};
use dq_server::protocol::{frame, try_unframe};
use dq_server::{render_result, Request, Response, SharedCatalog};
use dq_storage::DurableDb;
use relstore::{DbResult, Expr, Schema};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tagstore::{Stamped, TaggedRelation};

/// Where the replay reads from: an MVCC shared catalog (resident and
/// durable tagged workloads, and every workload with writes), or a
/// fixed catalog whose paged table goes through [`TracedPaged`].
pub enum Engine {
    Shared(Arc<SharedCatalog>),
    Fixed(QueryCatalog),
}

pub struct Replayer {
    engine: Engine,
    pin: Option<Arc<Stamped<QueryCatalog>>>,
    capacity: usize,
    plans: HashMap<String, (u64, Plan)>,
    order: VecDeque<String>,
    pub hits: u64,
    pub misses: u64,
    pub invalidations: u64,
    pub rows_out: u64,
}

impl Replayer {
    pub fn new(engine: Engine, capacity: usize) -> Replayer {
        let pin = match &engine {
            Engine::Shared(shared) => Some(shared.pin()),
            Engine::Fixed(_) => None,
        };
        Replayer {
            engine,
            pin,
            capacity,
            plans: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
            invalidations: 0,
            rows_out: 0,
        }
    }

    pub fn run(&mut self, op: &Op) -> Result<String, String> {
        if op.write {
            self.write(&op.sql)
        } else {
            self.read(&op.sql)
        }
    }

    fn catalog(&self) -> &QueryCatalog {
        match (&self.engine, &self.pin) {
            (Engine::Shared(_), Some(pin)) => pin.value(),
            (Engine::Fixed(catalog), _) => catalog,
            (Engine::Shared(_), None) => unreachable!("a shared engine is always pinned"),
        }
    }

    fn refresh_pin(&mut self) {
        if let Engine::Shared(shared) = &self.engine {
            let _s = span("server.pin");
            if self.pin.as_ref().map(|p| p.epoch()) != Some(shared.published_epoch()) {
                self.pin = Some(shared.pin());
            }
        }
    }

    fn read(&mut self, sql: &str) -> Result<String, String> {
        let _req = span("request.read");
        let sql = decode_request(sql)?;
        self.refresh_pin();
        let key = self.lookup(&sql)?;
        let rel = {
            let _s = span("query.exec");
            execute(self.catalog(), &self.plans[&key].1).map_err(|e| e.to_string())?
        };
        self.rows_out += rel.len() as u64;
        let body = {
            let _s = span("server.render");
            render_result(&QueryResult::Table(rel))
        };
        decode_response(body)
    }

    /// The statement-cache step: returns the cache key of a plan that is
    /// valid for the pinned generation, planning it on a miss.
    fn lookup(&mut self, sql: &str) -> Result<String, String> {
        let generation = self.catalog().generation();
        let key = {
            let _s = span("query.cache");
            let key = normalize(sql);
            match self.plans.get(&key) {
                Some((g, _)) if *g == generation => {
                    self.hits += 1;
                    return Ok(key);
                }
                Some(_) => {
                    self.invalidations += 1;
                    self.plans.remove(&key);
                    self.order.retain(|k| k != &key);
                }
                None => {}
            }
            self.misses += 1;
            key
        };
        let stmt = {
            let _s = span("query.parse");
            parse(sql).map_err(|e| e.to_string())?
        };
        if !matches!(stmt, Statement::Select(_)) {
            return Err(format!("replay reads only SELECT, got `{sql}`"));
        }
        let plan = {
            let _s = span("query.plan");
            let planner = Planner::default();
            let catalog = self.catalog();
            let plan = planner.plan(&stmt, catalog).map_err(|e| e.to_string())?;
            planner.optimize(plan, catalog)
        };
        if self.plans.len() >= self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.plans.remove(&oldest);
            }
        }
        self.order.push_back(key.clone());
        self.plans.insert(key.clone(), (generation, plan));
        Ok(key)
    }

    fn write(&mut self, sql: &str) -> Result<String, String> {
        let _req = span("request.write");
        let sql = decode_request(sql)?;
        let Engine::Shared(shared) = &self.engine else {
            return Err("writes need a shared catalog".into());
        };
        let shared = Arc::clone(shared);
        self.refresh_pin();
        let write = {
            let _s = span("query.prepare_write");
            prepare_write(self.catalog(), &sql).map_err(|e| e.to_string())?
        };
        let result = {
            let _s = span("server.commit_write");
            shared.commit_write(write).map_err(|e| e.to_string())?
        };
        self.refresh_pin();
        let body = {
            let _s = span("server.render");
            render_result(&result)
        };
        decode_response(body)
    }
}

/// Client encode + frame, then server unframe + decode.
fn decode_request(sql: &str) -> Result<String, String> {
    let _s = span("server.codec");
    let mut wire = frame(&Request::Query { sql: sql.to_owned() }.encode());
    let payload = try_unframe(&mut wire)
        .map_err(|e| e.to_string())?
        .ok_or("request frame incomplete")?;
    match Request::decode(&payload).map_err(|e| e.to_string())? {
        Request::Query { sql } => Ok(sql),
        other => Err(format!("decoded {other:?}, not a query")),
    }
}

/// Server encode + frame, then client unframe + decode.
fn decode_response(body: String) -> Result<String, String> {
    let _s = span("server.codec");
    let mut wire = frame(&Response::Ok { body }.encode());
    let payload = try_unframe(&mut wire)
        .map_err(|e| e.to_string())?
        .ok_or("response frame incomplete")?;
    match Response::decode(&payload).map_err(|e| e.to_string())? {
        Response::Ok { body } => Ok(body),
        other => Err(format!("decoded {other:?}, not a result")),
    }
}

/// A paged table served off a durable database, making the same
/// storage calls as the server's own provider, each inside a
/// `storage.paged` span. Also totals the candidate rows the indexed
/// path proposed.
#[derive(Debug)]
pub struct TracedPaged {
    pub name: String,
    pub db: Arc<Mutex<DurableDb>>,
    pub candidate_rows: AtomicU64,
}

impl TracedPaged {
    fn db(&self) -> std::sync::MutexGuard<'_, DurableDb> {
        self.db.lock().unwrap()
    }
}

impl PagedProvider for TracedPaged {
    fn schema(&self) -> DbResult<Schema> {
        let _s = span("storage.paged");
        Ok(self.db().paged_schema(&self.name)?.clone())
    }

    fn row_count(&self) -> DbResult<u64> {
        let _s = span("storage.paged");
        self.db().paged_len(&self.name)
    }

    fn scan(&self) -> DbResult<TaggedRelation> {
        let _s = span("storage.paged");
        self.db().paged_to_relation(&self.name)
    }

    fn select(&self, predicate: &Expr) -> DbResult<TaggedRelation> {
        let _s = span("storage.paged");
        self.db().paged_select(&self.name, predicate)
    }

    fn select_indexed(&self, predicate: &Expr) -> DbResult<(TaggedRelation, PagedScanStats)> {
        let _s = span("storage.paged");
        let (rel, stats) = self.db().paged_select_indexed(&self.name, predicate)?;
        self.candidate_rows
            .fetch_add(stats.candidate_rows, Ordering::Relaxed);
        Ok((
            rel,
            PagedScanStats {
                pages_read: stats.pages_read,
                pool_hits: stats.pool_hits,
                candidate_pages: stats.candidate_pages,
            },
        ))
    }

    fn access_estimate(&self, predicate: &Expr) -> Option<(Vec<String>, f64)> {
        let _s = span("storage.paged");
        self.db()
            .paged_access_estimate(&self.name, predicate)
            .ok()
            .flatten()
    }
}
