//! In-memory span recorder for the traced replay.
//!
//! A span is a name, a start and an end, the span it ran inside, and the
//! request it belongs to. Spans are only buffered while recording is on;
//! [`take`] hands them over when the replay ends. The part of a span's
//! duration not covered by its children is its *self time*, and the
//! prefix of its name before the first `.` is the layer it is charged to.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub struct SpanRec {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<SpanRec>,
    /// Indices into `spans` of the spans still open, innermost last.
    open: Vec<usize>,
    req: u32,
}

static ON: AtomicBool = AtomicBool::new(false);
static REC: Mutex<Option<Recorder>> = Mutex::new(None);

/// Starts recording into a fresh buffer (`true`) or stops it (`false`).
pub fn record(on: bool) {
    *REC.lock().unwrap() = on.then(|| Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        req: 0,
    });
    ON.store(on, Ordering::SeqCst);
}

/// Tags the spans that follow with request id `req`.
pub fn request(req: u32) {
    if ON.load(Ordering::Relaxed) {
        if let Some(r) = REC.lock().unwrap().as_mut() {
            r.req = req;
        }
    }
}

/// Closes its span when dropped; inert while recording is off.
pub struct Guard(Option<usize>);

pub fn span(name: &'static str) -> Guard {
    if !ON.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let mut lock = REC.lock().unwrap();
    let Some(r) = lock.as_mut() else {
        return Guard(None);
    };
    let idx = r.spans.len();
    let parent = r.open.last().map(|&p| r.spans[p].id).unwrap_or(0);
    let now = r.origin.elapsed().as_nanos() as u64;
    r.spans.push(SpanRec {
        id: idx as u32 + 1,
        parent,
        req: r.req,
        name,
        start_ns: now,
        end_ns: now,
    });
    r.open.push(idx);
    Guard(Some(idx))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        if let Some(r) = REC.lock().unwrap().as_mut() {
            r.spans[idx].end_ns = r.origin.elapsed().as_nanos() as u64;
            r.open.retain(|&i| i != idx);
        }
    }
}

/// Stops recording and returns every span, in start order.
pub fn take() -> Vec<SpanRec> {
    ON.store(false, Ordering::SeqCst);
    REC.lock().unwrap().take().map(|r| r.spans).unwrap_or_default()
}

/// Per span name: (count, total time, total self time), times in ns.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len() + 1];
    for s in spans {
        child_ns[s.parent as usize] += s.dur_ns();
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.dur_ns().saturating_sub(child_ns[s.id as usize]);
    }
    out
}

/// The layer a span name is charged to.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// One JSON object per line, for offline analysis of the replay.
pub fn dump_jsonl(spans: &[SpanRec]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        );
    }
    out
}
