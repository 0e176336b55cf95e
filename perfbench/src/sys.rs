//! Process and file-system readings, and the latency statistics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Fewest samples an op type needs before its p99 is reported.
pub const MIN_P99_SAMPLES: usize = 1000;

/// Process user+sys CPU time so far, all threads.
pub fn process_cpu() -> Duration {
    cpu(RUSAGE_SELF)
}

/// CPU time of every thread but the calling one: called from the client
/// thread, the in-process server's CPU.
pub fn server_cpu() -> Duration {
    // the thread's own reading first, so the difference cannot go negative
    let client = cpu(RUSAGE_THREAD);
    process_cpu().saturating_sub(client)
}

fn cpu(who: i32) -> Duration {
    let mut usage = Rusage::default();
    // SAFETY: `usage` matches the C layout and outlives the call.
    if unsafe { getrusage(who, &mut usage) } != 0 {
        return Duration::ZERO;
    }
    let us = |t: Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(us(usage.utime) + us(usage.stime))
}

/// The system allocator, counting live and peak heap bytes.
///
/// Peak heap is the memory metric, not peak resident set size: the
/// resident set also depends on which malloc arena each new server
/// thread happens to get, and moved between ~15 and ~40 MB across runs
/// of one build and seed.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Restarts the heap peak from the live heap, and returns the live heap.
pub fn reset_peak_heap() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// How far the heap peaked above `base` since [`reset_peak_heap`], in MB.
pub fn peak_heap_since(base: usize) -> f64 {
    PEAK.load(Ordering::Relaxed).saturating_sub(base) as f64 / (1024.0 * 1024.0)
}

/// Total size of the regular files under `dir`, in MB.
pub fn dir_mb(dir: &Path) -> f64 {
    fn walk(p: &Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(p) else {
            return 0;
        };
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => walk(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    }
    walk(dir) as f64 / (1024.0 * 1024.0)
}

/// Nearest-rank percentile of `samples` (sorted in place), in µs.
pub fn percentile_us(samples: &mut [Duration], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1].as_secs_f64() * 1e6
}

/// The p99 of `samples`, refused when there are too few of them to
/// make a 99th percentile meaningful.
pub fn p99_us(samples: &mut [Duration], what: &str) -> Result<f64, String> {
    if samples.len() < MIN_P99_SAMPLES {
        return Err(format!(
            "{what}: {} samples, fewer than the {MIN_P99_SAMPLES} a p99 needs",
            samples.len()
        ));
    }
    Ok(percentile_us(samples, 99.0))
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` (sorted in place), interpolating
/// linearly between neighbours.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn mean_us(samples: &[Duration]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|d| d.as_secs_f64()).sum::<f64>() * 1e6 / samples.len() as f64
}

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage`: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const MASK_WORDS: usize = 16;

/// Which CPUs the calling thread — and every thread it spawns from now
/// on — may run on.
#[derive(Clone, Copy)]
pub enum Place {
    /// Every CPU the process started with.
    All,
    /// All but the last of them: where the server's threads live.
    Server,
    /// The last one: where the client lives.
    Client,
}

/// The CPUs the process started with.
pub fn allowed_cpus() -> &'static [usize] {
    static ALL: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    ALL.get_or_init(|| {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } == 0;
        (0..MASK_WORDS * 64)
            .filter(|&c| ok && mask[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    })
}

/// Moves the calling thread to `place`.
///
/// With the client and the server on the same CPU, a request is sent
/// before the worker finishes its pump step, and it is answered without
/// waiting out the worker's idle sleep; on different CPUs it always
/// waits. The scheduler picks either arrangement per run, so latency
/// jumps between two modes from one run to the next. Keeping the two on
/// separate CPUs, as they would be across a network, fixes the mode. On
/// a single CPU there is nothing to separate and this does nothing.
pub fn place(place: Place) {
    let all = allowed_cpus();
    if all.len() < 2 {
        return;
    }
    let cpus = match place {
        Place::All => all,
        Place::Server => &all[..all.len() - 1],
        Place::Client => &all[all.len() - 1..],
    };
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` outlives the call and its size is passed with it.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}
