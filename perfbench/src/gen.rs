//! Seeded data and op sequences. Everything a run sends to the server
//! is generated here from `--seed` before any timing starts; the same
//! seed always yields the same rows and the same statements in the same
//! order.

use relstore::{DataType, Schema};
use tagstore::{IndicatorValue, QualityCell, TaggedRow};

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair, so data and op
    /// generation never shift each other when one of them changes.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// One statement the client sends; `write` marks a `TAG`.
#[derive(Clone)]
pub struct Op {
    pub sql: String,
    pub write: bool,
}

impl Op {
    fn read(sql: String) -> Op {
        Op { sql, write: false }
    }
}

// ---- resident quotes table (point_hot, tag_mixed) -----------------------

pub const QUOTES: &str = "quotes";
/// The quality requirement every quote read carries.
const QUOTE_QUALITY: &str = "price@source = 'NYSE feed' AND price@age <= 20";
/// Keys in the hot set; with the read skew below, the per-session
/// statement cache (capacity [`crate::bench::STMT_CACHE`]) both hits and misses
/// often.
const HOT_KEYS: u64 = 160;
const HOT_SHARE: f64 = 0.7;
const SOURCES: [&str; 3] = ["NYSE feed", "manual entry", "audited"];

pub fn quotes_schema() -> Schema {
    Schema::of(&[("ticker", DataType::Text), ("price", DataType::Float)])
}

pub fn ticker(i: u64) -> String {
    format!("T{i:06}")
}

/// `rows` quotes, every price tagged with a source and an age.
pub fn quotes_rows(rows: usize, seed: u64) -> Vec<TaggedRow> {
    let mut rng = Rng::new(seed, 1);
    (0..rows as u64)
        .map(|i| {
            let source = if rng.chance(0.8) { SOURCES[0] } else { SOURCES[1] };
            let age = rng.below(30) as i64;
            let cents = rng.below(100_000) as f64 / 100.0;
            vec![
                QualityCell::bare(ticker(i)),
                QualityCell::bare(cents)
                    .with_tag(IndicatorValue::new("source", source))
                    .with_tag(IndicatorValue::new("age", age)),
            ]
        })
        .collect()
}

/// Skewed key chooser: a seeded hot set takes most reads, the rest are
/// uniform over the table.
struct QuoteKeys {
    hot: Vec<u64>,
    rows: u64,
}

impl QuoteKeys {
    fn new(rows: usize, rng: &mut Rng) -> QuoteKeys {
        let rows = rows as u64;
        QuoteKeys {
            hot: (0..HOT_KEYS).map(|_| rng.below(rows)).collect(),
            rows,
        }
    }

    fn pick(&self, rng: &mut Rng, hot_share: f64) -> u64 {
        if rng.chance(hot_share) {
            self.hot[rng.below(self.hot.len() as u64) as usize]
        } else {
            rng.below(self.rows)
        }
    }
}

pub fn quote_read(key: u64) -> String {
    format!(
        "SELECT * FROM {QUOTES} WHERE ticker = '{}' WITH QUALITY ({QUOTE_QUALITY})",
        ticker(key)
    )
}

/// Unfiltered read of one quote: after a restart it shows whether the
/// last acknowledged `TAG` on that row survived.
pub fn quote_probe(key: u64) -> String {
    format!("SELECT * FROM {QUOTES} WHERE ticker = '{}'", ticker(key))
}

fn quote_tag(key: u64, source: &str) -> String {
    format!(
        "TAG {QUOTES} SET price@source = '{source}' WHERE ticker = '{}'",
        ticker(key)
    )
}

/// `point_hot`: warm-up reads, then `reads` skewed point reads.
pub fn point_hot_ops(rows: usize, seed: u64, warmup: usize, reads: usize) -> (Vec<Op>, Vec<Op>) {
    let mut rng = Rng::new(seed, 2);
    let keys = QuoteKeys::new(rows, &mut rng);
    let mut gen = |n: usize| -> Vec<Op> {
        (0..n)
            .map(|_| Op::read(quote_read(keys.pick(&mut rng, HOT_SHARE))))
            .collect()
    };
    let warm = gen(warmup);
    (warm, gen(reads))
}

/// `tag_mixed`: blocks of ten ops, one single-row `TAG` at a seeded
/// position among nine reads. Returns (warm-up, timed ops, every key
/// a `TAG` touched).
pub fn tag_mixed_ops(
    rows: usize,
    seed: u64,
    warmup: usize,
    writes: usize,
) -> (Vec<Op>, Vec<Op>, Vec<u64>) {
    let mut rng = Rng::new(seed, 3);
    let keys = QuoteKeys::new(rows, &mut rng);
    let warm = (0..warmup)
        .map(|_| Op::read(quote_read(keys.pick(&mut rng, HOT_SHARE))))
        .collect();
    let mut ops = Vec::with_capacity(writes * 10);
    let mut tagged = Vec::with_capacity(writes);
    for _ in 0..writes {
        let at = rng.below(10);
        for slot in 0..10 {
            if slot == at {
                // half the writes land on hot keys, so reads see them
                let key = keys.pick(&mut rng, 0.5);
                let source = SOURCES[rng.below(SOURCES.len() as u64) as usize];
                tagged.push(key);
                ops.push(Op {
                    sql: quote_tag(key, source),
                    write: true,
                });
            } else {
                ops.push(Op::read(quote_read(keys.pick(&mut rng, HOT_SHARE))));
            }
        }
    }
    (warm, ops, tagged)
}

// ---- paged trades relation (paged_cold) ---------------------------------

pub const TRADES: &str = "trades";
/// Rows per audited cluster: audit batches land on contiguous rows.
const RUN: u64 = 13;
/// One read in this many is a clustered quality scan.
const SCAN_EVERY: u64 = 20;

pub fn trades_schema() -> Schema {
    Schema::of(&[
        ("id", DataType::Int),
        ("sym", DataType::Text),
        ("note", DataType::Text),
    ])
}

/// The audit cluster row `i` belongs to: `s1` covers ~0.1% of rows and
/// `s10` ~1%, each in contiguous runs of [`RUN`] rows. The layout is the
/// same for every seed, so a scan reads the same number of pages.
fn cluster(i: u64) -> Option<&'static str> {
    for (per_mille, tag) in [(1u64, "s1"), (10, "s10")] {
        if i % (RUN * 1000 / per_mille) < RUN {
            return Some(tag);
        }
    }
    None
}

/// `rows` trades; outside the audit clusters most rows carry the
/// `feed` source that point reads require. Every field has the same
/// width whatever the seed, so every seed lays out the same pages.
pub fn trades_rows(rows: usize, seed: u64) -> Vec<TaggedRow> {
    let mut rng = Rng::new(seed, 4);
    (0..rows as u64)
        .map(|i| {
            let source = cluster(i).unwrap_or(if rng.chance(0.85) { "feed" } else { "desk" });
            vec![
                QualityCell::bare(i as i64),
                QualityCell::bare(format!("sym{:02}", rng.below(13)))
                    .with_tag(IndicatorValue::new("source", source)),
                QualityCell::bare(format!("trade ticket {:>030}", rng.next_u64())),
            ]
        })
        .collect()
}

pub fn trade_read(id: u64) -> String {
    format!("SELECT * FROM {TRADES} WHERE id = {id} WITH QUALITY (sym@source = 'feed')")
}

fn trade_scan(tag: &str) -> String {
    format!("SELECT * FROM {TRADES} WITH QUALITY (sym@source = '{tag}')")
}

/// `paged_cold`: uniform point reads plus clustered quality scans at
/// ~0.1% and ~1% selectivity: one scan in every [`SCAN_EVERY`] reads at
/// a seeded position, the two selectivities taking turns, so every seed
/// has the same mix. The first warm-up read — the first answer — is
/// always a point read.
pub fn paged_cold_ops(rows: usize, seed: u64, warmup: usize, reads: usize) -> (Vec<Op>, Vec<Op>) {
    let mut rng = Rng::new(seed, 5);
    let mut blocks = 0u64;
    let mut gen = |n: usize| -> Vec<Op> {
        let mut ops = Vec::with_capacity(n);
        while ops.len() < n {
            let at = 1 + rng.below(SCAN_EVERY - 1);
            for slot in 0..SCAN_EVERY {
                ops.push(Op::read(if slot == at {
                    trade_scan(if blocks.is_multiple_of(2) { "s1" } else { "s10" })
                } else {
                    trade_read(rng.below(rows as u64))
                }));
            }
            blocks += 1;
        }
        ops.truncate(n);
        ops
    };
    let warm = gen(warmup);
    (warm, gen(reads))
}
