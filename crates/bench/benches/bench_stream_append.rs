//! Streamed-batch absorb vs. cold re-execution: the catch-up path the
//! streaming-ingestion subsystem exists for.
//!
//! When a `stream_append` batch lands, a server session showing a query
//! result has two ways to get current: re-execute the statement over the
//! grown table (the cold path — a full scan, per-row expression
//! evaluation, and hash grouping of *every* row), or fast-forward the
//! retained [`GroupedAggregateCache`] through `absorb_append` (filter,
//! group and fold only the appended suffix). This bench measures both
//! over a 256Ki-row sensor workload absorbing 1024-row batches — the
//! server's `APPEND_BATCH_ROWS` granularity.
//!
//! Before anything is timed, the absorbed cache is asserted
//! **bit-identical** to a cold build over the grown table: same full
//! result, same per-group exclusion answers. The printed summary then
//! asserts the point of the subsystem: absorbing a streamed batch must
//! be at least 5x faster than the cold re-execution it replaces (in
//! practice the gap is orders of magnitude — absorb work scales with the
//! batch, re-execution with the table).
//!
//! The timed `absorb_1024` entry walks a pre-built chain of append
//! descendants (one +1024-row snapshot per iteration, warm-up included),
//! so every timed iteration performs one real absorb — never a no-op
//! fast-path that would flatter the mean.

use criterion::{criterion_group, Criterion};
use dbwipes_engine::{parse_select, ExclusionQuery, GroupedAggregateCache};
use dbwipes_storage::{DataType, RowId, Schema, Table, Value};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: usize = 262_144;
const SENSORS: i64 = 1024;
const BATCH: usize = 1024;
// Enough +1024-row snapshots to cover the timed entry's warm-up plus
// samples; running out mid-bench panics rather than silently timing
// no-op absorbs.
const CHAIN: usize = 24;
// Same stance as bench_snapshot_recovery: the WHERE clause keeps nearly
// every row but makes the cold path evaluate it per row — what real
// dashboards' windowed statements pay, and what absorb pays only for the
// appended suffix.
const SQL: &str = "SELECT window, avg(temp), stddev(temp) FROM readings \
                   WHERE sensorid >= 0 AND temp > 0 GROUP BY window";

/// A 256Ki-row sensor table on the dyadic grid (temperatures are
/// multiples of 1/32), so absorbed and rebuilt aggregate states agree
/// bit for bit, not approximately.
fn sensor_table() -> Table {
    let schema = Schema::of(&[
        ("sensorid", DataType::Int),
        ("window", DataType::Int),
        ("temp", DataType::Float),
    ]);
    let mut t = Table::new("readings", schema).unwrap();
    for i in 0..ROWS {
        t.push_row(reading(i)).unwrap();
    }
    t
}

fn reading(i: usize) -> Vec<Value> {
    let sensor = (i as i64) % SENSORS;
    let window = ((i / 16_384) % 16) as i64; // 16 windows of 16Ki readings
    let temp = 16.0 + ((i * 7) % 64) as f64 / 32.0;
    vec![Value::Int(sensor), Value::Int(window), Value::Float(temp)]
}

/// `base` plus one streamed batch of `BATCH` rows.
fn append_batch(base: &Table, offset: usize) -> Table {
    let mut grown = base.clone();
    for i in 0..BATCH {
        grown.push_row(reading(offset + i)).unwrap();
    }
    grown
}

fn mean_wall(iters: u32, mut f: impl FnMut()) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed() / iters
}

fn bench_stream_append(c: &mut Criterion) {
    let base = Arc::new(sensor_table());
    let stmt = parse_select(SQL).unwrap();

    // A chain of append descendants: chain[k] = base + (k+1) streamed
    // batches, each epoch an append descendant of the one before.
    let mut chain: Vec<Arc<Table>> = Vec::with_capacity(CHAIN);
    for k in 0..CHAIN {
        let prev: &Table = if k == 0 { &base } else { &chain[k - 1] };
        chain.push(Arc::new(append_batch(prev, ROWS + k * BATCH)));
    }
    let grown = Arc::clone(&chain[0]);

    // ── Equivalence gate, before a single iteration is timed. ──
    let mut absorbed = GroupedAggregateCache::build_shared(Arc::clone(&base), &stmt).unwrap();
    assert_eq!(absorbed.absorb_append_shared(Arc::clone(&grown)).unwrap(), BATCH);
    let rebuilt = GroupedAggregateCache::build_shared(Arc::clone(&grown), &stmt).unwrap();
    assert_eq!(absorbed.fingerprint(), rebuilt.fingerprint());
    assert_eq!(absorbed.full_result().rows, rebuilt.full_result().rows);
    assert_eq!(absorbed.full_result().group_keys, rebuilt.full_result().group_keys);
    // Exclusions straddling the old/new row boundary answer identically.
    let excluded: Vec<RowId> = (ROWS - 500..ROWS + 500).map(RowId).collect();
    assert_eq!(
        absorbed.result(&ExclusionQuery::new().excluding_rows(&excluded)).rows,
        rebuilt.result(&ExclusionQuery::new().excluding_rows(&excluded)).rows,
        "absorbed cache must answer exclusions bit-identically"
    );

    let mut group = c.benchmark_group("stream_append");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    group.bench_function(format!("cold_reexec/{}", grown.num_rows()), |b| {
        b.iter(|| {
            black_box(GroupedAggregateCache::build_shared(Arc::clone(&grown), &stmt).unwrap())
        })
    });
    {
        let mut cache = GroupedAggregateCache::build_shared(Arc::clone(&base), &stmt).unwrap();
        let mut next = chain.iter();
        group.bench_function(format!("absorb_{BATCH}/{}", grown.num_rows()), |b| {
            b.iter(|| {
                let snapshot = next.next().expect("snapshot chain exhausted — raise CHAIN");
                let n = cache.absorb_append_shared(Arc::clone(snapshot)).unwrap();
                assert_eq!(n, BATCH, "a timed iteration must absorb one full batch");
                black_box(n)
            })
        });
    }
    group.finish();

    // The claim the subsystem is built on, asserted outside criterion:
    // absorbing one streamed batch must beat re-executing the statement
    // by at least 5x. One cache fast-forwards through successive
    // snapshots — the production shape: a session's retained cache
    // absorbs each arriving batch in turn, so per-group capacity growth
    // amortises exactly as it does on a live server.
    let reexec = mean_wall(5, || {
        black_box(GroupedAggregateCache::build_shared(Arc::clone(&grown), &stmt).unwrap());
    });
    let mut cache = GroupedAggregateCache::build_shared(Arc::clone(&base), &stmt).unwrap();
    let mut total = Duration::ZERO;
    const ABSORB_ITERS: usize = 5;
    for snapshot in chain.iter().take(ABSORB_ITERS) {
        let start = Instant::now();
        let n = black_box(cache.absorb_append_shared(Arc::clone(snapshot)).unwrap());
        total += start.elapsed();
        assert_eq!(n, BATCH, "a timed sample must absorb one full batch");
    }
    let absorb = total / ABSORB_ITERS as u32;
    let speedup = reexec.as_secs_f64() / absorb.as_secs_f64().max(f64::EPSILON);
    println!(
        "stream_append 256Ki rows + {BATCH}: cold re-execution {reexec:?} vs absorb {absorb:?} \
         ({speedup:.1}x)"
    );
    assert!(
        speedup >= 5.0,
        "absorbing a streamed batch ({absorb:?}) must be >=5x faster than cold re-execution \
         ({reexec:?}), got {speedup:.1}x"
    );
}

criterion_group!(benches, bench_stream_append);

fn main() {
    benches();
}
