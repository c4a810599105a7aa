//! The traced run: replays a TCP run's requests in-process and times the
//! calls into each module's public functions around them.
//!
//! The spans are taken from the benchmark's side of each call, never from
//! inside the program:
//!
//! * `server` — `parse_request`, `SessionManager::handle_request` per
//!   command class (the `dashboard` layer runs inside it), and the reply's
//!   `Display` encoding;
//! * `core` and `learn` — every `debug` the server computed (not served
//!   from the memo) is re-run stage by stage from the session's state,
//!   and once whole through `explain_with_cache`;
//! * `engine`, `provenance` and `storage` — the run's statements and the
//!   seed's append batches over a private copy of the workload's table.
//!
//! Command classes and appends a workload does not send are timed by a
//! short probe on the same table, so every layer has a number on every
//! workload.

use crate::e2e::{Phase, TcpRun};
use crate::gen::{
    AppendPlan, Brush, Call, Reading, Workload, APPEND_BATCH_ROWS, CHATTER_SELECTIONS,
    FAILING_SENSORS, INGEST_WINDOWS, WINDOW_SQL,
};
use crate::metrics::{handle_metric, Report, COMMAND_CLASSES};
use crate::stats::{mean, median, percentile};
use dbwipes_core::influence::metric_aggregate;
use dbwipes_core::{
    enumerate_candidates, enumerate_predicates, explain_with_cache, rank_influence_with_cache,
    rank_predicates_with_cache, CandidateDataset, ExplanationRequest, InfluenceReport,
};
use dbwipes_data::{generate_sensor, SensorConfig};
use dbwipes_engine::{
    execute, parse_select, AggregateArg, ExecOptions, GroupedAggregateCache, QueryResult,
};
use dbwipes_learn::{DecisionTree, FeatureSpace};
use dbwipes_server::{parse_request, Json, SessionId, SessionManager, StorageRuntime};
use dbwipes_storage::persist::encode_table;
use dbwipes_storage::{Catalog, RowId, Table};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The cache capacity `dbwipes-server` runs with by default.
const SERVER_CACHE_CAPACITY: usize = 32;

/// Times each probe command class is sent when the workload has none.
const PROBE_REPS: usize = 3;

/// Append batches timed through the storage and engine layers directly.
const STORAGE_PROBE_BATCHES: usize = 8;

/// Executions per statement for the engine and provenance timings.
const EXECUTE_REPS: usize = 9;

/// Most distinct statements timed through the engine.
const MAX_STATEMENTS: usize = 8;

/// Commands whose handler is quick enough that the end-to-end minus
/// in-process difference isolates the transport (socket, queue, framing).
const TRANSPORT_CLASSES: &[&str] =
    &["batch", "brush_outputs", "set_metric", "plot", "zoom", "metric_choices", "state"];

/// Largest tolerated gap between the stage sum and the whole pipeline.
const STAGE_COVERAGE_TOLERANCE: f64 = 0.10;

/// Time each explain's stage-versus-whole comparison runs for at least.
const STAGE_MIN_MS: f64 = 250.0;

/// Most rounds of the stage-versus-whole comparison per explain.
const MAX_STAGE_ROUNDS: usize = 8;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1000.0
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// The `readings` table the server generates for `readings` rows.
fn sensor_table(readings: usize) -> Table {
    generate_sensor(&SensorConfig {
        num_readings: readings,
        failing_sensors: FAILING_SENSORS.to_vec(),
        ..SensorConfig::small()
    })
    .table
}

/// Samples of one traced run, by metric name.
#[derive(Debug, Default)]
struct Samples {
    by_name: BTreeMap<String, Vec<f64>>,
}

impl Samples {
    fn push(&mut self, name: &str, value: f64) {
        self.by_name.entry(name.to_string()).or_default().push(value);
    }

    fn get(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or_default()
    }

    fn has(&self, name: &str) -> bool {
        !self.get(name).is_empty()
    }

    fn median(&self, name: &str) -> Option<f64> {
        median(self.get(name))
    }

    fn sum(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }
}

/// The in-process twin of the server: a manager configured like the
/// binary, with the analyst's session.
struct Replay {
    manager: SessionManager,
    session: SessionId,
    samples: Samples,
    next_id: u64,
    explains: usize,
    statements: Vec<String>,
    failures: Vec<String>,
}

impl Replay {
    fn new(workload: Workload, work: &Path) -> Result<Replay, String> {
        let mut catalog = Catalog::new();
        catalog.register(sensor_table(workload.readings())).map_err(|e| e.to_string())?;
        let manager = SessionManager::with_cache_capacity(catalog, SERVER_CACHE_CAPACITY);
        if workload.durable() {
            let runtime =
                StorageRuntime::open(work.join("trace-data")).map_err(|e| e.to_string())?;
            manager.attach_storage(Arc::new(runtime));
            manager.flush_storage();
        }
        let session = manager.open_session();
        Ok(Replay {
            manager,
            session,
            samples: Samples::default(),
            next_id: 1,
            explains: 0,
            statements: vec![WINDOW_SQL.to_string()],
            failures: Vec::new(),
        })
    }

    /// Runs one request through parse, handle and encode, timing each,
    /// and breaks a computed `debug` down by stage. Returns the request's
    /// in-process time in µs.
    fn send(&mut self, call: &Call, session: SessionId) -> f64 {
        let line = call.line(self.next_id, session.0);
        self.next_id += 1;
        let t = Instant::now();
        let request = match parse_request(&line) {
            Ok(request) => request,
            Err(e) => {
                self.failures.push(format!("replay: {} does not parse: {e}", call.cmd));
                return 0.0;
            }
        };
        let parse = us_since(t);
        let t = Instant::now();
        let reply = self.manager.handle_request(request);
        let handle = us_since(t);
        let t = Instant::now();
        let encoded = reply.to_string();
        let encode = us_since(t);
        self.samples.push("server.parse_us", parse);
        self.samples.push(&handle_metric(call.cmd), handle);
        self.samples.push("server.encode_us", encode);
        self.samples.push("server.reply_bytes", encoded.len() as f64);
        if reply.get("ok") != Some(&Json::Bool(true)) {
            self.failures.push(format!("replay: {} failed: {encoded}", call.cmd));
            return parse + handle + encode;
        }
        match call.cmd {
            "debug" if reply.get("cached") == Some(&Json::Bool(false)) => {
                if let Err(e) = self.explain_by_stage(session) {
                    self.failures.push(format!("replay: stage breakdown: {e}"));
                }
            }
            "click_predicate" => {
                if let Some(sql) = reply.get("sql").and_then(Json::as_str) {
                    if self.statements.len() < MAX_STATEMENTS
                        && !self.statements.iter().any(|s| s == sql)
                    {
                        self.statements.push(sql.to_string());
                    }
                }
            }
            _ => {}
        }
        parse + handle + encode
    }

    /// Re-runs the explanation the session just computed, stage by stage
    /// through the public functions `explain_with_cache` composes, and
    /// whole. The two orders alternate so neither side always runs on
    /// warmer caches, and small explains repeat the pair until
    /// `STAGE_MIN_MS` is spent, so the stage sum is compared with the
    /// whole over more than a few milliseconds.
    fn explain_by_stage(&mut self, session: SessionId) -> Result<(), String> {
        let handle = self.manager.session(session).ok_or("session vanished")?;
        let (request, result, table) = {
            let guard = handle.lock().map_err(|_| "session lock poisoned")?;
            let dashboard = guard.dashboard();
            let request = dashboard.explain_request().map_err(|e| e.to_string())?;
            let result = dashboard.result().ok_or("no result to explain")?.clone();
            let table = dashboard
                .backend()
                .catalog()
                .table_arc(&result.statement.table)
                .map_err(|e| e.to_string())?;
            (request, result, table)
        };
        let s = &mut self.samples;
        let t = Instant::now();
        let cache =
            GroupedAggregateCache::build(&table, &result.statement).map_err(|e| e.to_string())?;
        s.push("engine.cache_build_ms", ms_since(t));

        let whole = |s: &mut Samples| -> Result<f64, String> {
            let t = Instant::now();
            black_box(explain_with_cache(&cache, &result, &request).map_err(|e| e.to_string())?);
            let took = ms_since(t);
            s.push("core.pipeline_ms", took);
            Ok(took)
        };
        if self.explains == 0 {
            // The process's first explain pays one-off costs (first-touch
            // allocations, thread start-up) that would land on whichever
            // side runs first; run it once untimed.
            black_box(explain_with_cache(&cache, &result, &request).map_err(|e| e.to_string())?);
        }
        let mut spent = 0.0;
        let mut staged = None;
        for round in 0..MAX_STAGE_ROUNDS {
            if round > 0 && spent >= STAGE_MIN_MS {
                break;
            }
            let whole_first = (self.explains + round).is_multiple_of(2);
            if whole_first {
                spent += whole(s)?;
            }
            let (took, stages) = time_stages(&table, &cache, &result, &request, s)?;
            spent += took;
            staged.get_or_insert(stages);
            if !whole_first {
                spent += whole(s)?;
            }
        }
        self.explains += 1;
        let Staged { f_rows, space, candidates, enumerated, useful_frac } =
            staged.expect("at least one round ran");

        // The Predicate Enumerator's own steps, per candidate: extracting
        // F's feature matrix and training each tree configuration. Summed
        // per explain; outside the stage sum, which already holds them.
        let (mut extract, mut train) = (0.0, 0.0);
        for candidate in &candidates {
            let positive: HashSet<RowId> = candidate.rows.iter().copied().collect();
            let labels: Vec<bool> = f_rows.iter().map(|r| positive.contains(r)).collect();
            if space.is_empty() || !labels.contains(&true) || !labels.contains(&false) {
                continue;
            }
            let t = Instant::now();
            let dataset = space.extract(&table, &f_rows);
            extract += ms_since(t);
            for config in &request.config.predicates.tree_configs {
                let t = Instant::now();
                black_box(DecisionTree::train(&dataset, &labels, *config));
                train += ms_since(t);
            }
        }
        s.push("learn.extract_ms", extract);
        s.push("learn.tree_train_ms", train);

        s.push("core.f_rows", f_rows.len() as f64);
        s.push("core.candidates", candidates.len() as f64);
        s.push("core.predicates", enumerated as f64);
        s.push("core.useful_predicate_frac", useful_frac);
        Ok(())
    }
}

/// What one stage-by-stage run produced, for the counts and the
/// Predicate Enumerator's sub-steps.
struct Staged {
    f_rows: Vec<RowId>,
    space: FeatureSpace,
    candidates: Vec<CandidateDataset>,
    enumerated: usize,
    useful_frac: f64,
}

/// Runs the five blocking stages of `explain_with_cache` one public call
/// at a time, timing each. Returns the time spent and what they produced.
fn time_stages(
    table: &Table,
    cache: &GroupedAggregateCache<'_>,
    result: &QueryResult,
    request: &ExplanationRequest,
    s: &mut Samples,
) -> Result<(f64, Staged), String> {
    let all = Instant::now();
    let metric = &request.metric;
    let selected = &request.suspicious_outputs;
    let t = Instant::now();
    let influence =
        rank_influence_with_cache(cache, result, selected, metric).map_err(|e| e.to_string())?;
    s.push("core.preprocess_ms", ms_since(t));
    let f_rows = influence.inputs();
    let examples = ranker_examples(request, &influence);

    let t = Instant::now();
    let space = FeatureSpace::build_excluding(table, &feature_exclusions(request, result), &f_rows);
    s.push("learn.feature_space_ms", ms_since(t));

    let t = Instant::now();
    let candidates = enumerate_candidates(
        table,
        &space,
        &request.suspicious_inputs,
        &influence,
        &request.config.enumerator,
    );
    s.push("core.dataset_enum_ms", ms_since(t));

    let t = Instant::now();
    let mut predicates = Vec::new();
    for candidate in &candidates {
        predicates.extend(enumerate_predicates(
            table,
            &space,
            &f_rows,
            candidate,
            &request.config.predicates,
        ));
    }
    s.push("core.predicate_enum_ms", ms_since(t));
    let enumerated = predicates.len();

    let t = Instant::now();
    let ranked = rank_predicates_with_cache(
        cache,
        result,
        selected,
        &examples,
        metric,
        predicates,
        &request.config.ranker,
    )
    .map_err(|e| e.to_string())?;
    s.push("core.rank_ms", ms_since(t));
    let useful = ranked.iter().filter(|p| p.improvement > 0.0).count();
    let useful_frac = useful as f64 / ranked.len().max(1) as f64;
    let staged = Staged { f_rows, space, candidates, enumerated, useful_frac };
    Ok((ms_since(all), staged))
}

/// D′ for the ranker's agreement score, formed as `explain_with_cache`
/// forms it: the analyst's examples, else the top-influence tuples.
fn ranker_examples(request: &ExplanationRequest, influence: &InfluenceReport) -> Vec<RowId> {
    if !request.suspicious_inputs.is_empty() {
        return request.suspicious_inputs.clone();
    }
    let k = ((influence.influences.len() as f64 * 0.05).ceil() as usize).clamp(1, 50);
    influence.influences.iter().filter(|t| t.influence > 0.0).take(k).map(|t| t.row).collect()
}

/// The columns `explain_with_cache` keeps out of the feature space.
fn feature_exclusions(request: &ExplanationRequest, result: &QueryResult) -> Vec<String> {
    let mut exclude = request.config.exclude_columns.clone();
    if request.config.exclude_aggregate_column {
        if let Ok((_, call)) = metric_aggregate(result, &request.metric) {
            if let AggregateArg::Expr(e) = &call.arg {
                exclude.extend(e.columns());
            }
        }
    }
    if request.config.exclude_group_by_columns {
        exclude.extend(result.statement.group_by.iter().cloned());
    }
    exclude
}

/// Times parse, execute and lineage capture for each statement the run
/// executed.
fn time_engine(table: &Table, statements: &[String], s: &mut Samples) -> Result<(), String> {
    for sql in statements {
        let mut parses = Vec::new();
        let mut stmt = None;
        for _ in 0..EXECUTE_REPS * 4 {
            let t = Instant::now();
            stmt = Some(parse_select(sql).map_err(|e| format!("{sql}: {e}"))?);
            parses.push(us_since(t));
        }
        s.push("engine.parse_us", median(&parses).expect("parsed at least once"));
        let stmt = stmt.expect("parsed at least once");
        let time = |capture_lineage| -> Result<f64, String> {
            let mut runs = Vec::new();
            for _ in 0..EXECUTE_REPS {
                let t = Instant::now();
                black_box(
                    execute(table, &stmt, ExecOptions { capture_lineage })
                        .map_err(|e| e.to_string())?,
                );
                runs.push(ms_since(t));
            }
            Ok(median(&runs).expect("executed at least once"))
        };
        let with = time(true)?;
        let without = time(false)?;
        s.push("engine.execute_ms", with);
        s.push("provenance.lineage_ms", with - without);
    }
    Ok(())
}

/// Times the append path layer by layer on a private copy of the table:
/// `Table::push_rows`, `absorb_append` of the window query's cache, the
/// snapshot encoding, and a durable save.
fn time_storage(
    table: &Table,
    seed: u64,
    readings: usize,
    work: &Path,
    s: &mut Samples,
) -> Result<(), String> {
    let stmt = parse_select(WINDOW_SQL).map_err(|e| e.to_string())?;
    let mut current = Arc::new(table.clone());
    let mut cache = GroupedAggregateCache::build_shared(Arc::clone(&current), &stmt)
        .map_err(|e| e.to_string())?;
    let runtime = StorageRuntime::open(work.join("trace-probe")).map_err(|e| e.to_string())?;
    runtime.save_table(&current).map_err(|e| e.to_string())?;
    let bytes_before = encode_table(&current).len();
    let mut plan = AppendPlan::new(seed, readings);
    for _ in 0..STORAGE_PROBE_BATCHES {
        let rows = plan.next_batch(APPEND_BATCH_ROWS).iter().map(Reading::values).collect();
        let mut next = (*current).clone();
        let t = Instant::now();
        next.push_rows(rows).map_err(|e| e.to_string())?;
        s.push("storage.push_rows_us", us_since(t));
        let next = Arc::new(next);
        let t = Instant::now();
        cache.absorb_append_shared(Arc::clone(&next)).map_err(|e| e.to_string())?;
        s.push("engine.absorb_us", us_since(t));
        let t = Instant::now();
        black_box(encode_table(&next));
        s.push("storage.encode_ms", ms_since(t));
        let t = Instant::now();
        runtime.save_table(&next).map_err(|e| e.to_string())?;
        s.push("storage.save_ms", ms_since(t));
        current = next;
    }
    let appended = STORAGE_PROBE_BATCHES * APPEND_BATCH_ROWS;
    let grown = encode_table(&current).len() - bytes_before;
    s.push("storage.bytes_per_appended_row", grown as f64 / appended as f64);
    Ok(())
}

/// A fresh session's pass over every dashboard command, for the classes
/// the workload does not send.
fn probe_classes(replay: &mut Replay, workload: Workload) {
    let missing: Vec<&str> = COMMAND_CLASSES
        .iter()
        .copied()
        .filter(|c| *c != "stream_append" && !replay.samples.has(&handle_metric(c)))
        .collect();
    if missing.is_empty() {
        return;
    }
    let brush = if workload == Workload::SessionChatter {
        CHATTER_SELECTIONS[0].brush
    } else {
        Brush::windows(INGEST_WINDOWS.0, INGEST_WINDOWS.1)
    };
    let session = replay.manager.open_session();
    let mut probe = Samples::default();
    std::mem::swap(&mut probe, &mut replay.samples);
    for rep in 0..PROBE_REPS {
        for call in [
            Call::run_query(WINDOW_SQL),
            Call::plot("window", "std_temp"),
            Call::brush(&brush),
            Call::zoom("epoch", "temp"),
            Call::metric_choices("std_temp"),
            Call::too_high("std_temp", 3.0 + rep as f64 * 1e-3),
            Call::debug(),
            Call::click(0),
            Call::undo(),
            Call::state(),
        ] {
            replay.send(&call, session);
        }
    }
    std::mem::swap(&mut probe, &mut replay.samples);
    for class in missing {
        let name = handle_metric(class);
        for v in probe.get(&name) {
            replay.samples.push(&name, *v);
        }
    }
}

/// `stats` counter deltas over the TCP run's measured window.
fn stats_deltas(before: &Json, after: &Json, report: &mut Report) {
    let delta = |path: &[&str]| {
        let read = |j: &Json| {
            path.iter().try_fold(j, |j, k| j.get(k)).and_then(Json::as_f64).unwrap_or(0.0)
        };
        read(after) - read(before)
    };
    let ratio = |hits: f64, total: f64| if total > 0.0 { hits / total } else { 0.0 };
    let (hits, misses) = (delta(&["cache", "hits"]), delta(&["cache", "misses"]));
    let memo_hits = delta(&["cache", "explanation_hits"]);
    let memo_misses = delta(&["cache", "explanation_misses"]);
    report.set("registry.agg_hit_rate", ratio(hits, hits + misses));
    report.set("registry.memo_hit_rate", ratio(memo_hits, memo_hits + memo_misses));
    report.set("registry.append_absorbs", delta(&["cache", "append_absorbs"]));
    let (bh, bm) = (delta(&["condition_bitmaps", "hits"]), delta(&["condition_bitmaps", "misses"]));
    report.set("storage.condition_bitmap_hit_rate", ratio(bh, bh + bm));
    report.set("pool.rejected", delta(&["pool", "rejected"]));
}

/// Replays `tcp` in-process and fills `report` with every per-layer
/// metric. Returns the failures the replay found.
pub fn per_layer(
    workload: Workload,
    seed: u64,
    tcp: &TcpRun,
    work: &Path,
    report: &mut Report,
) -> Result<Vec<String>, String> {
    let mut replay = Replay::new(workload, work)?;
    // In-process time of each replayed request, by class, for the
    // transport and append-wait differences.
    let mut inproc: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for sent in &tcp.sent {
        let took = replay.send(&sent.call, replay.session);
        inproc.entry(sent.call.cmd).or_default().push(took);
    }
    probe_classes(&mut replay, workload);
    let table = sensor_table(workload.readings());
    let statements = std::mem::take(&mut replay.statements);
    time_engine(&table, &statements, &mut replay.samples)?;
    time_storage(&table, seed, workload.readings(), work, &mut replay.samples)?;

    let s = &replay.samples;
    for (name, _) in crate::metrics::per_layer() {
        if let Some(v) = s.median(&name) {
            report.set(&name, v);
        }
    }
    let staged = [
        "core.preprocess_ms",
        "learn.feature_space_ms",
        "core.dataset_enum_ms",
        "core.predicate_enum_ms",
        "core.rank_ms",
    ]
    .iter()
    .map(|n| s.sum(n))
    .sum::<f64>();
    let coverage = staged / s.sum("core.pipeline_ms");
    report.set("core.stage_coverage", coverage);
    if (coverage - 1.0).abs() > STAGE_COVERAGE_TOLERANCE {
        replay.failures.push(format!(
            "the timed stages sum to {:.1}% of the whole pipeline; a blocking step is untimed",
            coverage * 100.0
        ));
    }

    // Transport: end-to-end minus in-process, over the quick commands.
    let (mut weighted, mut count) = (0.0, 0.0);
    for class in TRANSPORT_CLASSES {
        let e2e: Vec<f64> = tcp
            .sent
            .iter()
            .filter(|s| s.call.cmd == *class)
            .map(|s| s.latency_ms * 1000.0)
            .collect();
        if let (Some(wire), Some(local)) = (median(&e2e), inproc.get(class).and_then(|v| median(v)))
        {
            weighted += (wire - local) * e2e.len() as f64;
            count += e2e.len() as f64;
        }
    }
    report.set("server.transport_us", weighted / count);

    // Append wait: the wire's append latency beyond the in-process time.
    let appends: Vec<f64> =
        tcp.sent.iter().filter(|s| s.call.cmd == "stream_append").map(|s| s.latency_ms).collect();
    let local = inproc.get("stream_append").and_then(|v| mean(v)).map(|us| us / 1000.0);
    if let (Some(wire), Some(local)) = (mean(&appends), local) {
        report.set("server.append_wait_ms", wire - local);
    }

    // Generator lag: the open-loop appender's lateness on ingest_live,
    // the client's own turnaround between requests on the closed loops.
    let lags: Vec<f64> = tcp
        .sent
        .iter()
        .filter(|s| s.phase == Phase::Measured)
        .filter(|s| workload != Workload::IngestLive || s.call.cmd == "stream_append")
        .map(|s| s.lag_ms)
        .collect();
    if let Some(p99) = percentile(&lags, 99.0) {
        report.set("bench.gen_lag_p99_ms", p99);
    }
    if let Some((before, after)) = &tcp.stats {
        stats_deltas(before, after, report);
    }
    Ok(replay.failures)
}
