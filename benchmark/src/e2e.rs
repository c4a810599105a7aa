//! The workloads over TCP against a spawned release `dbwipes-server`,
//! timed from the client's side, with every reply and the final state
//! checked.

use crate::calib::{Calibrator, Speed};
use crate::gen::{
    AppendPlan, Brush, Call, ChatterPlan, ColdPlan, Rng, Workload, APPEND_BATCH_ROWS,
    CHATTER_SELECTIONS, FAILING_SENSORS, INGEST_WINDOWS, WINDOW_SQL,
};
use crate::wire::{Conn, Reply, Server};
use dbwipes_server::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Servers spawned per run to time set-up; the last one serves the run.
const SETUP_SPAWNS: usize = 11;

/// How often, at most, a client times the reference kernel between its
/// requests (see [`crate::calib`]).
const CALIBRATE_EVERY: Duration = Duration::from_millis(50);

/// `explain_cold` loops run before measuring (one pass over the selections).
const COLD_WARMUP_LOOPS: usize = 5;

/// `stream_append` batches per second in `ingest_live` (open loop).
pub const APPEND_RATE_PER_S: f64 = 8.0;

/// The `ingest_live` analyst's mean think time before each `debug`. Each
/// think is drawn uniformly from half to one and a half times the mean,
/// so the analyst never locks into step with the appender's schedule.
const INGEST_THINK_MS: f64 = 400.0;

/// Batches the appender may trail the schedule by at the end of the
/// measured window before the run counts as invalid (a growing backlog).
const BACKLOG_SLACK_BATCHES: usize = 4;

/// Share of a top-1 predicate's removed rows that must come from the
/// failing sensors.
const MIN_FAILING_SHARE: f64 = 0.9;

/// Batches appended over the wire at the end of a traced run of a
/// workload that does not append, so every layer is timed on every
/// workload (`server.append_wait_ms`).
pub const PROBE_APPENDS: usize = 8;

/// What part of a run a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Before the measured window: opening the analyst's view, and loops
    /// that fill the caches.
    Warmup,
    /// The measured window.
    Measured,
    /// Appends after the measured window of a traced run.
    Probe,
}

/// One request of the workload as it was sent.
#[derive(Debug, Clone)]
pub struct Sent {
    /// The request.
    pub call: Call,
    /// When it was sent, from the start of the run.
    pub at: Duration,
    /// Latency in ms: from send for closed loops, from the due time for
    /// the open-loop appender.
    pub latency_ms: f64,
    /// How late the generator sent it, in ms: after the due time for the
    /// appender, after the previous reply for a closed-loop analyst
    /// (calibration excluded).
    pub lag_ms: f64,
    /// The part of the run it belongs to.
    pub phase: Phase,
}

/// Everything one TCP run measured.
#[derive(Debug)]
pub struct TcpRun {
    /// Median spawn-to-listening time, in seconds, rescaled to the
    /// nominal host speed.
    pub setup_s: f64,
    /// The same median as measured, in seconds.
    pub raw_setup_s: f64,
    /// The host-speed calibration taken between requests.
    pub speed: Speed,
    /// Every request sent outside the final checks, in send order.
    pub sent: Vec<Sent>,
    /// Length of the measured window.
    pub window: Duration,
    /// The server's `VmHWM` at the end of the measured window, MiB.
    pub peak_rss_mb: f64,
    /// Ops and checks attempted.
    pub attempted: u64,
    /// One message per failed op or check.
    pub failures: Vec<String>,
    /// `stats` just before and just after the measured window.
    pub stats: Option<(Json, Json)>,
}

/// Per-thread bookkeeping of sent requests and failures.
struct Recorder {
    origin: Instant,
    sent: Vec<Sent>,
    attempted: u64,
    failures: Vec<String>,
    calib: Calibrator,
}

impl Recorder {
    fn new(origin: Instant) -> Result<Recorder, String> {
        Ok(Recorder {
            origin,
            sent: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            calib: Calibrator::new(origin, CALIBRATE_EVERY)?,
        })
    }

    fn call(
        &mut self,
        conn: &mut Conn,
        session: u64,
        call: &Call,
        phase: Phase,
    ) -> Result<Reply, String> {
        self.attempted += 1;
        let calibrating = self.calib.tick();
        let reply = conn.call(call, session)?;
        self.sent.push(Sent {
            call: call.clone(),
            at: reply.sent - self.origin,
            latency_ms: ms(reply.elapsed),
            lag_ms: ms(reply.gap.saturating_sub(calibrating)),
            phase,
        });
        Ok(reply)
    }

    /// An unrecorded request of the final checks.
    fn check_call(&mut self, conn: &mut Conn, session: u64, call: &Call) -> Result<Reply, String> {
        self.attempted += 1;
        conn.call(call, session)
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records a failed op that ended the workload early.
    fn outcome(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.failures.push(e);
        }
    }

    fn merge(&mut self, mut other: Recorder) {
        self.sent.extend(other.sent);
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.calib.samples.append(&mut other.calib.samples);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Spawns the server `SETUP_SPAWNS` times, timing each, and keeps the
/// last. Returns it with the median set-up time rescaled to the nominal
/// host speed by kernel timings before and after each spawn, and the
/// median as measured.
fn set_up(workload: Workload, bin: &Path, work: &Path) -> Result<(Server, f64, f64), String> {
    let origin = Instant::now();
    let mut calib = Calibrator::new(origin, Duration::ZERO)?;
    let mut spans = Vec::with_capacity(SETUP_SPAWNS);
    let mut server = None;
    for i in 0..SETUP_SPAWNS {
        let dir = work.join(format!("data-{i}"));
        let data_dir = if workload.durable() {
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("creating {}: {e}", dir.display()))?;
            Some(dir.as_path())
        } else {
            None
        };
        calib.measure();
        let began = origin.elapsed();
        let (spawned, took) = Server::spawn(bin, workload.readings(), data_dir)?;
        calib.measure();
        spans.push((began, took));
        if let Some(previous) = server.replace(spawned) {
            previous.shutdown()?;
        }
    }
    let speed = Speed::new(std::mem::take(&mut calib.samples));
    let (mut times, mut raw) = (Vec::new(), Vec::new());
    for (began, took) in spans {
        let factor = speed.factor(began, began + took).ok_or("the set-up calibration failed")?;
        times.push(took.as_secs_f64() * factor);
        raw.push(took.as_secs_f64());
    }
    let median = |v: &[f64]| crate::stats::median(v).expect("at least one spawn");
    Ok((server.expect("at least one spawn"), median(&times), median(&raw)))
}

/// Runs `workload` over TCP for `seconds` of measurement.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    bin: &Path,
    work: &Path,
    traced: bool,
) -> Result<TcpRun, String> {
    let (server, setup_s, raw_setup_s) = set_up(workload, bin, work)?;
    let window = Duration::from_secs_f64(seconds);
    let mut rec = Recorder::new(Instant::now())?;
    let mut conn = Conn::connect(&server.addr)?;
    let session = conn.open_session()?;
    let outcome = match workload {
        Workload::ExplainCold => explain_cold(&mut rec, &mut conn, session, seed, window, traced),
        Workload::SessionChatter => {
            session_chatter(&mut rec, &mut conn, session, seed, window, traced)
        }
        Workload::IngestLive => {
            ingest_live(&mut rec, &server, &mut conn, session, seed, window, traced)
        }
    };
    let peak_rss_mb = server.peak_rss_mb()?;
    let (measured, stats) = match outcome {
        Ok(done) => done,
        Err(e) => {
            rec.failures.push(e);
            (Duration::ZERO, None)
        }
    };
    if traced && workload != Workload::IngestLive && rec.failures.is_empty() {
        let result = probe_appends(&mut rec, &mut conn, seed, workload.readings());
        rec.outcome(result);
    }
    drop(conn);
    server.shutdown()?;
    rec.sent.sort_by_key(|s| s.at);
    Ok(TcpRun {
        setup_s,
        raw_setup_s,
        speed: Speed::new(std::mem::take(&mut rec.calib.samples)),
        sent: rec.sent,
        window: measured,
        peak_rss_mb,
        attempted: rec.attempted,
        failures: rec.failures,
        stats,
    })
}

type Measured = (Duration, Option<(Json, Json)>);

fn stats_if(traced: bool, conn: &mut Conn) -> Result<Option<Json>, String> {
    if traced {
        conn.stats().map(Some)
    } else {
        Ok(None)
    }
}

fn selected(reply: &Json) -> Vec<u64> {
    reply
        .get("selected")
        .and_then(Json::as_array)
        .map(|a| a.iter().filter_map(Json::as_u64).collect())
        .unwrap_or_default()
}

/// One analyst, closed loop: brush, unique metric, debug, click, undo.
fn explain_cold(
    rec: &mut Recorder,
    conn: &mut Conn,
    session: u64,
    seed: u64,
    window: Duration,
    traced: bool,
) -> Result<Measured, String> {
    rec.call(conn, session, &Call::run_query(WINDOW_SQL), Phase::Warmup)?;
    let plan = ColdPlan::new(seed);
    // Top-1 predicate text -> the row count its `debug` reply said it removes.
    let mut tops: BTreeMap<String, u64> = BTreeMap::new();
    let mut before = None;
    let mut start = Instant::now();
    for i in 0.. {
        let phase = if i < COLD_WARMUP_LOOPS { Phase::Warmup } else { Phase::Measured };
        if i == COLD_WARMUP_LOOPS {
            before = stats_if(traced, conn)?;
            start = Instant::now();
        }
        if phase == Phase::Measured && start.elapsed() >= window {
            break;
        }
        let step = plan.step(i);
        for call in step.calls() {
            let reply = rec.call(conn, session, &call, phase)?;
            match call.cmd {
                "batch" => {
                    let results = reply.json.get("results").and_then(Json::as_array);
                    let results = results.unwrap_or_default();
                    let all_ok = results.iter().all(|r| r.get("ok") == Some(&Json::Bool(true)));
                    rec.check(all_ok && results.len() == 2, || {
                        format!("loop {i}: batch failed: {}", reply.json)
                    });
                    let (lo, hi) = step.windows;
                    let want: Vec<u64> = (lo as u64..=hi as u64).collect();
                    let got = results.first().map(selected).unwrap_or_default();
                    rec.check(got == want, || format!("brush {lo}..={hi} selected {got:?}"));
                }
                "debug" => {
                    let cached = reply.json.get("cached").and_then(Json::as_bool);
                    rec.check(cached == Some(false), || {
                        format!("loop {i}: debug was served cached")
                    });
                    let top = reply
                        .json
                        .get("predicates")
                        .and_then(Json::as_array)
                        .and_then(|p| p.first())
                        .ok_or_else(|| format!("loop {i}: debug ranked no predicate"))?;
                    let text = top.get("predicate").and_then(Json::as_str).unwrap_or_default();
                    let removes = top.get("removes").and_then(Json::as_u64).unwrap_or_default();
                    tops.insert(text.to_string(), removes);
                }
                _ => {}
            }
        }
    }
    rec.calib.measure();
    let measured = start.elapsed();
    let after = stats_if(traced, conn)?;
    for (predicate, removes) in &tops {
        recount_top_predicate(rec, conn, session, predicate, *removes)?;
    }
    Ok((measured, before.zip(after)))
}

/// Re-counts the rows a top-1 predicate removes, per sensor: the count
/// must match the `debug` reply and come mostly from the failing sensors.
fn recount_top_predicate(
    rec: &mut Recorder,
    conn: &mut Conn,
    session: u64,
    predicate: &str,
    removes: u64,
) -> Result<(), String> {
    let sql =
        format!("SELECT sensorid, count(*) AS n FROM readings WHERE {predicate} GROUP BY sensorid");
    let reply = rec.check_call(conn, session, &Call::run_query(&sql))?;
    let (mut total, mut failing) = (0u64, 0u64);
    for row in reply.json.get("rows").and_then(Json::as_array).unwrap_or_default() {
        let cells = row.as_array().unwrap_or_default();
        let sensor = cells.first().and_then(Json::as_f64).unwrap_or(-1.0) as i64;
        let n = cells.get(1).and_then(Json::as_u64).unwrap_or(0);
        total += n;
        if FAILING_SENSORS.contains(&sensor) {
            failing += n;
        }
    }
    rec.check(total == removes, || {
        format!("`{predicate}` matches {total} rows but debug said it removes {removes}")
    });
    let share = failing as f64 / total.max(1) as f64;
    rec.check(total > 0 && share >= MIN_FAILING_SHARE, || {
        format!("`{predicate}` removes {total} rows, only {failing} from failing sensors")
    });
    Ok(())
}

/// One analyst, closed loop, every dashboard command. A second analyst
/// on a second connection would put more threads on the host's two CPUs
/// than it has, and time the scheduler rather than the server.
fn session_chatter(
    rec: &mut Recorder,
    conn: &mut Conn,
    session: u64,
    seed: u64,
    window: Duration,
    traced: bool,
) -> Result<Measured, String> {
    rec.call(conn, session, &Call::run_query(WINDOW_SQL), Phase::Warmup)?;
    // Warm-up: every selection explained once, so the memo serves the rest.
    for selection in &CHATTER_SELECTIONS {
        for call in selection.calls() {
            rec.call(conn, session, &call, Phase::Warmup)?;
        }
    }
    let before = stats_if(traced, conn)?;
    let start = Instant::now();
    let mut plan = ChatterPlan::new(seed);
    while start.elapsed() < window {
        let selection = plan.next_selection();
        for call in selection.calls() {
            let reply = rec.call(conn, session, &call, Phase::Measured)?;
            if call.cmd == "brush_outputs" {
                let got = selected(&reply.json);
                rec.check(got == selection.selected, || {
                    format!("brush {:?} selected {got:?}", selection.brush)
                });
            }
        }
    }
    rec.calib.measure();
    let measured = start.elapsed();
    let after = stats_if(traced, conn)?;
    Ok((measured, before.zip(after)))
}

/// Open-loop durable appends beside one closed-loop analyst who thinks,
/// then explains.
fn ingest_live(
    rec: &mut Recorder,
    server: &Server,
    conn: &mut Conn,
    session: u64,
    seed: u64,
    window: Duration,
    traced: bool,
) -> Result<Measured, String> {
    let readings = Workload::IngestLive.readings();
    let (lo, hi) = INGEST_WINDOWS;
    rec.call(conn, session, &Call::run_query(WINDOW_SQL), Phase::Warmup)?;
    rec.call(conn, session, &Call::brush(&Brush::windows(lo, hi)), Phase::Warmup)?;
    let mut appender = Conn::connect(&server.addr)?;
    let period = Duration::from_secs_f64(1.0 / APPEND_RATE_PER_S);
    let batches = (window.as_secs_f64() * APPEND_RATE_PER_S).ceil() as usize;
    let before = stats_if(traced, conn)?;
    let origin = rec.origin;
    let start = Instant::now();
    let deadline = start + window;
    let (append_rec, analyst_rec) = (Recorder::new(origin)?, Recorder::new(origin)?);
    let (append_rec, on_time, analyst_rec) = std::thread::scope(|scope| {
        let appender = scope.spawn(|| {
            let mut rec = append_rec;
            let mut on_time = 0usize;
            let result = (|| {
                let mut plan = AppendPlan::new(seed, readings);
                for k in 0..batches {
                    let due = start + period * k as u32;
                    rec.calib.tick();
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let call = Call::stream_append(&plan.next_batch(APPEND_BATCH_ROWS));
                    let reply = appender.call(&call, 0);
                    rec.attempted += 1;
                    let reply = reply?;
                    let done = reply.sent + reply.elapsed;
                    if done <= deadline {
                        on_time += 1;
                    }
                    rec.sent.push(Sent {
                        call,
                        at: reply.sent - origin,
                        latency_ms: ms(done.saturating_duration_since(due)),
                        lag_ms: ms(reply.sent.saturating_duration_since(due)),
                        phase: Phase::Measured,
                    });
                    let field = |k: &str| reply.json.get(k).and_then(Json::as_u64);
                    let want_total = (readings + (k + 1) * APPEND_BATCH_ROWS) as u64;
                    rec.check(field("appended") == Some(APPEND_BATCH_ROWS as u64), || {
                        format!("batch {k}: appended {:?}", field("appended"))
                    });
                    rec.check(field("total_rows") == Some(want_total), || {
                        format!(
                            "batch {k}: total_rows {:?}, want {want_total}",
                            field("total_rows")
                        )
                    });
                    rec.check(reply.json.get("durable") == Some(&Json::Bool(true)), || {
                        format!("batch {k}: append was not durable")
                    });
                }
                rec.calib.measure();
                Ok(())
            })();
            rec.outcome(result);
            (rec, on_time)
        });
        let mut rec = analyst_rec;
        let result = (|| {
            let mut rng = Rng::new(seed ^ 0x7468_696e);
            let base = rng.range(4.0, 4.5);
            let mut i = 0u32;
            loop {
                let think = Duration::from_secs_f64(rng.range(0.5, 1.5) * INGEST_THINK_MS / 1000.0);
                if Instant::now() + think >= deadline {
                    break;
                }
                std::thread::sleep(think);
                let threshold = base + f64::from(i) * 1e-4;
                i += 1;
                rec.call(conn, session, &Call::too_high("std_temp", threshold), Phase::Measured)?;
                let reply = rec.call(conn, session, &Call::debug(), Phase::Measured)?;
                let cached = reply.json.get("cached").and_then(Json::as_bool);
                rec.check(cached == Some(false), || format!("live debug {i} was served cached"));
            }
            rec.calib.measure();
            Ok(())
        })();
        rec.outcome(result);
        let (append_rec, on_time) = appender.join().expect("appender thread panicked");
        (append_rec, on_time, rec)
    });
    let measured = start.elapsed();
    let after = stats_if(traced, conn)?;
    rec.merge(append_rec);
    rec.merge(analyst_rec);
    rec.check(on_time + BACKLOG_SLACK_BATCHES >= batches, || {
        format!(
            "invalid run: only {on_time} of {batches} appends completed within the window \
             (backlog grew past {BACKLOG_SLACK_BATCHES} batches)"
        )
    });
    check_ingest_state(rec, conn, session, readings + batches * APPEND_BATCH_ROWS)?;
    Ok((measured, before.zip(after)))
}

/// The table holds exactly the seeded plus the appended rows, and the
/// analyst's live window result equals a cold session's, row for row.
fn check_ingest_state(
    rec: &mut Recorder,
    conn: &mut Conn,
    session: u64,
    want_rows: usize,
) -> Result<(), String> {
    let cold = conn.open_session()?;
    rec.check_call(conn, cold, &Call::run_query(WINDOW_SQL))?;
    for y in ["avg_temp", "std_temp"] {
        let live = rec.check_call(conn, session, &Call::plot("window", y))?;
        let fresh = rec.check_call(conn, cold, &Call::plot("window", y))?;
        let (live, fresh) = (live.json.get("series"), fresh.json.get("series"));
        rec.check(live.is_some() && live == fresh, || {
            format!("the analyst's live (window, {y}) result differs from a cold session's")
        });
    }
    let count =
        rec.check_call(conn, cold, &Call::run_query("SELECT count(*) AS n FROM readings"))?;
    let rows = count
        .json
        .get("rows")
        .and_then(Json::as_array)
        .and_then(|r| r.first())
        .and_then(Json::as_array)
        .and_then(|r| r.first())
        .and_then(Json::as_u64);
    rec.check(rows == Some(want_rows as u64), || {
        format!("readings holds {rows:?} rows, want {want_rows}")
    });
    Ok(())
}

/// Appends a few batches on an idle server (see [`PROBE_APPENDS`]).
fn probe_appends(
    rec: &mut Recorder,
    conn: &mut Conn,
    seed: u64,
    readings: usize,
) -> Result<(), String> {
    let mut plan = AppendPlan::new(seed, readings);
    for _ in 0..PROBE_APPENDS {
        let call = Call::stream_append(&plan.next_batch(APPEND_BATCH_ROWS));
        rec.call(conn, 0, &call, Phase::Probe)?;
    }
    Ok(())
}
