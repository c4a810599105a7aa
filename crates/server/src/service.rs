//! Command dispatch: one request line in, one response line out.
//!
//! [`SessionManager::handle_line`] is the whole server loop's body; the
//! stdio and TCP front-ends in the `dbwipes-server` binary (and the tests)
//! just shuttle lines to it. Keeping the transport out of the dispatch
//! means every protocol behaviour is testable without sockets.

use crate::executor::PoolStats;
use crate::json::Json;
use crate::manager::{ServerSession, SessionId, SessionManager};
use crate::protocol::{ok_response_value, parse_request_line, wire_error_response_value};
use crate::protocol::{Command, Request, WireError, PROTOCOL_VERSION};
use dbwipes_core::{ComponentTimings, CoreError, Explanation, MetricKind};
use dbwipes_dashboard::{PointRef, ScatterSeries};
use dbwipes_engine::{EngineError, QueryResult};
use dbwipes_storage::{ConditionBitmapCache, Value};

impl SessionManager {
    /// Parses and executes one request line, returning the response line
    /// (without a trailing newline). Never panics on malformed input —
    /// every failure becomes an `ok:false` reply.
    pub fn handle_line(&self, line: &str) -> String {
        let request = match parse_request_line(line) {
            Ok(request) => request,
            Err(e) => return wire_error_response_value(None, &e).to_string(),
        };
        self.handle_request(request).to_string()
    }

    /// Executes one parsed request, returning the response object. This is
    /// [`SessionManager::handle_line`] minus the wire codec — `batch`
    /// execution reuses it per element, collecting the objects into one
    /// `results` array.
    pub fn handle_request(&self, request: Request) -> Json {
        let id = request.id.clone();
        match self.dispatch(request) {
            Ok(fields) => ok_response_value(id.as_ref(), fields),
            Err(error) => wire_error_response_value(id.as_ref(), &error),
        }
    }

    fn dispatch(&self, request: Request) -> Result<Vec<(&'static str, Json)>, WireError> {
        match request.command {
            Command::Ping => Ok(vec![
                ("pong", Json::Bool(true)),
                ("protocol_version", Json::num(PROTOCOL_VERSION as f64)),
            ]),
            Command::Tables => Ok(vec![(
                "tables",
                Json::Arr(self.table_names().into_iter().map(Json::Str).collect()),
            )]),
            Command::Sessions => Ok(vec![(
                "sessions",
                Json::Arr(self.session_ids().iter().map(|s| Json::num(s.0 as f64)).collect()),
            )]),
            Command::Stats => {
                let stats = self.registry().stats();
                let mut fields = vec![
                    ("protocol_version", Json::num(PROTOCOL_VERSION as f64)),
                    ("sessions", Json::num(self.session_count() as f64)),
                    // The shard count sessions opened now run their
                    // explain pipeline with (the `DBWIPES_SHARDS` knob).
                    ("shards", Json::num(self.config().shards as f64)),
                    // The rest of the effective configuration; `shards`,
                    // `pool` and `storage.attached` report their own parts.
                    (
                        "config",
                        Json::obj(vec![
                            ("cache_capacity", Json::num(self.registry().capacity() as f64)),
                            ("threads", Json::num(dbwipes_core::effective_parallelism() as f64)),
                            (
                                "fault_plan",
                                self.config().fault_plan.clone().map_or(Json::Null, Json::Str),
                            ),
                            ("crash_armed", Json::Bool(self.config().enable_crash)),
                        ]),
                    ),
                    (
                        "cache",
                        Json::obj(vec![
                            ("hits", Json::num(stats.hits as f64)),
                            ("misses", Json::num(stats.misses as f64)),
                            ("append_absorbs", Json::num(stats.append_absorbs as f64)),
                            ("evictions", Json::num(stats.evictions as f64)),
                            ("invalidations", Json::num(stats.invalidations as f64)),
                            ("entries", Json::num(stats.entries as f64)),
                            ("hit_rate", Json::num(stats.hit_rate())),
                            ("explanation_hits", Json::num(stats.explanation_hits as f64)),
                            ("explanation_misses", Json::num(stats.explanation_misses as f64)),
                            (
                                "explanation_evictions",
                                Json::num(stats.explanation_evictions as f64),
                            ),
                            ("explanation_entries", Json::num(stats.explanation_entries as f64)),
                            ("explanation_hit_rate", Json::num(stats.explanation_hit_rate())),
                            ("partition_hits", Json::num(stats.partition_hits as f64)),
                            ("partition_misses", Json::num(stats.partition_misses as f64)),
                            ("partition_absorbs", Json::num(stats.partition_absorbs as f64)),
                            ("partition_evictions", Json::num(stats.partition_evictions as f64)),
                            ("partition_entries", Json::num(stats.partition_entries as f64)),
                        ]),
                    ),
                    // Process-wide counters of the storage layer's
                    // condition-bitmap caches (the vectorized ranker warms
                    // one per ranking; conditions shared across candidate
                    // conjunctions hit).
                    ("condition_bitmaps", condition_bitmaps_json()),
                    // Process-wide counters of the vectorized boolean
                    // predicate algebra: filters/WHERE clauses evaluated
                    // through compiled bitmap DAGs vs. the scalar
                    // row-walk fallback.
                    ("bool_algebra", bool_algebra_json()),
                ];
                // Durable-storage counters. Always present so dashboards
                // can probe durability uniformly: an unattached manager
                // (no --data-dir) reports all-zero counters.
                let storage = self.storage().map(|r| r.counters()).unwrap_or_default();
                fields.push((
                    "storage",
                    Json::obj(vec![
                        ("attached", Json::Bool(self.storage().is_some())),
                        ("snapshot_saves", Json::num(storage.snapshot_saves as f64)),
                        ("snapshot_loads", Json::num(storage.snapshot_loads as f64)),
                        ("bytes_on_disk", Json::num(storage.bytes_on_disk as f64)),
                        ("rehydrated_caches", Json::num(storage.rehydrated_caches as f64)),
                    ]),
                ));
                // Fault-tolerance vitals. Always present: a manager with no
                // storage attached reports a permanently healthy block, so
                // monitoring probes one shape everywhere.
                let health = self.storage().map(|r| r.health()).unwrap_or_default();
                fields.push((
                    "health",
                    Json::obj(vec![
                        ("degraded", Json::Bool(health.degraded)),
                        (
                            "last_persist_error",
                            health.last_persist_error.map(Json::Str).unwrap_or(Json::Null),
                        ),
                        ("retries", Json::num(health.retries as f64)),
                        ("consecutive_failures", Json::num(health.consecutive_failures as f64)),
                        ("degraded_entries", Json::num(health.degraded_entries as f64)),
                        ("panics_caught", Json::num(self.panics_caught() as f64)),
                        ("quarantined_sessions", Json::num(self.quarantined_sessions() as f64)),
                    ]),
                ));
                // Executor counters, when a pooled TCP front-end serves
                // this manager (stdio mode has no pool to report).
                if let Some(pool) = self.pool_stats() {
                    fields.push(("pool", pool_json(pool)));
                }
                Ok(fields)
            }
            Command::OpenSession => {
                let id = self.open_session();
                Ok(vec![("session", Json::num(id.0 as f64))])
            }
            Command::CloseSession(s) => {
                if self.close_session(SessionId(s)) {
                    Ok(vec![("closed", Json::num(s as f64))])
                } else {
                    Err(format!("no such session {s}").into())
                }
            }
            Command::Shutdown => {
                self.request_shutdown();
                Ok(vec![("shutting_down", Json::Bool(true))])
            }
            Command::Batch(commands) => {
                if let Some(pool) = self.pool_stats() {
                    pool.record_batch();
                }
                Ok(self.run_batch(commands))
            }
            Command::StreamAppend { table, rows } => {
                let report = self.stream_append(&table, rows).map_err(|e| e.to_string())?;
                Ok(vec![
                    ("table", Json::str(table)),
                    ("appended", Json::num(report.appended as f64)),
                    ("batches", Json::num(report.batches as f64)),
                    ("total_rows", Json::num(report.total_rows as f64)),
                    ("sessions_refreshed", Json::num(report.sessions_refreshed as f64)),
                    ("durable", Json::Bool(report.durable)),
                ])
            }
            command => {
                let s = command.session().expect("all remaining commands address a session");
                let sid = SessionId(s);
                self.check_quarantine(sid)?;
                let handle = self
                    .session(sid)
                    .ok_or_else(|| WireError::from(format!("no such session {s}")))?;
                // The guard lives *outside* the panic boundary: quarantine,
                // not mutex poisoning, is how a broken session is fenced
                // off, so siblings (and this very map entry) stay lockable.
                let mut session = match handle.lock() {
                    Ok(guard) => guard,
                    Err(_) => return Err(self.quarantine_poisoned(sid)),
                };
                session.record_command();
                self.isolated_session_command(sid, &mut session, command)
            }
        }
    }

    /// Rejects commands addressed to a quarantined session with a
    /// structured `quarantined` error carrying the original reason.
    fn check_quarantine(&self, sid: SessionId) -> Result<(), WireError> {
        match self.quarantine_reason(sid) {
            Some(reason) => Err(WireError::quarantined(format!(
                "session {} is quarantined: {reason}; close it and open a new one",
                sid.0
            ))),
            None => Ok(()),
        }
    }

    /// Quarantines a session whose mutex was poisoned (its holder panicked
    /// while unwinding elsewhere) and builds the reply for this command.
    fn quarantine_poisoned(&self, sid: SessionId) -> WireError {
        self.quarantine_session(sid, "session mutex poisoned");
        WireError::quarantined(format!(
            "session {} is quarantined: session mutex poisoned; close it and open a new one",
            sid.0
        ))
    }

    /// Runs one session command behind a panic boundary. A panicking
    /// handler costs nothing but this one command: the panic is caught,
    /// counted, the session quarantined (its state may be torn mid-write),
    /// and the caller gets a structured `internal` error to forward. The
    /// worker thread, its connection, and every sibling session survive.
    fn isolated_session_command(
        &self,
        sid: SessionId,
        session: &mut ServerSession,
        command: Command,
    ) -> Result<Vec<(&'static str, Json)>, WireError> {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.session_command(session, command)
        }));
        match outcome {
            Ok(result) => result,
            Err(payload) => {
                self.record_panic();
                let reason = panic_message(payload.as_ref());
                self.quarantine_session(sid, &reason);
                Err(WireError::internal(format!("handler panicked: {reason}")))
            }
        }
    }

    /// Executes a batch back to back, one response object per command.
    ///
    /// A run of *consecutive* commands addressing the same session is
    /// served under a single session-lock acquisition — the point of
    /// `batch`: a 50-command dashboard replay pays for one route + lock
    /// instead of fifty. A failing command answers `ok:false` like its
    /// top-level form would and the batch continues; the caller correlates
    /// by position (or per-command ids).
    fn run_batch(&self, commands: Vec<Request>) -> Vec<(&'static str, Json)> {
        let total = commands.len();
        let mut results = Vec::with_capacity(total);
        let mut queue = commands.into_iter().peekable();
        while let Some(request) = queue.next() {
            // Commands the top-level dispatcher must handle (service-level
            // commands and close_session) go through it one at a time.
            let Some(target) = session_command_target(&request.command) else {
                results.push(self.handle_request(request));
                continue;
            };
            let sid = SessionId(target);
            if let Err(error) = self.check_quarantine(sid) {
                results.push(wire_error_response_value(request.id.as_ref(), &error));
                continue;
            }
            let Some(handle) = self.session(sid) else {
                results.push(wire_error_response_value(
                    request.id.as_ref(),
                    &WireError::from(format!("no such session {target}")),
                ));
                continue;
            };
            let mut session = match handle.lock() {
                Ok(guard) => guard,
                Err(_) => {
                    let error = self.quarantine_poisoned(sid);
                    results.push(wire_error_response_value(request.id.as_ref(), &error));
                    continue;
                }
            };
            let mut run = Some(request);
            while let Some(request) = run.take() {
                session.record_command();
                let reply = match self.isolated_session_command(sid, &mut session, request.command)
                {
                    Ok(fields) => ok_response_value(request.id.as_ref(), fields),
                    Err(error) => wire_error_response_value(request.id.as_ref(), &error),
                };
                results.push(reply);
                // Pull the next command into the same lock acquisition
                // while it keeps addressing this session — unless this
                // command quarantined the session (a caught panic), in
                // which case the run breaks and the remaining commands
                // answer `quarantined` through the outer routing.
                if self.quarantine_reason(sid).is_none()
                    && queue.peek().map(|next| session_command_target(&next.command))
                        == Some(Some(target))
                {
                    run = queue.next();
                }
            }
        }
        vec![("count", Json::num(total as f64)), ("results", Json::Arr(results))]
    }

    fn session_command(
        &self,
        session: &mut ServerSession,
        command: Command,
    ) -> Result<Vec<(&'static str, Json)>, WireError> {
        let core = |e: CoreError| match e {
            CoreError::Engine(EngineError::TooDeep { .. }) => WireError::invalid(e.to_string()),
            e => WireError::from(e.to_string()),
        };
        match command {
            Command::RunQuery { sql, .. } => {
                let result = session.dashboard_mut().run_query(&sql).map_err(core)?;
                Ok(result_fields(result))
            }
            Command::Plot { x, y, .. } => {
                let series = session
                    .dashboard()
                    .plot(&x, &y)
                    .ok_or("nothing to plot (no result, or unknown columns)")?;
                Ok(vec![("series", series_json(&series))])
            }
            Command::Zoom { x, y, .. } => {
                let series = session
                    .dashboard()
                    .zoom(&x, &y)
                    .ok_or("nothing to zoom into (no selected outputs, or unknown columns)")?;
                Ok(vec![("series", series_json(&series))])
            }
            Command::BrushOutputs { x, y, brush, .. } => {
                let selected = session.dashboard_mut().brush_outputs(&x, &y, brush);
                Ok(vec![(
                    "selected",
                    Json::Arr(selected.into_iter().map(|i| Json::num(i as f64)).collect()),
                )])
            }
            Command::BrushInputs { x, y, brush, .. } => {
                let selected = session.dashboard_mut().brush_inputs(&x, &y, brush);
                Ok(vec![(
                    "selected",
                    Json::Arr(selected.into_iter().map(|r| Json::num(r.0 as f64)).collect()),
                )])
            }
            Command::MetricChoices { column, .. } => {
                let choices = session.dashboard().metric_choices(&column);
                Ok(vec![(
                    "choices",
                    Json::Arr(
                        choices
                            .iter()
                            .map(|c| {
                                // kind/value mirror `set_metric`'s request
                                // fields, so a client can echo a choice
                                // straight back without parsing the label.
                                let (kind, value) = match c.metric.kind {
                                    MetricKind::TooHigh { threshold } => ("too_high", threshold),
                                    MetricKind::TooLow { threshold } => ("too_low", threshold),
                                    MetricKind::NotEqualTo { expected } => {
                                        ("not_equal_to", expected)
                                    }
                                };
                                Json::obj(vec![
                                    ("label", Json::str(&c.label)),
                                    ("column", Json::str(&c.metric.column)),
                                    ("kind", Json::str(kind)),
                                    ("value", Json::num(value)),
                                ])
                            })
                            .collect(),
                    ),
                )])
            }
            Command::SetMetric { metric, .. } => {
                let label = metric.to_string();
                session.dashboard_mut().set_metric(metric);
                Ok(vec![("metric", Json::str(label))])
            }
            Command::Debug(_) => {
                let (explanation, report) = session.debug_cached(self.registry()).map_err(core)?;
                let mut fields = explanation_fields(explanation);
                fields.push(("cache_hit", Json::Bool(report.cache_hit)));
                // Memo-served replies carry `cached:true` and (by way of
                // `debug_cached`) near-zero timings — nothing ran now.
                fields.push(("cached", Json::Bool(report.memo_hit)));
                Ok(fields)
            }
            Command::ClickPredicate { index, .. } => {
                let result = session.dashboard_mut().click_predicate(index).map_err(core)?;
                let mut fields = result_fields(result);
                fields.push(applied_field(session));
                Ok(fields)
            }
            Command::Undo(_) => {
                let result = session.dashboard_mut().undo_clean().map_err(core)?;
                let mut fields = result_fields(result);
                fields.push(applied_field(session));
                Ok(fields)
            }
            Command::State(_) => {
                let d = session.dashboard();
                let mut fields = vec![
                    ("state", Json::str(format!("{:?}", d.state()))),
                    ("sql", Json::str(d.current_sql())),
                    ("selected_outputs", Json::num(d.selected_outputs().len() as f64)),
                    ("selected_inputs", Json::num(d.selected_inputs().len() as f64)),
                    ("commands", Json::num(session.commands() as f64)),
                    ("cache_hits", Json::num(session.cache_hits() as f64)),
                    ("cache_misses", Json::num(session.cache_misses() as f64)),
                ];
                fields.push(applied_field(session));
                Ok(fields)
            }
            Command::Crash(_) => {
                // Test-only hook for the panic-isolation machinery: gated
                // at execution time so production servers treat it as a
                // plain user error while chaos tests (which set
                // `DBWIPES_ENABLE_CRASH=1`) get a real panic to catch.
                if self.config().enable_crash {
                    panic!("deliberate crash requested by the crash command");
                }
                Err("crash is disabled; set DBWIPES_ENABLE_CRASH=1 to enable this test hook".into())
            }
            Command::Ping
            | Command::Tables
            | Command::Stats
            | Command::Sessions
            | Command::OpenSession
            | Command::CloseSession(_)
            | Command::Shutdown
            | Command::Batch(_)
            | Command::StreamAppend { .. } => unreachable!("handled by dispatch"),
        }
    }
}

/// Best-effort rendering of a caught panic payload: `panic!` with a string
/// literal or a formatted message covers practically every real panic; the
/// fallback keeps the reply structured even for exotic payloads.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The session a command addresses *through the session-command path*:
/// `Some` only for commands `session_command` serves under the session
/// lock. `close_session` addresses a session but must go through the
/// top-level dispatcher (it removes the session from the map), so it — and
/// every service-level command — answers `None`.
fn session_command_target(command: &Command) -> Option<u64> {
    match command {
        Command::CloseSession(_) => None,
        other => other.session(),
    }
}

/// Renders the storage layer's process-wide condition-bitmap cache
/// counters for the `stats` reply.
fn condition_bitmaps_json() -> Json {
    let (hits, misses) = ConditionBitmapCache::global_stats();
    let total = hits + misses;
    let hit_rate = if total == 0 { 0.0 } else { hits as f64 / total as f64 };
    Json::obj(vec![
        ("hits", Json::num(hits as f64)),
        ("misses", Json::num(misses as f64)),
        ("hit_rate", Json::num(hit_rate)),
    ])
}

/// Renders the storage layer's process-wide boolean-algebra vectorization
/// counters for the `stats` reply.
fn bool_algebra_json() -> Json {
    let (vectorized, fallbacks) = dbwipes_storage::bool_vectorization_stats();
    Json::obj(vec![
        ("vectorized", Json::num(vectorized as f64)),
        ("fallbacks", Json::num(fallbacks as f64)),
    ])
}

/// Renders the pooled executor's counters for the `stats` reply.
fn pool_json(stats: &PoolStats) -> Json {
    let snapshot = stats.snapshot();
    Json::obj(vec![
        ("workers", Json::num(snapshot.workers as f64)),
        ("queue_depth", Json::num(snapshot.queue_depth as f64)),
        ("max_connections", Json::num(snapshot.max_connections as f64)),
        ("idle_timeout_ms", Json::num(snapshot.idle_timeout_ms as f64)),
        ("read_timeout_ms", Json::num(snapshot.read_timeout_ms as f64)),
        ("queued", Json::num(snapshot.queued as f64)),
        ("rejected", Json::num(snapshot.rejected as f64)),
        ("active_connections", Json::num(snapshot.active_connections as f64)),
        ("peak_connections", Json::num(snapshot.peak_connections as f64)),
        ("served_connections", Json::num(snapshot.served_connections as f64)),
        ("commands", Json::num(snapshot.commands as f64)),
        ("batches", Json::num(snapshot.batches as f64)),
        ("workers_resurrected", Json::num(snapshot.workers_resurrected as f64)),
    ])
}

fn applied_field(session: &ServerSession) -> (&'static str, Json) {
    (
        "applied_predicates",
        Json::Arr(
            session
                .dashboard()
                .applied_predicates()
                .iter()
                .map(|p| Json::str(p.to_string()))
                .collect(),
        ),
    )
}

fn value_json(value: &Value) -> Json {
    match value {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::num(*i as f64),
        Value::Float(f) => Json::num(*f),
        Value::Timestamp(t) => Json::num(*t as f64),
        Value::Str(s) => Json::str(s.clone()),
    }
}

fn result_fields(result: &QueryResult) -> Vec<(&'static str, Json)> {
    vec![
        ("sql", Json::str(result.statement.to_sql())),
        ("columns", Json::Arr(result.column_names().into_iter().map(Json::Str).collect())),
        (
            "rows",
            Json::Arr(
                result
                    .rows
                    .iter()
                    .map(|row| Json::Arr(row.iter().map(value_json).collect()))
                    .collect(),
            ),
        ),
        ("row_count", Json::num(result.len() as f64)),
    ]
}

fn series_json(series: &ScatterSeries) -> Json {
    Json::obj(vec![
        ("x", Json::str(series.x_label.clone())),
        ("y", Json::str(series.y_label.clone())),
        (
            "points",
            Json::Arr(
                series
                    .points
                    .iter()
                    .map(|p| {
                        let (kind, reference) = match p.reference {
                            PointRef::Output(i) => ("output", i),
                            PointRef::Input(r) => ("input", r.0),
                        };
                        Json::obj(vec![
                            ("x", Json::num(p.x)),
                            ("y", Json::num(p.y)),
                            ("kind", Json::str(kind)),
                            ("ref", Json::num(reference as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn timings_json(timings: &ComponentTimings) -> Json {
    Json::obj(vec![
        ("preprocess_ms", Json::num(timings.preprocess_ms)),
        ("enumerate_ms", Json::num(timings.enumerate_ms)),
        ("predicates_ms", Json::num(timings.predicates_ms)),
        ("rank_ms", Json::num(timings.rank_ms)),
        ("total_ms", Json::num(timings.total_ms())),
    ])
}

fn explanation_fields(explanation: &Explanation) -> Vec<(&'static str, Json)> {
    vec![
        (
            "predicates",
            Json::Arr(
                explanation
                    .predicates
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        Json::obj(vec![
                            ("index", Json::num(i as f64)),
                            ("predicate", Json::str(p.predicate.to_string())),
                            ("score", Json::num(p.score)),
                            ("improvement", Json::num(p.improvement)),
                            ("f1", Json::num(p.example_f1)),
                            ("removes", Json::num(p.matched_rows as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("base_error", Json::num(explanation.base_error)),
        ("timings", timings_json(&explanation.timings)),
    ]
}
