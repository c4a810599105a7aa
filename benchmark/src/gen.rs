//! Seeded generation of every workload's inputs: the analysts' command
//! scripts and the appender's batches. The program under test receives
//! only what these generators produce, and the same seed always produces
//! the same inputs.

use dbwipes_storage::Value;
use std::fmt::Write as _;

/// The paper's running-example query (Figure 4): average and standard
/// deviation of temperature per 30-minute window.
pub const WINDOW_SQL: &str = "SELECT window, avg(temp) AS avg_temp, stddev(temp) AS std_temp \
                              FROM readings GROUP BY window ORDER BY window";

/// Sensors whose readings the server's demo generator corrupts (the
/// `dbwipes-server` binary seeds `readings` with sensor 15 failing).
pub const FAILING_SENSORS: [i64; 1] = [15];

/// Sensors in the demo deployment.
pub const NUM_SENSORS: u64 = 54;

/// Seconds between two readings of one sensor in the demo table.
const READING_INTERVAL_SECS: i64 = 31;

/// The three workloads the benchmark defines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One analyst, closed loop: brush, unique metric, debug, click, undo.
    ExplainCold,
    /// Two analysts, closed loop, every dashboard command; memo-served debugs.
    SessionChatter,
    /// Open-loop durable appends beside one thinking analyst.
    IngestLive,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::ExplainCold, Workload::SessionChatter, Workload::IngestLive];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExplainCold => "explain_cold",
            Workload::SessionChatter => "session_chatter",
            Workload::IngestLive => "ingest_live",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Readings the server is seeded with (`--readings`).
    pub fn readings(self) -> usize {
        match self {
            Workload::SessionChatter => 5_400,
            Workload::ExplainCold | Workload::IngestLive => 54_000,
        }
    }

    /// Whether the server runs with a `--data-dir`.
    pub fn durable(self) -> bool {
        self == Workload::IngestLive
    }

    /// A salt mixed into the seed so workloads draw independent streams.
    fn salt(self) -> u64 {
        match self {
            Workload::ExplainCold => 0x636f_6c64,
            Workload::SessionChatter => 0x6368_6174,
            Workload::IngestLive => 0x696e_6773,
        }
    }
}

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One protocol request, minus the `id` and `session` fields the client
/// fills in when it sends it.
#[derive(Debug, Clone, PartialEq)]
pub struct Call {
    /// The `cmd` field.
    pub cmd: &'static str,
    /// Whether the command addresses a session.
    pub session: bool,
    /// The remaining fields, each rendered as `,"key":value`.
    pub args: String,
    /// The commands of a `batch`, sent on the same session.
    pub batch: Vec<Call>,
}

impl Call {
    fn session(cmd: &'static str, args: String) -> Call {
        Call { cmd, session: true, args, batch: Vec::new() }
    }

    /// The request line for request `id` on `session`.
    pub fn line(&self, id: u64, session: u64) -> String {
        let mut line = format!(r#"{{"cmd":"{}","id":{id}"#, self.cmd);
        self.write_fields(&mut line, session);
        line.push('}');
        line
    }

    fn write_fields(&self, out: &mut String, session: u64) {
        if self.session {
            let _ = write!(out, r#","session":{session}"#);
        }
        out.push_str(&self.args);
        if !self.batch.is_empty() {
            out.push_str(r#","commands":["#);
            for (i, call) in self.batch.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, r#"{{"cmd":"{}""#, call.cmd);
                call.write_fields(out, session);
                out.push('}');
            }
            out.push(']');
        }
    }

    /// A `batch` of session commands, answered in one reply.
    pub fn batch(calls: Vec<Call>) -> Call {
        Call { cmd: "batch", session: false, args: String::new(), batch: calls }
    }

    /// `run_query` of `sql`.
    pub fn run_query(sql: &str) -> Call {
        let escaped = sql.replace('\\', "\\\\").replace('"', "\\\"");
        Call::session("run_query", format!(r#","sql":"{escaped}""#))
    }

    /// `plot` of two result columns.
    pub fn plot(x: &str, y: &str) -> Call {
        Call::session("plot", format!(r#","x":"{x}","y":"{y}""#))
    }

    /// `zoom` into the selected outputs' input rows.
    pub fn zoom(x: &str, y: &str) -> Call {
        Call::session("zoom", format!(r#","x":"{x}","y":"{y}""#))
    }

    /// `brush_outputs` over the (window, std_temp) plot.
    pub fn brush(brush: &Brush) -> Call {
        Call::session(
            "brush_outputs",
            format!(r#","x":"window","y":"std_temp","brush":{}"#, brush.json()),
        )
    }

    /// `metric_choices` for an aggregate column.
    pub fn metric_choices(column: &str) -> Call {
        Call::session("metric_choices", format!(r#","column":"{column}""#))
    }

    /// `set_metric` with kind `too_high`.
    pub fn too_high(column: &str, value: f64) -> Call {
        Call::session(
            "set_metric",
            format!(r#","kind":"too_high","column":"{column}","value":{value}"#),
        )
    }

    /// `debug`.
    pub fn debug() -> Call {
        Call::session("debug", String::new())
    }

    /// `click_predicate` of the `index`-th ranked predicate.
    pub fn click(index: usize) -> Call {
        Call::session("click_predicate", format!(r#","index":{index}"#))
    }

    /// `undo`.
    pub fn undo() -> Call {
        Call::session("undo", String::new())
    }

    /// `state`.
    pub fn state() -> Call {
        Call::session("state", String::new())
    }

    /// `stream_append` of `rows` into `readings`.
    pub fn stream_append(rows: &[Reading]) -> Call {
        let mut args = String::from(r#","table":"readings","rows":["#);
        for (i, row) in rows.iter().enumerate() {
            if i > 0 {
                args.push(',');
            }
            row.write_json(&mut args);
        }
        args.push(']');
        Call { cmd: "stream_append", session: false, args, batch: Vec::new() }
    }
}

/// A brush rectangle in plot coordinates; `None` edges are unbounded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Brush {
    /// Lower x edge.
    pub x_min: Option<f64>,
    /// Upper x edge.
    pub x_max: Option<f64>,
    /// Lower y edge.
    pub y_min: Option<f64>,
}

impl Brush {
    /// The windows `lo..=hi` whose `std_temp` is above 5 (every window of
    /// a failing stretch; healthy windows stay near 1).
    pub fn windows(lo: i64, hi: i64) -> Brush {
        Brush { x_min: Some(lo as f64), x_max: Some(hi as f64), y_min: Some(5.0) }
    }

    fn json(&self) -> String {
        let edges = [("x_min", self.x_min), ("x_max", self.x_max), ("y_min", self.y_min)];
        let fields: Vec<String> =
            edges.iter().filter_map(|(k, v)| v.map(|v| format!(r#""{k}":{v}"#))).collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// `explain_cold`'s selections: ranges of the high-`std_temp` windows of
/// the 54,000-reading table (windows 10..=17), of different sizes so F
/// (the selection's input rows) varies between ~6,500 and ~24,000 rows.
pub const COLD_WINDOWS: [(i64, i64); 5] = [(10, 17), (10, 13), (11, 14), (12, 15), (14, 17)];

/// One `explain_cold` loop: the selection brushed and the metric's threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColdStep {
    /// The brushed window range (inclusive).
    pub windows: (i64, i64),
    /// `std_temp too_high` threshold, unique to the loop.
    pub threshold: f64,
}

impl ColdStep {
    /// The loop's commands: brush and set_metric in one batch (the
    /// dashboard submits its metric form with the brush), debug, click 0,
    /// undo. Batching the two quick commands puts the pooled command
    /// median in the middle of the click and undo re-executions rather
    /// than at the edge between two classes of command.
    pub fn calls(&self) -> Vec<Call> {
        let (lo, hi) = self.windows;
        vec![
            Call::batch(vec![
                Call::brush(&Brush::windows(lo, hi)),
                Call::too_high("std_temp", self.threshold),
            ]),
            Call::debug(),
            Call::click(0),
            Call::undo(),
        ]
    }
}

/// `explain_cold`'s loop generator: the selections cycle in a seeded
/// order and every loop's threshold is larger than the previous one, so
/// no (S, ε) pair repeats and the explanation memo always misses.
#[derive(Debug, Clone)]
pub struct ColdPlan {
    order: Vec<usize>,
    base: f64,
}

impl ColdPlan {
    /// The plan for `seed`.
    pub fn new(seed: u64) -> ColdPlan {
        let mut rng = Rng::new(seed ^ Workload::ExplainCold.salt());
        let mut order: Vec<usize> = (0..COLD_WINDOWS.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        // Well below the selected windows' std_temp (9.3 and up).
        let base = rng.range(4.0, 4.5);
        ColdPlan { order, base }
    }

    /// Loop `i` of the plan.
    pub fn step(&self, i: usize) -> ColdStep {
        ColdStep {
            windows: COLD_WINDOWS[self.order[i % self.order.len()]],
            threshold: self.base + i as f64 * 1e-4,
        }
    }
}

/// A `session_chatter` selection: a brush on the 5,400-reading table's two
/// windows and the metric chosen for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChatterSelection {
    /// The brush.
    pub brush: Brush,
    /// The output rows the brush selects.
    pub selected: &'static [u64],
    /// The metric's aggregate column.
    pub column: &'static str,
    /// The `too_high` threshold.
    pub threshold: f64,
}

/// The four fixed selections `session_chatter` cycles through. Window 1
/// holds the failing sensor's readings; window 0 is healthy.
pub const CHATTER_SELECTIONS: [ChatterSelection; 4] = [
    ChatterSelection {
        brush: Brush { x_min: Some(1.0), x_max: None, y_min: None },
        selected: &[1],
        column: "std_temp",
        threshold: 4.0,
    },
    ChatterSelection {
        brush: Brush { x_min: None, x_max: None, y_min: Some(2.0) },
        selected: &[1],
        column: "std_temp",
        threshold: 5.0,
    },
    ChatterSelection {
        brush: Brush { x_min: None, x_max: None, y_min: None },
        selected: &[0, 1],
        column: "std_temp",
        threshold: 3.0,
    },
    ChatterSelection {
        brush: Brush { x_min: Some(0.5), x_max: None, y_min: Some(1.0) },
        selected: &[1],
        column: "avg_temp",
        threshold: 18.0,
    },
];

impl ChatterSelection {
    /// One dashboard loop over this selection: plot, brush, zoom, metric
    /// choices, set_metric, debug, click, undo, state.
    pub fn calls(&self) -> Vec<Call> {
        vec![
            Call::plot("window", "std_temp"),
            Call::brush(&self.brush),
            Call::zoom("epoch", "temp"),
            Call::metric_choices("std_temp"),
            Call::too_high(self.column, self.threshold),
            Call::debug(),
            Call::click(0),
            Call::undo(),
            Call::state(),
        ]
    }
}

/// The `session_chatter` analyst's seeded choice of selection per loop.
#[derive(Debug, Clone)]
pub struct ChatterPlan {
    rng: Rng,
}

impl ChatterPlan {
    /// The plan for `seed`.
    pub fn new(seed: u64) -> ChatterPlan {
        ChatterPlan { rng: Rng::new(seed ^ Workload::SessionChatter.salt()) }
    }

    /// The next loop's selection.
    pub fn next_selection(&mut self) -> &'static ChatterSelection {
        &CHATTER_SELECTIONS[self.rng.below(CHATTER_SELECTIONS.len())]
    }
}

/// The window range `ingest_live`'s analyst keeps brushed.
pub const INGEST_WINDOWS: (i64, i64) = (13, 13);

/// Rows per `stream_append` batch in `ingest_live`.
pub const APPEND_BATCH_ROWS: usize = 64;

/// One appended sensor reading, in `readings` schema order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// Sensor id.
    pub sensor: i64,
    /// Seconds since the trace began.
    pub epoch: i64,
    /// Hour of the trace.
    pub hour: i64,
    /// 30-minute window of the trace.
    pub window: i64,
    /// Temperature (°F for failing sensors, °C-like otherwise).
    pub temp: f64,
    /// Relative humidity.
    pub humidity: f64,
    /// Light.
    pub light: f64,
    /// Battery voltage.
    pub voltage: f64,
}

impl Reading {
    /// The row as `readings` values, in schema order.
    pub fn values(&self) -> Vec<Value> {
        vec![
            Value::Int(self.sensor),
            Value::Timestamp(self.epoch),
            Value::Int(self.hour),
            Value::Int(self.window),
            Value::Float(self.temp),
            Value::Float(self.humidity),
            Value::Float(self.light),
            Value::Float(self.voltage),
        ]
    }

    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "[{},{},{},{},{},{},{},{}]",
            self.sensor,
            self.epoch,
            self.hour,
            self.window,
            self.temp,
            self.humidity,
            self.light,
            self.voltage
        );
    }
}

fn round_to(v: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (v * scale).round() / scale
}

/// The appender's batches: the sensor trace continued past the seeded
/// table's last tick, every sensor reporting once per tick, with the
/// failing sensors still reporting corrupted readings.
#[derive(Debug, Clone)]
pub struct AppendPlan {
    rng: Rng,
    next_row: u64,
    first_tick: u64,
}

impl AppendPlan {
    /// The plan for `seed`, continuing a table of `readings` rows.
    pub fn new(seed: u64, readings: usize) -> AppendPlan {
        AppendPlan {
            rng: Rng::new(seed ^ Workload::IngestLive.salt()),
            next_row: 0,
            first_tick: readings as u64 / NUM_SENSORS,
        }
    }

    /// The next batch of `rows` readings.
    pub fn next_batch(&mut self, rows: usize) -> Vec<Reading> {
        (0..rows).map(|_| self.next_reading()).collect()
    }

    fn next_reading(&mut self) -> Reading {
        let sensor = (self.next_row % NUM_SENSORS) as i64;
        let tick = self.first_tick + self.next_row / NUM_SENSORS;
        self.next_row += 1;
        let epoch = tick as i64 * READING_INTERVAL_SECS;
        let day_fraction = (epoch % 86_400) as f64 / 86_400.0;
        let diurnal = 4.0 * (std::f64::consts::TAU * (day_fraction - 0.33)).sin();
        let rng = &mut self.rng;
        let (temp, voltage) = if FAILING_SENSORS.contains(&sensor) {
            (rng.range(100.0, 125.0), rng.range(1.5, 2.0))
        } else {
            (21.0 + diurnal + rng.range(-2.0, 2.0), rng.range(2.55, 2.65))
        };
        let humidity = (45.0 - 0.8 * diurnal + rng.range(-6.0, 6.0)).clamp(5.0, 95.0);
        let light = if (0.25..0.75).contains(&day_fraction) {
            rng.range(300.0, 600.0)
        } else {
            rng.range(0.0, 5.0)
        };
        Reading {
            sensor,
            epoch,
            hour: epoch / 3600,
            window: epoch / 1800,
            temp: round_to(temp, 2),
            humidity: round_to(humidity, 2),
            light: round_to(light, 2),
            voltage: round_to(voltage, 3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn cold_plan_is_deterministic_per_seed() {
        let (a, b) = (ColdPlan::new(7), ColdPlan::new(7));
        for i in 0..1_000 {
            assert_eq!(a.step(i), b.step(i));
            assert_eq!(a.step(i).calls(), b.step(i).calls());
        }
        let c = ColdPlan::new(8);
        assert!((0..10).any(|i| a.step(i) != c.step(i)), "seeds 7 and 8 gave the same plan");
    }

    #[test]
    fn cold_plan_never_repeats_a_selection_and_metric_pair() {
        for seed in [0, 1, 42, u64::MAX] {
            let plan = ColdPlan::new(seed);
            let mut seen = HashSet::new();
            for i in 0..20_000 {
                let step = plan.step(i);
                // The wire carries the threshold's shortest round-trip
                // rendering, so compare what the server will parse.
                let key = (step.windows, step.threshold.to_string());
                assert!(seen.insert(key), "seed {seed}: loop {i} repeats an (S, eps) pair");
            }
        }
    }

    #[test]
    fn cold_plan_cycles_every_selection() {
        let plan = ColdPlan::new(3);
        let first: HashSet<_> = (0..COLD_WINDOWS.len()).map(|i| plan.step(i).windows).collect();
        assert_eq!(first.len(), COLD_WINDOWS.len());
    }

    #[test]
    fn chatter_plan_is_deterministic_per_seed() {
        let picks = |seed| {
            let mut plan = ChatterPlan::new(seed);
            (0..500).map(|_| plan.next_selection().calls()).collect::<Vec<_>>()
        };
        assert_eq!(picks(11), picks(11));
        assert_ne!(picks(11), picks(12));
    }

    #[test]
    fn append_plan_is_deterministic_and_continues_the_trace() {
        let mut a = AppendPlan::new(5, 54_000);
        let mut b = AppendPlan::new(5, 54_000);
        for _ in 0..20 {
            let batch = a.next_batch(APPEND_BATCH_ROWS);
            assert_eq!(batch, b.next_batch(APPEND_BATCH_ROWS));
            assert_eq!(
                Call::stream_append(&batch),
                Call::stream_append(&batch.clone()),
                "rendering is a pure function of the rows"
            );
        }
        let first = AppendPlan::new(5, 54_000).next_batch(1)[0];
        assert_eq!((first.sensor, first.epoch), (0, 1_000 * READING_INTERVAL_SECS));
        assert_ne!(
            AppendPlan::new(6, 54_000).next_batch(8),
            AppendPlan::new(5, 54_000).next_batch(8)
        );
    }

    #[test]
    fn request_lines_are_valid_json() {
        let mut calls = ColdPlan::new(1).step(0).calls();
        calls.extend(CHATTER_SELECTIONS.iter().flat_map(|s| s.calls()));
        calls.push(Call::run_query(WINDOW_SQL));
        calls.push(Call::stream_append(&AppendPlan::new(1, 5_400).next_batch(3)));
        for call in calls {
            let line = call.line(9, 2);
            let parsed = dbwipes_server::Json::parse(&line).expect("valid JSON");
            assert_eq!(parsed.get("cmd").and_then(|c| c.as_str()), Some(call.cmd), "{line}");
            dbwipes_server::parse_request(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }
}
