//! End-to-end and per-layer benchmark of `dbwipes-server`.
//!
//! ```text
//! dbwipes-loop-bench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the benchmark spawns the release server and runs the
//! workload against it over TCP, reporting the end-to-end metrics. With
//! `--trace 1` it runs the workload over TCP for a third of the time, then
//! replays the same requests in-process and reports the per-layer
//! metrics. Either way the last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. See
//! `benchmark/README.md`.

mod calib;
mod e2e;
mod gen;
mod metrics;
mod stats;
mod trace;
mod wire;

use e2e::{Phase, TcpRun};
use gen::Workload;
use metrics::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut server, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The end-to-end metrics of one TCP run. Latencies are rescaled to the
/// nominal host speed (see [`calib`]); standard error also shows them as
/// measured.
fn end_to_end(run: &TcpRun, report: &mut Report) {
    let measured = |cmds: &[&str]| -> (Vec<f64>, Vec<f64>) {
        run.sent
            .iter()
            .filter(|s| {
                s.phase == Phase::Measured && (cmds.is_empty() || cmds.contains(&s.call.cmd))
            })
            .map(|s| {
                let to = s.at + std::time::Duration::from_secs_f64(s.latency_ms / 1000.0);
                let factor = run.speed.factor(s.at, to).unwrap_or(1.0);
                (s.latency_ms * factor, s.latency_ms)
            })
            .unzip()
    };
    let mut set = |name: &str, v: Option<f64>| {
        if let Some(v) = v {
            report.set(name, v);
        }
    };
    set("setup_s", Some(run.setup_s));
    let (debug, _) = measured(&["debug"]);
    set("debug_p50_ms", stats::median(&debug));
    set("debug_p90_ms", stats::percentile(&debug, 90.0));
    let (all, _) = measured(&[]);
    set("cmd_p50_ms", stats::median(&all));
    set("cmd_p99_ms", stats::percentile(&all, 99.0));
    // A closed loop of one client: commands per second of request time,
    // leaving out the client's turnaround and the kernel timings.
    let busy_s = all.iter().sum::<f64>() / 1000.0;
    set("cmd_per_s", (busy_s > 0.0).then(|| all.len() as f64 / busy_s));
    let (writes, _) = measured(&["click_predicate", "undo", "stream_append"]);
    set("write_p50_ms", stats::median(&writes));
    set("peak_rss_mb", Some(run.peak_rss_mb));
    eprintln!(
        "{} measured requests in {:.2}s; reference kernel median {:.4}ms (nominal {}ms); \
         set-up {:.4}s as measured",
        all.len(),
        run.window.as_secs_f64(),
        run.speed.median_kernel_ms().unwrap_or(f64::NAN),
        calib::NOMINAL_KERNEL_MS,
        run.raw_setup_s,
    );
    let mut classes: Vec<&str> = Vec::new();
    for sent in run.sent.iter().filter(|s| s.phase == Phase::Measured) {
        if !classes.contains(&sent.call.cmd) {
            classes.push(sent.call.cmd);
        }
    }
    for class in classes {
        let (samples, raw) = measured(&[class]);
        if let (Some(p50), Some(p90), Some(p99), Some(raw50)) = (
            stats::median(&samples),
            stats::percentile(&samples, 90.0),
            stats::percentile(&samples, 99.0),
            stats::median(&raw),
        ) {
            eprintln!(
                "  {class:<16} n={:<6} p50={p50:.3}ms p90={p90:.3}ms p99={p99:.3}ms \
                 (p50 as measured {raw50:.3}ms)",
                samples.len()
            );
        }
    }
}

fn run(args: &Args, work: &Path) -> Result<String, String> {
    if !args.server.is_file() {
        return Err(format!("no server binary at {}", args.server.display()));
    }
    let mut report = Report::default();
    // A traced run gives a third of its time to the TCP run; the replay
    // and the layer probes take about as long again, twice over for the
    // stage-by-stage re-runs of each explain.
    let tcp_seconds = if args.trace { args.seconds / 3.0 } else { args.seconds };
    let tcp = e2e::run(args.workload, args.seed, tcp_seconds, &args.server, work, args.trace)?;
    let mut failures = tcp.failures.clone();
    let mut attempted = tcp.attempted;
    let list = if args.trace {
        if failures.is_empty() {
            let replayed = trace::per_layer(args.workload, args.seed, &tcp, work, &mut report)?;
            attempted += tcp.sent.len() as u64 + 1;
            failures.extend(replayed);
        }
        metrics::per_layer()
    } else {
        end_to_end(&tcp, &mut report);
        metrics::end_to_end()
    };
    for failure in &failures {
        eprintln!("FAILED: {failure}");
    }
    report.render(&list, failures.is_empty(), attempted, failures.len() as u64)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dbwipes-loop-bench: {e}");
            return ExitCode::from(2);
        }
    };
    // Scratch space (durable data dirs) lives inside the checkout.
    let work = PathBuf::from("benchmark").join(".work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("dbwipes-loop-bench: creating {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dbwipes-loop-bench: {e}");
            ExitCode::FAILURE
        }
    }
}
