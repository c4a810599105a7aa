//! The `dbwipes-server` binary: serves the line-delimited JSON protocol
//! over stdin/stdout (default) or a TCP listener (`--listen ADDR`).
//!
//! ```text
//! dbwipes-server [--listen 127.0.0.1:7433] [--dataset sensor|fec|both]
//!                [--readings N] [--cache-capacity N] [--data-dir DIR]
//!                [--workers N] [--queue-depth N] [--max-connections N]
//!                [--idle-timeout-ms N] [--read-timeout-ms N]
//! ```
//!
//! In stdio mode the process reads one request per line and writes one
//! response per line until EOF (or the `shutdown` ctrl-line) — the shape a
//! web gateway or the `examples/server_session.rs` driver expects. In TCP
//! mode connections are served by the bounded worker-pool executor
//! ([`dbwipes_server::executor`]): `--workers` threads (else
//! `DBWIPES_SERVER_WORKERS`, else the effective parallelism) pull
//! connections from a bounded queue, over-capacity admissions get a
//! structured `busy` reply, silent sockets are closed after
//! `--idle-timeout-ms`, and the `shutdown` ctrl-line drains in-flight
//! sessions, flushes replies, and exits 0. Sessions live in the shared
//! [`SessionManager`], so a client may reconnect and resume its session
//! by id.
//!
//! Flags and the `DBWIPES_*` knobs are read once, into the
//! [`ServerConfig`] the manager keeps; see `docs/TUNING.md`.
//!
//! With `--data-dir DIR` the server runs durably: a fresh directory is
//! seeded with the demo catalog and snapshotted, a non-empty one restores
//! the persisted catalog — skipping demo generation entirely — and
//! rehydrates the cache registry and warm condition bitmaps from the last
//! flush, so a restarted server answers repeated explains at registry-hit
//! speed. Registered tables are snapshotted eagerly; warm state is flushed
//! on graceful shutdown.

use dbwipes_data::{generate_fec, generate_sensor, FecConfig, SensorConfig};
use dbwipes_server::{serve_pooled, ServerConfig, SessionManager, StorageRuntime};
use dbwipes_storage::{Catalog, FaultInjectingBackend, FaultPlan, FsBackend, StorageError};
use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

/// Opens the data directory, wrapping the filesystem backend in the
/// configured fault plan (the chaos-test hook) when there is one.
fn open_storage(dir: &str, fault_plan: Option<&str>) -> Result<StorageRuntime, StorageError> {
    let Some(spec) = fault_plan else { return StorageRuntime::open(dir) };
    let fs = Box::new(FsBackend::open(dir)?);
    let faulty = FaultInjectingBackend::with_torn_dir(fs, FaultPlan::parse(spec)?, dir);
    Ok(StorageRuntime::with_backend(Box::new(faulty)))
}

fn demo_catalog(options: &ServerConfig) -> Result<Catalog, String> {
    let mut catalog = Catalog::new();
    let want_sensor = matches!(options.dataset.as_str(), "sensor" | "both");
    let want_fec = matches!(options.dataset.as_str(), "fec" | "both");
    if !want_sensor && !want_fec {
        return Err(format!(
            "unknown dataset `{}` (expected sensor | fec | both)",
            options.dataset
        ));
    }
    if want_sensor {
        let data = generate_sensor(&SensorConfig {
            num_readings: options.readings,
            failing_sensors: vec![15],
            ..SensorConfig::small()
        });
        catalog.register(data.table).map_err(|e| e.to_string())?;
    }
    if want_fec {
        let data = generate_fec(&FecConfig::default());
        catalog.register(data.table).map_err(|e| e.to_string())?;
    }
    Ok(catalog)
}

fn serve_stdio(manager: &SessionManager) -> std::io::Result<()> {
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        writeln!(stdout, "{}", manager.handle_line(&line))?;
        stdout.flush()?;
        // The `shutdown` ctrl-line: its reply is flushed above, then the
        // loop drains — same exit-0 contract as the TCP executor.
        if manager.shutdown_requested() {
            break;
        }
    }
    Ok(())
}

fn serve_tcp(manager: Arc<SessionManager>, addr: &str) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    // Report the bound address (port 0 resolves to an ephemeral port).
    eprintln!("dbwipes-server listening on {}", listener.local_addr()?);
    let config = manager.config().pool.clone().normalized();
    eprintln!(
        "dbwipes-server pool: {} workers, queue depth {}, connection cap {}, \
         idle timeout {}ms, read timeout {}ms",
        config.workers,
        config.queue_depth,
        config.max_connections,
        config.idle_timeout.as_millis(),
        config.read_timeout.as_millis()
    );
    let stats = serve_pooled(manager, listener, config)?;
    let snapshot = stats.snapshot();
    eprintln!(
        "dbwipes-server drained: {} connections served, {} commands, {} rejected busy, \
         peak {} concurrent",
        snapshot.served_connections,
        snapshot.commands,
        snapshot.rejected,
        snapshot.peak_connections
    );
    Ok(())
}

fn main() -> ExitCode {
    if std::env::args().skip(1).any(|arg| arg == "--help" || arg == "-h") {
        println!(
            "usage: dbwipes-server [--listen ADDR] [--dataset sensor|fec|both] \
             [--readings N] [--cache-capacity N] [--data-dir DIR] [--workers N] \
             [--queue-depth N] [--max-connections N] [--idle-timeout-ms N] \
             [--read-timeout-ms N]"
        );
        return ExitCode::SUCCESS;
    }
    let options = match ServerConfig::from_process() {
        Ok(options) => options,
        Err(e) => {
            eprintln!("dbwipes-server: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Open durable storage *before* any table is created: opening
    // advances the identity-stamp floor past everything in the manifest,
    // so freshly generated tables can never collide with restored ones.
    let runtime = match &options.data_dir {
        Some(dir) => match open_storage(dir, options.fault_plan.as_deref()) {
            Ok(runtime) => Some(Arc::new(runtime)),
            Err(e) => {
                eprintln!("dbwipes-server: opening data dir {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let restored = match &runtime {
        Some(runtime) => match runtime.is_empty() {
            Ok(empty) => !empty,
            Err(e) => {
                eprintln!("dbwipes-server: reading manifest: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => false,
    };
    let catalog = if restored {
        match runtime.as_ref().expect("restored implies runtime").restore_catalog() {
            Ok(catalog) => catalog,
            Err(e) => {
                eprintln!("dbwipes-server: restoring catalog: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match demo_catalog(&options) {
            Ok(catalog) => catalog,
            Err(e) => {
                eprintln!("dbwipes-server: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let manager = Arc::new(SessionManager::with_config(catalog, options.clone()));
    if let Some(runtime) = &runtime {
        manager.attach_storage(Arc::clone(runtime));
        if restored {
            let (caches, bitmaps) = manager.rehydrate_warm_state();
            eprintln!(
                "dbwipes-server: restored {} tables from {} ({caches} aggregate caches, \
                 {bitmaps} condition bitmaps rehydrated, {} warm images dropped)",
                manager.table_names().len(),
                options.data_dir.as_deref().unwrap_or("?"),
                runtime.dropped_warm_images()
            );
        } else {
            // Seed run: make the demo catalog durable before serving.
            manager.flush_storage();
        }
    }
    let served = match &options.listen {
        Some(addr) => serve_tcp(manager.clone(), addr),
        None => serve_stdio(&manager),
    };
    // Idempotent final flush (the executor's drain already flushed on a
    // graceful TCP shutdown; stdio mode flushes here).
    manager.flush_storage();
    if let Err(e) = served {
        eprintln!("dbwipes-server: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
