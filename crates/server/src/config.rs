//! The server's configuration: [`ServerConfig::parse`] is the only server
//! code that reads a `DBWIPES_*` variable, and `main` calls it once. The
//! value is passed down ([`SessionManager::with_config`], the executor's
//! [`PoolConfig`], the storage fault plan), so nothing re-reads a knob and
//! `stats` reports the settings in effect.
//!
//! [`SessionManager::with_config`]: crate::SessionManager::with_config

use crate::executor::PoolConfig;
use crate::registry::CacheRegistry;
use std::fmt::Display;
use std::num::NonZeroUsize;
use std::str::FromStr;
use std::time::Duration;

/// Every setting of one server process. `Default` is the configuration
/// with no flags and an empty environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// `--listen ADDR`: serve TCP on ADDR; stdin/stdout when unset.
    pub listen: Option<String>,
    /// `--dataset sensor|fec|both`: the demo catalog a fresh server loads.
    pub dataset: String,
    /// `--readings N`: sensor readings in the demo catalog.
    pub readings: usize,
    /// `--cache-capacity N`: aggregate caches the shared registry retains.
    pub cache_capacity: usize,
    /// `--data-dir DIR`: persist to DIR; in-memory only when unset.
    pub data_dir: Option<String>,
    /// The executor's flags; `--workers` beats `DBWIPES_SERVER_WORKERS`.
    pub pool: PoolConfig,
    /// `DBWIPES_SHARDS`: the shard count every session explains with.
    pub shards: usize,
    /// `DBWIPES_FAULT_PLAN`: a fault-plan spec wrapped around storage.
    pub fault_plan: Option<String>,
    /// `DBWIPES_ENABLE_CRASH=1`: arms the `crash` test hook.
    pub enable_crash: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: None,
            dataset: "sensor".to_string(),
            readings: 5_400,
            cache_capacity: CacheRegistry::DEFAULT_CAPACITY,
            data_dir: None,
            pool: PoolConfig::default(),
            shards: 1,
            fault_plan: None,
            enable_crash: false,
        }
    }
}

/// Parses one flag or knob value, naming it in the error.
fn number<T: FromStr<Err: Display>>(name: &str, raw: &str) -> Result<T, String> {
    raw.trim().parse().map_err(|e| format!("{name}: {e}"))
}

impl ServerConfig {
    /// Builds the configuration from command-line `args` (without the
    /// program name) and the environment lookup `env`. Empty variables
    /// count as unset; an unknown flag or a malformed value is an error
    /// naming it.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        env: impl Fn(&str) -> Option<String>,
    ) -> Result<Self, String> {
        let mut config = ServerConfig::default();
        let var = |name: &str| env(name).filter(|v| !v.trim().is_empty());
        let positive = |name| var(name).map(|raw| number::<NonZeroUsize>(name, &raw)).transpose();
        if let Some(n) = positive("DBWIPES_SERVER_WORKERS")? {
            config.pool.workers = n.get();
        }
        if let Some(n) = positive("DBWIPES_SHARDS")? {
            config.shards = n.get();
        }
        config.fault_plan = var("DBWIPES_FAULT_PLAN");
        config.enable_crash = var("DBWIPES_ENABLE_CRASH").is_some_and(|v| v.trim() == "1");

        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{arg} requires a value"));
            let ms = |raw: String| number(&arg, &raw).map(Duration::from_millis);
            match arg.as_str() {
                "--listen" => config.listen = Some(value()?),
                "--dataset" => config.dataset = value()?,
                "--readings" => config.readings = number(&arg, &value()?)?,
                "--cache-capacity" => config.cache_capacity = number(&arg, &value()?)?,
                "--data-dir" => config.data_dir = Some(value()?),
                "--workers" => config.pool.workers = number(&arg, &value()?)?,
                "--queue-depth" => config.pool.queue_depth = number(&arg, &value()?)?,
                "--max-connections" => config.pool.max_connections = number(&arg, &value()?)?,
                "--idle-timeout-ms" => config.pool.idle_timeout = ms(value()?)?,
                "--read-timeout-ms" => config.pool.read_timeout = ms(value()?)?,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(config)
    }

    /// [`ServerConfig::parse`] over this process's arguments and environment.
    pub fn from_process() -> Result<Self, String> {
        Self::parse(std::env::args().skip(1), |name| std::env::var(name).ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], env: &[(&str, &str)]) -> Result<ServerConfig, String> {
        ServerConfig::parse(args.iter().map(|a| a.to_string()), |name| {
            env.iter().find(|(k, _)| *k == name).map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn the_workers_flag_beats_the_environment() {
        let config = parse(&["--workers", "5"], &[("DBWIPES_SERVER_WORKERS", "3")]).unwrap();
        assert_eq!(config.pool.workers, 5);
    }

    #[test]
    fn the_environment_alone_sets_workers_like_the_benchmark_harness() {
        let config = parse(
            &["--listen", "127.0.0.1:0", "--readings", "54000"],
            &[("DBWIPES_SERVER_WORKERS", "2")],
        )
        .unwrap();
        assert_eq!(config.pool.workers, 2);
        assert_eq!(config.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(config.readings, 54_000);
    }

    #[test]
    fn knobs_and_flags_land_in_their_fields() {
        let config = parse(
            &["--read-timeout-ms", "2000", "--data-dir", "/data", "--cache-capacity", "8"],
            &[
                ("DBWIPES_SHARDS", "4"),
                ("DBWIPES_FAULT_PLAN", "range:1:8:io"),
                ("DBWIPES_ENABLE_CRASH", "1"),
            ],
        )
        .unwrap();
        assert_eq!(config.pool.read_timeout, Duration::from_millis(2000));
        assert_eq!(config.data_dir.as_deref(), Some("/data"));
        assert_eq!(config.cache_capacity, 8);
        assert_eq!(config.shards, 4);
        assert_eq!(config.fault_plan.as_deref(), Some("range:1:8:io"));
        assert!(config.enable_crash);
        // Only `1` arms the crash hook; empty values count as unset.
        let config =
            parse(&[], &[("DBWIPES_ENABLE_CRASH", "yes"), ("DBWIPES_FAULT_PLAN", " ")]).unwrap();
        assert!(!config.enable_crash);
        assert_eq!(config.fault_plan, None);
    }

    #[test]
    fn bad_values_are_rejected_with_a_message() {
        let err = parse(&[], &[("DBWIPES_SERVER_WORKERS", "lots")]).unwrap_err();
        assert!(err.contains("DBWIPES_SERVER_WORKERS"), "{err}");
        let err = parse(&[], &[("DBWIPES_SHARDS", "0")]).unwrap_err();
        assert!(err.contains("DBWIPES_SHARDS") && err.contains("zero"), "{err}");
        let err = parse(&["--workers", "-1"], &[]).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
        let err = parse(&["--readings"], &[]).unwrap_err();
        assert!(err.contains("--readings requires a value"), "{err}");
        let err = parse(&["--verbose"], &[]).unwrap_err();
        assert!(err.contains("--verbose"), "{err}");
    }

    #[test]
    fn variables_outside_the_four_knobs_are_ignored() {
        // Every other variable (retired knobs included) holds garbage.
        const KNOBS: [&str; 4] = [
            "DBWIPES_SERVER_WORKERS",
            "DBWIPES_SHARDS",
            "DBWIPES_FAULT_PLAN",
            "DBWIPES_ENABLE_CRASH",
        ];
        let config = ServerConfig::parse(std::iter::empty(), |name| {
            (!KNOBS.contains(&name)).then(|| "0".to_string())
        })
        .unwrap();
        assert_eq!(config, ServerConfig::default());
    }
}
