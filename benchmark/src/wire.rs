//! The client side of the benchmark: spawning `dbwipes-server`, speaking
//! its line protocol over TCP, and reading the process's memory high-water
//! mark.

use crate::gen::Call;
use dbwipes_server::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a client waits for one reply before counting the op failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a server may take to exit after `shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

/// The server's pool workers. A worker serves one connection to the end,
/// and `ingest_live` holds two at once (analyst and appender); pinned to
/// one CPU, the server would otherwise start a single worker.
const SERVER_WORKERS: &str = "2";

/// A running `dbwipes-server --listen` process. Dropping it kills the
/// process if it is still running and waits for it.
#[derive(Debug)]
pub struct Server {
    child: Child,
    /// The announced listen address.
    pub addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns the server on an ephemeral port and waits until it announces
    /// its address. Returns the server and the time from spawn to the
    /// announcement.
    pub fn spawn(
        bin: &Path,
        readings: usize,
        data_dir: Option<&Path>,
    ) -> Result<(Server, Duration), String> {
        let mut command = Command::new(bin);
        command
            .args(["--listen", "127.0.0.1:0", "--readings", &readings.to_string()])
            .env("DBWIPES_SERVER_WORKERS", SERVER_WORKERS)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(dir) = data_dir {
            command.arg("--data-dir").arg(dir);
        }
        let start = Instant::now();
        let mut child = command.spawn().map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("server exited before listening: {}", line.trim()));
                }
                Ok(_) => {
                    if let Some(addr) = line.trim().strip_prefix("dbwipes-server listening on ") {
                        break addr.to_string();
                    }
                }
            }
        };
        let elapsed = start.elapsed();
        // Keep draining stderr so the server never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = stderr.read_to_end(&mut sink);
        });
        Ok((Server { child, addr, stderr: Some(drain) }, elapsed))
    }

    /// The process's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading server status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("server status has no VmHWM line")?;
        Ok(kb / 1024.0)
    }

    /// Sends the `shutdown` ctrl-line and waits for a clean exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Conn::connect(&self.addr)?;
        conn.raw(r#"{"cmd":"shutdown"}"#)?;
        drop(conn);
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("server did not exit after shutdown".into()),
                Err(e) => return Err(format!("waiting for server: {e}")),
            }
        }
        if let Some(drain) = self.stderr.take() {
            let _ = drain.join();
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.stderr.take() {
            let _ = drain.join();
        }
    }
}

/// One answered request.
#[derive(Debug)]
pub struct Reply {
    /// The parsed reply.
    pub json: Json,
    /// From the request's first byte written to the reply's last byte read.
    pub elapsed: Duration,
    /// When the request was written.
    pub sent: Instant,
    /// How long the client took, after the previous reply, to send this
    /// request (zero for a connection's first request).
    pub gap: Duration,
}

/// A connection speaking the line protocol. Unlike
/// `dbwipes_server::LineClient`, it stops the clock when the reply line
/// has been read and parses the reply afterwards, so client-side JSON
/// parsing is not counted as server latency.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    last_reply: Option<Instant>,
    buf: String,
}

impl Conn {
    /// Connects to `addr` with `TCP_NODELAY` and a reply timeout.
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("set_nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { reader, writer: stream, next_id: 1, last_reply: None, buf: String::new() })
    }

    /// Sends `call` on `session` and reads its reply. Any reply other than
    /// `ok:true` carrying this request's id is an error.
    pub fn call(&mut self, call: &Call, session: u64) -> Result<Reply, String> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = call.line(id, session);
        line.push('\n');
        let sent = Instant::now();
        let gap = self.last_reply.map(|t| sent.saturating_duration_since(t)).unwrap_or_default();
        self.writer.write_all(line.as_bytes()).map_err(|e| format!("{}: write: {e}", call.cmd))?;
        self.buf.clear();
        let n =
            self.reader.read_line(&mut self.buf).map_err(|e| format!("{}: read: {e}", call.cmd))?;
        let done = Instant::now();
        self.last_reply = Some(done);
        if n == 0 {
            return Err(format!("{}: connection closed before the reply", call.cmd));
        }
        let json =
            Json::parse(self.buf.trim()).map_err(|e| format!("{}: bad reply: {e}", call.cmd))?;
        if json.get("id").and_then(Json::as_u64) != Some(id) {
            return Err(format!("{}: reply lost request id {id}: {}", call.cmd, self.buf.trim()));
        }
        if json.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("{} failed: {}", call.cmd, self.buf.trim()));
        }
        Ok(Reply { json, elapsed: done - sent, sent, gap })
    }

    /// Sends a raw request line and reads its reply, unchecked.
    pub fn raw(&mut self, line: &str) -> Result<Json, String> {
        self.writer.write_all(format!("{line}\n").as_bytes()).map_err(|e| format!("write: {e}"))?;
        self.buf.clear();
        self.reader.read_line(&mut self.buf).map_err(|e| format!("read: {e}"))?;
        Json::parse(self.buf.trim()).map_err(|e| format!("bad reply: {e}"))
    }

    /// Opens a session and returns its id.
    pub fn open_session(&mut self) -> Result<u64, String> {
        let reply = self.raw(r#"{"cmd":"open_session"}"#)?;
        reply.get("session").and_then(Json::as_u64).ok_or(format!("open_session failed: {reply}"))
    }

    /// The server's `stats` reply.
    pub fn stats(&mut self) -> Result<Json, String> {
        self.raw(r#"{"cmd":"stats"}"#)
    }
}
