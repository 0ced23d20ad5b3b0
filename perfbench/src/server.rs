//! The program under test: a `gaplan serve --listen` child process.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gaplan_net::{write_frame, Frame, FrameReader, DEFAULT_MAX_FRAME};
use serde::json::Value;

/// How long a server may take to bind, answer a probe or exit.
const PATIENCE: Duration = Duration::from_secs(20);

/// A running `gaplan serve` process. Dropping it kills the process.
pub struct Server {
    child: Child,
    addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Start `gaplan serve --listen 127.0.0.1:0 <args>` and wait until it
    /// reports its bound address.
    pub fn spawn(gaplan: &Path, args: &[String]) -> io::Result<Server> {
        let mut child = Command::new(gaplan)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut lines = BufReader::new(stderr).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.strip_prefix("gaplan: listening on ") {
                        break addr.trim().to_string();
                    }
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(io::Error::other("gaplan serve exited before listening"));
                }
            }
        };
        // Keep draining stderr so the server never blocks on a full pipe.
        let stderr = std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
        Ok(Server { child, addr, stderr: Some(stderr) })
    }

    /// The bound `host:port`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Send `line` on a fresh connection and return the first reply line.
    pub fn request(&self, line: &str) -> io::Result<String> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(PATIENCE))?;
        let mut writer = BufWriter::new(stream.try_clone()?);
        write_frame(&mut writer, line)?;
        writer.flush()?;
        match FrameReader::new(stream, DEFAULT_MAX_FRAME).read_frame()? {
            Some(Frame::Complete(reply)) => Ok(reply),
            _ => Err(io::Error::other(format!("no reply to {line}"))),
        }
    }

    /// Send every line on one fresh connection, then wait for as many
    /// replies (in any order).
    pub fn pipeline(&self, lines: &[String]) -> io::Result<()> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(PATIENCE))?;
        let mut writer = BufWriter::new(stream.try_clone()?);
        for line in lines {
            write_frame(&mut writer, line)?;
        }
        writer.flush()?;
        let mut reader = FrameReader::new(stream, DEFAULT_MAX_FRAME);
        for _ in lines {
            if !matches!(reader.read_frame()?, Some(Frame::Complete(_))) {
                return Err(io::Error::other("server closed the connection before replying to all lines"));
            }
        }
        Ok(())
    }

    /// The server's `metrics` snapshot.
    pub fn metrics(&self) -> io::Result<Value> {
        let reply = self.request("{\"cmd\":\"metrics\"}")?;
        let value = serde::json::parse(&reply).map_err(|e| io::Error::other(e.to_string()))?;
        value.get("metrics").cloned().ok_or_else(|| io::Error::other(format!("not a metrics reply: {reply}")))
    }

    /// Peak resident memory of the server process so far, MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Ask the server to shut down and wait for it to exit cleanly.
    pub fn shutdown(mut self) -> io::Result<()> {
        // The shutdown command gets no reply; the server drains and exits.
        let stream = TcpStream::connect(&self.addr)?;
        let mut writer = BufWriter::new(stream);
        write_frame(&mut writer, "{\"cmd\":\"shutdown\"}")?;
        writer.flush()?;
        drop(writer);
        let started = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait()? {
                if let Some(h) = self.stderr.take() {
                    let _ = h.join();
                }
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("gaplan serve exited with {status}")))
                };
            }
            if started.elapsed() > PATIENCE {
                return Err(io::Error::other("gaplan serve did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// `VmHWM` (peak resident set) from a `/proc/<pid>/status` file, MiB.
pub fn peak_rss_mb(status_path: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(status_path)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other(format!("no VmHWM in {status_path}")))
}

/// Counter `name` of a metrics snapshot (0 when absent).
pub fn counter(metrics: &Value, name: &str) -> f64 {
    match metrics.get(name) {
        Some(Value::Int(i)) => *i as f64,
        Some(Value::Float(f)) => *f,
        _ => 0.0,
    }
}

/// `after - before` for every numeric field of a metrics snapshot,
/// recursing into histogram summaries (whose `sum` and `count` subtract;
/// percentiles and gauges become meaningless and are not read).
pub fn delta(before: &Value, after: &Value) -> Value {
    match after {
        Value::Obj(entries) => Value::Obj(
            entries.iter().map(|(k, v)| (k.clone(), delta(before.get(k).unwrap_or(&Value::Null), v))).collect(),
        ),
        Value::Int(a) => Value::Int(a - if let Value::Int(b) = before { *b } else { 0 }),
        Value::Float(a) => Value::Float(a - if let Value::Float(b) = before { *b } else { 0.0 }),
        other => other.clone(),
    }
}

/// `sum / count` of a histogram summary in a metrics snapshot.
pub fn hist_mean(metrics: &Value, name: &str) -> f64 {
    match metrics.get(name) {
        Some(h) => {
            let count = counter(h, "count");
            if count > 0.0 {
                counter(h, "sum") / count
            } else {
                0.0
            }
        }
        None => 0.0,
    }
}
