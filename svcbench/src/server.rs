//! The server under test: the release `dpc` binary in its own process
//! (default configuration plus a fresh `--store-dir`), so its memory is
//! measured apart from the load generator.

use dpc_service::metrics::StatsSnapshot;
use dpc_service::wire::{self, Response};
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a server may take to print its listening banner.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    store_dir: PathBuf,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts `bin serve 127.0.0.1:0 --store-dir <store_dir>` and
    /// returns once the server has bound its port and said so.
    pub fn start(bin: &Path, store_dir: PathBuf) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(&store_dir);
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("127.0.0.1:0")
            .arg("--store-dir")
            .arg(&store_dir)
            .env("DPC_LOG", "info")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // the drain thread reads the banner, then keeps the pipe empty
        // so a chatty server never blocks on its log
        let drain = std::thread::spawn(move || {
            let mut lines = BufReader::new(stderr);
            let mut line = String::new();
            while lines.read_line(&mut line).unwrap_or(0) > 0 {
                if let Some(rest) = line.split("listening on ").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    let _ = tx.send(addr);
                }
                line.clear();
            }
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            store_dir,
            stderr: Some(drain),
        };
        let banner = rx
            .recv_timeout(READY_TIMEOUT)
            .map_err(|_| "the server printed no listening banner".to_string())?;
        server.addr = banner
            .parse()
            .map_err(|_| format!("unparsable listening address {banner:?}"))?;
        Ok(server)
    }

    /// The server's counters, via the public Stats request.
    pub fn stats(&self) -> Result<StatsSnapshot, String> {
        let mut conn = connect(self.addr)?;
        send_frame(&mut conn, &wire::encode_stats_request())?;
        let body = read_frame(&mut conn)?;
        match Response::decode(&body) {
            Ok(Response::Stats(s)) => Ok(*s),
            Ok(other) => Err(format!("Stats answered with {other:?}")),
            Err(e) => Err(format!("undecodable Stats answer: {e}")),
        }
    }

    /// Peak resident set (VmHWM) of the server process, in MiB.
    pub fn rss_peak_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("no VmHWM in {path}"))?;
        Ok(kb / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stderr.take() {
            let _ = drain.join();
        }
        let _ = std::fs::remove_dir_all(&self.store_dir);
    }
}

pub fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.set_nodelay(true)
        .map_err(|e| format!("nodelay on {addr}: {e}"))?;
    Ok(conn)
}

/// Writes one length-prefixed frame with a single `write` call.
pub fn send_frame(conn: &mut TcpStream, body: &[u8]) -> Result<(), String> {
    use std::io::Write;
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    conn.write_all(&frame).map_err(|e| format!("send: {e}"))
}

pub fn read_frame(conn: &mut impl Read) -> Result<Vec<u8>, String> {
    match wire::read_frame(conn) {
        Ok(Some(body)) => Ok(body),
        Ok(None) => Err("the server closed the connection".to_string()),
        Err(e) => Err(format!("receive: {e}")),
    }
}
