//! The daemon under test: spawning the release `bas-serverd` over
//! loopback TCP, registering a workload's tenants, and stopping it.

use crate::spec::{Mode, WorkloadSpec};
use bas_server::wire::{ServingMode, TenantSpec, WindowLen};
use bas_server::{read_frame, write_frame, Request, Response, MAX_FRAME_BYTES};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `bas-serverd`. Dropping it kills the process and waits
/// for it, so no exit path of the benchmark leaves a daemon behind.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
}

/// The wire spec of tenant `t` of a workload.
pub fn tenant_spec(spec: &WorkloadSpec, t: u64) -> TenantSpec {
    let mode = match spec.mode(t) {
        Mode::Unbounded => ServingMode::Unbounded,
        Mode::Sliding(k) => ServingMode::Sliding(WindowLen { intervals: k }),
        Mode::Rotating(k) => ServingMode::Rotating(WindowLen { intervals: k }),
    };
    TenantSpec::frequency(t, spec.tenant_seed(t)).with_mode(mode)
}

impl Daemon {
    /// Spawns `server` with the workload's shape flags and waits for
    /// its `listening` line. A journal, when the workload asks for
    /// one, starts empty at `journal`.
    pub fn spawn(server: &Path, spec: &WorkloadSpec, journal: &Path) -> Result<Self, String> {
        let mut cmd = Command::new(server);
        cmd.args(["--listen", "127.0.0.1:0"])
            .args(["--universe", &spec.universe.to_string()])
            .args(["--width", &spec.width.to_string()])
            .args(["--depth", &spec.depth.to_string()]);
        for s in 0..spec.shards {
            cmd.args(["--shard", &format!("{s}:1.0")]);
        }
        if spec.journal {
            for stale in [journal.to_path_buf(), journal.with_extension("journal.tmp")] {
                match std::fs::remove_file(&stale) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(format!("{}: {e}", stale.display())),
                }
            }
            cmd.arg("--journal").arg(journal);
            if spec.compact_records > 0 {
                cmd.args(["--compact-records", &spec.compact_records.to_string()]);
            }
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", server.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut daemon = Self {
            child,
            stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading the listening line: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("listening ")
            .ok_or_else(|| format!("bas-serverd printed {line:?}, not a listening line"))?;
        daemon.addr = addr
            .parse()
            .map_err(|e| format!("listening address {addr:?}: {e}"))?;
        Ok(daemon)
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The process id (for `/proc/<pid>/status`).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Opens a connection with Nagle off (frames are written whole).
    pub fn connect(&self) -> std::io::Result<TcpStream> {
        let s = TcpStream::connect(self.addr)?;
        s.set_nodelay(true)?;
        Ok(s)
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// Graceful stop: `shutdown` on stdin, then wait (killing the
    /// process if it has not exited within `grace`).
    pub fn stop(mut self, grace: Duration) -> Result<(), String> {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"shutdown\n");
        }
        let deadline = Instant::now() + grace;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("bas-serverd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("bas-serverd did not stop in time".into()),
                Err(e) => return Err(format!("waiting for bas-serverd: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One synchronous request/response exchange on a raw stream.
pub fn exchange(mut stream: &TcpStream, req: &Request) -> Result<Response, String> {
    write_frame(&mut stream, req).map_err(|e| format!("send: {e}"))?;
    read_frame::<_, Response>(&mut stream, MAX_FRAME_BYTES)
        .map_err(|e| format!("receive: {e}"))?
        .ok_or_else(|| "connection closed".to_string())
}

/// Registers every tenant of the workload, checking each answer.
pub fn register_tenants(stream: &TcpStream, spec: &WorkloadSpec) -> Result<(), String> {
    for t in 0..spec.tenants() {
        match exchange(stream, &Request::Register(tenant_spec(spec, t)))? {
            Response::Installed(_) => {}
            other => return Err(format!("register tenant {t}: {other:?}")),
        }
    }
    Ok(())
}

/// Where a run keeps its scratch files: `.bench_work/` at the root of
/// the checkout (the working directory).
pub fn work_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}
