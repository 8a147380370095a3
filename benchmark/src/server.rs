//! The system under test as the harness sees it: the real `cnp_server`
//! binary as a child process, a keep-alive HTTP connection to it, and the
//! `/proc` counters of its pid. Nothing of the server is linked in here
//! except the client half of its HTTP framing.

use cnp_serve::json::Json;
use cnp_server::http::{self, ClientResponse};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Worker threads the server is started with. A worker owns a connection
/// for its lifetime, so this must exceed the most connections any
/// workload opens (2) by at least one for health checks.
pub const WORKERS: usize = 4;
/// Admission queue capacity.
pub const QUEUE: usize = 16;
/// Overlay depth at which the server schedules a compaction.
pub const COMPACT_THRESHOLD: usize = 4;

fn other(message: String) -> io::Error {
    io::Error::other(message)
}

/// CPU placement of the harness and its children, through `taskset`.
///
/// Measured traffic runs with harness and server pinned to one CPU:
/// unpinned, the same closed-loop run on a 2-vCPU box is bimodal — it
/// measures whether the scheduler put client and server on the same CPU.
/// The build (a two-thread pipeline) runs on the full mask.
#[derive(Debug, Clone)]
pub struct Affinity {
    /// `Cpus_allowed_list` at start, restored for builds.
    full: String,
    /// The CPU measured traffic is pinned to; `None` when `taskset` is
    /// missing or refused, in which case everything runs unpinned.
    pub cpu: Option<usize>,
}

fn taskset_self(list: &str) -> bool {
    Command::new("taskset")
        .args(["-a", "-cp", list, &std::process::id().to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|status| status.success())
}

impl Affinity {
    /// Reads the current mask and checks that `taskset` can set it.
    pub fn detect() -> Affinity {
        let full = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|status| {
                status
                    .lines()
                    .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
                    .map(|list| list.trim().to_string())
            })
            .unwrap_or_default();
        // The last allowed CPU: interrupts, kernel housekeeping and whatever
        // else the box runs land on CPU 0 first.
        let cpu = full
            .split([',', '-'])
            .next_back()
            .and_then(|last| last.parse().ok())
            .filter(|_| taskset_self(&full));
        Affinity { full, cpu }
    }

    /// Pins every thread of this process (and children spawned later).
    pub fn pin(&self) {
        if let Some(cpu) = self.cpu {
            taskset_self(&cpu.to_string());
        }
    }

    /// Restores the full mask.
    pub fn release(&self) {
        if self.cpu.is_some() {
            taskset_self(&self.full);
        }
    }
}

/// One keep-alive connection.
#[derive(Debug)]
pub struct Connection {
    addr: String,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    /// Connects with `TCP_NODELAY` and 10-second timeouts.
    pub fn open(addr: &str) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Connection {
            addr: addr.to_string(),
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Replaces the socket: after a transport error the stream position
    /// is unknown.
    pub fn reconnect(&mut self) -> io::Result<()> {
        *self = Connection::open(&self.addr)?;
        Ok(())
    }

    /// Sends pre-rendered request bytes and waits for the response.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<ClientResponse> {
        self.writer.write_all(request)?;
        match http::read_client_response(&mut self.reader, http::MAX_BODY_BYTES) {
            Ok(Some(response)) => Ok(response),
            Ok(None) => Err(other("server closed the connection".to_string())),
            Err(http::HttpError::Io(e)) => Err(e),
            Err(e) => Err(other(e.to_string())),
        }
    }
}

/// The counters `GET /v1/health` reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Health {
    /// Serving generation.
    pub generation: u64,
    /// Requests read by workers.
    pub requests: u64,
    /// 2xx responses.
    pub responses_ok: u64,
    /// Other responses.
    pub responses_error: u64,
    /// Connections refused by admission control.
    pub overloaded: u64,
    /// `/v1/query` lookups executed.
    pub kind_lookup: u64,
    /// Tag queries executed.
    pub kind_tag: u64,
    /// Batches executed.
    pub kind_batch: u64,
}

/// CPU, memory and scheduling counters of one process, from `/proc`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// `utime + stime`, seconds.
    pub cpu_s: f64,
    /// Voluntary + involuntary context switches over all threads.
    pub ctx_switches: u64,
    /// Peak resident set (`VmHWM`), MB.
    pub rss_peak_mb: f64,
}

fn clock_ticks_per_second() -> f64 {
    static TICKS: OnceLock<f64> = OnceLock::new();
    *TICKS.get_or_init(|| {
        Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(100.0)
    })
}

/// Samples `/proc/<pid>`; `pid` may be `"self"`.
pub fn sample_proc(pid: &str) -> io::Result<ProcSample> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name may hold spaces; fields are counted after its ')'.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields.get(i).and_then(|f| f.parse().ok()).unwrap_or(0.0) };
    // utime and stime are fields 14 and 15 of the line, 12 and 13 here.
    let cpu_s = (ticks(11) + ticks(12)) / clock_ticks_per_second();

    let status_value = |text: &str, key: &str| -> u64 {
        text.lines()
            .find_map(|line| line.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let mut ctx_switches = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        // A thread may exit between the listing and the read.
        if let Ok(text) = std::fs::read_to_string(task?.path().join("status")) {
            ctx_switches += status_value(&text, "voluntary_ctxt_switches:")
                + status_value(&text, "nonvoluntary_ctxt_switches:");
        }
    }
    Ok(ProcSample {
        cpu_s,
        ctx_switches,
        rss_peak_mb: status_value(&status, "VmHWM:") as f64 / 1024.0,
    })
}

/// A running `cnp_server` child. Dropping it kills the process and waits
/// for it, on every exit path that unwinds.
#[derive(Debug)]
pub struct Server {
    child: Child,
    // Held so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// `host:port` the server bound (an ephemeral port).
    pub addr: String,
    /// Spawn → first `/v1/health` 200.
    pub boot: Duration,
}

impl Server {
    /// Starts `binary` on `snapshot`, pinned to `cpu` if given, and waits
    /// until `/v1/health` answers 200.
    pub fn spawn(binary: &Path, snapshot: &Path, cpu: Option<usize>) -> io::Result<Server> {
        let mut command = match cpu {
            Some(cpu) => {
                let mut c = Command::new("taskset");
                c.args(["-c", &cpu.to_string()]).arg(binary);
                c
            }
            None => Command::new(binary),
        };
        command
            .arg("--snapshot")
            .arg(snapshot)
            .args(["--addr", "127.0.0.1:0"])
            .args(["--workers", &WORKERS.to_string()])
            .args(["--queue", &QUEUE.to_string()])
            .args(["--compact-threshold", &COMPACT_THRESHOLD.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        let started = Instant::now();
        let mut child = command.spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut server = {
            let mut line = String::new();
            let read = stdout.read_line(&mut line);
            // "cnp_server listening on <addr> (generation N, <mode> snapshot)"
            let addr = line
                .strip_prefix("cnp_server listening on ")
                .and_then(|rest| rest.split_whitespace().next())
                .map(str::to_string);
            match (read, addr) {
                (Ok(_), Some(addr)) => Server {
                    child,
                    _stdout: stdout,
                    addr,
                    boot: Duration::ZERO,
                },
                (read, _) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(other(format!(
                        "cnp_server did not announce its address ({read:?}): {line:?}"
                    )));
                }
            }
        };
        server.health()?;
        server.boot = started.elapsed();
        Ok(server)
    }

    /// The child's pid, as a `/proc` path component.
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// `GET /v1/health` on a fresh connection.
    pub fn health(&self) -> io::Result<Health> {
        let mut stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        http::write_request(&mut stream, "GET", "/v1/health", None, false)?;
        let response = http::read_client_response(&mut BufReader::new(stream), 1 << 20)
            .map_err(|e| other(e.to_string()))?
            .ok_or_else(|| other("no health response".to_string()))?;
        let doc = std::str::from_utf8(&response.body)
            .ok()
            .and_then(|text| Json::parse(text).ok())
            .filter(|_| response.status == 200)
            .ok_or_else(|| other(format!("health answered {}", response.status)))?;
        let stat = |name: &str| -> u64 {
            doc.get("stats")
                .and_then(|s| s.get(name))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        Ok(Health {
            generation: doc.get("generation").and_then(Json::as_u64).unwrap_or(0),
            requests: stat("requests"),
            responses_ok: stat("responsesOk"),
            responses_error: stat("responsesError"),
            overloaded: stat("overloaded"),
            kind_lookup: stat("kindLookup"),
            kind_tag: stat("kindTag"),
            kind_batch: stat("kindBatch"),
        })
    }

    /// `/proc` counters of the server process.
    pub fn sample(&self) -> io::Result<ProcSample> {
        sample_proc(&self.pid())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
