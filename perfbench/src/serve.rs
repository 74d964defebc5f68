//! The daemon side of every workload: the placement daemon in a child
//! process, and one client process driving it over two keep-alive
//! connections — a closed-loop job writer and an open-loop reader.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::Value;

use crate::http::{Conn, Reply};

/// Worker threads of the daemon under test.
const WORKERS: usize = 1;
/// Pause between two status polls of the writer.
const POLL_GAP: Duration = Duration::from_millis(20);
/// Jobs submitted and withdrawn (`DELETE` while queued) once the first job
/// runs, while the one worker is busy with it. They are the benchmark's
/// own addition to the traffic: they give the write path (spool create
/// and fsyncs) enough samples on every workload.
const PROBES: usize = 10;
/// Longest a job may take from POST to `done`.
const JOB_TIMEOUT: Duration = Duration::from_secs(150);
/// Interval of the open-loop reader's schedule: one GET every 100 ms,
/// rotating `/healthz`, `/jobs/<id>` and `/metrics` on one keep-alive
/// connection. The rate is a choice, not taken from a client. A request
/// that follows the previous response by less than the client's 40 ms
/// delayed-ACK timeout meets the server's two-write stall (about 45 ms);
/// at 100 ms a request follows even a stalled response by more than that,
/// so every read is timed in the same regime, run after run. At 50 to
/// 80 ms one late response would switch the rest of the run into the
/// stall; below 45 ms the stalled server cannot keep up.
const READ_PERIOD: Duration = Duration::from_millis(100);
/// GETs of the open-loop reader per run: a fixed count, so every run
/// times the same number of reads, whatever the jobs take.
const READS: u32 = 100;

/// Runs the daemon until its stdin closes: the same library calls
/// `twmc serve --workers 1 --listen 127.0.0.1:0 --spool DIR` makes, with
/// the daemon's default checkpoint cadence. Prints `listening ADDR` on
/// stdout once bound.
pub fn daemon_main(spool: &Path) -> Result<(), String> {
    static STOP: AtomicBool = AtomicBool::new(false);
    let opts = twmc_serve::ServeOptions {
        workers: WORKERS,
        spool: spool.to_path_buf(),
        ..Default::default()
    };
    let daemon =
        twmc_serve::Daemon::start(opts).map_err(|e| format!("cannot start daemon: {e}"))?;
    let server =
        twmc_serve::Server::bind("127.0.0.1:0", daemon).map_err(|e| format!("cannot bind: {e}"))?;
    println!("listening {}", server.local_addr());
    let watcher = std::thread::spawn(|| {
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        STOP.store(true, Ordering::Relaxed);
    });
    server
        .run(&STOP)
        .map_err(|e| format!("server failed: {e}"))?;
    watcher
        .join()
        .map_err(|_| "stdin watcher panicked".to_owned())
}

/// A running daemon child process. Dropping it kills the child.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Bound address.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts a daemon on `spool` and waits for its first `200` from
    /// `/healthz`. Returns it with the seconds that took.
    pub fn start(spool: &Path) -> Result<(Daemon, f64), String> {
        let t0 = Instant::now();
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .arg("--spool")
            .arg(spool)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child,
            stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("daemon stdout: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("daemon did not report its address: {line:?}"))?;
        let mut conn = Conn::new(daemon.addr);
        loop {
            match conn.request("GET", "/healthz", b"") {
                Ok(r) if r.status == 200 => break,
                _ if t0.elapsed() > Duration::from_secs(10) => {
                    return Err("daemon never answered /healthz".into())
                }
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        Ok((daemon, t0.elapsed().as_secs_f64()))
    }

    /// Peak resident memory of the daemon so far, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Closes the daemon's stdin, which drains it, and waits for a clean exit.
    pub fn stop(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if t0.elapsed() > Duration::from_secs(30) => {
                    return Err("daemon did not drain within 30 s".into())
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("wait for daemon: {e}")),
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

/// `VmHWM` of a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// What the writer submits.
pub struct Plan {
    /// Netlist text of every job.
    pub netlist: Arc<String>,
    /// Attempts per cell of every job.
    pub ac: usize,
    /// Seeds of the jobs to submit, one at a time.
    pub seeds: Vec<u64>,
}

/// Request routes the benchmark times separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /healthz`.
    Healthz,
    /// `GET /jobs/<id>`.
    JobStatus,
    /// `GET /metrics`.
    Metrics,
    /// `POST /jobs`.
    PostJob,
    /// `GET /jobs/<id>/result`, `/placement` and `DELETE /jobs/<id>`.
    Other,
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Which route.
    pub route: Route,
    /// Send to last body byte.
    pub service_ms: f64,
    /// Response head to last body byte.
    pub body_gap_ms: f64,
    /// For the open-loop reader: due time to last body byte.
    pub from_due_ms: Option<f64>,
    /// For the open-loop reader: how late the request was sent.
    pub late_ms: Option<f64>,
}

/// One job as the client saw it.
#[derive(Debug, Clone)]
pub struct JobSeen {
    /// Job seed.
    pub seed: u64,
    /// POST sent to `done` seen.
    pub turnaround_s: f64,
    /// POST sent to `running` first seen.
    pub queue_wait_s: f64,
    /// `running` first seen to `done` seen.
    pub run_s: f64,
    /// `result.json`: TEIL, chip area, routed length.
    pub teil: f64,
    /// Chip area.
    pub chip_area: i64,
    /// Routed length.
    pub routed_length: i64,
    /// Digest of `/placement`.
    pub digest: u64,
}

/// Everything the load phase observed.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Completed requests.
    pub samples: Vec<Sample>,
    /// Jobs that ended `done` with a healthy result.
    pub jobs: Vec<JobSeen>,
    /// Operations attempted: requests, jobs and output checks.
    pub attempted: u64,
    /// Operations failed: non-2xx, timeouts, failed jobs and checks.
    pub failed: u64,
    /// What failed.
    pub errors: Vec<String>,
}

impl LoadReport {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.errors.push(what);
    }

    fn count(&mut self, route: Route, r: &Result<Reply, String>, what: &str) -> Option<Reply> {
        self.attempted += 1;
        match r {
            Ok(reply) if reply.ok() => {
                self.samples.push(Sample {
                    route,
                    service_ms: ms(reply.done_at - reply.sent),
                    body_gap_ms: ms(reply.done_at - reply.head_at),
                    from_due_ms: None,
                    late_ms: None,
                });
                Some(reply.clone())
            }
            Ok(reply) => {
                self.fail(format!("{what}: status {}: {}", reply.status, reply.text()));
                None
            }
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the writer and the reader against `addr` until the plan is done.
pub fn load(addr: SocketAddr, plan: &Plan) -> LoadReport {
    let current: Mutex<Option<String>> = Mutex::new(None);
    let writer_done = AtomicBool::new(false);
    let (writer, reader) = std::thread::scope(|s| {
        let w = s.spawn(|| {
            let r = write_jobs(addr, plan, &current);
            writer_done.store(true, Ordering::SeqCst);
            r
        });
        let r = s.spawn(|| read_open_loop(addr, &current, &writer_done));
        (
            w.join().expect("writer thread panicked"),
            r.join().expect("reader thread panicked"),
        )
    });
    let mut out = writer;
    out.samples.extend(reader.samples);
    out.attempted += reader.attempted;
    out.failed += reader.failed;
    out.errors.extend(reader.errors);
    out
}

/// The closed-loop writer: one job at a time, polled until it ends.
fn write_jobs(addr: SocketAddr, plan: &Plan, current: &Mutex<Option<String>>) -> LoadReport {
    let mut rep = LoadReport::default();
    let mut conn = Conn::new(addr);
    for (k, &seed) in plan.seeds.iter().enumerate() {
        let path = format!("/jobs?seed={seed}&ac={}", plan.ac);
        let t_post = Instant::now();
        let posted = conn.request("POST", &path, plan.netlist.as_bytes());
        let Some(reply) = rep.count(Route::PostJob, &posted, "POST /jobs") else {
            continue;
        };
        let Some(id) = json_str(&reply.text(), "id") else {
            rep.fail(format!("POST /jobs: no id in {}", reply.text()));
            continue;
        };
        *current.lock().expect("job id lock is never poisoned") = Some(id.clone());

        rep.attempted += 1; // the job itself
        let mut running_at = None;
        let (state, done_at) = loop {
            std::thread::sleep(POLL_GAP);
            let polled = conn.request("GET", &format!("/jobs/{id}"), b"");
            if let Some(reply) = rep.count(Route::JobStatus, &polled, "GET /jobs/<id>") {
                let state = json_str(&reply.text(), "state").unwrap_or_default();
                if matches!(state.as_str(), "done" | "failed" | "cancelled") {
                    break (state, reply.done_at);
                }
                if state == "running" && running_at.is_none() {
                    running_at = Some(reply.done_at);
                    if k == 0 {
                        probe_writes(&mut conn, &path, plan, &mut rep);
                    }
                }
            }
            if t_post.elapsed() > JOB_TIMEOUT {
                break ("timeout".to_owned(), Instant::now());
            }
        };
        if state != "done" {
            rep.fail(format!("job {id} (seed {seed}) ended {state}"));
            continue;
        }
        let running_at = running_at.unwrap_or(done_at);
        let result = conn.request("GET", &format!("/jobs/{id}/result"), b"");
        let placement = conn.request("GET", &format!("/jobs/{id}/placement"), b"");
        let (Some(result), Some(placement)) = (
            rep.count(Route::Other, &result, "GET /jobs/<id>/result"),
            rep.count(Route::Other, &placement, "GET /jobs/<id>/placement"),
        ) else {
            continue;
        };
        rep.attempted += 1; // the result check
        let text = result.text();
        if field(&text, "healthy") != Some(Value::Bool(true)) {
            rep.fail(format!(
                "job {id} (seed {seed}) result is not healthy: {text}"
            ));
            continue;
        }
        let (Some(teil), Some(chip_area), Some(routed_length)) = (
            json_num(&text, "teil"),
            json_num(&text, "chip_area"),
            json_num(&text, "routed_length"),
        ) else {
            rep.fail(format!(
                "job {id}: result.json lacks quality numbers: {text}"
            ));
            continue;
        };
        rep.jobs.push(JobSeen {
            seed,
            turnaround_s: (done_at - t_post).as_secs_f64(),
            queue_wait_s: (running_at - t_post).as_secs_f64(),
            run_s: (done_at - running_at).as_secs_f64(),
            teil,
            chip_area: chip_area as i64,
            routed_length: routed_length as i64,
            digest: crate::pipeline::digest_text(&placement.text()),
        });
    }
    rep
}

/// Submits [`PROBES`] jobs and cancels each while it is queued.
fn probe_writes(conn: &mut Conn, path: &str, plan: &Plan, rep: &mut LoadReport) {
    for _ in 0..PROBES {
        let posted = conn.request("POST", path, plan.netlist.as_bytes());
        let Some(reply) = rep.count(Route::PostJob, &posted, "POST /jobs (probe)") else {
            continue;
        };
        let Some(id) = json_str(&reply.text(), "id") else {
            rep.fail(format!("POST /jobs (probe): no id in {}", reply.text()));
            continue;
        };
        let deleted = conn.request("DELETE", &format!("/jobs/{id}"), b"");
        if let Some(reply) = rep.count(Route::Other, &deleted, "DELETE /jobs/<id>") {
            let state = json_str(&reply.text(), "state").unwrap_or_default();
            if state != "cancelled" {
                rep.fail(format!(
                    "probe job {id} was {state}, not cancelled while queued"
                ));
            }
        }
    }
}

/// The open-loop reader: [`READS`] GETs, one per [`READ_PERIOD`], rotating
/// the three read routes, from the first job's submission on. Each
/// request's latency is timed from when it was due.
fn read_open_loop(
    addr: SocketAddr,
    current: &Mutex<Option<String>>,
    writer_done: &AtomicBool,
) -> LoadReport {
    let mut rep = LoadReport::default();
    let mut conn = Conn::new(addr);
    // Start the schedule once there is a job to ask about.
    loop {
        if writer_done.load(Ordering::SeqCst) {
            return rep;
        }
        if current
            .lock()
            .expect("job id lock is never poisoned")
            .is_some()
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let start = Instant::now();
    for k in 0..READS {
        let due = start + READ_PERIOD * k;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let id = current
            .lock()
            .expect("job id lock is never poisoned")
            .clone()
            .expect("set before the schedule starts");
        let (route, path) = match k % 3 {
            0 => (Route::Healthz, "/healthz".to_owned()),
            1 => (Route::JobStatus, format!("/jobs/{id}")),
            _ => (Route::Metrics, "/metrics".to_owned()),
        };
        let r = conn.request("GET", &path, b"");
        if rep.count(route, &r, "reader GET").is_some() {
            let reply = r.expect("counted as ok");
            let last = rep.samples.last_mut().expect("just pushed");
            last.from_due_ms = Some(ms(reply.done_at - due));
            last.late_ms = Some(ms(reply.sent.saturating_duration_since(due)));
        }
    }
    rep
}

/// A field of a JSON object.
fn field(text: &str, key: &str) -> Option<Value> {
    match twmc_obs::validate::parse_json(text).ok()? {
        Value::Object(entries) => entries.into_iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A string field of a JSON object.
fn json_str(text: &str, key: &str) -> Option<String> {
    match field(text, key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// A numeric field of a JSON object.
fn json_num(text: &str, key: &str) -> Option<f64> {
    match field(text, key)? {
        Value::Float(f) => Some(f),
        Value::Int(n) => Some(n as f64),
        Value::UInt(n) => Some(n as f64),
        _ => None,
    }
}

/// A fresh, empty directory under `root`.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}
