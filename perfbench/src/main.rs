//! End-to-end and per-layer benchmark of the TimberWolfMC pipeline and
//! its placement daemon.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload d3_route_bound --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Every workload builds its inputs from `--seed`, runs the pipeline in
//! process (untraced), submits the same kind of work to a daemon child
//! process over HTTP, checks every output, and prints one JSON line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The traced run re-composes the pipeline from its crates'
//! public functions, each call inside a span of the benchmark's own
//! (see `spans.rs`); the program's own tracing stays off.

mod http;
mod pipeline;
mod serve;
mod spans;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use twmc_core::TimberWolfConfig;
use twmc_netlist::{paper_circuit, parse_netlist, synthesize_profile, write_netlist, Netlist};

use crate::pipeline::{run_checkpointed, run_traced, run_untraced, Quality};
use crate::serve::{Daemon, LoadReport, Plan, Route};

/// How a workload spends its time. The in-process runs and the daemon
/// never run at once: on a 2-core host a second busy core slows the
/// first by about a third.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// [`Workload::runs`] untraced in-process runs of one spec, then that
    /// spec as daemon jobs.
    Pipeline,
    /// [`Workload::runs`] in-process reference runs, one per job seed,
    /// then one daemon job after another for about the whole run.
    Serve,
}

struct Workload {
    name: &'static str,
    /// Paper circuit profile (Table 4 cell, net and pin counts).
    circuit: &'static str,
    /// The circuit is one fixed synthetic instance per workload, like the
    /// paper's fixed circuits: across synthesis seeds i3's TEIL varies by
    /// about 23% (quartile spread), across annealing seeds by about 5%.
    synth_seed: u64,
    /// Attempts per cell (`A_c`).
    ac: usize,
    kind: Kind,
    /// In-process runs of a workload run. The count is fixed, not set by a
    /// deadline, so a speed-up cannot change which runs a metric covers.
    /// On a shared host single runs of the same spec differ by a fifth or
    /// more; the median of several steadies `run_wall_s`.
    runs: usize,
    /// Expected seconds of one daemon job: a run submits `--seconds /
    /// job_seconds` jobs (at least one). The count is fixed per
    /// `--seconds`, not by a deadline, so every run does the same work and
    /// the daemon's peak memory, which grows with the jobs it has held,
    /// compares across runs. A pipeline workload submits its one spec
    /// that many times.
    job_seconds: f64,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "d3_route_bound",
        circuit: "d3",
        synth_seed: 1,
        ac: 60,
        kind: Kind::Pipeline,
        runs: 2,
        job_seconds: 12.0,
    },
    Workload {
        name: "i3_anneal_bound",
        circuit: "i3",
        synth_seed: 1,
        ac: 400,
        kind: Kind::Pipeline,
        runs: 3,
        job_seconds: 6.0,
    },
    Workload {
        name: "serve_mixed",
        circuit: "p1",
        synth_seed: 1,
        ac: 25,
        kind: Kind::Serve,
        runs: 3,
        job_seconds: 2.4,
    },
];

/// Seconds of set-ups per run. They run in even stretches (of at least
/// [`SETUP_MIN_REPS`] each) before, between and after the in-process runs
/// and after the daemon's load; `setup_s` is the mean of the stretches'
/// medians. The host flips between a fast and a half-again slower speed
/// for a fraction of a second up to several seconds at a time, so the
/// set-ups of one stretch read one speed. Spread over the run they read
/// the same mix of speeds the runs do, and the mean across stretches
/// follows that mix smoothly, where a median would jump from one speed to
/// the other.
const SETUP_SECONDS: f64 = 1.0;
const SETUP_MIN_REPS: usize = 2;
/// Daemon starts in each set-up stretch of a `serve_mixed` run (each stop
/// drains for 0.25 s). With the start the load runs against, `setup_s` is
/// the median of `2 × (runs + 2) + 1` starts.
const DAEMON_STARTS_PER_STRETCH: usize = 2;

/// Seed of job (and in-process run) `k` of a workload run: distinct per
/// job, and below 2^63 so the daemon's query parser takes it.
fn job_seed(seed: u64, k: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % 1_000_000_007
}

/// The configuration the daemon runs a job with (`JobSpec::config`), which
/// is also what `twmc place --seed S --ac A` runs.
fn config(ac: usize, seed: u64) -> TimberWolfConfig {
    twmc_serve::JobSpec {
        seed,
        ac,
        ..Default::default()
    }
    .config()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => out.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

/// Failed and attempted operations, with what failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    fn absorb(&mut self, load: &LoadReport) {
        self.attempted += load.attempted;
        self.failed += load.failed;
        self.errors.extend(load.errors.iter().cloned());
    }
}

/// Metrics in output order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".to_owned()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Linear-interpolated quantile (`q` in 0..=1); NaN for no samples.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn median_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// Mean; 0 for no items (an empty net-size bucket did no work).
fn mean_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    items.iter().map(f).sum::<f64>() / items.len().max(1) as f64
}

/// Times of one set-up.
struct SetupTimes {
    synth_ms: f64,
    write_ms: f64,
    parse_ms: f64,
}

/// One set-up: synthesise the circuit, write it as netlist text, parse
/// the text back — what a user does before `twmc place`.
fn set_up(w: &Workload) -> Result<(Netlist, String, SetupTimes), String> {
    let profile = paper_circuit(w.circuit).ok_or("unknown paper circuit")?;
    let t0 = Instant::now();
    let synthesized = synthesize_profile(profile, w.synth_seed);
    let t1 = Instant::now();
    let text = write_netlist(&synthesized);
    let t2 = Instant::now();
    let nl = parse_netlist(&text).map_err(|e| format!("netlist does not parse back: {e}"))?;
    let t3 = Instant::now();
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    let times = SetupTimes {
        synth_ms: ms(t0, t1),
        write_ms: ms(t1, t2),
        parse_ms: ms(t2, t3),
    };
    Ok((nl, text, times))
}

/// Set-ups back to back for `seconds` (at least [`SETUP_MIN_REPS`]),
/// their times appended to `times`. Returns the last one's netlist.
fn set_ups(
    w: &Workload,
    seconds: f64,
    times: &mut Vec<SetupTimes>,
) -> Result<(Netlist, String), String> {
    let t0 = Instant::now();
    let mut reps = 0;
    loop {
        let (nl, text, t) = set_up(w)?;
        times.push(t);
        reps += 1;
        if reps >= SETUP_MIN_REPS && t0.elapsed().as_secs_f64() >= seconds {
            return Ok((nl, text));
        }
    }
}

/// Starts a daemon on a fresh spool under `work`, its start time appended
/// to `starts`.
fn start_daemon(work: &WorkDir, starts: &mut Vec<f64>) -> Result<Daemon, String> {
    let spool = serve::fresh_dir(&work.0, &format!("spool{}", starts.len()))?;
    let (daemon, secs) = Daemon::start(&spool)?;
    starts.push(secs);
    Ok(daemon)
}

/// Set-up times of a run, taken in stretches between its in-process runs.
#[derive(Default)]
struct SetUps {
    netlist: Vec<SetupTimes>,
    /// Median milliseconds of each stretch's netlist set-ups.
    stretch_ms: Vec<f64>,
    /// Daemon start seconds (`serve_mixed` only).
    daemon: Vec<f64>,
}

impl SetUps {
    /// One stretch: netlist set-ups for `seconds` and, on `serve_mixed`,
    /// [`DAEMON_STARTS_PER_STRETCH`] daemon starts and stops. Returns the
    /// netlist.
    fn stretch(
        &mut self,
        w: &Workload,
        seconds: f64,
        work: &WorkDir,
    ) -> Result<(Netlist, String), String> {
        let first = self.netlist.len();
        let out = set_ups(w, seconds, &mut self.netlist)?;
        self.stretch_ms.push(median_by(&self.netlist[first..], |s| {
            s.synth_ms + s.write_ms + s.parse_ms
        }));
        if w.kind == Kind::Serve {
            for _ in 0..DAEMON_STARTS_PER_STRETCH {
                start_daemon(work, &mut self.daemon)?.stop()?;
            }
        }
        Ok(out)
    }
}

/// Scratch directory of one run, removed when the run ends. It lives in
/// the build directory, inside the checkout.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<WorkDir, String> {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("perfbench/target"));
        let dir = target
            .join("perfbench-work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)
            .map(|()| WorkDir(dir))
            .map_err(|e| format!("cannot create the work directory: {e}"))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The placement digest recorded for this workload and seed in
/// `perfbench/BASELINE.json` (built into the binary), if any.
fn baseline_digest(workload: &str, seed: u64) -> Option<u64> {
    let text = include_str!("../BASELINE.json");
    let v = twmc_obs::validate::parse_json(text).expect("BASELINE.json is JSON");
    let get = |v: &serde::Value, key: &str| match v {
        serde::Value::Object(e) => e.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()),
        _ => None,
    };
    let digests = get(&get(&v, "workloads")?, workload).and_then(|w| get(&w, "digests"))?;
    match get(&digests, &seed.to_string())? {
        serde::Value::Str(s) => u64::from_str_radix(s.trim_start_matches("0x"), 16).ok(),
        _ => None,
    }
}

/// One untraced in-process run.
struct Run {
    seed: u64,
    quality: Quality,
    wall_s: f64,
}

struct Outcome {
    tally: Tally,
    metrics: Metrics,
}

fn run(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::new()?;
    let mut tally = Tally::default();
    let mut m = Metrics::default();

    // Set-ups and untraced in-process runs, interleaved. A pipeline
    // workload repeats one spec; serve_mixed runs the specs of its first
    // jobs, which those jobs must reproduce.
    let stretch = SETUP_SECONDS / (w.runs + 2) as f64;
    let mut setups = SetUps::default();
    let (nl, text) = setups.stretch(w, stretch, &work)?;
    let mut runs: Vec<Run> = Vec::new();
    for k in 0..w.runs {
        let seed = job_seed(args.seed, if w.kind == Kind::Pipeline { 0 } else { k });
        let (quality, wall_s) = run_untraced(&nl, &config(w.ac, seed));
        runs.push(Run {
            seed,
            quality,
            wall_s,
        });
        setups.stretch(w, stretch, &work)?;
    }
    let own_rss = serve::peak_rss_mb("/proc/self/status");
    let reference = runs[0].quality;
    for run in &runs[1..] {
        if run.seed == runs[0].seed {
            tally.check(run.quality == reference, || {
                format!(
                    "a repeat of the same spec gave {:?}, not {reference:?}",
                    run.quality
                )
            });
        }
    }
    if let Some(want) = baseline_digest(w.name, args.seed) {
        tally.check(want == reference.digest, || {
            format!(
                "placement digest {:#018x} differs from the one BASELINE.json records for seed {}, {want:#018x}",
                reference.digest, args.seed
            )
        });
    }

    let traced = if args.trace {
        let cfg = config(w.ac, runs[0].seed);
        let traced = run_traced(&nl, &cfg);
        tally.check(traced.quality == reference, || {
            format!(
                "traced re-composition {:?} differs from the untraced run {reference:?}",
                traced.quality
            )
        });
        tally.check(traced.final_unrouted == 0, || {
            format!(
                "finalize route left {} nets unrouted",
                traced.final_unrouted
            )
        });
        let dir = serve::fresh_dir(&work.0, "checkpointed")?;
        let every = twmc_serve::ServeOptions::default().checkpoint_every;
        let (q, io) = run_checkpointed(&nl, &cfg, &dir, every)?;
        tally.check(q == reference, || {
            format!("checkpointed run {q:?} differs from the untraced run {reference:?}")
        });
        Some((traced, io))
    } else {
        None
    };

    // The daemon: serve_mixed times its start as set-up.
    let daemon = start_daemon(&work, &mut setups.daemon)?;
    let jobs = ((args.seconds / w.job_seconds).round() as usize).max(1);
    let plan = Plan {
        netlist: Arc::new(text),
        ac: w.ac,
        seeds: (0..jobs)
            .map(|k| job_seed(args.seed, if w.kind == Kind::Pipeline { 0 } else { k }))
            .collect(),
    };
    let load = serve::load(daemon.addr, &plan);
    let daemon_rss = daemon.peak_rss_mb();
    tally.check(daemon.stop().is_ok(), || {
        "daemon did not drain cleanly".into()
    });
    setups.stretch(w, stretch, &work)?;
    tally.absorb(&load);

    // Every job must reproduce the in-process run of the same spec.
    for job in &load.jobs {
        let Some(run) = runs.iter().find(|r| r.seed == job.seed) else {
            continue;
        };
        let want = run.quality;
        tally.check(
            job.teil == want.teil
                && job.chip_area == want.chip_area
                && job.routed_length == want.routed_length
                && job.digest == want.digest,
            || {
                format!(
                    "job with seed {} does not reproduce the in-process run {want:?}",
                    job.seed
                )
            },
        );
    }

    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let jobs = &load.jobs;
    let reads: Vec<f64> = load.samples.iter().filter_map(|s| s.from_due_ms).collect();
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "perfbench: {} seed {}: set-up stretches [{}] ms, runs [{}] s (digest {:#018x}), jobs [{}] s, {} reads (p50/p90/p99/max [{}] ms), {}/{} failed",
        w.name,
        args.seed,
        list(&setups.stretch_ms),
        list(&walls),
        reference.digest,
        list(&jobs.iter().map(|j| j.turnaround_s).collect::<Vec<_>>()),
        reads.len(),
        list(&[0.5, 0.9, 0.99, 1.0].map(|q| quantile(&reads, q))),
        tally.failed,
        tally.attempted
    );

    if let Some((traced, io)) = traced {
        // The untraced runs of the traced spec.
        let same_spec: Vec<f64> = runs
            .iter()
            .filter(|r| r.seed == runs[0].seed)
            .map(|r| r.wall_s)
            .collect();
        per_layer(
            &mut m,
            &setups.netlist,
            &traced,
            &io,
            median(&same_spec),
            &load,
        );
    } else {
        let (teil, chip_area, routed_length, setup_s, rss) = match w.kind {
            Kind::Pipeline => (
                reference.teil,
                reference.chip_area as f64,
                reference.routed_length as f64,
                mean_by(&setups.stretch_ms, |&ms| ms) / 1e3,
                own_rss,
            ),
            Kind::Serve => (
                median_by(jobs, |j| j.teil),
                median_by(jobs, |j| j.chip_area as f64),
                median_by(jobs, |j| j.routed_length as f64),
                median(&setups.daemon),
                daemon_rss,
            ),
        };
        let posts: Vec<&serve::Sample> = load
            .samples
            .iter()
            .filter(|s| s.route == Route::PostJob)
            .collect();
        m.put("run_wall_s", median(&walls), "s");
        m.put("setup_s", setup_s, "s");
        m.put("peak_rss_mb", rss.unwrap_or(f64::NAN), "MB");
        m.put("final_teil", teil, "units");
        m.put("chip_area", chip_area, "units2");
        m.put("routed_length", routed_length, "units");
        m.put("http_read_p50_ms", median(&reads), "ms");
        m.put(
            "http_write_p50_ms",
            median_by(&posts, |s| s.service_ms),
            "ms",
        );
        m.put(
            "job_turnaround_p50_s",
            median_by(jobs, |j| j.turnaround_s),
            "s",
        );
        let success = 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64;
        m.put("success_rate", success, "ratio");
    }
    for (name, value, _) in &m.0 {
        if !value.is_finite() {
            tally.check(false, || format!("metric {name} has no samples"));
        }
    }
    Ok(Outcome { tally, metrics: m })
}

/// The per-layer metrics of a traced run.
fn per_layer(
    m: &mut Metrics,
    setups: &[SetupTimes],
    traced: &pipeline::Traced,
    io: &pipeline::CheckpointIo,
    untraced_wall_s: f64,
    load: &LoadReport,
) {
    let ms = |ns: u64| ns as f64 / 1e6;
    m.put("netlist.synth_ms", median_by(setups, |s| s.synth_ms), "ms");
    m.put("netlist.write_ms", median_by(setups, |s| s.write_ms), "ms");
    m.put("netlist.parse_ms", median_by(setups, |s| s.parse_ms), "ms");

    let p = spans::profile(&traced.spans);
    let span_ms = |name: &str| ms(p.name(name).total_ns);
    let wall_ms = ms(traced.wall_ns);
    let work = &traced.work;
    let stage1_ms = span_ms("place.stage1");
    let refine_anneal_ms = span_ms("place.refine_anneal");
    let phase1_ms = span_ms("route.phase1");
    let per_move = |n: usize| n.max(1) as f64;
    m.put("core.traced_wall_ms", wall_ms, "ms");
    m.put("place.stage1_ms", stage1_ms, "ms");
    m.put("place.stage1_moves", work.stage1_moves as f64, "count");
    m.put(
        "place.stage1_ns_per_move",
        stage1_ms * 1e6 / per_move(work.stage1_moves),
        "ns",
    );
    m.put(
        "place.stage1_accept_ratio",
        work.stage1_accepts as f64 / per_move(work.stage1_moves),
        "ratio",
    );
    m.put("place.refine_anneal_ms", refine_anneal_ms, "ms");
    m.put("place.refine_moves", work.refine_moves as f64, "count");
    m.put("place.legalize_ms", span_ms("place.legalize"), "ms");
    m.put(
        "place.anneal_share_pct",
        100.0 * (stage1_ms + refine_anneal_ms) / wall_ms,
        "%",
    );
    m.put("refine.snapshot_ms", span_ms("refine.snapshot"), "ms");
    m.put("refine.spread_ms", span_ms("refine.spread"), "ms");

    let passes = &work.passes;
    m.put("route.passes", passes.len() as f64, "count");
    m.put(
        "route.channel_graph_ms",
        span_ms("route.channel_graph"),
        "ms",
    );
    m.put(
        "route.graph_nodes",
        mean_by(passes, |w| w.nodes as f64),
        "count",
    );
    m.put(
        "route.graph_edges",
        mean_by(passes, |w| w.edges as f64),
        "count",
    );
    m.put("route.phase1_ms", phase1_ms, "ms");
    m.put("route.phase1_share_pct", 100.0 * phase1_ms / wall_ms, "%");
    m.put("route.phase1_nets", work.nets.len() as f64, "count");
    m.put(
        "route.phase1_net_p50_ms",
        median_by(&work.nets, |n| ms(n.ns)),
        "ms",
    );
    m.put(
        "route.phase1_net_max_ms",
        work.nets.iter().map(|n| ms(n.ns)).fold(0.0, f64::max),
        "ms",
    );
    let alternatives = |n: &pipeline::NetWork| n.alternatives as f64;
    m.put(
        "route.alternatives_per_net",
        mean_by(&work.nets, alternatives),
        "count",
    );
    for (pins, ms_name, alt_name) in [
        (
            2..=2,
            "route.phase1_ms.pins_2",
            "route.alternatives_per_net.pins_2",
        ),
        (
            3..=5,
            "route.phase1_ms.pins_3_5",
            "route.alternatives_per_net.pins_3_5",
        ),
        (
            6..=usize::MAX,
            "route.phase1_ms.pins_6_plus",
            "route.alternatives_per_net.pins_6_plus",
        ),
    ] {
        let bucket: Vec<pipeline::NetWork> = work
            .nets
            .iter()
            .filter(|n| pins.contains(&n.pins))
            .copied()
            .collect();
        m.put(ms_name, ms(bucket.iter().map(|n| n.ns).sum()), "ms");
        m.put(alt_name, mean_by(&bucket, alternatives), "count");
    }
    let attempts: usize = passes.iter().map(|w| w.attempts).sum();
    let reassigned: usize = passes.iter().map(|w| w.reassignments).sum();
    m.put("route.phase2_ms", span_ms("route.phase2"), "ms");
    m.put("route.phase2_attempts", attempts as f64, "count");
    m.put(
        "route.phase2_reassign_ratio",
        reassigned as f64 / attempts.max(1) as f64,
        "ratio",
    );
    let overflow = |f: fn(&pipeline::PassWork) -> i64| passes.iter().map(f).sum::<i64>() as f64;
    m.put(
        "route.overflow_start",
        overflow(|w| w.overflow_start),
        "tracks",
    );
    m.put("route.overflow_end", overflow(|w| w.overflow_end), "tracks");
    for (layer, name) in [
        ("place", "place.self_ms"),
        ("refine", "refine.self_ms"),
        ("route", "route.self_ms"),
        ("core", "core.self_ms"),
    ] {
        m.put(name, ms(p.layer_self_ns(layer)), "ms");
    }
    m.put(
        "core.unattributed_ms",
        p.unattributed_ns(traced.wall_ns) as f64 / 1e6,
        "ms",
    );
    m.put(
        "trace.overhead_pct",
        100.0 * (wall_ms / 1e3 / untraced_wall_s - 1.0),
        "%",
    );

    let writes = io.writes.max(1) as f64;
    m.put("resume.checkpoints", io.writes as f64, "count");
    m.put("resume.checkpoint_write_ms", ms(io.ns) / writes, "ms");
    m.put("resume.checkpoint_bytes", io.bytes as f64 / writes, "bytes");

    // GET routes as the reader sees them (the writer also polls
    // `/jobs/<id>`), `POST /jobs` as the writer does.
    let service_p50 = |route: Route| {
        let reader = route != Route::PostJob;
        let on_route: Vec<&serve::Sample> = load
            .samples
            .iter()
            .filter(|s| s.route == route && s.from_due_ms.is_some() == reader)
            .collect();
        median_by(&on_route, |s| s.service_ms)
    };
    m.put("serve.healthz_p50_ms", service_p50(Route::Healthz), "ms");
    m.put(
        "serve.job_status_p50_ms",
        service_p50(Route::JobStatus),
        "ms",
    );
    m.put("serve.metrics_p50_ms", service_p50(Route::Metrics), "ms");
    m.put("serve.post_job_p50_ms", service_p50(Route::PostJob), "ms");
    // The reader's p99 is about its second slowest read, which host
    // scheduling sets: it is a layer figure, not an end-to-end one.
    let reads: Vec<f64> = load.samples.iter().filter_map(|s| s.from_due_ms).collect();
    m.put("serve.http_read_p99_ms", quantile(&reads, 0.99), "ms");
    // The writer sends within 40 ms of its previous response, so the
    // client delays its ACKs and the server's second write stalls; the
    // reader's requests, 100 ms apart, never meet the stall.
    let writer: Vec<&serve::Sample> = load
        .samples
        .iter()
        .filter(|s| s.from_due_ms.is_none())
        .collect();
    m.put(
        "serve.body_gap_p50_ms",
        median_by(&writer, |s| s.body_gap_ms),
        "ms",
    );
    m.put(
        "serve.queue_wait_s",
        median_by(&load.jobs, |j| j.queue_wait_s),
        "s",
    );
    m.put("serve.job_run_s", median_by(&load.jobs, |j| j.run_s), "s");
    let late: Vec<f64> = load.samples.iter().filter_map(|s| s.late_ms).collect();
    m.put("serve.generator_late_ms", quantile(&late, 0.99), "ms");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("daemon") {
        let spool = match args.get(1..) {
            Some([flag, dir]) if flag == "--spool" => PathBuf::from(dir),
            _ => {
                eprintln!("usage: perfbench daemon --spool DIR");
                std::process::exit(2);
            }
        };
        if let Err(e) = serve::daemon_main(&spool) {
            eprintln!("perfbench daemon: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("perfbench: --workload must be one of {}", names.join(", "));
        std::process::exit(2);
    };
    match run(w, &args) {
        Ok(out) => {
            for e in &out.tally.errors {
                eprintln!("perfbench: FAILED: {e}");
            }
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                out.tally.failed == 0,
                out.tally.attempted,
                out.tally.failed,
                out.metrics.json()
            );
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
