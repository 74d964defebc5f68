//! The in-process pipeline runs: the untraced `run_timberwolf` call the
//! end-to-end metrics time, the traced re-composition that times every
//! layer from outside, and a checkpointed run that times checkpoint I/O.
//!
//! The re-composition calls the public functions that `refine_placement`,
//! `global_route` and `finalize_chip` are built from, in the same order
//! and with the same seeds, so it reproduces the composite's result bit
//! for bit (the benchmark checks this on every traced run).

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use twmc_anneal::{CoolingSchedule, RangeLimiter};
use twmc_core::{
    run_timberwolf, run_timberwolf_resilient, snapshot_placement, PlacedCellRecord, RunOptions,
    RunOutcome, TimberWolfConfig, TimberWolfResult,
};
use twmc_fault::{RealVfs, Vfs};
use twmc_geom::Point;
use twmc_netlist::Netlist;
use twmc_obs::NullRecorder;
use twmc_place::{legalize, place_stage1, run_annealing, MoveSet, PlacementState};
use twmc_refine::{
    routing_snapshot, spacing_constraints, spread_for_widths, static_expansions,
    verify_channel_widths,
};
use twmc_resume::CheckpointWriter;
use twmc_route::{
    assign_routes, build_channel_graph, enumerate_route_trees, GlobalRouting, NetPins,
    PlacedGeometry, RouteTree, RouterParams,
};

use crate::spans::{Span, Tracer};

/// Per connection point of a net: candidate channel nodes with the pin's
/// projection offset and position.
type Attachments = Vec<Vec<(usize, i64, Point)>>;

/// Lane of the pipeline-level calls (stages, snapshots, anneals).
const MAIN: &str = "main";
/// Lane of the router's calls, recorded on the same thread inside `main`.
const ROUTE: &str = "route";

/// The quality of one run, and the digest of its placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Final TEIL.
    pub teil: f64,
    /// Final chip area.
    pub chip_area: i64,
    /// Final globally-routed length.
    pub routed_length: i64,
    /// FNV-1a of the placement in the daemon's `/placement` text format.
    pub digest: u64,
}

impl Quality {
    fn of(result: &TimberWolfResult) -> Quality {
        Quality {
            teil: result.teil,
            chip_area: result.chip_area(),
            routed_length: result.routed_length,
            digest: digest(&result.placement),
        }
    }
}

/// Digest of a placement: FNV-1a over the text `GET /jobs/<id>/placement`
/// serves, so an in-process run and a daemon job compare directly.
pub fn digest(placement: &[PlacedCellRecord]) -> u64 {
    digest_text(&twmc_serve::placement_text(placement))
}

/// Digest of placement text as the daemon serves it.
pub fn digest_text(text: &str) -> u64 {
    twmc_resume::fnv1a64(text.as_bytes())
}

/// One untraced `run_timberwolf` call: its quality and wall seconds.
pub fn run_untraced(nl: &Netlist, config: &TimberWolfConfig) -> (Quality, f64) {
    let t0 = Instant::now();
    let result = run_timberwolf(nl, config);
    let wall = t0.elapsed().as_secs_f64();
    (Quality::of(&result), wall)
}

/// Phase-1 work on one net of one routing pass.
#[derive(Debug, Clone, Copy)]
pub struct NetWork {
    /// Connection points of the net.
    pub pins: usize,
    /// Alternative route trees enumerated.
    pub alternatives: usize,
    /// Time spent attaching and enumerating.
    pub ns: u64,
}

/// One routing pass.
#[derive(Debug, Clone, Copy)]
pub struct PassWork {
    /// Channel-graph nodes.
    pub nodes: usize,
    /// Channel-graph edges.
    pub edges: usize,
    /// Phase-2 interchange attempts.
    pub attempts: usize,
    /// Phase-2 accepted interchanges.
    pub reassignments: usize,
    /// Overflow with every net on its shortest route.
    pub overflow_start: i64,
    /// Overflow after the interchange.
    pub overflow_end: i64,
}

/// Work counters of a traced run.
#[derive(Debug, Clone, Default)]
pub struct Work {
    /// Stage-1 move attempts.
    pub stage1_moves: usize,
    /// Stage-1 accepted moves.
    pub stage1_accepts: usize,
    /// Refinement-anneal move attempts.
    pub refine_moves: usize,
    /// Every net of every routing pass.
    pub nets: Vec<NetWork>,
    /// Every routing pass.
    pub passes: Vec<PassWork>,
}

/// The traced re-composition of one run.
pub struct Traced {
    /// Quality and digest, to compare with the untraced run.
    pub quality: Quality,
    /// Wall time of the whole traced run.
    pub wall_ns: u64,
    /// Spans around every wrapped call.
    pub spans: Vec<Span>,
    /// Work counters.
    pub work: Work,
    /// Unrouted nets of the finalize route.
    pub final_unrouted: usize,
}

/// Runs `run_timberwolf`'s single-replica flow by calling its parts,
/// each inside a span.
pub fn run_traced(nl: &Netlist, config: &TimberWolfConfig) -> Traced {
    assert!(
        config.parallel.replicas <= 1,
        "the re-composition covers the single-replica flow"
    );
    let tracer = Tracer::new();
    let mut work = Work::default();
    let t0 = Instant::now();
    let (mut state, stage1) = tracer.time(MAIN, "place.stage1", || {
        place_stage1(
            nl,
            &config.place,
            &config.estimator,
            &config.schedule,
            config.seed,
        )
    });
    work.stage1_moves = stage1.moves.attempts();
    work.stage1_accepts = stage1.moves.accepts();
    refine(
        &tracer,
        &mut work,
        &mut state,
        config,
        stage1.s_t,
        stage1.t_infinity,
        config.seed.wrapping_add(0x5eed),
    );
    let (teil, chip_area, routed_length, final_unrouted) = finalize(
        &tracer,
        &mut work,
        nl,
        &mut state,
        &config.refine.router,
        config.seed.wrapping_add(0xf17a1),
    );
    let placement = tracer.time(MAIN, "core.snapshot_placement", || {
        snapshot_placement(nl, &state)
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;
    Traced {
        quality: Quality {
            teil,
            chip_area,
            routed_length,
            digest: digest(&placement),
        },
        wall_ns,
        spans: tracer.spans(),
        work,
        final_unrouted,
    }
}

/// `refine_placement`, re-composed.
fn refine(
    tracer: &Tracer,
    work: &mut Work,
    state: &mut PlacementState<'_>,
    config: &TimberWolfConfig,
    s_t: f64,
    t_inf: f64,
    seed: u64,
) {
    let params = &config.refine;
    let mut rng = StdRng::seed_from_u64(seed);
    let core = state.estimator().core();
    let limiter = RangeLimiter::new(
        2.0 * core.width() as f64,
        2.0 * core.height() as f64,
        t_inf,
        config.place.rho,
    );
    let t_start = limiter.temperature_for_fraction(params.mu);
    let schedule = CoolingSchedule::stage2();
    let gap = params.router.track_spacing.round().max(1.0) as i64;
    let cells = state.cells().len();
    for k in 0..params.refinements {
        tracer.time(MAIN, "place.legalize", || legalize(state, gap, 500));
        let (geometry, nets) = tracer.time(MAIN, "refine.snapshot", || routing_snapshot(state));
        let routing = global_route(
            tracer,
            work,
            &geometry,
            &nets,
            &params.router,
            seed ^ (k as u64 + 1),
        );
        tracer.time(MAIN, "refine.spread", || {
            let expansions = static_expansions(&routing, cells, params.router.track_spacing);
            state.set_static_expansions(expansions);
        });
        let stall = (k + 1 == params.refinements).then_some(params.final_stall);
        let run = tracer.time(MAIN, "place.refine_anneal", || {
            run_annealing(
                state,
                &config.place,
                MoveSet::Refinement,
                &schedule,
                &limiter,
                t_start,
                s_t,
                stall,
                &mut rng,
            )
        });
        work.refine_moves += run.moves.attempts();
    }
    tracer.time(MAIN, "place.legalize", || legalize(state, gap, 500));
    let (geometry, nets) = tracer.time(MAIN, "refine.snapshot", || routing_snapshot(state));
    global_route(
        tracer,
        work,
        &geometry,
        &nets,
        &params.router,
        seed ^ 0xffff,
    );
}

/// `finalize_chip`, re-composed. Returns TEIL, chip area, routed length
/// and the unrouted-net count of the closing route.
fn finalize(
    tracer: &Tracer,
    work: &mut Work,
    nl: &Netlist,
    state: &mut PlacementState<'_>,
    router: &RouterParams,
    seed: u64,
) -> (f64, i64, i64, usize) {
    let gap = router.track_spacing.round().max(1.0) as i64;
    tracer.time(MAIN, "place.legalize", || legalize(state, gap, 500));
    let (geometry, nets) = tracer.time(MAIN, "refine.snapshot", || routing_snapshot(state));
    let routing = global_route(tracer, work, &geometry, &nets, router, seed);
    tracer.time(MAIN, "refine.spread", || {
        let expansions = static_expansions(&routing, nl.cells().len(), router.track_spacing);
        state.set_static_expansions(expansions);
        let constraints = spacing_constraints(&routing, router.track_spacing);
        spread_for_widths(state, &constraints, 500);
    });
    tracer.time(MAIN, "place.legalize", || legalize(state, gap, 500));
    let (geometry, nets) = tracer.time(MAIN, "refine.snapshot", || routing_snapshot(state));
    let routing = global_route(tracer, work, &geometry, &nets, router, seed ^ 0xf17a1);
    tracer.time(MAIN, "refine.verify", || {
        verify_channel_widths(&routing, router.track_spacing)
    });
    (
        state.teil(),
        state.effective_bbox().area(),
        routing.total_length(),
        routing.unrouted,
    )
}

/// `global_route`, re-composed: channel graph, phase 1 per net, phase 2,
/// then the densities and pin attachments of the chosen routes.
fn global_route(
    tracer: &Tracer,
    work: &mut Work,
    geometry: &PlacedGeometry,
    nets: &[NetPins],
    params: &RouterParams,
    seed: u64,
) -> GlobalRouting {
    let route_t0 = Instant::now();
    let graph = tracer.time(ROUTE, "route.channel_graph", || {
        build_channel_graph(geometry, params.track_spacing)
    });
    let mut rng = StdRng::seed_from_u64(seed);

    let phase1_t0 = Instant::now();
    let mut alternatives: Vec<Vec<RouteTree>> = Vec::with_capacity(nets.len());
    let mut net_points: Vec<Attachments> = Vec::with_capacity(nets.len());
    for net in nets {
        let net_t0 = Instant::now();
        let (trees, points) = route_net(&graph, net, params);
        let net_t1 = Instant::now();
        tracer.record(ROUTE, "route.phase1_net", net_t0, net_t1);
        work.nets.push(NetWork {
            pins: net.points.len(),
            alternatives: trees.len(),
            ns: (net_t1 - net_t0).as_nanos() as u64,
        });
        alternatives.push(trees);
        net_points.push(points);
    }
    tracer.record(ROUTE, "route.phase1", phase1_t0, Instant::now());

    let assignment = tracer.time(ROUTE, "route.phase2", || {
        assign_routes(&graph, &alternatives, &mut rng)
            .expect("alternatives enumerated on this graph")
    });
    work.passes.push(PassWork {
        nodes: graph.len(),
        edges: graph.edges.len(),
        attempts: assignment.attempts,
        reassignments: assignment.reassignments,
        overflow_start: assignment.overflow_start,
        overflow_end: assignment.overflow,
    });

    let mut node_density = vec![0u32; graph.len()];
    let mut routes = Vec::with_capacity(nets.len());
    let mut pin_attachments = Vec::with_capacity(nets.len());
    let mut unrouted = 0;
    for (net, alts) in alternatives.iter().enumerate() {
        if alts.is_empty() {
            routes.push(None);
            pin_attachments.push(Vec::new());
            unrouted += 1;
            continue;
        }
        let tree = alts[assignment.choice[net]].clone();
        for &n in &tree.nodes {
            node_density[n] += 1;
        }
        let attach: Vec<(usize, Point)> = net_points[net]
            .iter()
            .filter_map(|cands| {
                cands
                    .iter()
                    .filter(|(n, _, _)| tree.nodes.binary_search(n).is_ok())
                    .min_by_key(|&&(_, off, _)| off)
                    .map(|&(n, _, p)| (n, p))
            })
            .collect();
        pin_attachments.push(attach);
        routes.push(Some(tree));
    }
    let routing = GlobalRouting {
        graph,
        routes,
        assignment,
        node_density,
        pin_attachments,
        reserved_tracks: params.reserved_tracks,
        unrouted,
    };
    tracer.record(ROUTE, "route.global_route", route_t0, Instant::now());
    routing
}

/// Phase 1 on one net: attach each connection point's candidates to the
/// channel graph, enumerate the alternative route trees, charge each tree
/// its pin offsets and re-rank.
fn route_net(
    graph: &twmc_route::ChannelGraph,
    net: &NetPins,
    params: &RouterParams,
) -> (Vec<RouteTree>, Attachments) {
    if graph.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let points: Attachments = net
        .points
        .iter()
        .map(|cands| {
            let mut nodes: Vec<(usize, i64, Point)> = cands
                .iter()
                .filter_map(|&p| {
                    graph
                        .attach_pin(p)
                        .map(|n| (n, graph.nodes[n].center.manhattan(p), p))
                })
                .collect();
            nodes.sort_unstable_by_key(|&(n, off, _)| (n, off));
            nodes.dedup_by_key(|&mut (n, _, _)| n);
            nodes
        })
        .filter(|nodes| !nodes.is_empty())
        .collect();
    if points.len() < 2 {
        return (Vec::new(), Vec::new());
    }
    let node_lists: Vec<Vec<usize>> = points
        .iter()
        .map(|p| p.iter().map(|&(n, _, _)| n).collect())
        .collect();
    let mut trees =
        enumerate_route_trees(graph, &node_lists, params.m_alternatives, params.per_level);
    for tree in &mut trees {
        let mut extra = 0;
        for cands in &points {
            extra += cands
                .iter()
                .filter(|(n, _, _)| tree.nodes.binary_search(n).is_ok())
                .map(|&(_, off, _)| off)
                .min()
                .unwrap_or(0);
        }
        tree.length += extra;
    }
    trees.sort_by(|a, b| a.length.cmp(&b.length).then(a.edges.cmp(&b.edges)));
    (trees, points)
}

/// Checkpoint I/O seen by a [`TimingVfs`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointIo {
    /// Checkpoint files written.
    pub writes: u64,
    /// Bytes written.
    pub bytes: u64,
    /// Time in write, fsync, rename and directory fsync.
    pub ns: u64,
}

/// The production filesystem, timed: every durable-write step of a
/// checkpoint goes through it.
#[derive(Debug, Default)]
struct TimingVfs {
    io: Mutex<CheckpointIo>,
}

impl TimingVfs {
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.io.lock().expect("timing lock is never poisoned").ns += t0.elapsed().as_nanos() as u64;
        out
    }
}

impl Vfs for TimingVfs {
    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let out = self.timed(|| RealVfs.write(path, bytes));
        let mut io = self.io.lock().expect("timing lock is never poisoned");
        io.writes += 1;
        io.bytes += bytes.len() as u64;
        out
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        RealVfs.read(path)
    }

    fn sync_file(&self, path: &Path) -> std::io::Result<()> {
        self.timed(|| RealVfs.sync_file(path))
    }

    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        self.timed(|| RealVfs.sync_dir(dir))
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.timed(|| RealVfs.rename(from, to))
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.timed(|| RealVfs.remove_file(path))
    }
}

/// Runs the flow the daemon runs for a job — `run_timberwolf_resilient`
/// checkpointing every `every` temperature steps into `dir` — and returns
/// its quality and the checkpoint I/O it did.
pub fn run_checkpointed(
    nl: &Netlist,
    config: &TimberWolfConfig,
    dir: &Path,
    every: u64,
) -> Result<(Quality, CheckpointIo), String> {
    let vfs = Arc::new(TimingVfs::default());
    let opts = RunOptions {
        checkpoint: Some(CheckpointWriter::new(dir.join("job.ckpt"), every).with_vfs(vfs.clone())),
        ..Default::default()
    };
    match run_timberwolf_resilient(nl, config, opts, &mut NullRecorder) {
        Ok(RunOutcome::Complete(result)) => {
            let io = *vfs.io.lock().expect("timing lock is never poisoned");
            Ok((Quality::of(&result), io))
        }
        Ok(RunOutcome::Interrupted(run)) => {
            Err(format!("checkpointed run stopped: {:?}", run.reason))
        }
        Err(e) => Err(format!("checkpointed run failed: {e}")),
    }
}
