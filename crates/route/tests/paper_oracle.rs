//! The library's phase-1 enumerator against the reference one on the
//! paper's nine circuits: one routing pass over a legalized stage-1
//! placement of each, every net's alternatives compared tree by tree.
//!
//! The reference is slow, so the test only runs in release builds:
//! `cargo test --release -p twmc-route --test paper_oracle`.

mod reference;

use twmc_anneal::CoolingSchedule;
use twmc_estimator::EstimatorParams;
use twmc_netlist::{paper_circuit, synthesize_profile};
use twmc_place::{legalize, place_stage1, PlaceParams};
use twmc_route::{build_channel_graph, enumerate_route_trees, PlacedGeometry, RouterParams};

/// Compares every net of one paper circuit whose index is `part` modulo
/// `parts`.
fn enumerates_like_the_reference(circuit: &str, part: usize, parts: usize) {
    let router = RouterParams::default();
    let place = PlaceParams {
        attempts_per_cell: 5,
        ..Default::default()
    };
    let profile = paper_circuit(circuit).expect("a paper circuit");
    let nl = synthesize_profile(profile, 1);
    let (mut state, _) = place_stage1(
        &nl,
        &place,
        &EstimatorParams::default(),
        &CoolingSchedule::stage1(),
        1,
    );
    let gap = router.track_spacing.round() as i64;
    legalize(&mut state, gap, 500);
    let geometry = PlacedGeometry {
        cells: state.placed_cells(),
        core: state.estimator().core().hull(state.effective_bbox()),
    };
    let graph = build_channel_graph(&geometry, router.track_spacing);
    let mut compared = 0;
    for net in nl.nets().iter().skip(part).step_by(parts) {
        // Each connection point's candidates attached to the graph,
        // as the router attaches them.
        let points: Vec<Vec<usize>> = net
            .pins
            .iter()
            .map(|np| {
                let mut nodes: Vec<usize> = np
                    .candidates()
                    .filter_map(|pid| graph.attach_pin(state.pin_position(pid.index())))
                    .collect();
                nodes.sort_unstable();
                nodes.dedup();
                nodes
            })
            .filter(|nodes| !nodes.is_empty())
            .collect();
        if points.len() < 2 {
            continue;
        }
        let (m, per_level) = (router.m_alternatives, router.per_level);
        assert_eq!(
            enumerate_route_trees(&graph, &points, m, per_level),
            reference::enumerate_route_trees(&graph, &points, m, per_level),
            "{}: net with points {points:?}",
            profile.name
        );
        compared += 1;
    }
    assert!(compared > 0, "{}: no net compared", profile.name);
}

macro_rules! paper_circuit_tests {
    ($($name:ident: $circuit:ident $part:literal / $parts:literal),*) => {$(
        #[test]
        #[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
        fn $name() {
            enumerates_like_the_reference(stringify!($circuit), $part, $parts);
        }
    )*};
}

// l1 (4309 pins) takes most of the time, so its nets are split over two
// tests that the harness runs in parallel.
paper_circuit_tests!(
    i1: i1 0 / 1,
    p1: p1 0 / 1,
    x1: x1 0 / 1,
    i2: i2 0 / 1,
    i3: i3 0 / 1,
    l1_even: l1 0 / 2,
    l1_odd: l1 1 / 2,
    d2: d2 0 / 1,
    d1: d1 0 / 1,
    d3: d3 0 / 1
);
