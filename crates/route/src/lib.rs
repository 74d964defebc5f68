//! Channel definition and global routing of TimberWolfMC (paper §4.1–4.2).
//!
//! * **Channel definition** ([`critical_regions`]): every pair of facing
//!   parallel cell/core edges bounding an empty rectangle over their
//!   common span defines a *critical region* — a channel bordered by
//!   exactly two edges, so a single density parameter gives its width
//!   (`w = (d+2)·t_s`, eq. 22). Overlapping regions are kept (unlike
//!   Chen's bottlenecks).
//! * **Channel graph** ([`ChannelGraph`]): regions are nodes, touching
//!   regions are joined by edges with track capacities; pins project
//!   perpendicularly onto their adjacent channel.
//! * **Global routing** ([`global_route`]): phase 1 enumerates the
//!   ~M-shortest route trees per net (Lawler/Yen deviations for two-pin
//!   nets, a Prim-guided recursive generalization with
//!   electrically-equivalent pins for n-pin nets); phase 2 selects one
//!   route per net by random interchange, minimizing total length
//!   subject to the capacity constraints — avoiding net-ordering
//!   dependence.
//!
//! # Examples
//!
//! ```
//! use twmc_geom::{Point, Rect, TileSet};
//! use twmc_route::{global_route, NetPins, PlacedGeometry, RouterParams};
//!
//! let geometry = PlacedGeometry {
//!     cells: vec![
//!         (TileSet::rect(10, 10), Point::new(-15, -5)),
//!         (TileSet::rect(10, 10), Point::new(5, -5)),
//!     ],
//!     core: Rect::from_wh(-20, -10, 40, 20),
//! };
//! let nets = vec![NetPins {
//!     points: vec![vec![Point::new(-5, 0)], vec![Point::new(5, 0)]],
//! }];
//! let routing = global_route(&geometry, &nets, &RouterParams::default(), 42);
//! assert_eq!(routing.unrouted, 0);
//! assert_eq!(routing.overflow(), 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod assign;
mod channel;
mod graph;
mod mpaths;
mod router;
mod steiner;

pub use assign::{assign_routes, Assignment, StaleRouteError};
pub use channel::{critical_regions, ChannelKind, CriticalRegion, EdgeRef, PlacedGeometry};
pub use graph::{build_channel_graph, ChannelGraph, ChannelNode, GraphEdge};
pub use mpaths::{dijkstra, k_shortest_from_set, k_shortest_paths, Path};
pub use router::{
    global_route, global_route_pass, global_route_with, GlobalRouting, NetPins, Phase1,
    RouterParams,
};
pub use steiner::{enumerate_route_trees, RouteTree};
