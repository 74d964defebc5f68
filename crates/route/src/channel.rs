//! Channel definition: critical-region extraction (paper §4.1).
//!
//! Traditional routing channels (paper Fig. 7) may be bordered by many
//! cell edges, so no single parameter gives their width, which makes
//! congestion-driven spacing adjustments ripple. The paper's new channel
//! definition instead creates a *critical region* between **every** pair
//! of facing parallel cell edges such that (1) the edges' spans overlap,
//! bounding a rectangle of empty space whose extent is the common span,
//! and (2) no other cell edge intersects that rectangle. Unlike Chen's
//! bottlenecks, overlapping critical regions are kept, not discarded.

use twmc_geom::{boundary_edges, Point, Rect, Side, Span, TileSet};

/// A cell (or core-boundary) edge in absolute coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef {
    /// Owning cell index, or `None` for the core boundary.
    pub cell: Option<usize>,
    /// Which way the edge faces.
    pub side: Side,
    /// Fixed-axis position.
    pub coord: i64,
    /// Extent along the edge.
    pub span: Span,
}

/// Which way a channel runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelKind {
    /// Bounded left/right by two vertical edges; the channel extends
    /// vertically, its width is the horizontal separation.
    Vertical,
    /// Bounded below/above by two horizontal edges.
    Horizontal,
}

/// One critical region: a rectangle of empty space bounded by exactly two
/// facing cell (or core-boundary) edges.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalRegion {
    /// The empty-space rectangle.
    pub rect: Rect,
    /// Channel direction.
    pub kind: ChannelKind,
    /// The low-side bounding edge (left or bottom).
    pub lo_edge: EdgeRef,
    /// The high-side bounding edge (right or top).
    pub hi_edge: EdgeRef,
}

impl CriticalRegion {
    /// The separation between the two defining edges — the channel
    /// thickness/capacity dimension.
    pub fn separation(&self) -> i64 {
        match self.kind {
            ChannelKind::Vertical => self.rect.width(),
            ChannelKind::Horizontal => self.rect.height(),
        }
    }

    /// The common span of the two edges — the channel length.
    pub fn extent(&self) -> i64 {
        match self.kind {
            ChannelKind::Vertical => self.rect.height(),
            ChannelKind::Horizontal => self.rect.width(),
        }
    }
}

/// A placed circuit, as the channel definer sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedGeometry {
    /// Placed cell geometries: tile set plus absolute lower-left corner.
    pub cells: Vec<(TileSet, Point)>,
    /// The core boundary.
    pub core: Rect,
}

impl PlacedGeometry {
    /// All boundary edges in absolute coordinates: every placed cell's
    /// exposed edges plus the four inward-facing core-boundary edges.
    pub fn all_edges(&self) -> Vec<EdgeRef> {
        let mut out = Vec::new();
        for (i, (tiles, at)) in self.cells.iter().enumerate() {
            for e in boundary_edges(tiles) {
                let (coord, span) = if e.side.is_vertical() {
                    (e.coord + at.x, e.span.shift(at.y))
                } else {
                    (e.coord + at.y, e.span.shift(at.x))
                };
                out.push(EdgeRef {
                    cell: Some(i),
                    side: e.side,
                    coord,
                    span,
                });
            }
        }
        let core = self.core;
        // Core borders face inward.
        out.push(EdgeRef {
            cell: None,
            side: Side::Right,
            coord: core.lo().x,
            span: core.y_span(),
        });
        out.push(EdgeRef {
            cell: None,
            side: Side::Left,
            coord: core.hi().x,
            span: core.y_span(),
        });
        out.push(EdgeRef {
            cell: None,
            side: Side::Top,
            coord: core.lo().y,
            span: core.x_span(),
        });
        out.push(EdgeRef {
            cell: None,
            side: Side::Bottom,
            coord: core.hi().y,
            span: core.x_span(),
        });
        out
    }

    /// Whether the open interior of `rect` is free of cell area.
    pub fn is_empty_region(&self, rect: Rect) -> bool {
        for (tiles, at) in &self.cells {
            if tiles.bbox().translate(*at).overlap_area(rect) == 0 {
                continue;
            }
            for t in tiles.tiles() {
                if t.translate(*at).overlap_area(rect) > 0 {
                    return false;
                }
            }
        }
        true
    }

    /// The along-channel spans blocked by cell area inside the open strip
    /// between two facing edges. For a vertical strip the open range is in
    /// x and the returned spans are in y (and vice versa).
    fn blocking_spans(&self, open_lo: i64, open_hi: i64, vertical: bool) -> Vec<Span> {
        let mut out = Vec::new();
        for (tiles, at) in &self.cells {
            for t in tiles.tiles() {
                let t = t.translate(*at);
                let (across, along) = if vertical {
                    (t.x_span(), t.y_span())
                } else {
                    (t.y_span(), t.x_span())
                };
                // Open-interval overlap with the strip.
                if across.lo() < open_hi && across.hi() > open_lo {
                    out.push(along);
                }
            }
        }
        out
    }
}

/// Extracts every critical region of the placement.
///
/// For each pair of facing parallel edges whose spans overlap, the strip
/// between them is clipped by any intruding third cell, and one region is
/// emitted per maximal *empty* sub-span (a fully empty strip yields the
/// paper's single full-common-span region; a fully blocked pair yields
/// none). Regions of zero separation (abutting cells) or zero extent
/// (corner touching) are skipped.
pub fn critical_regions(geometry: &PlacedGeometry) -> Vec<CriticalRegion> {
    let edges = geometry.all_edges();
    let mut out = Vec::new();

    // Vertical channels: right-facing edge at x1 paired with left-facing
    // edge at x2 > x1.
    let right_facing: Vec<&EdgeRef> = edges.iter().filter(|e| e.side == Side::Right).collect();
    let left_facing: Vec<&EdgeRef> = edges.iter().filter(|e| e.side == Side::Left).collect();
    for &e1 in &right_facing {
        for &e2 in &left_facing {
            if e2.coord <= e1.coord {
                continue;
            }
            let Some(common) = e1.span.intersect(e2.span) else {
                continue;
            };
            if common.is_empty() {
                continue;
            }
            let blocked = geometry.blocking_spans(e1.coord, e2.coord, true);
            for free in twmc_geom::span_difference(common, &blocked) {
                if free.is_empty() {
                    continue;
                }
                out.push(CriticalRegion {
                    rect: Rect::from_spans(Span::new(e1.coord, e2.coord), free),
                    kind: ChannelKind::Vertical,
                    lo_edge: *e1,
                    hi_edge: *e2,
                });
            }
        }
    }

    // Horizontal channels: top-facing edge at y1 with bottom-facing at
    // y2 > y1.
    let top_facing: Vec<&EdgeRef> = edges.iter().filter(|e| e.side == Side::Top).collect();
    let bottom_facing: Vec<&EdgeRef> = edges.iter().filter(|e| e.side == Side::Bottom).collect();
    for &e1 in &top_facing {
        for &e2 in &bottom_facing {
            if e2.coord <= e1.coord {
                continue;
            }
            let Some(common) = e1.span.intersect(e2.span) else {
                continue;
            };
            if common.is_empty() {
                continue;
            }
            let blocked = geometry.blocking_spans(e1.coord, e2.coord, false);
            for free in twmc_geom::span_difference(common, &blocked) {
                if free.is_empty() {
                    continue;
                }
                out.push(CriticalRegion {
                    rect: Rect::from_spans(free, Span::new(e1.coord, e2.coord)),
                    kind: ChannelKind::Horizontal,
                    lo_edge: *e1,
                    hi_edge: *e2,
                });
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(w: i64, h: i64, x: i64, y: i64) -> (TileSet, Point) {
        (TileSet::rect(w, h), Point::new(x, y))
    }

    /// Two cells side by side inside a core.
    fn two_cell_geometry() -> PlacedGeometry {
        PlacedGeometry {
            cells: vec![cell(10, 10, -20, -5), cell(10, 10, 10, -5)],
            core: Rect::from_wh(-30, -15, 60, 30),
        }
    }

    #[test]
    fn channel_between_facing_cells() {
        let g = two_cell_geometry();
        let regions = critical_regions(&g);
        // The region between the two cells: x in [-10, 10], y in [-5, 5].
        let between = regions
            .iter()
            .find(|r| r.kind == ChannelKind::Vertical && r.rect == Rect::from_wh(-10, -5, 20, 10))
            .expect("central channel exists");
        assert_eq!(between.separation(), 20);
        assert_eq!(between.extent(), 10);
        assert_eq!(between.lo_edge.cell, Some(0));
        assert_eq!(between.hi_edge.cell, Some(1));
    }

    #[test]
    fn channels_to_core_boundary() {
        let g = two_cell_geometry();
        let regions = critical_regions(&g);
        // Cell 0's left edge to the core's left border.
        assert!(regions.iter().any(|r| {
            r.kind == ChannelKind::Vertical
                && r.lo_edge.cell.is_none()
                && r.hi_edge.cell == Some(0)
                && r.rect == Rect::from_wh(-30, -5, 10, 10)
        }));
        // Horizontal channels from cell tops to the core top.
        assert!(regions.iter().any(|r| {
            r.kind == ChannelKind::Horizontal
                && r.lo_edge.cell == Some(0)
                && r.hi_edge.cell.is_none()
        }));
    }

    #[test]
    fn blocked_pairs_are_rejected() {
        // Three cells in a row: no channel between the outer two, because
        // the middle cell intersects the region.
        let g = PlacedGeometry {
            cells: vec![
                cell(10, 10, -25, -5),
                cell(10, 10, -5, -5),
                cell(10, 10, 15, -5),
            ],
            core: Rect::from_wh(-40, -20, 80, 40),
        };
        let regions = critical_regions(&g);
        assert!(
            !regions
                .iter()
                .any(|r| { r.lo_edge.cell == Some(0) && r.hi_edge.cell == Some(2) }),
            "outer pair must be blocked by the middle cell"
        );
        // But adjacent pairs have channels.
        assert!(regions
            .iter()
            .any(|r| r.lo_edge.cell == Some(0) && r.hi_edge.cell == Some(1)));
        assert!(regions
            .iter()
            .any(|r| r.lo_edge.cell == Some(1) && r.hi_edge.cell == Some(2)));
    }

    #[test]
    fn abutting_cells_produce_no_channel() {
        let g = PlacedGeometry {
            cells: vec![cell(10, 10, 0, 0), cell(10, 10, 10, 0)],
            core: Rect::from_wh(-5, -5, 30, 20),
        };
        let regions = critical_regions(&g);
        assert!(!regions
            .iter()
            .any(|r| r.lo_edge.cell == Some(0) && r.hi_edge.cell == Some(1)));
    }

    #[test]
    fn overlapping_critical_regions_are_kept() {
        // Paper §4.1: a region created by a vertical edge pair may
        // overlap one created by a horizontal pair (Fig. 9 upper-left
        // corner); Chen's method drops one, ours keeps both. An empty
        // core corner southwest of two cells produces exactly that: the
        // corner square is bounded both by (core-left, cell-A-left) and
        // by (core-bottom, cell-B-bottom).
        let g = PlacedGeometry {
            cells: vec![
                cell(10, 10, 10, 0), // A: east, against the bottom
                cell(10, 10, 0, 10), // B: north, against the left
            ],
            core: Rect::from_wh(0, 0, 20, 20),
        };
        let regions = critical_regions(&g);
        let corner = Rect::from_wh(0, 0, 10, 10);
        let vert: Vec<_> = regions
            .iter()
            .filter(|r| r.kind == ChannelKind::Vertical && r.rect == corner)
            .collect();
        let horiz: Vec<_> = regions
            .iter()
            .filter(|r| r.kind == ChannelKind::Horizontal && r.rect == corner)
            .collect();
        assert_eq!(vert.len(), 1, "{regions:?}");
        assert_eq!(horiz.len(), 1);
        // The vertical one is core-border to cell A; the horizontal one
        // core-border to cell B.
        assert_eq!(vert[0].lo_edge.cell, None);
        assert_eq!(vert[0].hi_edge.cell, Some(0));
        assert_eq!(horiz[0].lo_edge.cell, None);
        assert_eq!(horiz[0].hi_edge.cell, Some(1));
        // And they overlap: both are kept.
        assert!(vert[0].rect.overlap_area(horiz[0].rect) > 0);
    }

    #[test]
    fn rectilinear_cell_notch_channel() {
        // An L-shaped cell with a small cell tucked near the notch.
        let l = TileSet::new(vec![Rect::from_wh(0, 0, 12, 4), Rect::from_wh(0, 4, 4, 8)]).unwrap();
        let g = PlacedGeometry {
            cells: vec![(l, Point::new(0, 0)), cell(4, 4, 8, 8)],
            core: Rect::from_wh(-2, -2, 20, 20),
        };
        let regions = critical_regions(&g);
        // Channel between the L's notch right edge (x=4) and the small
        // cell's left edge (x=8), over the common y span [8, 12].
        assert!(regions
            .iter()
            .any(|r| { r.kind == ChannelKind::Vertical && r.rect == Rect::from_wh(4, 8, 4, 4) }));
        // Horizontal channel between the L's notch top (y=4) and the
        // small cell's bottom (y=8) over x in [8, 12].
        assert!(regions
            .iter()
            .any(|r| { r.kind == ChannelKind::Horizontal && r.rect == Rect::from_wh(8, 4, 4, 4) }));
    }

    #[test]
    fn empty_region_checker() {
        let g = two_cell_geometry();
        assert!(g.is_empty_region(Rect::from_wh(-10, -5, 20, 10)));
        assert!(!g.is_empty_region(Rect::from_wh(-21, -5, 5, 5)));
    }
}
