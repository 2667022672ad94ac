//! Node positions bucketed into square cells, so that a link build visits
//! only the pairs close enough to link.
//!
//! Cells are at least [`Phy::reach`](crate::phy::Phy::reach) wide: two
//! points at most the reach apart lie in the same or adjacent cells, so the
//! 3×3 block of cells around a node holds every node it can link to or
//! interfere with (the range never exceeds the reach).

use crate::geom::Point;

/// Relative widening of a cell beyond the reach. It absorbs the rounding of
/// the cell arithmetic: with at most ~2√n cells per axis, a cell index is
/// off its exact value by far less than this share of a cell, so two points
/// at most the reach apart can never land two cells apart.
const PAD: f64 = 1.0 + 1e-9;

/// The cells of a placement, row-major, each listing its points in
/// ascending index order (flat CSR buffers).
#[derive(Debug)]
pub(crate) struct Grid {
    origin: Point,
    pitch: f64,
    cols: usize,
    rows: usize,
    /// Cell `c` holds `members[start[c]..start[c + 1]]`.
    start: Vec<usize>,
    members: Vec<usize>,
}

impl Grid {
    /// Buckets `points` (all finite, at least one) into cells at least
    /// `reach` wide, anchored at the bounding box's lower corner.
    ///
    /// Cells grow past the reach when the placement is sparse, keeping at
    /// most ~2√n cells per axis and so O(n) buffers. A bounding box too
    /// large for `f64` puts every point in one cell.
    pub(crate) fn new(points: &[Point], reach: f64) -> Grid {
        let mut lo = points[0];
        let mut hi = points[0];
        for p in points {
            lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
            hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
        }
        let (width, height) = (hi.x - lo.x, hi.y - lo.y);
        let per_axis = ((4 * points.len()) as f64).sqrt();
        let pitch = (reach * PAD).max(width.max(height) / per_axis);
        // `as` saturates (and maps the NaN of an infinite extent over an
        // infinite pitch to 0), so no count can overflow.
        let cells = |span: f64| ((span / pitch) as usize).saturating_add(1);
        let mut grid = Grid {
            origin: lo,
            pitch,
            cols: cells(width),
            rows: cells(height),
            start: Vec::new(),
            members: vec![0; points.len()],
        };
        // Counting sort by cell: scanning points in index order keeps every
        // cell's list ascending.
        let cell_of: Vec<usize> = points.iter().map(|&p| grid.cell(p)).collect();
        let mut start = vec![0usize; grid.cols * grid.rows + 1];
        for &c in &cell_of {
            start[c + 1] += 1;
        }
        for c in 0..grid.cols * grid.rows {
            start[c + 1] += start[c];
        }
        let mut next = start.clone();
        for (i, &c) in cell_of.iter().enumerate() {
            grid.members[next[c]] = i;
            next[c] += 1;
        }
        grid.start = start;
        grid
    }

    /// Column and row of `p`, clamped to the grid.
    fn column_row(&self, p: Point) -> (usize, usize) {
        let axis =
            |v: f64, lo: f64, count: usize| (((v - lo) / self.pitch) as usize).min(count - 1);
        (
            axis(p.x, self.origin.x, self.cols),
            axis(p.y, self.origin.y, self.rows),
        )
    }

    /// Row-major index of `p`'s cell.
    fn cell(&self, p: Point) -> usize {
        let (cx, cy) = self.column_row(p);
        cy * self.cols + cx
    }

    /// Replaces `out` with every point in the 3×3 block of cells around
    /// `p`'s cell (a point at `p` included), in ascending index order.
    pub(crate) fn around(&self, p: Point, out: &mut Vec<usize>) {
        out.clear();
        let (cx, cy) = self.column_row(p);
        let (left, right) = (
            cx.saturating_sub(1),
            cx.saturating_add(1).min(self.cols - 1),
        );
        for y in cy.saturating_sub(1)..=cy.saturating_add(1).min(self.rows - 1) {
            // The cells of one grid row are adjacent in `members`.
            let row = y * self.cols;
            out.extend_from_slice(
                &self.members[self.start[row + left]..self.start[row + right + 1]],
            );
        }
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_point_is_in_exactly_one_cell_in_ascending_order() {
        let points: Vec<Point> = (0..50)
            .map(|i| Point::new((i * 37 % 11) as f64 * 30.0, (i * 17 % 7) as f64 * -45.0))
            .collect();
        let grid = Grid::new(&points, 100.0);
        let mut seen = grid.members.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
        for c in 0..grid.cols * grid.rows {
            let cell = &grid.members[grid.start[c]..grid.start[c + 1]];
            assert!(cell.windows(2).all(|w| w[0] < w[1]));
            assert!(cell.iter().all(|&i| grid.cell(points[i]) == c));
        }
    }

    #[test]
    fn a_sparse_placement_keeps_the_cell_count_linear() {
        // Ten points a million reaches apart: cells widen instead of
        // multiplying into 10^12.
        let points: Vec<Point> = (0..10)
            .map(|i| Point::new(i as f64 * 1e8, -(i as f64) * 1e8))
            .collect();
        let grid = Grid::new(&points, 100.0);
        assert!(grid.cols <= 8 && grid.rows <= 8, "{grid:?}");
    }

    #[test]
    fn an_overflowing_extent_puts_every_point_in_one_cell() {
        let points = [Point::new(-f64::MAX, 0.0), Point::new(f64::MAX, 1.0)];
        let grid = Grid::new(&points, 100.0);
        assert_eq!((grid.cols, grid.rows), (1, 1));
        let mut near = Vec::new();
        grid.around(points[1], &mut near);
        assert_eq!(near, [0, 1]);
    }
}
