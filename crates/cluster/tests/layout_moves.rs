//! Property tier for the fractal layout's two data-movement primitives.
//!
//! [`Layout::col_at`] *defines* which global column a rank's local panel
//! column holds; [`Layout::take`] and [`Layout::place`] are what actually
//! moves panels (strided runs of row slices). For random frame widths,
//! group sizes, ranks, frame counts and sub-slices — including the empty
//! slices of groups wider than a frame — they must agree with the map
//! element for element and invert each other.

use powerscale_cluster::Layout;
use powerscale_matrix::Matrix;
use proptest::prelude::*;

/// Distinct value per element, so a misplaced column cannot go unnoticed.
fn numbered(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| (r * cols + c) as f64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn take_and_place_agree_with_col_at_and_round_trip(
        frame in 1usize..24,
        g in 1usize..32,
        pick in 0usize..1024,
        frames in 1usize..5,
        rows in 1usize..6,
        cut in (0usize..1024, 0usize..1024),
    ) {
        let layout = Layout { frame };
        let idx = pick % g;
        let full = (0, frame);
        let own = layout.slice(g, idx);
        let sw = own.1 - own.0;
        let m = frames * frame;
        prop_assert_eq!(layout.width(m, g, idx), frames * sw);
        let whole = numbered(rows, m);

        // A rank's panel out of the full matrix is the `col_at` map.
        let panel = layout.take(&whole, full, own);
        prop_assert_eq!(panel.shape(), (rows, frames * sw));
        for r in 0..rows {
            for k in 0..frames * sw {
                prop_assert_eq!(panel.get(r, k), whole.get(r, layout.col_at(g, idx, k)));
            }
        }

        // A sub-slice of the panel (possibly empty, possibly all of it):
        // frame `f`'s columns `sub` are global columns `f·frame + sub`.
        let (x, y) = (own.0 + cut.0 % (sw + 1), own.0 + cut.1 % (sw + 1));
        let sub = (x.min(y), x.max(y));
        let ow = sub.1 - sub.0;
        let blk = layout.take(&panel, own, sub);
        prop_assert_eq!(blk.shape(), (rows, frames * ow));
        for r in 0..rows {
            for f in 0..frames {
                for c in 0..ow {
                    prop_assert_eq!(blk.get(r, f * ow + c), whole.get(r, f * frame + sub.0 + c));
                }
            }
        }
        // ... and taken straight from the full matrix it is the same block.
        prop_assert_eq!(&layout.take(&whole, full, sub), &blk);

        // Place inverts take: the block lands on exactly its columns of a
        // blank panel, and nowhere else.
        let mut back = Matrix::zeros(rows, frames * sw);
        layout.place(&mut back, own, sub, &blk);
        for r in 0..rows {
            for k in 0..frames * sw {
                let inside = (sub.0..sub.1).contains(&(own.0 + k % sw));
                let want = if inside { panel.get(r, k) } else { 0.0 };
                prop_assert_eq!(back.get(r, k), want);
            }
        }

        // Every rank's panel placed back rebuilds the full matrix.
        let mut rebuilt = Matrix::zeros(rows, m);
        for i in 0..g {
            let s = layout.slice(g, i);
            layout.place(&mut rebuilt, full, s, &layout.take(&whole, full, s));
        }
        prop_assert_eq!(&rebuilt, &whole);
    }
}
