//! ELLPACK storage.

use crate::coo::Coo;
use powerscale_matrix::Matrix;

/// ELL: every row padded to the same width `w = max_row_nnz`, stored as
/// two dense `rows × w` arrays (values and column indices).
///
/// Regular layout (SIMD/GPU-friendly, predictable streams), at the cost
/// of padding: a single long row inflates the whole structure. The energy
/// study quantifies exactly that trade — ELL moves the most bytes on
/// skewed matrices and the fewest index bytes per useful flop on uniform
/// ones.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Ell {
    rows: usize,
    cols: usize,
    /// Row width (entries per row, padding included).
    width: usize,
    /// `rows * width` values, row-major; padding slots are 0.0.
    values: Vec<f64>,
    /// `rows * width` column indices; padding slots repeat the row's last
    /// valid column (a standard trick keeping gathers in-bounds).
    indices: Vec<u32>,
    /// Valid entries per row.
    row_nnz: Vec<u32>,
}

impl Ell {
    /// Converts from COO.
    pub fn from_coo(coo: &Coo) -> Self {
        let rows = coo.rows();
        let width = coo.max_row_nnz();
        let mut values = vec![0.0f64; rows * width];
        let mut indices = vec![0u32; rows * width];
        let mut row_nnz = vec![0u32; rows];
        for &(r, c, v) in coo.entries() {
            let r = r as usize;
            let slot = row_nnz[r] as usize;
            values[r * width + slot] = v;
            indices[r * width + slot] = c;
            row_nnz[r] += 1;
        }
        // Padding indices repeat the last valid column per row (or 0).
        for r in 0..rows {
            let n = row_nnz[r] as usize;
            let last = if n > 0 { indices[r * width + n - 1] } else { 0 };
            for s in n..width {
                indices[r * width + s] = last;
            }
        }
        Ell {
            rows,
            cols: coo.cols(),
            width,
            values,
            indices,
            row_nnz,
        }
    }

    /// Back to COO.
    pub(crate) fn to_coo(&self) -> Coo {
        let mut triplets = Vec::new();
        for r in 0..self.rows {
            for s in 0..self.row_nnz[r] as usize {
                triplets.push((
                    r,
                    self.indices[r * self.width + s] as usize,
                    self.values[r * self.width + s],
                ));
            }
        }
        Coo::from_triplets(self.rows, self.cols, &triplets)
    }

    /// Materialises densely.
    pub fn to_dense(&self) -> Matrix {
        self.to_coo().to_dense()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stored (useful) nonzeros.
    pub fn nnz(&self) -> usize {
        self.row_nnz.iter().map(|&n| n as usize).sum()
    }

    /// Padded row width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `r`'s padded value slots.
    pub(crate) fn row_values(&self, r: usize) -> &[f64] {
        &self.values[r * self.width..(r + 1) * self.width]
    }

    /// Row `r`'s padded index slots.
    pub(crate) fn row_indices(&self, r: usize) -> &[u32] {
        &self.indices[r * self.width..(r + 1) * self.width]
    }

    /// Bytes of storage, padding included.
    pub fn storage_bytes(&self) -> u64 {
        (self.rows * self.width) as u64 * 12 + self.rows as u64 * 4
    }

    /// Padding overhead: stored slots / useful nonzeros (≥ 1; 1 = no
    /// waste). Returns 1 for an empty matrix.
    pub fn padding_factor(&self) -> f64 {
        let useful = self.nnz();
        if useful == 0 {
            return 1.0;
        }
        (self.rows * self.width) as f64 / useful as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed() -> Coo {
        // Row 0 has 4 entries, rows 1-3 have one each: width 4, heavy pad.
        Coo::from_triplets(
            4,
            6,
            &[
                (0, 0, 1.0),
                (0, 2, 2.0),
                (0, 4, 3.0),
                (0, 5, 4.0),
                (1, 1, 5.0),
                (2, 3, 6.0),
                (3, 5, 7.0),
            ],
        )
    }

    #[test]
    fn layout_and_round_trip() {
        let coo = skewed();
        let ell = Ell::from_coo(&coo);
        assert_eq!(ell.width(), 4);
        assert_eq!(ell.nnz(), 7);
        assert_eq!(ell.row_nnz[0], 4);
        assert_eq!(ell.row_nnz[2], 1);
        assert_eq!(ell.to_coo(), coo);
        assert_eq!(ell.to_dense(), coo.to_dense());
    }

    #[test]
    fn padding_indices_in_bounds() {
        let ell = Ell::from_coo(&skewed());
        for r in 0..ell.rows() {
            for &c in ell.row_indices(r) {
                assert!((c as usize) < ell.cols());
            }
        }
    }

    #[test]
    fn padding_factor_reflects_skew() {
        let skew = Ell::from_coo(&skewed());
        assert!((skew.padding_factor() - 16.0 / 7.0).abs() < 1e-12);
        // A uniform matrix pads nothing.
        let uniform = Ell::from_coo(&Coo::from_triplets(
            3,
            3,
            &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)],
        ));
        assert_eq!(uniform.padding_factor(), 1.0);
    }

    #[test]
    fn empty_matrix() {
        let ell = Ell::from_coo(&Coo::from_triplets(3, 3, &[]));
        assert_eq!(ell.width(), 0);
        assert_eq!(ell.nnz(), 0);
        assert_eq!(ell.padding_factor(), 1.0);
        assert_eq!(ell.to_dense(), Matrix::zeros(3, 3));
    }
}
