//! Coordinate-list storage.

use powerscale_matrix::Matrix;

/// A sparse matrix as sorted, deduplicated `(row, col, value)` triplets.
///
/// COO is the interchange format: every other format converts through it.
/// Triplets are kept sorted row-major; duplicates are summed on
/// construction (the usual assembly semantics).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Coo {
    rows: usize,
    cols: usize,
    /// Sorted row-major: `(row, col, value)`.
    entries: Vec<(u32, u32, f64)>,
}

impl Coo {
    /// Builds from triplets; sorts row-major, sums duplicates, drops
    /// explicit zeros.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub(crate) fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Self {
        let mut entries: Vec<(u32, u32, f64)> = triplets
            .iter()
            .map(|&(r, c, v)| {
                assert!(
                    r < rows && c < cols,
                    "triplet ({r},{c}) out of {rows}x{cols}"
                );
                (r as u32, c as u32, v)
            })
            .collect();
        entries.sort_by_key(|&(r, c, _)| (r, c));
        // Sum duplicates, drop zeros.
        let mut dedup: Vec<(u32, u32, f64)> = Vec::with_capacity(entries.len());
        for (r, c, v) in entries {
            match dedup.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => dedup.push((r, c, v)),
            }
        }
        dedup.retain(|&(_, _, v)| v != 0.0);
        Coo {
            rows,
            cols,
            entries: dedup,
        }
    }

    /// Materialises as a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for &(r, c, v) in &self.entries {
            m.set(r as usize, c as usize, v);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The sorted triplets.
    pub fn entries(&self) -> &[(u32, u32, f64)] {
        &self.entries
    }

    /// Fill fraction `nnz / (rows*cols)`; 0 for an empty shape.
    pub fn density(&self) -> f64 {
        let cells = self.rows * self.cols;
        if cells == 0 {
            0.0
        } else {
            self.nnz() as f64 / cells as f64
        }
    }

    /// Length of the longest row (ELL's padding width).
    pub(crate) fn max_row_nnz(&self) -> usize {
        let mut counts = vec![0usize; self.rows];
        for &(r, _, _) in &self.entries {
            counts[r as usize] += 1;
        }
        counts.into_iter().max().unwrap_or(0)
    }

    /// Bytes of storage: 8 per value + 4 + 4 per index pair.
    pub fn storage_bytes(&self) -> u64 {
        self.nnz() as u64 * 16
    }
}

#[cfg(test)]
impl Coo {
    /// Extracts the nonzeros of a dense matrix.
    pub(crate) fn from_dense(m: &Matrix) -> Self {
        let mut triplets = Vec::new();
        for i in 0..m.rows() {
            for (j, &v) in m.row(i).iter().enumerate() {
                if v != 0.0 {
                    triplets.push((i, j, v));
                }
            }
        }
        Coo::from_triplets(m.rows(), m.cols(), &triplets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_sorted_and_summed() {
        let c = Coo::from_triplets(3, 3, &[(2, 1, 5.0), (0, 0, 1.0), (2, 1, 2.0), (1, 2, 0.0)]);
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.entries(), &[(0, 0, 1.0), (2, 1, 7.0)]);
    }

    #[test]
    fn dense_round_trip() {
        let m = Matrix::from_fn(4, 5, |i, j| {
            if (i + j) % 3 == 0 {
                (i * 5 + j) as f64 + 1.0
            } else {
                0.0
            }
        });
        let coo = Coo::from_dense(&m);
        assert_eq!(coo.to_dense(), m);
    }

    #[test]
    fn stats() {
        let c = Coo::from_triplets(4, 4, &[(0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0), (3, 3, 1.0)]);
        assert_eq!(c.nnz(), 4);
        assert!((c.density() - 0.25).abs() < 1e-12);
        assert_eq!(c.max_row_nnz(), 3);
        assert_eq!(c.storage_bytes(), 64);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn oob_rejected() {
        let _ = Coo::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }

    #[test]
    fn empty_matrix() {
        let c = Coo::from_triplets(0, 0, &[]);
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.density(), 0.0);
        assert_eq!(c.max_row_nnz(), 0);
    }
}
