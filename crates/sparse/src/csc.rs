//! Compressed sparse column storage.

use crate::coo::Coo;
use powerscale_matrix::Matrix;

/// CSC: column pointers + row indices + values.
///
/// The transpose-friendly format. Its SpMV scatters into `y` along
/// columns, which serialises naive parallelisation — the property the
/// energy study exposes.
#[derive(Debug, Clone, PartialEq)]
pub struct Csc {
    rows: usize,
    cols: usize,
    /// `cols + 1` offsets into `indices`/`values`.
    indptr: Vec<u32>,
    /// Row index per nonzero, column-major, ascending within a column.
    indices: Vec<u32>,
    /// Value per nonzero.
    values: Vec<f64>,
}

impl Csc {
    /// Converts from COO.
    pub fn from_coo(coo: &Coo) -> Self {
        let cols = coo.cols();
        // Re-sort column-major.
        let mut entries: Vec<(u32, u32, f64)> = coo.entries().to_vec();
        entries.sort_by_key(|&(r, c, _)| (c, r));
        let mut indptr = vec![0u32; cols + 1];
        for &(_, c, _) in &entries {
            indptr[c as usize + 1] += 1;
        }
        for j in 0..cols {
            indptr[j + 1] += indptr[j];
        }
        Csc {
            rows: coo.rows(),
            cols,
            indptr,
            indices: entries.iter().map(|&(r, _, _)| r).collect(),
            values: entries.iter().map(|&(_, _, v)| v).collect(),
        }
    }

    /// Back to COO.
    pub(crate) fn to_coo(&self) -> Coo {
        let mut triplets = Vec::with_capacity(self.nnz());
        for j in 0..self.cols {
            for k in self.col_range(j) {
                triplets.push((self.indices[k] as usize, j, self.values[k]));
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

    /// Stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The index range of column `j`'s entries.
    #[inline]
    pub(crate) fn col_range(&self, j: usize) -> core::ops::Range<usize> {
        self.indptr[j] as usize..self.indptr[j + 1] as usize
    }

    /// Row indices of column `j`.
    pub(crate) fn col_indices(&self, j: usize) -> &[u32] {
        &self.indices[self.col_range(j)]
    }

    /// Values of column `j`.
    pub(crate) fn col_values(&self, j: usize) -> &[f64] {
        &self.values[self.col_range(j)]
    }

    /// Bytes of storage.
    pub fn storage_bytes(&self) -> u64 {
        self.nnz() as u64 * 12 + (self.indptr.len() as u64) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Coo {
        Coo::from_triplets(
            3,
            4,
            &[
                (0, 1, 2.0),
                (0, 3, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
                (2, 3, 6.0),
            ],
        )
    }

    #[test]
    fn conversion_structure() {
        let csc = Csc::from_coo(&sample());
        assert_eq!(csc.nnz(), 5);
        assert_eq!(csc.col_indices(0), &[2]);
        assert_eq!(csc.col_values(1), &[2.0]);
        assert_eq!(csc.col_indices(3), &[0, 2]);
        assert_eq!(csc.col_values(3), &[3.0, 6.0]);
    }

    #[test]
    fn round_trips() {
        let coo = sample();
        let csc = Csc::from_coo(&coo);
        assert_eq!(csc.to_coo(), coo);
        assert_eq!(csc.to_dense(), coo.to_dense());
    }

    #[test]
    fn csr_csc_transpose_duality() {
        // CSC of A has the same layout as CSR of Aᵀ.
        let coo = sample();
        let csc = Csc::from_coo(&coo);
        let dense_t = coo.to_dense().transposed();
        let csr_t = crate::Csr::from_coo(&Coo::from_dense(&dense_t));
        assert_eq!(csc.nnz(), csr_t.nnz());
        for j in 0..csc.cols() {
            assert_eq!(csc.col_indices(j), csr_t.row_indices(j));
            assert_eq!(csc.col_values(j), csr_t.row_values(j));
        }
    }
}
