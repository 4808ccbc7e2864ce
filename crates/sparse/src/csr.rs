//! Compressed sparse row storage.

use crate::coo::Coo;
use powerscale_matrix::Matrix;

/// CSR: row pointers + column indices + values.
///
/// The workhorse format for row-parallel SpMV: row `i`'s entries live at
/// `indptr[i]..indptr[i+1]`, so disjoint row bands partition trivially
/// across workers.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    /// `rows + 1` offsets into `indices`/`values`.
    indptr: Vec<u32>,
    /// Column index per nonzero, row-major, ascending within a row.
    indices: Vec<u32>,
    /// Value per nonzero.
    values: Vec<f64>,
}

impl Csr {
    /// Converts from COO (already sorted row-major).
    pub fn from_coo(coo: &Coo) -> Self {
        let rows = coo.rows();
        let mut indptr = vec![0u32; rows + 1];
        for &(r, _, _) in coo.entries() {
            indptr[r as usize + 1] += 1;
        }
        for i in 0..rows {
            indptr[i + 1] += indptr[i];
        }
        Csr {
            rows,
            cols: coo.cols(),
            indptr,
            indices: coo.entries().iter().map(|&(_, c, _)| c).collect(),
            values: coo.entries().iter().map(|&(_, _, v)| v).collect(),
        }
    }

    /// Back to COO.
    pub(crate) fn to_coo(&self) -> Coo {
        let mut triplets = Vec::with_capacity(self.nnz());
        for i in 0..self.rows {
            for k in self.row_range(i) {
                triplets.push((i, self.indices[k] as usize, self.values[k]));
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

    /// The index range of row `i`'s entries.
    #[inline]
    pub(crate) fn row_range(&self, i: usize) -> core::ops::Range<usize> {
        self.indptr[i] as usize..self.indptr[i + 1] as usize
    }

    /// Column indices of row `i`.
    pub(crate) fn row_indices(&self, i: usize) -> &[u32] {
        &self.indices[self.row_range(i)]
    }

    /// Values of row `i`.
    pub(crate) fn row_values(&self, i: usize) -> &[f64] {
        &self.values[self.row_range(i)]
    }

    /// Bytes of storage: values (8/nnz) + indices (4/nnz) + indptr.
    pub fn storage_bytes(&self) -> u64 {
        self.nnz() as u64 * 12 + (self.indptr.len() as u64) * 4
    }

    /// Validates the structural invariants (sorted indices, monotone
    /// pointers, in-bounds columns). Used by property tests.
    pub fn validate(&self) -> Result<(), String> {
        if self.indptr.len() != self.rows + 1 {
            return Err("indptr length".into());
        }
        if *self.indptr.last().unwrap() as usize != self.nnz() {
            return Err("indptr tail != nnz".into());
        }
        for i in 0..self.rows {
            if self.indptr[i] > self.indptr[i + 1] {
                return Err(format!("indptr not monotone at {i}"));
            }
            let idx = self.row_indices(i);
            for w in idx.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("row {i} indices not strictly ascending"));
                }
            }
            if idx.iter().any(|&c| c as usize >= self.cols) {
                return Err(format!("row {i} column out of bounds"));
            }
        }
        Ok(())
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
        let csr = Csr::from_coo(&sample());
        csr.validate().unwrap();
        assert_eq!(csr.nnz(), 5);
        assert_eq!(csr.row_indices(0), &[1, 3]);
        assert_eq!(csr.row_values(0), &[2.0, 3.0]);
        assert!(csr.row_indices(1).is_empty());
        assert_eq!(csr.row_indices(2), &[0, 2, 3]);
    }

    #[test]
    fn round_trips() {
        let coo = sample();
        let csr = Csr::from_coo(&coo);
        assert_eq!(csr.to_coo(), coo);
        assert_eq!(csr.to_dense(), coo.to_dense());
    }

    #[test]
    fn storage_accounting() {
        let csr = Csr::from_coo(&sample());
        assert_eq!(csr.storage_bytes(), 5 * 12 + 4 * 4);
    }

    #[test]
    fn empty_rows_handled() {
        let coo = Coo::from_triplets(5, 5, &[(4, 4, 1.0)]);
        let csr = Csr::from_coo(&coo);
        csr.validate().unwrap();
        for i in 0..4 {
            assert!(csr.row_indices(i).is_empty());
        }
        assert_eq!(csr.row_values(4), &[1.0]);
    }
}
