//! Owned, cache-line-aligned dense matrices.

use crate::view::{MatrixView, MatrixViewMut};
use crate::{DimResult, ALIGN};
use std::alloc::{self, Layout};
use std::fmt;

/// An owned, row-major, 64-byte-aligned dense matrix of `f64`.
///
/// The backing buffer is allocated with cache-line alignment (see
/// `ALIGN`) so that SIMD-friendly packing kernels and the cache
/// simulator's line-level accounting see a deterministic layout. The leading
/// dimension of an owned matrix always equals its column count (rows are
/// dense); strided sub-blocks are expressed with [`MatrixView`].
pub struct Matrix {
    buf: AlignedBuf,
    rows: usize,
    cols: usize,
}

/// A 64-byte-aligned heap allocation of `f64`s.
///
/// `Vec<f64>` only guarantees 8-byte alignment, which is why this hand-rolled
/// buffer exists. It is an internal detail of [`Matrix`].
struct AlignedBuf {
    ptr: *mut f64,
    len: usize,
}

// SAFETY: AlignedBuf uniquely owns its allocation; f64 is Send + Sync.
unsafe impl Send for AlignedBuf {}
unsafe impl Sync for AlignedBuf {}

impl AlignedBuf {
    fn zeroed(len: usize) -> Self {
        if len == 0 {
            return AlignedBuf {
                ptr: core::ptr::NonNull::<f64>::dangling().as_ptr(),
                len: 0,
            };
        }
        let layout = Layout::from_size_align(len * 8, ALIGN).expect("matrix layout");
        // SAFETY: layout has non-zero size (len > 0) and valid alignment.
        let raw = unsafe { alloc::alloc_zeroed(layout) } as *mut f64;
        if raw.is_null() {
            alloc::handle_alloc_error(layout);
        }
        AlignedBuf { ptr: raw, len }
    }

    fn as_slice(&self) -> &[f64] {
        // SAFETY: ptr is valid for len f64s (or dangling with len == 0).
        unsafe { core::slice::from_raw_parts(self.ptr, self.len) }
    }

    fn as_mut_slice(&mut self) -> &mut [f64] {
        // SAFETY: as above, plus &mut self gives unique access.
        unsafe { core::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        if self.len != 0 {
            let layout = Layout::from_size_align(self.len * 8, ALIGN).expect("matrix layout");
            // SAFETY: allocated with this exact layout in `zeroed`.
            unsafe { alloc::dealloc(self.ptr as *mut u8, layout) };
        }
    }
}

impl Clone for AlignedBuf {
    fn clone(&self) -> Self {
        let mut new = AlignedBuf::zeroed(self.len);
        new.as_mut_slice().copy_from_slice(self.as_slice());
        new
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            buf: AlignedBuf::zeroed(rows * cols),
            rows,
            cols,
        }
    }

    /// Creates a `rows × cols` matrix with every element set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        m.as_mut_slice().fill(value);
        m
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Creates a matrix by handing each row, as a slice, to `fill(row, out)`.
    /// Rows arrive zeroed in increasing order; whatever `fill` leaves
    /// unwritten stays zero. The row-at-a-time counterpart of
    /// [`Matrix::from_fn`] for callers that copy or combine whole runs
    /// (`copy_from_slice`, zipped iterators) instead of indexing elements.
    pub fn from_row_fn(rows: usize, cols: usize, mut fill: impl FnMut(usize, &mut [f64])) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        if cols > 0 {
            for (i, out) in m.as_mut_slice().chunks_exact_mut(cols).enumerate() {
                fill(i, out);
            }
        }
        m
    }

    /// Creates a matrix from a row-major slice of exactly `rows * cols`
    /// elements.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_rows: data length {} != {rows}x{cols}",
            data.len()
        );
        let mut m = Matrix::zeros(rows, cols);
        m.as_mut_slice().copy_from_slice(data);
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Reads the element at `(row, col)`.
    ///
    /// # Panics
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.buf.as_slice()[row * self.cols + col]
    }

    /// Writes the element at `(row, col)`.
    ///
    /// # Panics
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        let cols = self.cols;
        self.buf.as_mut_slice()[row * cols + col] = value;
    }

    /// The whole backing buffer as a row-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        self.buf.as_slice()
    }

    /// The whole backing buffer as a mutable row-major slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.buf.as_mut_slice()
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row out of bounds");
        &self.buf.as_slice()[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a contiguous mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row out of bounds");
        let cols = self.cols;
        &mut self.buf.as_mut_slice()[i * cols..(i + 1) * cols]
    }

    /// An immutable view covering the whole matrix.
    #[inline]
    pub fn view(&self) -> MatrixView<'_> {
        // SAFETY: pointer/shape/ld describe exactly this matrix's buffer.
        unsafe { MatrixView::from_raw(self.buf.ptr, self.rows, self.cols, self.cols) }
    }

    /// A mutable view covering the whole matrix.
    #[inline]
    pub fn view_mut(&mut self) -> MatrixViewMut<'_> {
        // SAFETY: unique access via &mut self.
        unsafe { MatrixViewMut::from_raw(self.buf.ptr, self.rows, self.cols, self.cols) }
    }

    /// An immutable view of the `shape.0 × shape.1` block whose top-left
    /// corner is at `origin`.
    pub fn sub_view(
        &self,
        origin: (usize, usize),
        shape: (usize, usize),
    ) -> DimResult<MatrixView<'_>> {
        self.view().sub_view(origin, shape)
    }

    /// A mutable view of the `shape.0 × shape.1` block whose top-left corner
    /// is at `origin`.
    pub fn sub_view_mut(
        &mut self,
        origin: (usize, usize),
        shape: (usize, usize),
    ) -> DimResult<MatrixViewMut<'_>> {
        self.view_mut().into_sub_view(origin, shape)
    }

    /// Returns the transpose as a new matrix.
    pub fn transposed(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Checks elementwise equality within absolute tolerance `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .as_slice()
                .iter()
                .zip(other.as_slice())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// `true` for a 0-element matrix.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix {
            buf: self.buf.clone(),
            rows: self.rows,
            cols: self.cols,
        }
    }
}

impl PartialEq for Matrix {
    fn eq(&self, other: &Self) -> bool {
        self.shape() == other.shape() && self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows(), self.cols())?;
        let max = 8usize;
        for i in 0..self.rows().min(max) {
            write!(f, "  ")?;
            for j in 0..self.cols().min(max) {
                write!(f, "{:10.4} ", self.get(i, j))?;
            }
            if self.cols() > max {
                write!(f, "…")?;
            }
            writeln!(f)?;
        }
        if self.rows() > max {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(feature = "serde")]
mod serde_impl {
    use super::Matrix;
    use serde::de::Error;
    use serde::{Deserialize, Serialize, Value};

    #[derive(Serialize, Deserialize)]
    struct Repr {
        rows: usize,
        cols: usize,
        data: Vec<f64>,
    }

    impl Serialize for Matrix {
        fn to_value(&self) -> Value {
            Repr {
                rows: self.rows(),
                cols: self.cols(),
                data: self.as_slice().to_vec(),
            }
            .to_value()
        }
    }

    impl Deserialize for Matrix {
        fn from_value(v: &Value) -> Result<Self, Error> {
            let repr = Repr::from_value(v)?;
            if repr.data.len() != repr.rows * repr.cols {
                return Err(Error::custom(format!(
                    "matrix payload has {} elements, expected {}x{}",
                    repr.data.len(),
                    repr.rows,
                    repr.cols
                )));
            }
            Ok(Matrix::from_rows(repr.rows, repr.cols, &repr.data))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DimError;

    impl Matrix {
        /// Validates that `self * rhs` is well-formed and returns the output
        /// shape.
        fn product_shape(&self, rhs: &Matrix) -> DimResult<(usize, usize)> {
            if self.cols != rhs.rows {
                return Err(DimError::Inner {
                    lhs_cols: self.cols,
                    rhs_rows: rhs.rows,
                });
            }
            Ok((self.rows, rhs.cols))
        }
    }

    #[test]
    fn zeros_are_zero_and_aligned() {
        let m = Matrix::zeros(5, 7);
        assert_eq!(m.shape(), (5, 7));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(m.as_slice().as_ptr() as usize % ALIGN, 0);
    }

    #[test]
    fn empty_matrix_ok() {
        let m = Matrix::zeros(0, 0);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        let _ = m.clone();
    }

    #[test]
    fn identity_diagonal() {
        let m = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_fn_and_get_set() {
        let mut m = Matrix::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.get(2, 1), 21.0);
        m.set(2, 1, -1.0);
        assert_eq!(m.get(2, 1), -1.0);
    }

    #[test]
    fn from_rows_round_trip() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let m = Matrix::from_rows(2, 3, &data);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_row_fn_fills_rows_and_leaves_the_rest_zero() {
        let m = Matrix::from_row_fn(3, 4, |i, out| out[..2].fill(i as f64 + 1.0));
        assert_eq!(m.row(0), &[1.0, 1.0, 0.0, 0.0]);
        assert_eq!(m.row(2), &[3.0, 3.0, 0.0, 0.0]);
        // Zero-width rows are never handed out.
        assert_eq!(
            Matrix::from_row_fn(3, 0, |_, _| unreachable!()).shape(),
            (3, 0)
        );
    }

    #[test]
    fn row_mut_writes_one_row() {
        let mut m = Matrix::zeros(2, 3);
        m.row_mut(1).copy_from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(m.row(0), &[0.0; 3]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "from_rows")]
    fn from_rows_wrong_len_panics() {
        let _ = Matrix::from_rows(2, 3, &[1.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = Matrix::filled(2, 2, 3.0);
        let b = a.clone();
        a.set(0, 0, 9.0);
        assert_eq!(b.get(0, 0), 3.0);
    }

    #[test]
    fn product_shape_checks_inner() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 5);
        assert_eq!(a.product_shape(&b).unwrap(), (2, 5));
        let c = Matrix::zeros(4, 5);
        assert!(matches!(a.product_shape(&c), Err(DimError::Inner { .. })));
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Matrix::filled(2, 2, 1.0);
        let mut b = a.clone();
        b.set(1, 1, 1.0 + 1e-12);
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&b, 1e-15));
    }

    #[test]
    fn debug_clips_large_matrices() {
        let m = Matrix::zeros(20, 20);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 20x20"));
        assert!(s.contains('…'));
    }

    #[cfg(feature = "serde")]
    #[test]
    fn serde_round_trip() {
        let m = Matrix::from_fn(3, 4, |i, j| i as f64 - j as f64);
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[cfg(feature = "serde")]
    #[test]
    fn serde_rejects_bad_len() {
        let bad = r#"{"rows":2,"cols":2,"data":[1.0]}"#;
        assert!(serde_json::from_str::<Matrix>(bad).is_err());
    }
}
