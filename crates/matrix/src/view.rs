//! Borrowed, strided matrix views.
//!
//! Views are the unit of work for every algorithm in the workspace: the
//! blocked GEMM packs panels out of views, and the Strassen/CAPS recursions
//! split matrices into quadrant views so no sub-matrix is ever copied just to
//! be addressed. Views are *strided*: element `(i, j)` lives at offset
//! `i * ld + j` from the view origin, where `ld` is the leading dimension of
//! the parent allocation.
//!
//! Mutable views of **disjoint** regions of one matrix may be sent to
//! different worker threads (they are `Send`); the splitting constructors
//! ([`MatrixViewMut::split_rows_at`], [`MatrixViewMut::quadrants`], …) are the
//! only safe way to obtain such disjoint views.

use crate::{DimError, DimResult};
use core::fmt;
use core::marker::PhantomData;

/// An immutable strided view of a dense `f64` matrix.
#[derive(Clone, Copy)]
pub struct MatrixView<'a> {
    ptr: *const f64,
    rows: usize,
    cols: usize,
    ld: usize,
    _marker: PhantomData<&'a f64>,
}

/// A mutable strided view of a dense `f64` matrix.
pub struct MatrixViewMut<'a> {
    ptr: *mut f64,
    rows: usize,
    cols: usize,
    ld: usize,
    _marker: PhantomData<&'a mut f64>,
}

// SAFETY: a MatrixView is a shared borrow of f64 data; f64: Sync.
unsafe impl Send for MatrixView<'_> {}
unsafe impl Sync for MatrixView<'_> {}
// SAFETY: a MatrixViewMut is an exclusive borrow of a disjoint region;
// exclusive &mut-like access may move between threads.
unsafe impl Send for MatrixViewMut<'_> {}
unsafe impl Sync for MatrixViewMut<'_> {}

/// The four quadrant views of a matrix with even dimensions.
pub struct Quadrants<'a> {
    /// Top-left block.
    pub a11: MatrixView<'a>,
    /// Top-right block.
    pub a12: MatrixView<'a>,
    /// Bottom-left block.
    pub a21: MatrixView<'a>,
    /// Bottom-right block.
    pub a22: MatrixView<'a>,
}

/// The four disjoint mutable quadrant views of a matrix with even dimensions.
pub struct QuadrantsMut<'a> {
    /// Top-left block.
    pub a11: MatrixViewMut<'a>,
    /// Top-right block.
    pub a12: MatrixViewMut<'a>,
    /// Bottom-left block.
    pub a21: MatrixViewMut<'a>,
    /// Bottom-right block.
    pub a22: MatrixViewMut<'a>,
}

impl<'a> MatrixView<'a> {
    /// Builds a view from raw parts.
    ///
    /// # Safety
    /// `ptr` must point to an allocation valid for reads of
    /// `(rows - 1) * ld + cols` consecutive `f64`s for lifetime `'a`, with
    /// `cols <= ld` (or `rows == 0`), and no mutable alias may exist.
    pub unsafe fn from_raw(ptr: *const f64, rows: usize, cols: usize, ld: usize) -> Self {
        debug_assert!(cols <= ld || rows == 0);
        MatrixView {
            ptr,
            rows,
            cols,
            ld,
            _marker: PhantomData,
        }
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

    /// Leading dimension (row stride) of the parent allocation.
    #[inline]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when the view is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Reads element `(i, j)`.
    ///
    /// # Panics
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "view index out of bounds");
        // SAFETY: in-bounds per the constructor contract + the assert.
        unsafe { *self.ptr.add(i * self.ld + j) }
    }

    /// Row `i` as a contiguous slice of length `cols`.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f64] {
        assert!(i < self.rows, "row out of bounds");
        // SAFETY: row i spans [i*ld, i*ld + cols) which is in-bounds.
        unsafe { core::slice::from_raw_parts(self.ptr.add(i * self.ld), self.cols) }
    }

    /// The raw base pointer (for kernel code).
    #[inline]
    pub fn as_ptr(&self) -> *const f64 {
        self.ptr
    }

    /// A sub-view with top-left corner `origin` and shape `shape`.
    pub fn sub_view(
        &self,
        origin: (usize, usize),
        shape: (usize, usize),
    ) -> DimResult<MatrixView<'a>> {
        let (r0, c0) = origin;
        let (nr, nc) = shape;
        if r0 + nr > self.rows || c0 + nc > self.cols {
            return Err(DimError::OutOfBounds {
                origin,
                shape,
                parent: self.shape(),
            });
        }
        // SAFETY: the checked bounds keep every element of the sub-view
        // inside the parent view's valid region.
        Ok(unsafe { MatrixView::from_raw(self.ptr.add(r0 * self.ld + c0), nr, nc, self.ld) })
    }

    /// Splits into `(top, bottom)` at row `r`.
    pub fn split_rows_at(&self, r: usize) -> DimResult<(MatrixView<'a>, MatrixView<'a>)> {
        if r > self.rows {
            return Err(DimError::OutOfBounds {
                origin: (r, 0),
                shape: (0, 0),
                parent: self.shape(),
            });
        }
        Ok((
            self.sub_view((0, 0), (r, self.cols))?,
            self.sub_view((r, 0), (self.rows - r, self.cols))?,
        ))
    }

    /// Splits into `(left, right)` at column `c`.
    pub fn split_cols_at(&self, c: usize) -> DimResult<(MatrixView<'a>, MatrixView<'a>)> {
        if c > self.cols {
            return Err(DimError::OutOfBounds {
                origin: (0, c),
                shape: (0, 0),
                parent: self.shape(),
            });
        }
        Ok((
            self.sub_view((0, 0), (self.rows, c))?,
            self.sub_view((0, c), (self.rows, self.cols - c))?,
        ))
    }

    /// Splits a square, even-dimensioned view into its four quadrants.
    pub fn quadrants(&self) -> DimResult<Quadrants<'a>> {
        let (h, w) = self.even_halves("quadrants")?;
        Ok(Quadrants {
            a11: self.sub_view((0, 0), (h, w))?,
            a12: self.sub_view((0, w), (h, w))?,
            a21: self.sub_view((h, 0), (h, w))?,
            a22: self.sub_view((h, w), (h, w))?,
        })
    }

    fn even_halves(&self, op: &'static str) -> DimResult<(usize, usize)> {
        if !self.rows.is_multiple_of(2) {
            return Err(DimError::NotDivisible {
                op,
                dim: self.rows,
                by: 2,
            });
        }
        if !self.cols.is_multiple_of(2) {
            return Err(DimError::NotDivisible {
                op,
                dim: self.cols,
                by: 2,
            });
        }
        Ok((self.rows / 2, self.cols / 2))
    }

    /// Copies the view into a freshly allocated [`crate::Matrix`].
    pub fn to_matrix(&self) -> crate::Matrix {
        let mut out = crate::Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            out.as_mut_slice()[i * self.cols..(i + 1) * self.cols].copy_from_slice(self.row(i));
        }
        out
    }
}

impl<'a> MatrixViewMut<'a> {
    /// Builds a mutable view from raw parts.
    ///
    /// # Safety
    /// `ptr` must point to an allocation valid for reads and writes of
    /// `(rows - 1) * ld + cols` consecutive `f64`s for lifetime `'a`, with
    /// `cols <= ld` (or `rows == 0`), and the region addressed by the view
    /// (each row `i` spanning `[i*ld, i*ld + cols)`) must not be aliased by
    /// any other live reference or view.
    pub unsafe fn from_raw(ptr: *mut f64, rows: usize, cols: usize, ld: usize) -> Self {
        debug_assert!(cols <= ld || rows == 0);
        MatrixViewMut {
            ptr,
            rows,
            cols,
            ld,
            _marker: PhantomData,
        }
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

    /// Leading dimension (row stride) of the parent allocation.
    #[inline]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Reads element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.as_view().get(i, j)
    }

    /// Writes element `(i, j)`.
    ///
    /// # Panics
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.rows && j < self.cols, "view index out of bounds");
        // SAFETY: in-bounds per constructor contract + assert; we hold
        // exclusive access.
        unsafe { *self.ptr.add(i * self.ld + j) = v };
    }

    /// Row `i` as a mutable contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row out of bounds");
        // SAFETY: in-bounds; exclusive via &mut self.
        unsafe { core::slice::from_raw_parts_mut(self.ptr.add(i * self.ld), self.cols) }
    }

    /// Row `i` as an immutable contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row out of bounds");
        // SAFETY: in-bounds; shared via &self.
        unsafe { core::slice::from_raw_parts(self.ptr.add(i * self.ld), self.cols) }
    }

    /// The raw base pointer (for kernel code).
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut f64 {
        self.ptr
    }

    /// Reborrows as an immutable view with a shorter lifetime.
    #[inline]
    pub fn as_view(&self) -> MatrixView<'_> {
        // SAFETY: same region, shared borrow tied to &self.
        unsafe { MatrixView::from_raw(self.ptr, self.rows, self.cols, self.ld) }
    }

    /// Reborrows mutably with a shorter lifetime (like `&mut *x`).
    #[inline]
    pub fn reborrow(&mut self) -> MatrixViewMut<'_> {
        // SAFETY: exclusive reborrow tied to &mut self.
        unsafe { MatrixViewMut::from_raw(self.ptr, self.rows, self.cols, self.ld) }
    }

    /// Consumes the view, returning the sub-view at `origin` with `shape`.
    pub fn into_sub_view(
        self,
        origin: (usize, usize),
        shape: (usize, usize),
    ) -> DimResult<MatrixViewMut<'a>> {
        let (r0, c0) = origin;
        let (nr, nc) = shape;
        if r0 + nr > self.rows || c0 + nc > self.cols {
            return Err(DimError::OutOfBounds {
                origin,
                shape,
                parent: self.shape(),
            });
        }
        // SAFETY: checked in-bounds; `self` is consumed so no alias remains.
        Ok(unsafe { MatrixViewMut::from_raw(self.ptr.add(r0 * self.ld + c0), nr, nc, self.ld) })
    }

    /// Splits into disjoint `(top, bottom)` mutable views at row `r`.
    pub fn split_rows_at(self, r: usize) -> DimResult<(MatrixViewMut<'a>, MatrixViewMut<'a>)> {
        if r > self.rows {
            return Err(DimError::OutOfBounds {
                origin: (r, 0),
                shape: (0, 0),
                parent: self.shape(),
            });
        }
        let top_rows = r;
        let bot_rows = self.rows - r;
        let (ptr, cols, ld) = (self.ptr, self.cols, self.ld);
        // SAFETY: rows [0, r) and [r, rows) address disjoint index sets of
        // the parent allocation; `self` is consumed.
        unsafe {
            Ok((
                MatrixViewMut::from_raw(ptr, top_rows, cols, ld),
                MatrixViewMut::from_raw(ptr.add(r * ld), bot_rows, cols, ld),
            ))
        }
    }

    /// Splits into disjoint `(left, right)` mutable views at column `c`.
    pub fn split_cols_at(self, c: usize) -> DimResult<(MatrixViewMut<'a>, MatrixViewMut<'a>)> {
        if c > self.cols {
            return Err(DimError::OutOfBounds {
                origin: (0, c),
                shape: (0, 0),
                parent: self.shape(),
            });
        }
        let (ptr, rows, cols, ld) = (self.ptr, self.rows, self.cols, self.ld);
        // SAFETY: column ranges [0, c) and [c, cols) of each row are
        // disjoint; strided views never touch columns >= their `cols`.
        unsafe {
            Ok((
                MatrixViewMut::from_raw(ptr, rows, c, ld),
                MatrixViewMut::from_raw(ptr.add(c), rows, cols - c, ld),
            ))
        }
    }

    /// Splits a square, even-dimensioned view into four disjoint mutable
    /// quadrants.
    pub fn quadrants(self) -> DimResult<QuadrantsMut<'a>> {
        if !self.rows.is_multiple_of(2) {
            return Err(DimError::NotDivisible {
                op: "quadrants",
                dim: self.rows,
                by: 2,
            });
        }
        if !self.cols.is_multiple_of(2) {
            return Err(DimError::NotDivisible {
                op: "quadrants",
                dim: self.cols,
                by: 2,
            });
        }
        let (top, bottom) = self.split_rows_at_unchecked();
        let (a11, a12) = top.split_cols_at_half();
        let (a21, a22) = bottom.split_cols_at_half();
        Ok(QuadrantsMut { a11, a12, a21, a22 })
    }

    fn split_rows_at_unchecked(self) -> (MatrixViewMut<'a>, MatrixViewMut<'a>) {
        let half = self.rows / 2;
        self.split_rows_at(half).expect("half is in bounds")
    }

    fn split_cols_at_half(self) -> (MatrixViewMut<'a>, MatrixViewMut<'a>) {
        let half = self.cols / 2;
        self.split_cols_at(half).expect("half is in bounds")
    }

    /// Fills the whole view with `v`.
    pub fn fill(&mut self, v: f64) {
        for i in 0..self.rows {
            self.row_mut(i).fill(v);
        }
    }

    /// Copies `src` into this view elementwise.
    pub fn copy_from(&mut self, src: &MatrixView<'_>) -> DimResult<()> {
        if self.shape() != src.shape() {
            return Err(DimError::Mismatch {
                op: "copy_from",
                lhs: self.shape(),
                rhs: src.shape(),
            });
        }
        for i in 0..self.rows {
            self.row_mut(i).copy_from_slice(src.row(i));
        }
        Ok(())
    }
}

impl fmt::Debug for MatrixView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MatrixView {}x{} (ld {})", self.rows, self.cols, self.ld)
    }
}

impl fmt::Debug for MatrixViewMut<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MatrixViewMut {}x{} (ld {})",
            self.rows, self.cols, self.ld
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::Matrix;

    fn sample(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| (i * n + j) as f64)
    }

    #[test]
    fn full_view_reads_match_matrix() {
        let m = sample(6);
        let v = m.view();
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(v.get(i, j), m.get(i, j));
            }
        }
    }

    #[test]
    fn sub_view_offsets() {
        let m = sample(8);
        let v = m.sub_view((2, 3), (4, 4)).unwrap();
        assert_eq!(v.get(0, 0), m.get(2, 3));
        assert_eq!(v.get(3, 3), m.get(5, 6));
        assert_eq!(v.ld(), 8);
    }

    #[test]
    fn sub_view_out_of_bounds_rejected() {
        let m = sample(4);
        assert!(m.sub_view((2, 2), (3, 3)).is_err());
        assert!(m.sub_view((0, 0), (4, 5)).is_err());
        // Degenerate but legal: zero-size view at the far corner.
        assert!(m.sub_view((4, 4), (0, 0)).is_ok());
    }

    #[test]
    fn quadrants_cover_whole_matrix() {
        let m = sample(6);
        let q = m.view().quadrants().unwrap();
        assert_eq!(q.a11.get(0, 0), m.get(0, 0));
        assert_eq!(q.a12.get(0, 0), m.get(0, 3));
        assert_eq!(q.a21.get(0, 0), m.get(3, 0));
        assert_eq!(q.a22.get(2, 2), m.get(5, 5));
    }

    #[test]
    fn quadrants_odd_dimension_rejected() {
        let m = sample(5);
        assert!(m.view().quadrants().is_err());
    }

    #[test]
    fn mutable_quadrants_are_disjoint_and_write_through() {
        let mut m = Matrix::zeros(4, 4);
        {
            let q = m.view_mut().quadrants().unwrap();
            let (mut a11, mut a12, mut a21, mut a22) = (q.a11, q.a12, q.a21, q.a22);
            a11.fill(1.0);
            a12.fill(2.0);
            a21.fill(3.0);
            a22.fill(4.0);
        }
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 3), 2.0);
        assert_eq!(m.get(3, 0), 3.0);
        assert_eq!(m.get(3, 3), 4.0);
    }

    #[test]
    fn split_rows_and_cols() {
        let m = sample(4);
        let (top, bottom) = m.view().split_rows_at(1).unwrap();
        assert_eq!(top.shape(), (1, 4));
        assert_eq!(bottom.shape(), (3, 4));
        assert_eq!(bottom.get(0, 0), m.get(1, 0));

        let (left, right) = m.view().split_cols_at(3).unwrap();
        assert_eq!(left.shape(), (4, 3));
        assert_eq!(right.shape(), (4, 1));
        assert_eq!(right.get(2, 0), m.get(2, 3));
    }

    #[test]
    fn copy_from_and_to_matrix_round_trip() {
        let src = sample(5);
        let mut dst = Matrix::zeros(3, 3);
        let sub = src.sub_view((1, 1), (3, 3)).unwrap();
        dst.view_mut().copy_from(&sub).unwrap();
        assert_eq!(dst, sub.to_matrix());
        assert_eq!(dst.get(0, 0), src.get(1, 1));
    }

    #[test]
    fn copy_from_shape_mismatch() {
        let src = sample(4);
        let mut dst = Matrix::zeros(3, 3);
        assert!(dst.view_mut().copy_from(&src.view()).is_err());
    }

    #[test]
    fn views_are_send() {
        fn assert_send<T: Send>(_: &T) {}
        let mut m = sample(4);
        assert_send(&m.view());
        let vm = m.view_mut();
        assert_send(&vm);
    }

    #[test]
    fn mutable_band_writes_visible_in_parent() {
        let mut m = Matrix::zeros(6, 2);
        {
            let (mut top, rest) = m.view_mut().split_rows_at(2).unwrap();
            let (mut mid, mut bottom) = rest.split_rows_at(2).unwrap();
            for (k, b) in [&mut top, &mut mid, &mut bottom].into_iter().enumerate() {
                b.fill(k as f64);
            }
        }
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(2, 0), 1.0);
        assert_eq!(m.get(5, 1), 2.0);
    }
}
