//! Dense row-major matrix type used throughout the workspace.
//!
//! A [`Tensor`] is a two-dimensional array of `f32` stored row-major.
//! Row vectors are `1 × n` tensors; column vectors are `n × 1`. The type is
//! deliberately small: shape tracking, element access, and the handful of
//! non-differentiable bulk operations the models need. Differentiable
//! operations live on [`crate::Tape`].

use std::fmt;

use crate::error::TensorError;

/// A dense, row-major `rows × cols` matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { data: vec![0.0; rows * cols], rows, cols }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { data: vec![value; rows * cols], rows, cols }
    }

    /// Creates a `1 × 1` tensor holding `value`.
    pub fn scalar(value: f32) -> Self {
        Self { data: vec![value], rows: 1, cols: 1 }
    }

    /// Creates a tensor from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { data, rows, cols }
    }

    /// Creates a `1 × n` row vector from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Creates a tensor where element `(i, j)` is `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { data, rows, cols }
    }

    /// The identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
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

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, returning its row-major data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at `(i, j)`.
    ///
    /// # Panics
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds for {}x{}", self.rows, self.cols);
        self.data[i * self.cols + j]
    }

    /// Sets element `(i, j)` to `value`.
    ///
    /// # Panics
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f32) {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds for {}x{}", self.rows, self.cols);
        self.data[i * self.cols + j] = value;
    }

    /// The single element of a `1 × 1` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not `1 × 1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 tensor, got {}x{}", self.rows, self.cols);
        self.data[0]
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row {i} out of bounds for {} rows", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.rows, "row {i} out of bounds for {} rows", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of row `i` as a `1 × cols` tensor.
    pub fn row_tensor(&self, i: usize) -> Tensor {
        Tensor::from_vec(1, self.cols, self.row(i).to_vec())
    }

    /// Fallible [`Tensor::row`]: borrow row `i`, or report a
    /// [`TensorError::BadAxis`] instead of panicking.
    pub fn try_row(&self, i: usize) -> Result<&[f32], TensorError> {
        if i < self.rows {
            Ok(&self.data[i * self.cols..(i + 1) * self.cols])
        } else {
            Err(TensorError::BadAxis { op: "row", index: i, bound: self.rows })
        }
    }

    /// Fill every element with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Apply `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// Combine elementwise with `other` via `f`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        Tensor {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
            rows: self.rows,
            cols: self.cols,
        }
    }

    fn check_same_shape(&self, other: &Tensor, op: &'static str) -> Result<(), TensorError> {
        if self.shape() == other.shape() {
            Ok(())
        } else {
            Err(TensorError::ShapeMismatch { op, lhs: self.shape(), rhs: other.shape() })
        }
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Fallible [`Tensor::add`]: reports a [`TensorError::ShapeMismatch`]
    /// instead of panicking.
    pub fn try_add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.check_same_shape(other, "add")?;
        Ok(self.add(other))
    }

    /// Fallible [`Tensor::hadamard`]: reports a
    /// [`TensorError::ShapeMismatch`] instead of panicking.
    pub fn try_hadamard(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.check_same_shape(other, "hadamard")?;
        Ok(self.hadamard(other))
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiply every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// In-place `self += other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place `self += s * other` (axpy).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, s: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += s * b;
        }
    }

    /// Matrix product `self × other`.
    ///
    /// Row-major ikj loop: for each row of `self`, scale-and-accumulate rows
    /// of `other`. This keeps the inner loop sequential over both output and
    /// `other`, which is the cache-friendly order for row-major storage.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Tensor::zeros(self.rows, other.cols);
        matmul_into(self, other, &mut out, false);
        out
    }

    /// Fallible [`Tensor::matmul`]: reports a
    /// [`TensorError::ShapeMismatch`] instead of panicking when
    /// `self.cols != other.rows`.
    pub fn try_matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(self.matmul(other))
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Maximum absolute element (0.0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, &x| m.max(x.abs()))
    }

    /// `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Concatenate `self` and `other` along columns (`⊕` in the paper).
    ///
    /// # Panics
    /// Panics if row counts differ.
    pub fn concat_cols(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "concat_cols row mismatch");
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for i in 0..self.rows {
            data.extend_from_slice(self.row(i));
            data.extend_from_slice(other.row(i));
        }
        Tensor { data, rows: self.rows, cols }
    }

    /// Stack `1 × c` row tensors into an `n × c` tensor.
    ///
    /// # Panics
    /// Panics if `rows` is empty or any entry is not a single row of equal width.
    pub fn stack_rows(rows: &[Tensor]) -> Tensor {
        assert!(!rows.is_empty(), "stack_rows requires at least one row");
        let cols = rows[0].cols;
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.rows, 1, "stack_rows entries must be row vectors");
            assert_eq!(r.cols, cols, "stack_rows width mismatch");
            data.extend_from_slice(&r.data);
        }
        Tensor { data, rows: rows.len(), cols }
    }

    /// Mean over rows, producing a `1 × cols` tensor.
    pub fn mean_rows(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols);
        for i in 0..self.rows {
            for (o, &x) in out.data.iter_mut().zip(self.row(i)) {
                *o += x;
            }
        }
        if self.rows > 0 {
            let inv = 1.0 / self.rows as f32;
            out.data.iter_mut().for_each(|x| *x *= inv);
        }
        out
    }
}

/// `out += a × b` (or `out = a × b` when `accumulate` is false).
///
/// Shared kernel for forward matmul and the backward-pass products.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor, accumulate: bool) {
    debug_assert_eq!(a.cols, b.rows);
    debug_assert_eq!(out.rows, a.rows);
    debug_assert_eq!(out.cols, b.cols);
    let n = b.cols;
    if n == 0 || a.rows == 0 {
        return;
    }
    // Row-major ikj loop per output row: scale-and-accumulate rows of `b`,
    // skipping zero `a` entries (one-hot rows are common in the models).
    for (i, out_row) in out.data.chunks_mut(n).enumerate() {
        if !accumulate {
            out_row.iter_mut().for_each(|x| *x = 0.0);
        }
        let a_row = &a.data[i * a.cols..(i + 1) * a.cols];
        for (k, &aik) in a_row.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let b_row = &b.data[k * n..(k + 1) * n];
            for (o, &bkj) in out_row.iter_mut().zip(b_row) {
                *o += aik * bkj;
            }
        }
    }
}

/// `out += aᵀ × b` without materializing the transpose.
pub fn matmul_at_b_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    debug_assert_eq!(a.rows, b.rows);
    debug_assert_eq!(out.rows, a.cols);
    debug_assert_eq!(out.cols, b.cols);
    let n = b.cols;
    if n == 0 || a.cols == 0 {
        return;
    }
    for k in 0..a.rows {
        let a_row = &a.data[k * a.cols..(k + 1) * a.cols];
        let b_row = &b.data[k * n..(k + 1) * n];
        for (i, &aki) in a_row.iter().enumerate() {
            if aki == 0.0 {
                continue;
            }
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (o, &bkj) in out_row.iter_mut().zip(b_row) {
                *o += aki * bkj;
            }
        }
    }
}

/// `out += a × bᵀ` without materializing the transpose.
pub fn matmul_a_bt_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    debug_assert_eq!(a.cols, b.cols);
    debug_assert_eq!(out.rows, a.rows);
    debug_assert_eq!(out.cols, b.rows);
    let n = b.rows;
    if n == 0 || a.rows == 0 {
        return;
    }
    // Independent dot products per output element, already output-row-major.
    for (i, out_row) in out.data.chunks_mut(n).enumerate() {
        let a_row = &a.data[i * a.cols..(i + 1) * a.cols];
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = &b.data[j * b.cols..(j + 1) * b.cols];
            let mut acc = 0.0;
            for (&x, &y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            *o += acc;
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for i in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for (j, v) in self.row(i).iter().take(12).enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:.4}")?;
            }
            if self.cols > 12 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full_scalar() {
        let z = Tensor::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.data().iter().all(|&x| x == 0.0));
        let o = Tensor::ones(3, 1);
        assert!(o.data().iter().all(|&x| x == 1.0));
        let f = Tensor::full(1, 4, 2.5);
        assert!(f.data().iter().all(|&x| x == 2.5));
        assert_eq!(Tensor::scalar(7.0).item(), 7.0);
    }

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.get(0, 1), 2.0);
        assert_eq!(t.get(1, 0), 3.0);
        assert_eq!(t.into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_wrong_len_panics() {
        let _ = Tensor::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn get_set_row_access() {
        let mut t = Tensor::zeros(3, 2);
        t.set(2, 1, 9.0);
        assert_eq!(t.get(2, 1), 9.0);
        assert_eq!(t.row(2), &[0.0, 9.0]);
        t.row_mut(0)[0] = 5.0;
        assert_eq!(t.get(0, 0), 5.0);
        assert_eq!(t.row_tensor(0).data(), &[5.0, 0.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_fn(4, 4, |i, j| (i * 4 + j) as f32);
        let c = a.matmul(&Tensor::eye(4));
        assert_eq!(c, a);
        let c2 = Tensor::eye(4).matmul(&a);
        assert_eq!(c2, a);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_fn(3, 5, |i, j| (i * 7 + j) as f32);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(4, 2), a.get(2, 4));
    }

    #[test]
    fn fused_transpose_kernels_match_naive() {
        let a = Tensor::from_fn(3, 4, |i, j| (i as f32) - 0.5 * j as f32);
        let b = Tensor::from_fn(3, 2, |i, j| 0.3 * (i + j) as f32);
        let mut out = Tensor::zeros(4, 2);
        matmul_at_b_into(&a, &b, &mut out);
        let naive = a.transpose().matmul(&b);
        for (x, y) in out.data().iter().zip(naive.data()) {
            assert!((x - y).abs() < 1e-5);
        }

        let c = Tensor::from_fn(2, 4, |i, j| (i * j) as f32 * 0.1 - 0.2);
        let mut out2 = Tensor::zeros(3, 2);
        matmul_a_bt_into(&a, &c, &mut out2);
        let naive2 = a.matmul(&c.transpose());
        for (x, y) in out2.data().iter().zip(naive2.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::row_vector(&[1.0, -2.0, 3.0]);
        let b = Tensor::row_vector(&[4.0, 5.0, -6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 3.0, -3.0]);
        assert_eq!(a.sub(&b).data(), &[-3.0, -7.0, 9.0]);
        assert_eq!(a.hadamard(&b).data(), &[4.0, -10.0, -18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, -4.0, 6.0]);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.data(), &[5.0, 3.0, -3.0]);
        let mut d = a.clone();
        d.axpy(0.5, &b);
        assert_eq!(d.data(), &[3.0, 0.5, 0.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert!((a.norm() - 30.0_f32.sqrt()).abs() < 1e-6);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.mean_rows().data(), &[2.0, 3.0]);
    }

    #[test]
    fn concat_and_stack() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(2, 1, vec![5.0, 6.0]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.data(), &[1.0, 2.0, 5.0, 3.0, 4.0, 6.0]);

        let rows = [Tensor::row_vector(&[1.0, 2.0]), Tensor::row_vector(&[3.0, 4.0])];
        let s = Tensor::stack_rows(&rows);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Tensor::zeros(1, 2);
        assert!(!a.has_non_finite());
        a.set(0, 1, f32::NAN);
        assert!(a.has_non_finite());
    }

    #[test]
    fn mean_rows_empty_rows_is_zero() {
        let a = Tensor::zeros(0, 3);
        assert_eq!(a.mean_rows().data(), &[0.0, 0.0, 0.0]);
        assert_eq!(a.mean(), 0.0);
    }
}
