//! Dense f32 tensors.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// A dense row-major f32 tensor.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    /// Dimensions, outermost first (e.g. `[batch, ch, h, w]`).
    pub shape: Vec<usize>,
    /// Row-major data; `len == shape.product()`.
    pub data: Vec<f32>,
}

/// `clone_from` copies into `self`'s existing allocations (a derived
/// `Clone` would allocate afresh), so refreshing a same-shaped tensor —
/// or a `Vec` of them via `clone_from_slice` — allocates nothing.
impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.shape.clone_from(&source.shape);
        self.data.clone_from(&source.data);
    }
}

impl Tensor {
    /// Zero-filled tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// Build from parts, checking the element count.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape {shape:?} does not match {} elements",
            data.len()
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes occupied by the data buffer.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Reshape in place (element count must match).
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        assert_eq!(
            self.len(),
            shape.iter().product::<usize>(),
            "cannot reshape {:?} to {shape:?}",
            self.shape
        );
        self.shape = shape.to_vec();
        self
    }

    /// Matrix product: `self` is `(m × k)`, `rhs` is `(k × n)`; result is
    /// `(m × n)`. Rows are computed in parallel with rayon.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "lhs must be 2-D");
        assert_eq!(rhs.shape.len(), 2, "rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "inner dims {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        out.par_chunks_mut(n).enumerate().for_each(|(i, row)| {
            let a = &self.data[i * k..(i + 1) * k];
            for (kk, &av) in a.iter().enumerate() {
                if av != 0.0 {
                    let b = &rhs.data[kk * n..(kk + 1) * n];
                    for (rv, &bv) in row.iter_mut().zip(b) {
                        *rv += av * bv;
                    }
                }
            }
        });
        Tensor::from_vec(&[m, n], out)
    }

    /// Transposed view materialized (2-D only).
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2);
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(&[n, m], out)
    }

    /// Element-wise `self + rhs` (same shape).
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape, rhs.shape);
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor::from_vec(&self.shape, data)
    }

    /// In-place AXPY: `self += alpha * rhs`.
    pub fn axpy(&mut self, alpha: f32, rhs: &Tensor) {
        assert_eq!(self.shape, rhs.shape);
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Scale in place.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Index of the maximum element in each row of a 2-D tensor.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape.len(), 2);
        let n = self.shape[1];
        self.data
            .chunks(n)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape, vec![2, 2]);
        assert_eq!(c.data, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let t = a.transpose();
        assert_eq!(t.shape, vec![3, 2]);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn matmul_transpose_identity() {
        // (A B)^T == B^T A^T
        let a = Tensor::from_vec(&[2, 3], vec![1., -2., 3., 0.5, 5., -6.]);
        let b = Tensor::from_vec(&[3, 4], (0..12).map(|i| i as f32 * 0.25).collect());
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        for (l, r) in left.data.iter().zip(&right.data) {
            assert!((l - r).abs() < 1e-5);
        }
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::from_vec(&[3], vec![1., 2., 3.]);
        let b = Tensor::from_vec(&[3], vec![10., 20., 30.]);
        a.axpy(0.1, &b);
        assert_eq!(a.data, vec![2., 4., 6.]);
        a.scale(0.5);
        assert_eq!(a.data, vec![1., 2., 3.]);
    }

    #[test]
    fn argmax_rows_picks_winners() {
        let a = Tensor::from_vec(&[2, 3], vec![0.1, 0.9, 0.0, 0.3, 0.2, 0.5]);
        assert_eq!(a.argmax_rows(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_checks_length() {
        Tensor::from_vec(&[2, 2], vec![1.0; 3]);
    }

    #[test]
    fn bytes_counts_f32s() {
        assert_eq!(Tensor::zeros(&[4, 4]).bytes(), 64);
    }
}
