//! Layers as pure functions over explicit saved inputs.
//!
//! `forward(&self, x)` and `backward(&self, x, dy)` never mutate the layer
//! and never stash hidden state: the *caller* owns the saved activation
//! `x`. That inversion is what makes out-of-core execution trivially
//! correct — whether `x` stayed on the device, round-tripped through far
//! memory or was recomputed, `backward` sees identical bits and produces
//! identical gradients.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::tensor::Tensor;

/// Gradient of one layer's parameters (empty for stateless layers).
#[derive(Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct ParamGrads {
    /// One tensor per parameter, in the layer's parameter order.
    pub grads: Vec<Tensor>,
}

/// `clone_from` reuses `self`'s tensors' allocations, like
/// [`Tensor`]'s.
impl Clone for ParamGrads {
    fn clone(&self) -> Self {
        ParamGrads {
            grads: self.grads.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.grads.clone_from(&source.grads);
    }
}

/// A neural-network layer with pure forward/backward.
pub trait Layer: Send + Sync {
    /// Output of the layer for input `x`.
    fn forward(&self, x: &Tensor) -> Tensor;
    /// Input gradient and parameter gradients, given the *saved input* `x`
    /// and the output gradient `dy`.
    fn backward(&self, x: &Tensor, dy: &Tensor) -> (Tensor, ParamGrads);
    /// Parameters (possibly empty).
    fn params(&self) -> Vec<&Tensor>;
    /// Mutable view of the same parameters, in the same order — the
    /// checkpoint-restore path writes saved values straight back instead
    /// of synthesizing an update (adding a delta would reassociate floats
    /// and break bitwise resume). Stateless layers keep the empty default.
    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }
    /// Apply `w += alpha * g` to every parameter (SGD steps use negative
    /// alpha; the allreduce path uses it to install averaged gradients).
    fn update(&mut self, grads: &ParamGrads, alpha: f32);
    /// A short display name.
    fn name(&self) -> &'static str;
}

/// Fully connected layer: `y = x W + b` with `W: (in × out)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    /// Weights `(in × out)`.
    pub w: Tensor,
    /// Bias `(out)`.
    pub b: Tensor,
}

impl Dense {
    /// Xavier-ish deterministic init.
    pub fn new(inputs: usize, outputs: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let scale = (2.0 / inputs as f32).sqrt();
        let w = Tensor::from_vec(
            &[inputs, outputs],
            (0..inputs * outputs)
                .map(|_| (rng.gen::<f32>() - 0.5) * 2.0 * scale)
                .collect(),
        );
        Dense {
            w,
            b: Tensor::zeros(&[outputs]),
        }
    }
}

impl Layer for Dense {
    fn forward(&self, x: &Tensor) -> Tensor {
        let batch = x.shape[0];
        let flat = x.clone().reshape(&[batch, x.len() / batch]);
        let mut y = flat.matmul(&self.w);
        let out = self.b.len();
        for row in y.data.chunks_mut(out) {
            for (v, b) in row.iter_mut().zip(&self.b.data) {
                *v += b;
            }
        }
        y
    }

    fn backward(&self, x: &Tensor, dy: &Tensor) -> (Tensor, ParamGrads) {
        let batch = x.shape[0];
        let flat = x.clone().reshape(&[batch, x.len() / batch]);
        let dw = flat.transpose().matmul(dy);
        let out = dy.shape[1];
        let mut db = Tensor::zeros(&[out]);
        for row in dy.data.chunks(out) {
            for (g, v) in db.data.iter_mut().zip(row) {
                *g += v;
            }
        }
        let dx = dy.matmul(&self.w.transpose()).reshape(&x.shape);
        (
            dx,
            ParamGrads {
                grads: vec![dw, db],
            },
        )
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.w, &self.b]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.w, &mut self.b]
    }

    fn update(&mut self, grads: &ParamGrads, alpha: f32) {
        self.w.axpy(alpha, &grads.grads[0]);
        self.b.axpy(alpha, &grads.grads[1]);
    }

    fn name(&self) -> &'static str {
        "dense"
    }
}

/// 2-D convolution (square kernel, same dtype conventions as the planner's
/// cost model). Input `[batch, in_ch, h, w]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv2d {
    /// Kernels `[out_ch, in_ch, k, k]` flattened row-major.
    pub w: Tensor,
    /// Bias `(out_ch)`.
    pub b: Tensor,
    /// Input channels.
    pub in_ch: usize,
    /// Output channels.
    pub out_ch: usize,
    /// Kernel size.
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub pad: usize,
}

impl Conv2d {
    /// Deterministic He-init convolution.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let fan_in = (in_ch * k * k) as f32;
        let scale = (2.0 / fan_in).sqrt();
        let w = Tensor::from_vec(
            &[out_ch, in_ch, k, k],
            (0..out_ch * in_ch * k * k)
                .map(|_| (rng.gen::<f32>() - 0.5) * 2.0 * scale)
                .collect(),
        );
        Conv2d {
            w,
            b: Tensor::zeros(&[out_ch]),
            in_ch,
            out_ch,
            k,
            stride,
            pad,
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h + 2 * self.pad - self.k) / self.stride + 1,
            (w + 2 * self.pad - self.k) / self.stride + 1,
        )
    }
}

impl Layer for Conv2d {
    fn forward(&self, x: &Tensor) -> Tensor {
        let (batch, c, h, w) = (x.shape[0], x.shape[1], x.shape[2], x.shape[3]);
        assert_eq!(c, self.in_ch);
        let (oh, ow) = self.out_hw(h, w);
        let mut out = vec![0.0f32; batch * self.out_ch * oh * ow];
        let plane = oh * ow;
        out.par_chunks_mut(self.out_ch * plane)
            .enumerate()
            .for_each(|(n, chunk)| {
                let xin = &x.data[n * c * h * w..(n + 1) * c * h * w];
                for oc in 0..self.out_ch {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut acc = self.b.data[oc];
                            for ic in 0..c {
                                for ky in 0..self.k {
                                    let iy = oy * self.stride + ky;
                                    if iy < self.pad || iy >= h + self.pad {
                                        continue;
                                    }
                                    let iy = iy - self.pad;
                                    for kx in 0..self.k {
                                        let ix = ox * self.stride + kx;
                                        if ix < self.pad || ix >= w + self.pad {
                                            continue;
                                        }
                                        let ix = ix - self.pad;
                                        acc += xin[ic * h * w + iy * w + ix]
                                            * self.w.data
                                                [((oc * c + ic) * self.k + ky) * self.k + kx];
                                    }
                                }
                            }
                            chunk[oc * plane + oy * ow + ox] = acc;
                        }
                    }
                }
            });
        Tensor::from_vec(&[batch, self.out_ch, oh, ow], out)
    }

    fn backward(&self, x: &Tensor, dy: &Tensor) -> (Tensor, ParamGrads) {
        let (batch, c, h, w) = (x.shape[0], x.shape[1], x.shape[2], x.shape[3]);
        let (oh, ow) = self.out_hw(h, w);
        assert_eq!(dy.shape, vec![batch, self.out_ch, oh, ow]);
        let mut dx = vec![0.0f32; x.len()];
        let mut dw = vec![0.0f32; self.w.len()];
        let mut db = vec![0.0f32; self.out_ch];
        // Deterministic sequential accumulation keeps gradients bit-stable
        // across runs (a requirement for the OOC parity checks).
        for n in 0..batch {
            let xin = &x.data[n * c * h * w..(n + 1) * c * h * w];
            let dxn = &mut dx[n * c * h * w..(n + 1) * c * h * w];
            let dyn_ = &dy.data[n * self.out_ch * oh * ow..(n + 1) * self.out_ch * oh * ow];
            for oc in 0..self.out_ch {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = dyn_[oc * oh * ow + oy * ow + ox];
                        if g == 0.0 {
                            continue;
                        }
                        db[oc] += g;
                        for ic in 0..c {
                            for ky in 0..self.k {
                                let iy = oy * self.stride + ky;
                                if iy < self.pad || iy >= h + self.pad {
                                    continue;
                                }
                                let iy = iy - self.pad;
                                for kx in 0..self.k {
                                    let ix = ox * self.stride + kx;
                                    if ix < self.pad || ix >= w + self.pad {
                                        continue;
                                    }
                                    let ix = ix - self.pad;
                                    let wi = ((oc * c + ic) * self.k + ky) * self.k + kx;
                                    dw[wi] += g * xin[ic * h * w + iy * w + ix];
                                    dxn[ic * h * w + iy * w + ix] += g * self.w.data[wi];
                                }
                            }
                        }
                    }
                }
            }
        }
        (
            Tensor::from_vec(&x.shape, dx),
            ParamGrads {
                grads: vec![
                    Tensor::from_vec(&self.w.shape, dw),
                    Tensor::from_vec(&[self.out_ch], db),
                ],
            },
        )
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.w, &self.b]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.w, &mut self.b]
    }

    fn update(&mut self, grads: &ParamGrads, alpha: f32) {
        self.w.axpy(alpha, &grads.grads[0]);
        self.b.axpy(alpha, &grads.grads[1]);
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }
}

/// Rectified linear unit.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReLU;

impl Layer for ReLU {
    fn forward(&self, x: &Tensor) -> Tensor {
        Tensor::from_vec(&x.shape, x.data.iter().map(|&v| v.max(0.0)).collect())
    }

    fn backward(&self, x: &Tensor, dy: &Tensor) -> (Tensor, ParamGrads) {
        let data = x
            .data
            .iter()
            .zip(&dy.data)
            .map(|(&xv, &g)| if xv > 0.0 { g } else { 0.0 })
            .collect();
        (Tensor::from_vec(&x.shape, data), ParamGrads::default())
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn update(&mut self, _grads: &ParamGrads, _alpha: f32) {}

    fn name(&self) -> &'static str {
        "relu"
    }
}

/// Max pooling over `k × k` windows with stride `k`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MaxPool2d {
    /// Window size (== stride).
    pub k: usize,
}

impl Layer for MaxPool2d {
    fn forward(&self, x: &Tensor) -> Tensor {
        let (batch, c, h, w) = (x.shape[0], x.shape[1], x.shape[2], x.shape[3]);
        let (oh, ow) = (h / self.k, w / self.k);
        let mut out = vec![f32::NEG_INFINITY; batch * c * oh * ow];
        for n in 0..batch {
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut m = f32::NEG_INFINITY;
                        for ky in 0..self.k {
                            for kx in 0..self.k {
                                let v = x.data
                                    [((n * c + ch) * h + oy * self.k + ky) * w + ox * self.k + kx];
                                m = m.max(v);
                            }
                        }
                        out[((n * c + ch) * oh + oy) * ow + ox] = m;
                    }
                }
            }
        }
        Tensor::from_vec(&[batch, c, oh, ow], out)
    }

    fn backward(&self, x: &Tensor, dy: &Tensor) -> (Tensor, ParamGrads) {
        let (batch, c, h, w) = (x.shape[0], x.shape[1], x.shape[2], x.shape[3]);
        let (oh, ow) = (h / self.k, w / self.k);
        let mut dx = vec![0.0f32; x.len()];
        for n in 0..batch {
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        // Recompute the argmax (first maximum wins).
                        let mut best = f32::NEG_INFINITY;
                        let mut bi = 0;
                        for ky in 0..self.k {
                            for kx in 0..self.k {
                                let idx =
                                    ((n * c + ch) * h + oy * self.k + ky) * w + ox * self.k + kx;
                                if x.data[idx] > best {
                                    best = x.data[idx];
                                    bi = idx;
                                }
                            }
                        }
                        dx[bi] += dy.data[((n * c + ch) * oh + oy) * ow + ox];
                    }
                }
            }
        }
        (Tensor::from_vec(&x.shape, dx), ParamGrads::default())
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn update(&mut self, _grads: &ParamGrads, _alpha: f32) {}

    fn name(&self) -> &'static str {
        "maxpool"
    }
}

/// Flatten `[batch, ...]` to `[batch, features]`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Flatten;

impl Layer for Flatten {
    fn forward(&self, x: &Tensor) -> Tensor {
        let batch = x.shape[0];
        x.clone().reshape(&[batch, x.len() / batch])
    }

    fn backward(&self, x: &Tensor, dy: &Tensor) -> (Tensor, ParamGrads) {
        (dy.clone().reshape(&x.shape), ParamGrads::default())
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn update(&mut self, _grads: &ParamGrads, _alpha: f32) {}

    fn name(&self) -> &'static str {
        "flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference check of input gradients for a layer.
    fn check_input_grad<L: Layer>(layer: &L, x: &Tensor, eps: f32, tol: f32) {
        let y = layer.forward(x);
        // Loss = sum(y) -> dy = ones.
        let dy = Tensor::from_vec(&y.shape, vec![1.0; y.len()]);
        let (dx, _) = layer.backward(x, &dy);
        for i in (0..x.len()).step_by((x.len() / 7).max(1)) {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
            let num = (layer.forward(&xp).sum() - layer.forward(&xm).sum()) / (2.0 * eps);
            assert!(
                (num - dx.data[i]).abs() < tol,
                "{}: grad[{i}] numeric {num} vs analytic {}",
                layer.name(),
                dx.data[i]
            );
        }
    }

    fn sample_input(shape: &[usize], seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Tensor::from_vec(
            shape,
            (0..shape.iter().product())
                .map(|_| rng.gen::<f32>() * 2.0 - 1.0)
                .collect(),
        )
    }

    #[test]
    fn dense_gradients_match_finite_differences() {
        let l = Dense::new(6, 4, 1);
        let x = sample_input(&[3, 6], 2);
        check_input_grad(&l, &x, 1e-3, 1e-2);
        // Weight gradient check on one entry.
        let dy = Tensor::from_vec(&[3, 4], vec![1.0; 12]);
        let (_, g) = l.backward(&x, &dy);
        let eps = 1e-3;
        let mut lp = l.clone();
        lp.w.data[5] += eps;
        let mut lm = l.clone();
        lm.w.data[5] -= eps;
        let num = (lp.forward(&x).sum() - lm.forward(&x).sum()) / (2.0 * eps);
        assert!((num - g.grads[0].data[5]).abs() < 1e-2);
    }

    #[test]
    fn conv_gradients_match_finite_differences() {
        let l = Conv2d::new(2, 3, 3, 1, 1, 7);
        let x = sample_input(&[2, 2, 5, 5], 3);
        check_input_grad(&l, &x, 1e-3, 2e-2);
    }

    #[test]
    fn conv_strided_padded_shapes() {
        let l = Conv2d::new(3, 8, 3, 2, 1, 1);
        let x = sample_input(&[1, 3, 8, 8], 4);
        let y = l.forward(&x);
        assert_eq!(y.shape, vec![1, 8, 4, 4]);
    }

    #[test]
    fn relu_gradients() {
        let l = ReLU;
        let x = sample_input(&[4, 10], 5);
        check_input_grad(&l, &x, 1e-3, 1e-3);
    }

    #[test]
    fn maxpool_routes_gradient_to_argmax() {
        let l = MaxPool2d { k: 2 };
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 5.0, 3.0, 2.0]);
        let y = l.forward(&x);
        assert_eq!(y.data, vec![5.0]);
        let (dx, _) = l.backward(&x, &Tensor::from_vec(&[1, 1, 1, 1], vec![2.0]));
        assert_eq!(dx.data, vec![0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn flatten_round_trips_shape() {
        let l = Flatten;
        let x = sample_input(&[2, 3, 4, 4], 6);
        let y = l.forward(&x);
        assert_eq!(y.shape, vec![2, 48]);
        let (dx, _) = l.backward(&x, &y);
        assert_eq!(dx.shape, x.shape);
    }

    #[test]
    fn update_moves_parameters() {
        let mut l = Dense::new(3, 2, 9);
        let before = l.w.data.clone();
        let g = ParamGrads {
            grads: vec![
                Tensor::from_vec(&[3, 2], vec![1.0; 6]),
                Tensor::from_vec(&[2], vec![1.0; 2]),
            ],
        };
        l.update(&g, -0.5);
        for (b, a) in before.iter().zip(&l.w.data) {
            assert!((b - 0.5 - a).abs() < 1e-6);
        }
    }
}
