//! Multi-layer perceptron regression (the paper's future-work "Multi-Layer
//! Perception Neural Network").

use crate::estimator::{check_training_set, Regressor};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Hidden-layer activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    fn f(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
        }
    }

    fn df(self, x: f64) -> f64 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - x.tanh() * x.tanh(),
        }
    }
}

/// A feed-forward network with a linear output neuron, trained by
/// full-batch Adam on squared loss.
///
/// Intentionally small: the paper's datasets are ~1000 samples ×
/// 25 features, where a couple of modest hidden layers suffice.
///
/// The training kernel is batch-major and allocation-free inside the
/// epoch loop. Each layer keeps its weights flat and row-major
/// (`w[j * inputs + i]`, neuron `j`, input `i`) plus a transposed copy
/// for the forward pass. Every epoch runs the forward pass for all
/// samples at once into buffers allocated once per `fit`, then
/// backpropagates sample by sample. Every floating-point operation
/// happens in the order of the textbook per-sample formulation: a
/// pre-activation is `-0.0` plus the `w·a` terms in ascending input order
/// plus the bias, gradients accumulate in sample order, and a hidden
/// delta sums its terms in ascending neuron order. The backward pass
/// skips every delta of exactly `0.0` (a dead ReLU unit): its terms
/// `0 · a` and `0 · w` are ±0, and adding ±0 to an accumulator that
/// started at `+0.0` changes nothing, because under round-to-nearest such
/// an accumulator is never `-0.0`. That holds only for finite factors
/// (`0 × ∞` is NaN): the inputs are checked finite by `fit`, and an
/// epoch skips only after checking that the hidden activations and the
/// weights are all finite too, and takes the full path otherwise. Fitted
/// weights and predictions are therefore bit-identical to that
/// formulation, which `crates/ml/tests/mlp_equivalence.rs` checks against
/// a test-only copy.
#[derive(Debug, Clone)]
pub struct MlpRegressor {
    hidden: Vec<usize>,
    activation: Activation,
    learning_rate: f64,
    epochs: usize,
    seed: u64,
    layers: Vec<Layer>,
}

/// One fully connected layer.
#[derive(Debug, Clone)]
struct Layer {
    inputs: usize,
    outputs: usize,
    /// `w[j * inputs + i]`: weight from input `i` to neuron `j`.
    w: Vec<f64>,
    /// `wt[i * outputs + j] == w[j * inputs + i]`, the layout the forward
    /// pass reads so that its inner loop runs over neurons.
    wt: Vec<f64>,
    b: Vec<f64>,
}

impl Layer {
    /// `pre[j] = -0.0 + w[j][0]·a[0] + … + w[j][inputs-1]·a[inputs-1] + b[j]`,
    /// added left to right: the start value and order of
    /// `Iterator::sum::<f64>`.
    fn forward_row(&self, a: &[f64], pre: &mut [f64]) {
        pre.fill(-0.0);
        for (col, &ai) in self.wt.chunks_exact(self.outputs).zip(a) {
            for (p, &w) in pre.iter_mut().zip(col) {
                *p += w * ai;
            }
        }
        for (p, &b) in pre.iter_mut().zip(&self.b) {
            *p += b;
        }
    }

    fn refresh_transpose(&mut self) {
        for (j, row) in self.w.chunks_exact(self.inputs).enumerate() {
            for (i, &w) in row.iter().enumerate() {
                self.wt[i * self.outputs + j] = w;
            }
        }
    }
}

// Adam's moment decay rates and denominator guard.
const BETA1: f64 = 0.9;
const BETA2: f64 = 0.999;
const EPS: f64 = 1e-8;

/// One Adam step on a flat parameter buffer with step size `lr_t`.
fn adam_step(p: &mut [f64], g: &[f64], m: &mut [f64], v: &mut [f64], lr_t: f64) {
    for (((p, &g), m), v) in p.iter_mut().zip(g).zip(m).zip(v) {
        *m = BETA1 * *m + (1.0 - BETA1) * g;
        *v = BETA2 * *v + (1.0 - BETA2) * g * g;
        *p -= lr_t * *m / (v.sqrt() + EPS);
    }
}

impl MlpRegressor {
    /// Network with the given hidden-layer sizes.
    ///
    /// # Panics
    ///
    /// Panics if a hidden layer has zero width or `epochs == 0`.
    pub fn new(hidden: Vec<usize>, activation: Activation, epochs: usize, seed: u64) -> Self {
        assert!(hidden.iter().all(|&h| h > 0), "zero-width hidden layer");
        assert!(epochs > 0);
        MlpRegressor {
            hidden,
            activation,
            learning_rate: 0.01,
            epochs,
            seed,
            layers: Vec::new(),
        }
    }

    /// Override the Adam learning rate (default 0.01).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite or not positive.
    pub fn with_learning_rate(mut self, lr: f64) -> MlpRegressor {
        assert!(
            lr.is_finite() && lr > 0.0,
            "learning rate must be finite and positive, got {lr}"
        );
        self.learning_rate = lr;
        self
    }

    /// Zeroed per-layer buffers of `rows` × layer width: pre-activations
    /// for every layer and activations for the hidden ones.
    fn buffers(&self, rows: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let pres: Vec<Vec<f64>> = self
            .layers
            .iter()
            .map(|l| vec![0.0; rows * l.outputs])
            .collect();
        let acts = pres[..pres.len() - 1].to_vec();
        (pres, acts)
    }

    /// Forward pass over the row-major rows of `x`, filling `pres[l]` and,
    /// for hidden layers, `acts[l]`; the output is `pres[last]`.
    fn forward(&self, x: &[f64], pres: &mut [Vec<f64>], acts: &mut [Vec<f64>]) {
        for (l, layer) in self.layers.iter().enumerate() {
            let (done, rest) = acts.split_at_mut(l);
            let input = done.last().map_or(x, Vec::as_slice);
            let pre = &mut pres[l];
            for (a, p) in input
                .chunks_exact(layer.inputs)
                .zip(pre.chunks_exact_mut(layer.outputs))
            {
                layer.forward_row(a, p);
            }
            if let Some(act) = rest.first_mut() {
                for (a, &p) in act.iter_mut().zip(pre.iter()) {
                    *a = self.activation.f(p);
                }
            }
        }
    }
}

impl Regressor for MlpRegressor {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        check_training_set(x, y);
        let mut sizes = vec![x[0].len()];
        sizes.extend(&self.hidden);
        sizes.push(1);

        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        self.layers = sizes
            .windows(2)
            .map(|io| {
                let (inputs, outputs) = (io[0], io[1]);
                let scale = (2.0 / inputs as f64).sqrt();
                let w: Vec<f64> = (0..inputs * outputs)
                    .map(|_| rng.gen_range(-scale..scale))
                    .collect();
                let mut layer = Layer {
                    inputs,
                    outputs,
                    w,
                    wt: vec![0.0; inputs * outputs],
                    b: vec![0.0; outputs],
                };
                layer.refresh_transpose();
                layer
            })
            .collect();

        // Everything the epoch loop touches is allocated here, once.
        let xs = x.concat();
        let (mut pres, mut acts) = self.buffers(x.len());
        let mut gw: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut gb: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        let (mut mw, mut vw) = (gw.clone(), gw.clone());
        let (mut mb, mut vb) = (gb.clone(), gb.clone());
        let width = sizes.iter().copied().max().unwrap_or(1);
        let (mut delta, mut next) = (vec![0.0; width], vec![0.0; width]);

        let last = self.layers.len() - 1;
        let n = x.len() as f64;
        for epoch in 1..=self.epochs {
            self.forward(&xs, &mut pres, &mut acts);
            gw.iter_mut().chain(&mut gb).for_each(|g| g.fill(0.0));
            // A zero delta adds only ±0 terms, which leave every gradient
            // and back-propagated sum unchanged, unless it meets an
            // infinite or NaN factor (`0 × ∞` is NaN). The inputs are
            // finite (`check_training_set`); activations and weights are
            // checked here.
            let skip_zero_deltas = acts.iter().flatten().all(|v| v.is_finite())
                && self
                    .layers
                    .iter()
                    .all(|l| l.w.iter().all(|w| w.is_finite()));

            // Backpropagate and accumulate full-batch gradients, sample by
            // sample in sample order.
            for (s, &ys) in y.iter().enumerate() {
                // Output delta (squared loss, linear output).
                delta[0] = 2.0 * (pres[last][s] - ys) / n;
                for (l, layer) in self.layers.iter().enumerate().rev() {
                    let (inputs, outputs) = (layer.inputs, layer.outputs);
                    let rows = if l == 0 { &xs } else { &acts[l - 1] };
                    let a = &rows[s * inputs..(s + 1) * inputs];
                    let dl = &delta[..outputs];
                    for ((&dj, gbj), gwj) in dl
                        .iter()
                        .zip(&mut gb[l])
                        .zip(gw[l].chunks_exact_mut(inputs))
                    {
                        if skip_zero_deltas && dj == 0.0 {
                            continue;
                        }
                        *gbj += dj;
                        for (g, &ai) in gwj.iter_mut().zip(a) {
                            *g += dj * ai;
                        }
                    }
                    if l == 0 {
                        break;
                    }
                    let nl = &mut next[..inputs];
                    nl.fill(0.0);
                    for (&dj, wj) in dl.iter().zip(layer.w.chunks_exact(inputs)) {
                        if skip_zero_deltas && dj == 0.0 {
                            continue;
                        }
                        for (nd, &w) in nl.iter_mut().zip(wj) {
                            *nd += dj * w;
                        }
                    }
                    for (nd, &p) in nl.iter_mut().zip(&pres[l - 1][s * inputs..]) {
                        *nd *= self.activation.df(p);
                    }
                    std::mem::swap(&mut delta, &mut next);
                }
            }

            // Adam update.
            let t = epoch as f64;
            let lr_t = self.learning_rate * (1.0 - BETA2.powf(t)).sqrt() / (1.0 - BETA1.powf(t));
            for (l, layer) in self.layers.iter_mut().enumerate() {
                adam_step(&mut layer.w, &gw[l], &mut mw[l], &mut vw[l], lr_t);
                adam_step(&mut layer.b, &gb[l], &mut mb[l], &mut vb[l], lr_t);
                layer.refresh_transpose();
            }
        }
    }

    fn predict_one(&self, x: &[f64]) -> f64 {
        assert!(!self.layers.is_empty(), "predict before fit");
        assert_eq!(
            x.len(),
            self.layers[0].inputs,
            "model/input dimension mismatch"
        );
        let (mut pres, mut acts) = self.buffers(1);
        self.forward(x, &mut pres, &mut acts);
        pres[pres.len() - 1][0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2;

    #[test]
    fn learns_linear_function() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 25.0 - 1.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| 3.0 * r[0] + 0.5).collect();
        let mut m = MlpRegressor::new(vec![8], Activation::Tanh, 400, 1);
        m.fit(&x, &y);
        assert!(r2(&y, &m.predict(&x)) > 0.99);
    }

    #[test]
    fn learns_nonlinear_function() {
        let x: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64 / 40.0 - 1.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| (3.0 * r[0]).sin()).collect();
        let mut m =
            MlpRegressor::new(vec![16, 16], Activation::Tanh, 800, 3).with_learning_rate(0.02);
        m.fit(&x, &y);
        let score = r2(&y, &m.predict(&x));
        assert!(score > 0.95, "r2 = {score}");
    }

    #[test]
    fn relu_variant_trains() {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 30.0 - 1.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0].abs()).collect();
        let mut m = MlpRegressor::new(vec![12], Activation::Relu, 600, 5);
        m.fit(&x, &y);
        assert!(r2(&y, &m.predict(&x)) > 0.9);
    }

    #[test]
    fn deterministic_given_seed() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let mut a = MlpRegressor::new(vec![4], Activation::Tanh, 50, 9);
        a.fit(&x, &y);
        let mut b = MlpRegressor::new(vec![4], Activation::Tanh, 50, 9);
        b.fit(&x, &y);
        assert_eq!(a.predict_one(&[3.0]), b.predict_one(&[3.0]));
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn zero_learning_rate_panics() {
        let _ = MlpRegressor::new(vec![4], Activation::Tanh, 10, 0).with_learning_rate(0.0);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn negative_learning_rate_panics() {
        let _ = MlpRegressor::new(vec![4], Activation::Tanh, 10, 0).with_learning_rate(-0.01);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn nan_learning_rate_panics() {
        let _ = MlpRegressor::new(vec![4], Activation::Tanh, 10, 0).with_learning_rate(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn infinite_learning_rate_panics() {
        let _ =
            MlpRegressor::new(vec![4], Activation::Tanh, 10, 0).with_learning_rate(f64::INFINITY);
    }
}
