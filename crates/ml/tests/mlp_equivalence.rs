//! The batch-major [`MlpRegressor`] kernel is bit-identical to the
//! textbook per-sample formulation of full-batch Adam.
//!
//! [`Textbook`] is a **test-only oracle**: the straightforward
//! per-sample `fit` / `forward` the kernel replaced — nested `Vec`
//! weights, one allocation per layer per sample, `Iterator::sum` dot
//! products. It shares no code with the kernel beyond the public
//! [`Activation`] enum. A seeded sweep over sample counts, feature
//! counts, layer shapes, activations, epochs, seeds and learning rates
//! asserts that both give the same prediction bits on the training rows
//! and on held-out rows, including an all-zero row.

use ffr_ml::{Activation, MlpRegressor, Regressor};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn f(act: Activation, x: f64) -> f64 {
    match act {
        Activation::Relu => x.max(0.0),
        Activation::Tanh => x.tanh(),
    }
}

fn df(act: Activation, x: f64) -> f64 {
    match act {
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

/// The per-sample reference network: `weights[l][j][i]` is layer `l`,
/// neuron `j`, input `i`.
struct Textbook {
    activation: Activation,
    weights: Vec<Vec<Vec<f64>>>,
    biases: Vec<Vec<f64>>,
}

impl Textbook {
    fn forward(&self, x: &[f64]) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        // Returns (pre-activations, activations) per layer; activations[0] = input.
        let mut acts = vec![x.to_vec()];
        let mut pres = Vec::new();
        for (l, (w, b)) in self.weights.iter().zip(&self.biases).enumerate() {
            let input = acts.last().expect("non-empty");
            let pre: Vec<f64> = w
                .iter()
                .zip(b)
                .map(|(wj, bj)| wj.iter().zip(input).map(|(a, v)| a * v).sum::<f64>() + bj)
                .collect();
            let act: Vec<f64> = if l == self.weights.len() - 1 {
                pre.clone()
            } else {
                pre.iter().map(|&p| f(self.activation, p)).collect()
            };
            pres.push(pre);
            acts.push(act);
        }
        (pres, acts)
    }

    fn fit(
        hidden: &[usize],
        activation: Activation,
        epochs: usize,
        seed: u64,
        lr: f64,
        x: &[Vec<f64>],
        y: &[f64],
    ) -> Textbook {
        let mut sizes = vec![x[0].len()];
        sizes.extend(hidden);
        sizes.push(1);

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let weights: Vec<Vec<Vec<f64>>> = (1..sizes.len())
            .map(|l| {
                let scale = (2.0 / sizes[l - 1] as f64).sqrt();
                (0..sizes[l])
                    .map(|_| {
                        (0..sizes[l - 1])
                            .map(|_| rng.gen_range(-scale..scale))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let biases = (1..sizes.len()).map(|l| vec![0.0; sizes[l]]).collect();
        let mut net = Textbook {
            activation,
            weights,
            biases,
        };

        let zeros_w = |net: &Textbook| -> Vec<Vec<Vec<f64>>> {
            net.weights
                .iter()
                .map(|l| l.iter().map(|nrn| vec![0.0; nrn.len()]).collect())
                .collect()
        };
        let zeros_b = |net: &Textbook| -> Vec<Vec<f64>> {
            net.biases.iter().map(|l| vec![0.0; l.len()]).collect()
        };
        let (mut mw, mut vw) = (zeros_w(&net), zeros_w(&net));
        let (mut mb, mut vb) = (zeros_b(&net), zeros_b(&net));
        let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);

        let n = x.len() as f64;
        for epoch in 1..=epochs {
            let mut gw = zeros_w(&net);
            let mut gb = zeros_b(&net);
            for (xi, &yi) in x.iter().zip(y) {
                let (pres, acts) = net.forward(xi);
                let layers = net.weights.len();
                let mut delta = vec![2.0 * (acts[layers][0] - yi) / n];
                for l in (0..layers).rev() {
                    for (j, &dj) in delta.iter().enumerate() {
                        gb[l][j] += dj;
                        for (g, &a) in gw[l][j].iter_mut().zip(&acts[l]) {
                            *g += dj * a;
                        }
                    }
                    if l == 0 {
                        break;
                    }
                    let mut next = vec![0.0; acts[l].len()];
                    for (j, &dj) in delta.iter().enumerate() {
                        for (nd, &w) in next.iter_mut().zip(&net.weights[l][j]) {
                            *nd += dj * w;
                        }
                    }
                    for (nd, &p) in next.iter_mut().zip(&pres[l - 1]) {
                        *nd *= df(activation, p);
                    }
                    delta = next;
                }
            }

            let t = epoch as f64;
            let lr_t = lr * (1.0 - b2.powf(t)).sqrt() / (1.0 - b1.powf(t));
            for l in 0..net.weights.len() {
                for j in 0..net.weights[l].len() {
                    for i in 0..net.weights[l][j].len() {
                        let g = gw[l][j][i];
                        mw[l][j][i] = b1 * mw[l][j][i] + (1.0 - b1) * g;
                        vw[l][j][i] = b2 * vw[l][j][i] + (1.0 - b2) * g * g;
                        net.weights[l][j][i] -= lr_t * mw[l][j][i] / (vw[l][j][i].sqrt() + eps);
                    }
                    let g = gb[l][j];
                    mb[l][j] = b1 * mb[l][j] + (1.0 - b1) * g;
                    vb[l][j] = b2 * vb[l][j] + (1.0 - b2) * g * g;
                    net.biases[l][j] -= lr_t * mb[l][j] / (vb[l][j].sqrt() + eps);
                }
            }
        }
        net
    }

    fn predict_one(&self, x: &[f64]) -> f64 {
        self.forward(x).1.last().expect("output layer")[0]
    }
}

struct Case {
    n: usize,
    d: usize,
    hidden: Vec<usize>,
    activation: Activation,
    epochs: usize,
    seed: u64,
    lr: f64,
    /// The first training row is scaled by this factor.
    outlier_scale: f64,
}

fn rows(rng: &mut ChaCha8Rng, n: usize, d: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| (0..d).map(|_| rng.gen_range(-2.0..2.0)).collect())
        .collect()
}

/// Fits both implementations on one random data set and returns every
/// (kernel, oracle) prediction pair: training rows, held-out rows and the
/// all-zero row.
fn predictions(case: &Case, data_seed: u64) -> Vec<(f64, f64)> {
    let mut rng = ChaCha8Rng::seed_from_u64(data_seed);
    let mut x = rows(&mut rng, case.n, case.d);
    x[0].iter_mut().for_each(|v| *v *= case.outlier_scale);
    let y: Vec<f64> = x
        .iter()
        .map(|r| r.iter().map(|v| v.sin()).sum::<f64>() + rng.gen_range(-0.1..0.1))
        .collect();
    let mut probe = x.clone();
    probe.extend(rows(&mut rng, 5, case.d));
    probe.push(vec![0.0; case.d]);

    let mut kernel =
        MlpRegressor::new(case.hidden.clone(), case.activation, case.epochs, case.seed)
            .with_learning_rate(case.lr);
    kernel.fit(&x, &y);
    let oracle = Textbook::fit(
        &case.hidden,
        case.activation,
        case.epochs,
        case.seed,
        case.lr,
        &x,
        &y,
    );
    probe
        .iter()
        .map(|r| (kernel.predict_one(r), oracle.predict_one(r)))
        .collect()
}

#[test]
fn kernel_matches_textbook_bit_for_bit() {
    let shapes: [&[usize]; 4] = [&[1], &[16], &[32, 16], &[64, 32]];
    let lrs = [1e-3, 1e-2, 0.05, 0.3];
    let mut rng = ChaCha8Rng::seed_from_u64(2019);
    let mut checked = 0;
    for (s, hidden) in shapes.iter().enumerate() {
        for activation in [Activation::Relu, Activation::Tanh] {
            // Smaller draws for the wide shapes keep the debug run short.
            let draws = [14, 10, 6, 4][s];
            for k in 0..draws {
                let case = Case {
                    // Pin both ends of the sample and feature ranges.
                    n: match k {
                        0 => 1,
                        1 => 40,
                        _ => rng.gen_range(1..=40),
                    },
                    d: match k {
                        0 => 8,
                        1 => 1,
                        _ => rng.gen_range(1..=8),
                    },
                    hidden: hidden.to_vec(),
                    activation,
                    epochs: rng.gen_range(1..=30),
                    seed: rng.gen(),
                    lr: lrs[rng.gen_range(0..lrs.len())],
                    outlier_scale: 1.0,
                };
                for (i, (got, want)) in predictions(&case, rng.gen()).into_iter().enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "probe row {i}: kernel {got} vs textbook {want} \
                         (n {}, d {}, hidden {:?}, {:?}, epochs {}, seed {}, lr {})",
                        case.n,
                        case.d,
                        case.hidden,
                        case.activation,
                        case.epochs,
                        case.seed,
                        case.lr
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 1000, "only {checked} predictions compared");
}

#[test]
fn divergent_training_agrees_or_is_nan_on_both_sides() {
    // lr 1e6 blows the outputs up to ~1e19 but stays finite; lr 1e300
    // overflows to NaN.
    for lr in [1e6, 1e300] {
        for hidden in [vec![16], vec![64, 32]] {
            for activation in [Activation::Relu, Activation::Tanh] {
                let case = Case {
                    n: 24,
                    d: 5,
                    hidden: hidden.clone(),
                    activation,
                    epochs: 30,
                    seed: 7,
                    lr,
                    outlier_scale: 1.0,
                };
                for (got, want) in predictions(&case, 11) {
                    assert!(
                        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                        "lr {lr}, {hidden:?}, {activation:?}: kernel {got} vs textbook {want}"
                    );
                }
            }
        }
    }
}

#[test]
fn many_dead_relu_units_match_textbook() {
    // A large step kills many ReLU units within a few epochs, so most
    // hidden deltas are exactly zero and the backward pass skips them.
    for hidden in [vec![64, 32], vec![32, 16], vec![16]] {
        for seed in 0..4 {
            let case = Case {
                n: 40,
                d: 6,
                hidden: hidden.clone(),
                activation: Activation::Relu,
                epochs: 30,
                seed,
                lr: 0.3,
                outlier_scale: 1.0,
            };
            for (i, (got, want)) in predictions(&case, 100 + seed).into_iter().enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{hidden:?}, seed {seed}, probe row {i}: kernel {got} vs textbook {want}"
                );
            }
        }
    }
}

#[test]
fn overflowing_activations_take_the_full_backward_path() {
    // One training row near ±f64::MAX drives some first-layer activations
    // to +∞ while the weights are still finite. Where every second-layer
    // unit is dead for that row, its output stays finite and the zero
    // deltas meet those infinite activations: `0 × ∞ = NaN` poisons the
    // second-layer weights in the textbook, and must in the kernel too.
    for hidden in [vec![32, 3], vec![64, 4], vec![16, 2]] {
        for seed in 0..8 {
            let case = Case {
                n: 16,
                d: 8,
                hidden: hidden.clone(),
                activation: Activation::Relu,
                epochs: 4,
                seed,
                lr: 0.01,
                outlier_scale: f64::MAX / 2.0,
            };
            for (got, want) in predictions(&case, 200 + seed) {
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "{hidden:?}, seed {seed}: kernel {got} vs textbook {want}"
                );
            }
        }
    }
}
