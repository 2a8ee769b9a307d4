//! The presorted CART kernel behind [`DecisionTreeRegressor`],
//! [`RandomForestRegressor`] and [`GradientBoostingRegressor`] is
//! bit-identical to textbook CART, which sorts every feature at every
//! node.
//!
//! [`Textbook`] is a **test-only oracle**: the per-node-sort tree the
//! kernel replaced, plus the forest's bootstrap loop (a cloned copy of
//! every bootstrap row) and the boosting stage loop (a fresh tree on the
//! residuals, then a per-row `predict_one`), with and without row
//! subsampling. It shares no code with the kernel. A seeded sweep over
//! sample counts, feature counts, heavily tied discrete features, ±0.0
//! values, adjacent floats, duplicate rows, leaf and depth limits and
//! forest feature sampling asserts the same node counts and the same
//! prediction bits on the training rows and on probe rows.

use ffr_ml::{DecisionTreeRegressor, GradientBoostingRegressor, RandomForestRegressor, Regressor};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

enum Node {
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// The per-node-sort reference tree.
struct Textbook {
    max_depth: usize,
    min_samples_split: usize,
    min_samples_leaf: usize,
    max_features: Option<usize>,
    nodes: Vec<Node>,
}

impl Textbook {
    fn fit(
        (max_depth, min_samples_split, min_samples_leaf): (usize, usize, usize),
        max_features: Option<usize>,
        x: &[Vec<f64>],
        y: &[f64],
        mut rng: Option<&mut ChaCha8Rng>,
    ) -> Textbook {
        let mut tree = Textbook {
            max_depth,
            min_samples_split,
            min_samples_leaf,
            max_features,
            nodes: Vec::new(),
        };
        tree.grow(x, y, (0..x.len()).collect(), 0, &mut rng);
        tree
    }

    fn grow(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        idx: Vec<usize>,
        depth: usize,
        rng: &mut Option<&mut ChaCha8Rng>,
    ) -> usize {
        let mean = idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len() as f64;
        let impure = idx.iter().any(|&i| (y[i] - mean).abs() > 1e-15);
        if depth >= self.max_depth || idx.len() < self.min_samples_split || !impure {
            self.nodes.push(Node::Leaf(mean));
            return self.nodes.len() - 1;
        }
        let d = x[0].len();
        let features: Vec<usize> = match (self.max_features, rng.as_deref_mut()) {
            (Some(k), Some(rng)) if k < d => {
                let mut all: Vec<usize> = (0..d).collect();
                for i in 0..k {
                    let j = rng.gen_range(i..d);
                    all.swap(i, j);
                }
                all.truncate(k);
                all
            }
            _ => (0..d).collect(),
        };
        let Some((feature, threshold)) = best_split(x, y, &idx, &features, self.min_samples_leaf)
        else {
            self.nodes.push(Node::Leaf(mean));
            return self.nodes.len() - 1;
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            idx.into_iter().partition(|&i| x[i][feature] <= threshold);
        let node = self.nodes.len();
        self.nodes.push(Node::Leaf(mean));
        let left = self.grow(x, y, left_idx, depth + 1, rng);
        let right = self.grow(x, y, right_idx, depth + 1, rng);
        self.nodes[node] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        node
    }

    fn predict_one(&self, x: &[f64]) -> f64 {
        let mut node = 0;
        loop {
            match self.nodes[node] {
                Node::Leaf(value) => return value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => node = if x[feature] <= threshold { left } else { right },
            }
        }
    }
}

fn best_split(
    x: &[Vec<f64>],
    y: &[f64],
    idx: &[usize],
    features: &[usize],
    min_leaf: usize,
) -> Option<(usize, f64)> {
    let n = idx.len();
    let mut best: Option<(usize, f64, f64)> = None;
    for &f in features {
        let mut order: Vec<usize> = idx.to_vec();
        order.sort_by(|&a, &b| x[a][f].total_cmp(&x[b][f]));
        let mut sum_left = 0.0;
        let mut sq_left = 0.0;
        let total_sum: f64 = order.iter().map(|&i| y[i]).sum();
        let total_sq: f64 = order.iter().map(|&i| y[i] * y[i]).sum();
        for cut in 1..n {
            let i = order[cut - 1];
            sum_left += y[i];
            sq_left += y[i] * y[i];
            let (a, b) = (x[order[cut - 1]][f], x[order[cut]][f]);
            if a == b || cut < min_leaf || n - cut < min_leaf {
                continue;
            }
            let nl = cut as f64;
            let nr = (n - cut) as f64;
            let sse_left = sq_left - sum_left * sum_left / nl;
            let sum_right = total_sum - sum_left;
            let sse_right = (total_sq - sq_left) - sum_right * sum_right / nr;
            let sse = sse_left + sse_right;
            let mid = 0.5 * (a + b);
            let threshold = if a <= mid && mid < b { mid } else { a };
            if best.is_none_or(|(_, _, s)| sse < s) {
                best = Some((f, threshold, sse));
            }
        }
    }
    best.map(|(f, t, _)| (f, t))
}

/// The forest's bootstrap loop over cloned rows.
fn textbook_forest(
    x: &[Vec<f64>],
    y: &[f64],
    (n_trees, max_depth, min_leaf): (usize, usize, usize),
    fraction: f64,
    seed: u64,
) -> Vec<Textbook> {
    let (n, d) = (x.len(), x[0].len());
    let max_features = if fraction > 0.0 {
        ((d as f64 * fraction).round() as usize).clamp(1, d)
    } else {
        (d as f64).sqrt().round().max(1.0) as usize
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n_trees)
        .map(|_| {
            let mut bx = Vec::new();
            let mut by = Vec::new();
            for _ in 0..n {
                let i = rng.gen_range(0..n);
                bx.push(x[i].clone());
                by.push(y[i]);
            }
            let limits = (max_depth, 2, min_leaf);
            Textbook::fit(limits, Some(max_features), &bx, &by, Some(&mut rng))
        })
        .collect()
}

/// The boosting stage loop; `subsample` is `(fraction, seed)`.
fn textbook_boosting(
    x: &[Vec<f64>],
    y: &[f64],
    (n_estimators, lr, max_depth): (usize, f64, usize),
    subsample: Option<(f64, u64)>,
) -> (f64, Vec<Textbook>) {
    let n = x.len();
    let base = y.iter().sum::<f64>() / n as f64;
    let mut current = vec![base; n];
    let mut rng = ChaCha8Rng::seed_from_u64(subsample.map_or(0, |(_, seed)| seed));
    let mut stages = Vec::new();
    for _ in 0..n_estimators {
        let residual: Vec<f64> = y.iter().zip(&current).map(|(t, p)| t - p).collect();
        let tree = match subsample {
            Some((fraction, _)) => {
                let keep = ((n as f64 * fraction).round() as usize).max(2).min(n);
                let mut idx: Vec<usize> = (0..n).collect();
                for i in 0..keep {
                    let j = rng.gen_range(i..n);
                    idx.swap(i, j);
                }
                idx.truncate(keep);
                let fit_x: Vec<Vec<f64>> = idx.iter().map(|&i| x[i].clone()).collect();
                let fit_r: Vec<f64> = idx.iter().map(|&i| residual[i]).collect();
                Textbook::fit((max_depth, 2, 1), None, &fit_x, &fit_r, None)
            }
            None => Textbook::fit((max_depth, 2, 1), None, x, &residual, None),
        };
        for (c, xi) in current.iter_mut().zip(x) {
            *c += lr * tree.predict_one(xi);
        }
        stages.push(tree);
    }
    (base, stages)
}

fn textbook_boosting_predict((base, stages): &(f64, Vec<Textbook>), lr: f64, x: &[f64]) -> f64 {
    base + stages.iter().map(|t| lr * t.predict_one(x)).sum::<f64>()
}

/// Values drawn for the discrete features: heavy ties, both zeros and two
/// adjacent floats whose midpoint rounds up.
fn tied_value(rng: &mut ChaCha8Rng) -> f64 {
    let a = f64::from_bits(1.0f64.to_bits() + 1);
    let pool = [
        -1.5,
        -0.0,
        0.0,
        0.25,
        a,
        f64::from_bits(a.to_bits() + 1),
        3.0,
    ];
    pool[rng.gen_range(0..pool.len())]
}

/// A data set of `n` rows: odd features continuous, even features tied,
/// about a fifth of the rows duplicates of an earlier row (with their own
/// target), plus probe rows that include every training row.
fn data(rng: &mut ChaCha8Rng, n: usize, d: usize) -> (Vec<Vec<f64>>, Vec<f64>, Vec<Vec<f64>>) {
    let row = |rng: &mut ChaCha8Rng| -> Vec<f64> {
        (0..d)
            .map(|f| {
                if f % 2 == 0 {
                    tied_value(rng)
                } else {
                    rng.gen_range(-2.0..2.0)
                }
            })
            .collect()
    };
    let mut x: Vec<Vec<f64>> = Vec::with_capacity(n);
    for i in 0..n {
        let r = if i > 0 && rng.gen_bool(0.2) {
            x[rng.gen_range(0..i)].clone()
        } else {
            row(rng)
        };
        x.push(r);
    }
    let y: Vec<f64> = x
        .iter()
        .map(|r| r.iter().map(|v| v.sin()).sum::<f64>() + rng.gen_range(-0.3..0.3))
        .collect();
    let mut probe = x.clone();
    probe.extend((0..6).map(|_| row(rng)));
    probe.push(vec![-0.0; d]);
    probe.push(vec![100.0; d]);
    (x, y, probe)
}

fn assert_same_bits(what: &str, probe: &[Vec<f64>], pairs: impl Fn(&[f64]) -> (f64, f64)) {
    for (i, r) in probe.iter().enumerate() {
        let (got, want) = pairs(r);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{what}, probe row {i}: kernel {got} vs textbook {want}"
        );
    }
}

/// Pins both ends of the sample range on the first two draws.
fn sample_count(rng: &mut ChaCha8Rng, k: usize) -> usize {
    match k {
        0 => 1,
        1 => 60,
        _ => rng.gen_range(1..=60),
    }
}

#[test]
fn tree_matches_textbook_bit_for_bit() {
    let mut rng = ChaCha8Rng::seed_from_u64(2019);
    for k in 0..300 {
        let n = sample_count(&mut rng, k);
        let d = rng.gen_range(1..=6);
        let (x, y, probe) = data(&mut rng, n, d);
        let limits = (
            rng.gen_range(1..=12),
            rng.gen_range(2..=4),
            rng.gen_range(1..=3),
        );
        let what = format!("tree n {n}, d {d}, limits {limits:?}");

        let mut kernel = DecisionTreeRegressor::new(limits.0, limits.1, limits.2);
        kernel.fit(&x, &y);
        let oracle = Textbook::fit(limits, None, &x, &y, None);
        assert_eq!(kernel.num_nodes(), oracle.nodes.len(), "{what}");
        assert_same_bits(&what, &probe, |r| {
            (kernel.predict_one(r), oracle.predict_one(r))
        });

        // The same tree with per-split feature sampling.
        let (k_features, seed) = (rng.gen_range(1..=d), rng.gen());
        let mut kernel =
            DecisionTreeRegressor::new(limits.0, limits.1, limits.2).with_max_features(k_features);
        kernel.fit_with_rng(&x, &y, Some(&mut ChaCha8Rng::seed_from_u64(seed)));
        let mut oracle_rng = ChaCha8Rng::seed_from_u64(seed);
        let oracle = Textbook::fit(limits, Some(k_features), &x, &y, Some(&mut oracle_rng));
        let what = format!("{what}, max_features {k_features}");
        assert_eq!(kernel.num_nodes(), oracle.nodes.len(), "{what}");
        assert_same_bits(&what, &probe, |r| {
            (kernel.predict_one(r), oracle.predict_one(r))
        });
    }
}

#[test]
fn forest_matches_textbook_bootstrap_bit_for_bit() {
    let mut rng = ChaCha8Rng::seed_from_u64(34);
    for k in 0..80 {
        let n = sample_count(&mut rng, k);
        let d = rng.gen_range(1..=6);
        let (x, y, probe) = data(&mut rng, n, d);
        let (n_trees, max_depth, min_leaf) = (
            rng.gen_range(1..=6),
            rng.gen_range(1..=12),
            rng.gen_range(1..=3),
        );
        // 0 selects the forest's √d default.
        let fraction = [0.0, 0.34, 0.5, 1.0][rng.gen_range(0..4)];
        let seed = rng.gen();
        let what = format!(
            "forest n {n}, d {d}, trees {n_trees}, depth {max_depth}, \
             leaf {min_leaf}, fraction {fraction}"
        );

        let mut kernel =
            RandomForestRegressor::new(n_trees, max_depth, seed).with_min_samples_leaf(min_leaf);
        if fraction > 0.0 {
            kernel = kernel.with_max_features_fraction(fraction);
        }
        kernel.fit(&x, &y);
        let oracle = textbook_forest(&x, &y, (n_trees, max_depth, min_leaf), fraction, seed);
        assert_eq!(kernel.num_trees(), oracle.len(), "{what}");
        assert_same_bits(&what, &probe, |r| {
            let mean = oracle.iter().map(|t| t.predict_one(r)).sum::<f64>() / oracle.len() as f64;
            (kernel.predict_one(r), mean)
        });
    }
}

#[test]
fn boosting_matches_textbook_stages_bit_for_bit() {
    let mut rng = ChaCha8Rng::seed_from_u64(150);
    for k in 0..100 {
        let n = sample_count(&mut rng, k);
        let d = rng.gen_range(1..=6);
        let (x, y, probe) = data(&mut rng, n, d);
        let (stages, lr, max_depth) = (
            rng.gen_range(1..=12),
            [0.05, 0.1, 0.3, 1.0][rng.gen_range(0..4)],
            rng.gen_range(1..=5),
        );
        // Every other case subsamples its rows.
        let subsample = (k % 2 == 1).then(|| (rng.gen_range(0.1..1.0), rng.gen()));
        let what = format!(
            "boosting n {n}, d {d}, stages {stages}, lr {lr}, depth {max_depth}, \
             subsample {subsample:?}"
        );

        let mut kernel = GradientBoostingRegressor::new(stages, lr, max_depth);
        if let Some((fraction, seed)) = subsample {
            kernel = kernel.with_subsample(fraction, seed);
        }
        kernel.fit(&x, &y);
        let oracle = textbook_boosting(&x, &y, (stages, lr, max_depth), subsample);
        assert_eq!(kernel.num_stages(), oracle.1.len(), "{what}");
        assert_same_bits(&what, &probe, |r| {
            (
                kernel.predict_one(r),
                textbook_boosting_predict(&oracle, lr, r),
            )
        });
    }
}
