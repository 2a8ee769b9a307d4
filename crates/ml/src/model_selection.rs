//! Cross-validation, train/test splitting, hyperparameter search and
//! learning curves (the evaluation protocol of §III and §IV).

use crate::estimator::Regressor;
use crate::metrics::RegressionScores;
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Split `n` samples into a shuffled train/test partition with
/// `train_fraction` of the data in the training set.
///
/// # Panics
///
/// Panics if the fraction is outside `(0, 1)` or either side would be
/// empty.
pub fn train_test_split(n: usize, train_fraction: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    assert!(
        train_fraction > 0.0 && train_fraction < 1.0,
        "train fraction must be in (0,1)"
    );
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    let k = ((n as f64) * train_fraction).round() as usize;
    let k = k.clamp(1, n - 1);
    let test = idx.split_off(k);
    (idx, test)
}

/// Plain k-fold cross-validation.
#[derive(Debug, Clone)]
pub struct KFold {
    /// Number of folds.
    pub n_splits: usize,
    /// Shuffle seed.
    pub seed: u64,
}

impl KFold {
    /// k-fold splitter.
    ///
    /// # Panics
    ///
    /// Panics if `n_splits < 2`.
    pub fn new(n_splits: usize, seed: u64) -> KFold {
        assert!(n_splits >= 2, "need at least 2 folds");
        KFold { n_splits, seed }
    }

    /// `(train, test)` index pairs for `n` samples.
    ///
    /// # Panics
    ///
    /// Panics if `n < n_splits`.
    pub fn split(&self, n: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
        assert!(n >= self.n_splits, "more folds than samples");
        let mut idx: Vec<usize> = (0..n).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        idx.shuffle(&mut rng);
        fold_indices(&idx, self.n_splits)
    }
}

/// Stratified k-fold for regression: targets are sorted and dealt
/// round-robin into folds, so every fold sees the full FDR range — the
/// "ten fold stratified cross validation" of §III-A.
#[derive(Debug, Clone)]
pub struct StratifiedKFold {
    /// Number of folds.
    pub n_splits: usize,
    /// Tie-breaking shuffle seed.
    pub seed: u64,
}

impl StratifiedKFold {
    /// Stratified splitter.
    ///
    /// # Panics
    ///
    /// Panics if `n_splits < 2`.
    pub fn new(n_splits: usize, seed: u64) -> StratifiedKFold {
        assert!(n_splits >= 2, "need at least 2 folds");
        StratifiedKFold { n_splits, seed }
    }

    /// `(train, test)` index pairs stratified on the continuous target.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() < n_splits`.
    pub fn split(&self, y: &[f64]) -> Vec<(Vec<usize>, Vec<usize>)> {
        let n = y.len();
        assert!(n >= self.n_splits, "more folds than samples");
        // Sort by target with seeded jitter for tie-breaking, then deal
        // consecutive samples into different folds.
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut order: Vec<usize> = (0..n).collect();
        let jitter: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 1e-9).collect();
        order.sort_by(|&a, &b| (y[a] + jitter[a]).total_cmp(&(y[b] + jitter[b])));

        let mut fold_of = vec![0usize; n];
        for (rank, &i) in order.iter().enumerate() {
            fold_of[i] = rank % self.n_splits;
        }
        (0..self.n_splits)
            .map(|f| {
                let test: Vec<usize> = (0..n).filter(|&i| fold_of[i] == f).collect();
                let train: Vec<usize> = (0..n).filter(|&i| fold_of[i] != f).collect();
                (train, test)
            })
            .collect()
    }

    /// The paper's fold protocol (§IV-B: CV = 10, training size = 50 %):
    /// the stratified folds of [`StratifiedKFold::split`], each training
    /// split cut down to `training_size` — a fraction of the **whole
    /// dataset** — by a seeded shuffle, so the kept rows are an unbiased
    /// random subset and the folds stay leakage-free.
    ///
    /// A fold keeps `round(y.len() × training_size)` rows, at least 2 and
    /// at most its whole training split (the rule of [`learning_curve`]).
    ///
    /// # Panics
    ///
    /// Panics if `training_size` is outside `(0, 1)` or
    /// `y.len() < n_splits`.
    pub fn split_with_training_size(
        &self,
        y: &[f64],
        training_size: f64,
    ) -> Vec<(Vec<usize>, Vec<usize>)> {
        assert!(
            training_size > 0.0 && training_size < 1.0,
            "training size must be in (0,1)"
        );
        let target = ((y.len() as f64) * training_size).round() as usize;
        self.split(y)
            .into_iter()
            .enumerate()
            .map(|(fold, (mut train, test))| {
                let seed = self.seed ^ ((fold as u64) << 20) ^ 0x51;
                train.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
                train.truncate(target.max(2).min(train.len()));
                (train, test)
            })
            .collect()
    }
}

/// Grouped cross-validation: each fold holds out one entire group — the
/// leave-one-circuit-out protocol of cross-circuit transfer estimation,
/// where a model must be scored on a circuit it never trained on.
#[derive(Debug, Clone, Default)]
pub struct GroupKFold;

impl GroupKFold {
    /// `(train, test)` index pairs, one fold per distinct group label,
    /// in order of first appearance. Fold `f`'s test set is exactly the
    /// indices whose label equals the `f`-th distinct label.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two distinct groups (no held-out fold
    /// would have disjoint training data).
    pub fn leave_one_out(groups: &[usize]) -> Vec<(Vec<usize>, Vec<usize>)> {
        let mut labels: Vec<usize> = Vec::new();
        for &g in groups {
            if !labels.contains(&g) {
                labels.push(g);
            }
        }
        assert!(
            labels.len() >= 2,
            "grouped CV needs at least 2 distinct groups, got {}",
            labels.len()
        );
        labels
            .iter()
            .map(|&label| {
                let test: Vec<usize> = (0..groups.len()).filter(|&i| groups[i] == label).collect();
                let train: Vec<usize> = (0..groups.len()).filter(|&i| groups[i] != label).collect();
                (train, test)
            })
            .collect()
    }
}

fn fold_indices(shuffled: &[usize], k: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    let n = shuffled.len();
    let base = n / k;
    let extra = n % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0usize;
    for f in 0..k {
        let len = base + usize::from(f < extra);
        let test: Vec<usize> = shuffled[start..start + len].to_vec();
        let train: Vec<usize> = shuffled[..start]
            .iter()
            .chain(&shuffled[start + len..])
            .copied()
            .collect();
        out.push((train, test));
        start += len;
    }
    out
}

/// Select rows of a design matrix / target vector.
pub fn take(x: &[Vec<f64>], y: &[f64], idx: &[usize]) -> (Vec<Vec<f64>>, Vec<f64>) {
    (
        idx.iter().map(|&i| x[i].clone()).collect(),
        idx.iter().map(|&i| y[i]).collect(),
    )
}

/// Per-fold and aggregate results of a cross-validation run.
#[derive(Debug, Clone)]
pub struct CvResult {
    /// Test-fold scores, one per fold.
    pub fold_scores: Vec<RegressionScores>,
}

impl CvResult {
    /// Mean test-fold scores.
    pub fn mean_test(&self) -> RegressionScores {
        RegressionScores::mean(&self.fold_scores)
    }
}

/// Cross-validate a model factory over the given folds.
///
/// `factory` must return a *fresh, unfitted* model; one is created per
/// fold.
pub fn cross_validate<M: Regressor>(
    factory: impl Fn() -> M,
    x: &[Vec<f64>],
    y: &[f64],
    folds: &[(Vec<usize>, Vec<usize>)],
) -> CvResult {
    let mut fold_scores = Vec::with_capacity(folds.len());
    for (train, test) in folds {
        let (tx, ty) = take(x, y, train);
        let (vx, vy) = take(x, y, test);
        let mut model = factory();
        model.fit(&tx, &ty);
        fold_scores.push(RegressionScores::compute(&vy, &model.predict(&vx)));
    }
    CvResult { fold_scores }
}

/// One point of a learning curve.
#[derive(Debug, Clone)]
pub struct LearningCurvePoint {
    /// Fraction of the data used for training.
    pub train_fraction: f64,
    /// Mean training R² at this size.
    pub train_r2: f64,
    /// Mean test R² at this size.
    pub test_r2: f64,
    /// Full mean score bundles for deeper analysis.
    pub train_scores: RegressionScores,
    /// Test-score bundle.
    pub test_scores: RegressionScores,
}

/// Compute a learning curve (Figs. 2b/3b/4b of the paper): for each
/// requested training fraction, the model is trained on that fraction of
/// each CV-fold's training split and evaluated on the fold's test split.
pub fn learning_curve<M: Regressor>(
    factory: impl Fn() -> M,
    x: &[Vec<f64>],
    y: &[f64],
    fractions: &[f64],
    folds: &[(Vec<usize>, Vec<usize>)],
    seed: u64,
) -> Vec<LearningCurvePoint> {
    let mut points = Vec::with_capacity(fractions.len());
    for (fi, &fraction) in fractions.iter().enumerate() {
        assert!(fraction > 0.0 && fraction <= 1.0, "bad fraction {fraction}");
        let mut train_scores = Vec::new();
        let mut test_scores = Vec::new();
        for (fold_i, (train, test)) in folds.iter().enumerate() {
            let keep = ((train.len() as f64) * fraction).round().max(2.0) as usize;
            let keep = keep.min(train.len());
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (fi as u64) << 32 ^ fold_i as u64);
            let mut subset = train.clone();
            subset.shuffle(&mut rng);
            subset.truncate(keep);
            let (tx, ty) = take(x, y, &subset);
            let (vx, vy) = take(x, y, test);
            let mut model = factory();
            model.fit(&tx, &ty);
            train_scores.push(RegressionScores::compute(&ty, &model.predict(&tx)));
            test_scores.push(RegressionScores::compute(&vy, &model.predict(&vx)));
        }
        let tr = RegressionScores::mean(&train_scores);
        let te = RegressionScores::mean(&test_scores);
        points.push(LearningCurvePoint {
            train_fraction: fraction,
            train_r2: tr.r2,
            test_r2: te.r2,
            train_scores: tr,
            test_scores: te,
        });
    }
    points
}

/// Result of a hyperparameter search.
#[derive(Debug, Clone)]
pub struct SearchResult<P> {
    /// The best parameter set found.
    pub best_params: P,
    /// Mean test scores of the best parameter set.
    pub best_scores: RegressionScores,
    /// Every `(params, mean test scores)` evaluated, in evaluation order.
    pub evaluated: Vec<(P, RegressionScores)>,
}

/// Exhaustive grid search over explicit parameter sets, ranked by mean
/// test R² (the paper's §III-A protocol: random search first, then a grid
/// around the best region).
///
/// # Panics
///
/// Panics if `params` is empty.
pub fn grid_search<P: Clone, M: Regressor>(
    params: &[P],
    factory: impl Fn(&P) -> M,
    x: &[Vec<f64>],
    y: &[f64],
    folds: &[(Vec<usize>, Vec<usize>)],
) -> SearchResult<P> {
    assert!(!params.is_empty(), "empty parameter grid");
    let mut evaluated = Vec::with_capacity(params.len());
    let mut best: Option<(usize, RegressionScores)> = None;
    for (i, p) in params.iter().enumerate() {
        let cv = cross_validate(|| factory(p), x, y, folds);
        let scores = cv.mean_test();
        if best.as_ref().is_none_or(|(_, b)| scores.r2 > b.r2) {
            best = Some((i, scores));
        }
        evaluated.push((p.clone(), scores));
    }
    let (bi, bs) = best.expect("non-empty grid");
    SearchResult {
        best_params: params[bi].clone(),
        best_scores: bs,
        evaluated,
    }
}

/// Random search: draw `n_iter` parameter sets from `sampler` and rank
/// them like [`grid_search`].
///
/// # Panics
///
/// Panics if `n_iter == 0`.
pub fn random_search<P: Clone, M: Regressor>(
    n_iter: usize,
    seed: u64,
    mut sampler: impl FnMut(&mut ChaCha8Rng) -> P,
    factory: impl Fn(&P) -> M,
    x: &[Vec<f64>],
    y: &[f64],
    folds: &[(Vec<usize>, Vec<usize>)],
) -> SearchResult<P> {
    assert!(n_iter > 0);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let params: Vec<P> = (0..n_iter).map(|_| sampler(&mut rng)).collect();
    grid_search(&params, factory, x, y, folds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::{Distance, KnnRegressor, WeightScheme};
    use crate::linear::LinearRegression;

    fn linear_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i % 17) as f64, (i % 5) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] - 2.0 * r[1] + 1.0).collect();
        (x, y)
    }

    #[test]
    fn split_sizes_and_disjointness() {
        let (train, test) = train_test_split(100, 0.5, 42);
        assert_eq!(train.len(), 50);
        assert_eq!(test.len(), 50);
        let mut all: Vec<usize> = train.iter().chain(&test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn kfold_partitions_everything() {
        let folds = KFold::new(10, 1).split(103);
        assert_eq!(folds.len(), 10);
        let mut seen = vec![0usize; 103];
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), 103);
            for &t in test {
                seen[t] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "each sample tested once");
    }

    #[test]
    fn stratified_folds_balance_target_range() {
        // Bimodal target, mimicking FDR distributions.
        let y: Vec<f64> = (0..100).map(|i| if i < 50 { 0.02 } else { 0.9 }).collect();
        let folds = StratifiedKFold::new(10, 3).split(&y);
        for (_, test) in &folds {
            let high = test.iter().filter(|&&i| y[i] > 0.5).count();
            assert_eq!(high, 5, "each fold holds half high-FDR samples");
        }
    }

    #[test]
    fn training_size_protocol_truncates_folds() {
        let y: Vec<f64> = (0..100).map(|i| ((i * 37) % 101) as f64 / 101.0).collect();
        let folds = StratifiedKFold::new(5, 1).split_with_training_size(&y, 0.3);
        for (train, test) in &folds {
            assert_eq!(train.len(), 30);
            assert_eq!(test.len(), 20);
        }
    }

    #[test]
    fn training_size_protocol_keeps_short_training_splits_whole() {
        // n = 3 in 2 folds: one fold trains on a single row, below the
        // floor of 2 — it keeps that row instead of panicking.
        let y = [0.1, 0.5, 0.9];
        let folds = StratifiedKFold::new(2, 0).split_with_training_size(&y, 0.5);
        let mut train_lens: Vec<usize> = folds.iter().map(|(train, _)| train.len()).collect();
        train_lens.sort_unstable();
        assert_eq!(train_lens, [1, 2]);
    }

    #[test]
    fn cross_validate_perfect_model() {
        let (x, y) = linear_data(60);
        let folds = KFold::new(5, 7).split(x.len());
        let cv = cross_validate(LinearRegression::new, &x, &y, &folds);
        assert!(cv.mean_test().r2 > 0.999999);
        assert_eq!(cv.fold_scores.len(), 5);
    }

    #[test]
    fn learning_curve_improves_with_data() {
        // k-NN on a noisy-ish nonlinear target benefits from more data.
        let x: Vec<Vec<f64>> = (0..200).map(|i| vec![(i as f64) * 0.05]).collect();
        let y: Vec<f64> = x.iter().map(|r| (r[0]).sin()).collect();
        let folds = KFold::new(5, 2).split(x.len());
        let pts = learning_curve(
            || KnnRegressor::new(3, Distance::Euclidean, WeightScheme::Uniform),
            &x,
            &y,
            &[0.1, 0.5, 1.0],
            &folds,
            9,
        );
        assert_eq!(pts.len(), 3);
        assert!(
            pts[2].test_r2 >= pts[0].test_r2,
            "more data should not hurt: {} vs {}",
            pts[2].test_r2,
            pts[0].test_r2
        );
    }

    #[test]
    fn grid_search_finds_the_better_k() {
        let x: Vec<Vec<f64>> = (0..120).map(|i| vec![(i as f64) * 0.1]).collect();
        let y: Vec<f64> = x.iter().map(|r| (r[0]).sin()).collect();
        let folds = KFold::new(4, 5).split(x.len());
        let res = grid_search(
            &[1usize, 3, 60],
            |&k| KnnRegressor::new(k, Distance::Euclidean, WeightScheme::Uniform),
            &x,
            &y,
            &folds,
        );
        assert_ne!(res.best_params, 60, "absurdly large k must lose");
        assert_eq!(res.evaluated.len(), 3);
        assert!(res.best_scores.r2 > 0.9);
    }

    #[test]
    fn random_search_is_deterministic() {
        let (x, y) = linear_data(40);
        let folds = KFold::new(4, 0).split(x.len());
        let run = |seed| {
            random_search(
                5,
                seed,
                |rng| rng.gen_range(1usize..10),
                |&k| KnnRegressor::new(k, Distance::Manhattan, WeightScheme::Uniform),
                &x,
                &y,
                &folds,
            )
            .best_params
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    #[should_panic(expected = "more folds than samples")]
    fn too_many_folds_panics() {
        let _ = KFold::new(10, 0).split(5);
    }

    /// Every fold's train set is exactly the complement of its test set,
    /// and the test sets tile `0..n` — each index tested exactly once.
    fn assert_exact_partition(folds: &[(Vec<usize>, Vec<usize>)], n: usize) {
        let mut tested = vec![0usize; n];
        for (train, test) in folds {
            assert_eq!(train.len() + test.len(), n);
            let mut seen = vec![false; n];
            for &i in test {
                tested[i] += 1;
                seen[i] = true;
            }
            for &i in train {
                assert!(!seen[i], "index {i} in both train and test");
                seen[i] = true;
            }
            assert!(seen.iter().all(|&s| s), "fold misses an index");
        }
        assert!(
            tested.iter().all(|&c| c == 1),
            "an index was tested {:?} times",
            tested.iter().max()
        );
    }

    #[test]
    fn group_kfold_holds_out_whole_groups() {
        let groups = [0usize, 0, 1, 1, 1, 2, 0];
        let folds = GroupKFold::leave_one_out(&groups);
        assert_eq!(folds.len(), 3, "one fold per distinct group");
        assert_exact_partition(&folds, groups.len());
        for (train, test) in &folds {
            let held: std::collections::HashSet<usize> = test.iter().map(|&i| groups[i]).collect();
            assert_eq!(held.len(), 1, "test fold spans one group");
            let label = *held.iter().next().unwrap();
            assert!(
                train.iter().all(|&i| groups[i] != label),
                "held-out group leaks into training"
            );
        }
        // Fold order follows first appearance of each label.
        assert_eq!(folds[0].1, vec![0, 1, 6]);
        assert_eq!(folds[1].1, vec![2, 3, 4]);
        assert_eq!(folds[2].1, vec![5]);
    }

    #[test]
    #[should_panic(expected = "at least 2 distinct groups")]
    fn group_kfold_rejects_single_group() {
        let _ = GroupKFold::leave_one_out(&[7, 7, 7]);
    }

    #[test]
    fn kfold_covers_every_index_exactly_once() {
        // Uneven sizes included: n not divisible by k.
        for (n, k) in [(10usize, 2usize), (103, 10), (7, 7), (24, 5)] {
            assert_exact_partition(&KFold::new(k, 42).split(n), n);
        }
    }

    #[test]
    fn stratified_kfold_covers_every_index_exactly_once() {
        // Continuous, tied and constant targets (ties exercise the
        // seeded jitter path).
        let targets: [Vec<f64>; 3] = [
            (0..53).map(|i| (i as f64) / 53.0).collect(),
            (0..40)
                .map(|i| if i % 2 == 0 { 0.0 } else { 0.9 })
                .collect(),
            vec![0.5; 17],
        ];
        for y in &targets {
            for k in [2usize, 5] {
                assert_exact_partition(&StratifiedKFold::new(k, 3).split(y), y.len());
            }
        }
    }
}
