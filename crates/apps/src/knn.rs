//! K-nearest-neighbours classification.
//!
//! The paper's classification benchmark (Table 1): human activity recognition
//! from accelerometer features, evaluated with the classification score
//! (accuracy). KNN stores its entire training set in memory, which makes it a
//! natural candidate for studying memory-fault resilience — a corrupted
//! training sample only shifts a few neighbourhood votes.

use crate::error::AppError;
use crate::linalg::Matrix;
use crate::metrics::accuracy_score;

/// Brute-force KNN classifier with Euclidean distance and majority voting.
///
/// # Example
///
/// ```
/// use faultmit_apps::{KnnClassifier, Matrix};
///
/// # fn main() -> Result<(), faultmit_apps::AppError> {
/// let train = Matrix::from_rows(&[
///     vec![0.0, 0.0], vec![0.1, 0.1], vec![5.0, 5.0], vec![5.1, 4.9],
/// ])?;
/// let labels = vec![0, 0, 1, 1];
/// let mut knn = KnnClassifier::new(3)?;
/// knn.fit(&train, &labels)?;
/// let test = Matrix::from_rows(&[vec![0.05, 0.0], vec![4.9, 5.2]])?;
/// assert_eq!(knn.predict(&test)?, vec![0, 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KnnClassifier {
    k: usize,
    train_x: Option<Matrix>,
    train_y: Option<Vec<usize>>,
}

impl KnnClassifier {
    /// Creates a classifier using the `k` nearest neighbours.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::InvalidParameter`] when `k` is zero.
    pub fn new(k: usize) -> Result<Self, AppError> {
        if k == 0 {
            return Err(AppError::InvalidParameter {
                reason: "k must be at least 1".to_owned(),
            });
        }
        Ok(Self {
            k,
            train_x: None,
            train_y: None,
        })
    }

    /// The paper-style configuration (`k = 5`).
    ///
    /// # Errors
    ///
    /// Never fails; kept fallible for signature uniformity.
    pub fn paper_default() -> Result<Self, AppError> {
        Self::new(5)
    }

    /// Number of neighbours consulted per prediction.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Stores the training set (KNN is a lazy learner).
    ///
    /// # Errors
    ///
    /// Returns [`AppError::DimensionMismatch`] when `x` and `labels` disagree
    /// on the sample count, `x` has no feature column, or the training set is
    /// smaller than `k`.
    pub fn fit(&mut self, x: &Matrix, labels: &[usize]) -> Result<(), AppError> {
        if x.rows() != labels.len() {
            return Err(AppError::DimensionMismatch {
                reason: format!("{} samples but {} labels", x.rows(), labels.len()),
            });
        }
        if x.cols() == 0 {
            return Err(AppError::DimensionMismatch {
                reason: "need at least one feature".to_owned(),
            });
        }
        if x.rows() < self.k {
            return Err(AppError::DimensionMismatch {
                reason: format!(
                    "need at least k = {} training samples, got {}",
                    self.k,
                    x.rows()
                ),
            });
        }
        self.train_x = Some(x.clone());
        self.train_y = Some(labels.to_vec());
        Ok(())
    }

    /// Predicts labels for each row of `x`.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::NotFitted`] before [`KnnClassifier::fit`], or a
    /// dimension error when the feature count differs from the training data.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<usize>, AppError> {
        let (train_x, train_y) = self.fitted()?;
        if x.cols() != train_x.cols() {
            return Err(AppError::DimensionMismatch {
                reason: format!(
                    "model was trained on {} features but got {}",
                    train_x.cols(),
                    x.cols()
                ),
            });
        }
        Ok(x.as_slice()
            .chunks_exact(x.cols())
            .map(|query| self.vote(query, train_x, train_y))
            .collect())
    }

    /// Classification accuracy on a labelled test set — the paper's "score"
    /// metric for the activity-recognition benchmark.
    ///
    /// # Errors
    ///
    /// Propagates prediction and metric errors.
    pub fn score(&self, x: &Matrix, labels: &[usize]) -> Result<f64, AppError> {
        accuracy_score(labels, &self.predict(x)?)
    }

    fn fitted(&self) -> Result<(&Matrix, &Vec<usize>), AppError> {
        match (&self.train_x, &self.train_y) {
            (Some(x), Some(y)) => Ok((x, y)),
            _ => Err(AppError::NotFitted {
                model: "KnnClassifier".to_owned(),
            }),
        }
    }

    fn vote(&self, query: &[f64], train_x: &Matrix, train_y: &[usize]) -> usize {
        // Squared distance to every training sample, tagged with its index.
        let mut distances: Vec<(f64, usize)> = train_x
            .as_slice()
            .chunks_exact(train_x.cols())
            .enumerate()
            .map(|(i, sample)| {
                let mut d = 0.0;
                for (&t, &q) in sample.iter().zip(query) {
                    let diff = t - q;
                    d += diff * diff;
                }
                (d, i)
            })
            .collect();
        // The k nearest under (distance, training index) order: the same set
        // a stable sort by distance would put first, without sorting the rest.
        if self.k < distances.len() {
            distances.select_nth_unstable_by(self.k, |a, b| {
                a.0.partial_cmp(&b.0)
                    .expect("distances are finite")
                    .then(a.1.cmp(&b.1))
            });
        }

        // Majority vote over the k nearest; ties break towards the smaller
        // label for determinism.
        let mut counts: std::collections::BTreeMap<usize, usize> =
            std::collections::BTreeMap::new();
        for &(_, i) in distances.iter().take(self.k) {
            *counts.entry(train_y[i]).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(label, _)| label)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clusters() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            rows.push(vec![0.0 + 0.05 * i as f64, 0.0]);
            labels.push(0);
            rows.push(vec![10.0 - 0.05 * i as f64, 10.0]);
            labels.push(1);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn constructor_validates_k() {
        assert!(KnnClassifier::new(0).is_err());
        assert_eq!(KnnClassifier::new(3).unwrap().k(), 3);
        assert_eq!(KnnClassifier::paper_default().unwrap().k(), 5);
    }

    #[test]
    fn separable_clusters_are_classified_perfectly() {
        let (x, y) = clusters();
        let mut knn = KnnClassifier::new(3).unwrap();
        knn.fit(&x, &y).unwrap();
        assert_eq!(knn.score(&x, &y).unwrap(), 1.0);
        let test = Matrix::from_rows(&[vec![0.2, 0.1], vec![9.5, 9.8]]).unwrap();
        assert_eq!(knn.predict(&test).unwrap(), vec![0, 1]);
    }

    #[test]
    fn single_neighbour_memorises_training_data() {
        let (x, y) = clusters();
        let mut knn = KnnClassifier::new(1).unwrap();
        knn.fit(&x, &y).unwrap();
        assert_eq!(knn.predict(&x).unwrap(), y);
    }

    #[test]
    fn majority_vote_overrules_single_outlier() {
        // Two class-0 points near the query, one class-1 point exactly on it.
        let x = Matrix::from_rows(&[
            vec![0.1, 0.0],
            vec![-0.1, 0.0],
            vec![0.0, 0.0],
            vec![5.0, 5.0],
        ])
        .unwrap();
        let y = vec![0, 0, 1, 1];
        let mut knn = KnnClassifier::new(3).unwrap();
        knn.fit(&x, &y).unwrap();
        let query = Matrix::from_rows(&[vec![0.0, 0.01]]).unwrap();
        assert_eq!(knn.predict(&query).unwrap(), vec![0]);
    }

    #[test]
    fn unfitted_model_is_rejected() {
        let knn = KnnClassifier::new(3).unwrap();
        assert!(matches!(
            knn.predict(&Matrix::zeros(1, 2)),
            Err(AppError::NotFitted { .. })
        ));
    }

    #[test]
    fn fit_and_predict_validate_shapes() {
        let (x, y) = clusters();
        let mut knn = KnnClassifier::new(3).unwrap();
        assert!(knn.fit(&x, &y[..3]).is_err());
        assert!(knn.fit(&Matrix::zeros(2, 2), &[0, 1]).is_err()); // fewer than k samples
        assert!(knn.fit(&Matrix::zeros(4, 0), &[0, 1, 0, 1]).is_err()); // no feature
        knn.fit(&x, &y).unwrap();
        assert!(knn.predict(&Matrix::zeros(1, 5)).is_err());
    }

    #[test]
    fn nearest_k_selection_matches_a_full_stable_sort() {
        // Integer coordinates on a small grid make equal distances common,
        // so the (distance, index) tie order decides which samples vote.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut points = |n: usize| -> Vec<Vec<f64>> {
            (0..n)
                .map(|_| (0..3).map(|_| draw(4) as f64).collect())
                .collect()
        };
        let train = points(40);
        let queries = points(60);
        let labels: Vec<usize> = (0..40).map(|_| draw(4) as usize).collect();
        let train = Matrix::from_rows(&train).unwrap();
        for k in 1..=9 {
            let mut knn = KnnClassifier::new(k).unwrap();
            knn.fit(&train, &labels).unwrap();
            for query in &queries {
                let mut sorted: Vec<(f64, usize)> = (0..train.rows())
                    .map(|i| {
                        let d = (0..3).map(|c| (train.get(i, c) - query[c]).powi(2)).sum();
                        (d, labels[i])
                    })
                    .collect();
                sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                let mut counts = std::collections::BTreeMap::new();
                for &(_, label) in sorted.iter().take(k) {
                    *counts.entry(label).or_insert(0usize) += 1;
                }
                let expected = counts
                    .into_iter()
                    .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                    .map(|(label, _)| label)
                    .unwrap();
                let predicted =
                    knn.predict(&Matrix::from_rows(std::slice::from_ref(query)).unwrap());
                assert_eq!(predicted.unwrap(), vec![expected], "k = {k}, {query:?}");
            }
        }
    }

    #[test]
    fn tie_breaks_are_deterministic() {
        // k = 2 with one neighbour from each class: the smaller label wins.
        let x = Matrix::from_rows(&[vec![1.0], vec![-1.0]]).unwrap();
        let y = vec![0, 1];
        let mut knn = KnnClassifier::new(2).unwrap();
        knn.fit(&x, &y).unwrap();
        let query = Matrix::from_rows(&[vec![0.0]]).unwrap();
        assert_eq!(knn.predict(&query).unwrap(), vec![0]);
    }

    #[test]
    fn corrupting_one_training_sample_changes_few_predictions() {
        // The error-resilience property the paper relies on: a single
        // corrupted training row barely moves the decision boundary.
        let (x, y) = clusters();
        let mut clean = KnnClassifier::new(5).unwrap();
        clean.fit(&x, &y).unwrap();

        let mut corrupted_x = x.clone();
        corrupted_x.set(0, 0, 1000.0); // one wildly corrupted feature
        let mut corrupted = KnnClassifier::new(5).unwrap();
        corrupted.fit(&corrupted_x, &y).unwrap();

        let test = Matrix::from_rows(&[
            vec![0.1, 0.2],
            vec![9.9, 9.7],
            vec![0.3, -0.1],
            vec![10.2, 10.1],
        ])
        .unwrap();
        let expected = vec![0, 1, 0, 1];
        assert_eq!(clean.predict(&test).unwrap(), expected);
        assert_eq!(corrupted.predict(&test).unwrap(), expected);
    }
}
