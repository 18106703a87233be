//! The quality-aware yield criterion of §4 (Eq. (3)–(5)).
//!
//! The traditional yield criterion rejects every die with one or more
//! failures. The paper relaxes it: a die passes as long as its quality
//! (here: the local MSE of Eq. (6)) stays below an application-specific
//! threshold. The yield is then
//!
//! ```text
//!   Pr(Q ≤ q_max) = Σ_n Pr(N = n) · Pr(Q ≤ q_max | N = n)
//! ```
//!
//! [`YieldModel`] combines the binomial failure-count distribution
//! (Eq. (4)) with per-failure-count quality distributions estimated by
//! Monte-Carlo fault injection, and answers both directions of the question:
//! the yield at a given quality constraint, and the quality constraint that
//! must be tolerated to reach a given yield target.

use crate::cdf::EmpiricalCdf;
use crate::error::AnalysisError;
use faultmit_memsim::FailureCountDistribution;
use faultmit_obs as obs;
use std::collections::BTreeMap;

/// A `(target yield, tolerated quality)` pair, e.g. "99.9999 % of dies have
/// MSE below 10⁶".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityBand {
    /// The yield target in `[0, 1]`.
    pub target_yield: f64,
    /// The smallest quality threshold (lower quality value = better, e.g.
    /// MSE) that achieves the target yield.
    pub max_quality: f64,
}

/// Joint failure-count / quality model implementing Eq. (3)–(5).
///
/// Quality values are "lower is better" (the paper uses MSE). Dies with zero
/// failures are assumed to have perfect quality (value 0).
#[derive(Debug, Clone)]
pub struct YieldModel {
    distribution: FailureCountDistribution,
    per_count: BTreeMap<u64, EmpiricalCdf>,
}

impl YieldModel {
    /// Creates a model for the given failure-count distribution.
    #[must_use]
    pub fn new(distribution: FailureCountDistribution) -> Self {
        Self {
            distribution,
            per_count: BTreeMap::new(),
        }
    }

    /// The underlying failure-count distribution.
    #[must_use]
    pub fn distribution(&self) -> &FailureCountDistribution {
        &self.distribution
    }

    /// Builds a model directly from per-failure-count quality CDFs — the
    /// parallel pipeline's reduction output.
    #[must_use]
    pub fn from_per_count(
        distribution: FailureCountDistribution,
        per_count: BTreeMap<u64, EmpiricalCdf>,
    ) -> Self {
        Self {
            distribution,
            per_count,
        }
    }

    /// Adds Monte-Carlo quality samples observed for dies with exactly
    /// `failures` failures.
    pub fn add_samples<I>(&mut self, failures: u64, samples: I)
    where
        I: IntoIterator<Item = f64>,
    {
        let cdf = self.per_count.entry(failures).or_default();
        for sample in samples {
            cdf.add(sample, 1.0);
        }
    }

    /// Absorbs the per-count quality CDF of another model built over the same
    /// failure-count distribution (order-preserving parallel reduction).
    pub fn merge(&mut self, other: YieldModel) {
        debug_assert_eq!(
            self.distribution, other.distribution,
            "merging yield models over different die populations"
        );
        for (failures, cdf) in other.per_count {
            self.per_count.entry(failures).or_default().absorb(cdf);
        }
    }

    /// Failure counts for which quality samples have been recorded.
    #[must_use]
    pub fn sampled_counts(&self) -> Vec<u64> {
        self.per_count.keys().copied().collect()
    }

    /// The per-failure-count quality CDFs (pipeline accumulation output).
    #[must_use]
    pub fn per_count_cdfs(&self) -> &BTreeMap<u64, EmpiricalCdf> {
        &self.per_count
    }

    /// `Pr(Q ≤ q_max | N = n)` from the recorded samples (1 for `n = 0`,
    /// 0 for counts that were never sampled — a conservative assumption).
    #[must_use]
    pub fn conditional_pass_probability(&self, failures: u64, q_max: f64) -> f64 {
        if failures == 0 {
            return if q_max >= 0.0 { 1.0 } else { 0.0 };
        }
        match self.per_count.get(&failures) {
            Some(cdf) if !cdf.is_empty() => cdf.probability_at_or_below(q_max),
            _ => 0.0,
        }
    }

    /// The yield at quality constraint `q_max`: `Σ_n Pr(N = n) · Pr(Q ≤ q_max | N = n)`
    /// over `n = 0` and every sampled failure count (Eq. (5)).
    ///
    /// Every call scans each recorded observation once and adds that many
    /// to [`obs::Counter::YieldObservationsVisited`], the deterministic work
    /// count the threshold search's complexity gate reads.
    #[must_use]
    pub fn yield_at_quality(&self, q_max: f64) -> f64 {
        let mut total = self.distribution.pmf(0) * self.conditional_pass_probability(0, q_max);
        let mut visited = 0;
        for (&n, cdf) in &self.per_count {
            if cdf.is_empty() {
                continue;
            }
            visited += cdf.len();
            total += self.distribution.pmf(n) * cdf.probability_at_or_below(q_max);
        }
        obs::count(obs::Counter::YieldObservationsVisited, visited as u64);
        total.min(1.0)
    }

    /// The traditional zero-failure yield `Pr(N = 0)` for reference.
    #[must_use]
    pub fn zero_failure_yield(&self) -> f64 {
        self.distribution.pmf(0)
    }

    /// The smallest quality threshold that achieves `target_yield`, searched
    /// over the union of all recorded sample values.
    ///
    /// Returns `None` when the target cannot be reached even when tolerating
    /// the worst observed quality (e.g. because unsampled failure counts
    /// carry too much probability mass).
    ///
    /// # Why a binary search returns the linear scan's answer
    ///
    /// The candidates are the sorted, deduplicated observed values, and the
    /// answer is the first candidate whose [`yield_at_quality`] reaches the
    /// target. A binary search finds that same candidate, bit for bit,
    /// because `yield_at_quality` is monotone non-decreasing in `q` even in
    /// floating point:
    ///
    /// * every stored weight is positive, and an observation above `q`
    ///   contributes nothing, so raising `q` only turns skipped terms into
    ///   non-negative ones inside the same insertion-order sum;
    /// * rounded addition is monotone in each operand, so each partial sum
    ///   (and the per-count mass) can only grow;
    /// * dividing by the fixed `total_weight`, multiplying by a
    ///   non-negative `pmf(n)`, summing over counts in key order and the
    ///   final `min(1.0)` are all monotone as well.
    ///
    /// So "does not reach the target" holds on a prefix of the candidates
    /// and [`slice::partition_point`] lands on the first one that does,
    /// after `O(log n)` evaluations of Eq. (5) instead of `O(n)` — the query
    /// costs `O(n log n)` rather than `O(n²)`. The arithmetic per candidate
    /// is unchanged; a prefix-sum sweep over sorted values would reorder the
    /// float additions and is deliberately not used. The predicate is the
    /// negation of "reaches", so a NaN target (which reaches nothing) still
    /// yields `None`.
    ///
    /// [`yield_at_quality`]: YieldModel::yield_at_quality
    #[must_use]
    pub fn quality_for_yield(&self, target_yield: f64) -> Option<QualityBand> {
        let reaches = |q: f64| self.yield_at_quality(q) >= target_yield;
        let max_quality = if reaches(0.0) {
            0.0
        } else {
            let thresholds = self.candidate_thresholds();
            *thresholds.get(thresholds.partition_point(|&q| !reaches(q)))?
        };
        Some(QualityBand {
            target_yield,
            max_quality,
        })
    }

    /// Candidate thresholds for [`YieldModel::quality_for_yield`]: the
    /// finite observed sample values, sorted and deduplicated.
    fn candidate_thresholds(&self) -> Vec<f64> {
        let mut thresholds: Vec<f64> = self
            .per_count
            .values()
            .flat_map(|cdf| cdf.samples().map(|(value, _)| value))
            .filter(|v| v.is_finite())
            .collect();
        thresholds.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        thresholds.dedup();
        thresholds
    }

    /// The linear-scan form of [`YieldModel::quality_for_yield`]: the test
    /// oracle the binary search is pinned against.
    #[cfg(test)]
    fn quality_for_yield_linear(&self, target_yield: f64) -> Option<QualityBand> {
        let reaches = |q: f64| self.yield_at_quality(q) >= target_yield;
        let max_quality = if reaches(0.0) {
            0.0
        } else {
            self.candidate_thresholds()
                .into_iter()
                .find(|&q| reaches(q))?
        };
        Some(QualityBand {
            target_yield,
            max_quality,
        })
    }

    /// The combined, weighted quality CDF over all dies (the Fig. 5 series):
    /// each sample of failure count `n` enters with weight
    /// `Pr(N = n) / (#samples at n)`, and the zero-failure mass enters as a
    /// perfect-quality sample.
    #[must_use]
    pub fn combined_cdf(&self) -> EmpiricalCdf {
        let mut combined = EmpiricalCdf::new();
        combined.add(0.0, self.distribution.pmf(0));
        for (&n, cdf) in &self.per_count {
            if cdf.is_empty() {
                continue;
            }
            let scale = self.distribution.pmf(n) / cdf.total_weight();
            for (value, weight) in cdf.samples() {
                combined.add(value, weight * scale);
            }
        }
        combined
    }

    /// Convenience: quality bands at the yield targets highlighted in the
    /// paper (90 %, 99 %, 99.99 %, 99.9999 %).
    #[must_use]
    pub fn paper_quality_bands(&self) -> Vec<QualityBand> {
        [0.9, 0.99, 0.9999, 0.999_999]
            .iter()
            .filter_map(|&target| self.quality_for_yield(target))
            .collect()
    }

    /// Checks that at least one quality sample has been recorded.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::EmptyDistribution`] when no samples exist.
    pub fn ensure_populated(&self) -> Result<(), AnalysisError> {
        if self.per_count.values().all(EmpiricalCdf::is_empty) {
            Err(AnalysisError::EmptyDistribution)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn distribution() -> FailureCountDistribution {
        // Small memory: 1000 cells at P_cell = 1e-3 → mean 1 failure.
        FailureCountDistribution::new(1000, 1e-3).unwrap()
    }

    #[test]
    fn zero_failure_yield_matches_distribution() {
        let model = YieldModel::new(distribution());
        assert!((model.zero_failure_yield() - distribution().pmf(0)).abs() < 1e-15);
        assert!(model.ensure_populated().is_err());
    }

    #[test]
    fn conditional_probability_for_zero_failures_is_one() {
        let model = YieldModel::new(distribution());
        assert_eq!(model.conditional_pass_probability(0, 0.0), 1.0);
        assert_eq!(model.conditional_pass_probability(0, 1e9), 1.0);
        // Unsampled counts are conservatively treated as failing.
        assert_eq!(model.conditional_pass_probability(3, 1e9), 0.0);
    }

    #[test]
    fn yield_at_quality_combines_counts() {
        let mut model = YieldModel::new(distribution());
        // Dies with 1 failure: half have MSE 10, half MSE 1000.
        model.add_samples(1, [10.0, 10.0, 1000.0, 1000.0]);
        // Dies with 2 failures: all have MSE 1e6.
        model.add_samples(2, [1e6, 1e6]);
        assert!(model.ensure_populated().is_ok());

        let p0 = distribution().pmf(0);
        let p1 = distribution().pmf(1);
        let p2 = distribution().pmf(2);

        let y = model.yield_at_quality(100.0);
        assert!((y - (p0 + 0.5 * p1)).abs() < 1e-12);
        let y = model.yield_at_quality(1e5);
        assert!((y - (p0 + p1)).abs() < 1e-12);
        let y = model.yield_at_quality(1e7);
        assert!((y - (p0 + p1 + p2)).abs() < 1e-12);
    }

    #[test]
    fn yield_is_monotone_in_quality_threshold() {
        let mut model = YieldModel::new(distribution());
        model.add_samples(1, (1..=50).map(|i| i as f64 * 7.0));
        model.add_samples(2, (1..=50).map(|i| i as f64 * 70.0));
        let mut previous = 0.0;
        for q in [0.0, 10.0, 100.0, 1000.0, 10000.0] {
            let y = model.yield_at_quality(q);
            assert!(y >= previous);
            assert!(y <= 1.0);
            previous = y;
        }
    }

    #[test]
    fn quality_for_yield_finds_smallest_threshold() {
        let mut model = YieldModel::new(distribution());
        model.add_samples(1, [1.0, 2.0, 3.0, 4.0]);
        // Zero-failure mass alone is ~36.8%, so a 30% target needs MSE 0.
        let band = model.quality_for_yield(0.3).unwrap();
        assert_eq!(band.max_quality, 0.0);
        // A 50% target needs to also accept some single-failure dies.
        let band = model.quality_for_yield(0.5).unwrap();
        assert!(band.max_quality >= 1.0);
        assert!(model.yield_at_quality(band.max_quality) >= 0.5);
        // An unreachable target returns None (dies with ≥2 failures are
        // unsampled and there are not enough sampled ones).
        assert!(model.quality_for_yield(0.9999).is_none());
    }

    #[test]
    fn combined_cdf_total_weight_tracks_coverage() {
        let mut model = YieldModel::new(distribution());
        model.add_samples(1, [5.0; 10]);
        model.add_samples(2, [50.0; 10]);
        let combined = model.combined_cdf();
        let expected_weight = distribution().pmf(0) + distribution().pmf(1) + distribution().pmf(2);
        assert!((combined.total_weight() - expected_weight).abs() < 1e-9);
        // Quality 5 or better: zero-failure dies plus all one-failure dies.
        let p = combined.probability_at_or_below(5.0) * combined.total_weight();
        assert!((p - (distribution().pmf(0) + distribution().pmf(1))).abs() < 1e-9);
    }

    #[test]
    fn paper_quality_bands_are_sorted_by_difficulty() {
        let mut model = YieldModel::new(FailureCountDistribution::new(1000, 1e-4).unwrap());
        model.add_samples(1, (1..=100).map(f64::from));
        let bands = model.paper_quality_bands();
        assert!(!bands.is_empty());
        for window in bands.windows(2) {
            assert!(window[1].target_yield >= window[0].target_yield);
            assert!(window[1].max_quality >= window[0].max_quality);
        }
    }

    /// A random model in the shapes the search must handle: tied and
    /// duplicated values, `-0.0` beside `0.0`, empty per-count CDFs and
    /// failure counts that were never sampled.
    fn random_model(rng: &mut StdRng) -> YieldModel {
        let cells = rng.gen_range(50usize..2000);
        let p_cell = [1e-4, 1e-3, 5e-3, 2e-2][rng.gen_range(0usize..4)];
        let mut per_count = BTreeMap::new();
        for n in 1..=rng.gen_range(1u64..8) {
            match rng.gen_range(0..6) {
                0 => continue, // unsampled
                1 => {
                    per_count.insert(n, EmpiricalCdf::new());
                }
                _ => {
                    let mut cdf = EmpiricalCdf::new();
                    for _ in 0..rng.gen_range(1..40) {
                        let value = match rng.gen_range(0..5) {
                            0 => -0.0,
                            1 => 0.0,
                            2 => f64::from(rng.gen_range(1u32..6)),
                            3 => rng.gen::<f64>() * 1e6,
                            _ => -f64::from(rng.gen_range(1u32..3)),
                        };
                        let weight = if rng.gen() {
                            1.0
                        } else {
                            rng.gen_range(0.01..10.0)
                        };
                        cdf.add(value, weight);
                    }
                    per_count.insert(n, cdf);
                }
            }
        }
        YieldModel::from_per_count(
            FailureCountDistribution::new(cells, p_cell).unwrap(),
            per_count,
        )
    }

    fn band_bits(band: Option<QualityBand>) -> Option<(u64, u64)> {
        band.map(|b| (b.target_yield.to_bits(), b.max_quality.to_bits()))
    }

    /// The binary search returns the linear scan's band bit for bit, over a
    /// seeded sweep of models and targets that covers every edge the
    /// monotonicity argument has to survive.
    #[test]
    fn threshold_search_matches_the_linear_scan_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x5EA2C4);
        let (mut unreachable, mut short_circuits, mut exact_steps, mut signed_zeros) = (0, 0, 0, 0);
        for _ in 0..256 {
            let model = random_model(&mut rng);
            let candidates = model.candidate_thresholds();
            let yields: Vec<f64> = candidates
                .iter()
                .map(|&q| model.yield_at_quality(q))
                .collect();
            // The search is only valid because Eq. (5) never decreases
            // along the sorted candidates.
            assert!(yields.windows(2).all(|w| w[0] <= w[1]), "{yields:?}");
            let values: Vec<f64> = model
                .per_count_cdfs()
                .values()
                .flat_map(|cdf| cdf.samples().map(|(value, _)| value))
                .collect();
            if values.iter().any(|v| v.to_bits() == (-0.0f64).to_bits())
                && values.iter().any(|v| v.to_bits() == 0.0f64.to_bits())
            {
                signed_zeros += 1;
            }

            let at_zero = model.yield_at_quality(0.0);
            let top = yields.last().copied().unwrap_or(at_zero);
            let mut targets = vec![
                at_zero,
                top,
                f64::from_bits(top.to_bits() + 1),
                rng.gen::<f64>(),
                0.0,
                1.0,
                -0.5,
                f64::NAN,
            ];
            let steps = yields.iter().filter(|&&y| y > at_zero);
            targets.extend(steps.clone().step_by(3).copied());
            exact_steps += steps.count();
            for target in targets {
                let search = model.quality_for_yield(target);
                let oracle = model.quality_for_yield_linear(target);
                assert_eq!(band_bits(search), band_bits(oracle), "target {target}");
                match search {
                    None => unreachable += 1,
                    Some(band) if at_zero >= target => {
                        assert_eq!(band.max_quality.to_bits(), 0.0f64.to_bits());
                        short_circuits += 1;
                    }
                    Some(_) => {}
                }
            }
        }
        for (case, hits) in [
            ("unreachable target", unreachable),
            ("short-circuit at 0", short_circuits),
            ("exact yield step", exact_steps),
            ("-0.0 beside 0.0", signed_zeros),
        ] {
            assert!(hits > 0, "the sweep never exercised: {case}");
        }
    }

    /// `n` observations spread over eight failure counts; a 90 % target
    /// lands about 40 % of the way through the sorted candidates at every
    /// scale.
    fn synthetic_model(observations: usize) -> YieldModel {
        let per_count_samples = observations / 8;
        let mut model = YieldModel::new(FailureCountDistribution::new(1000, 2e-3).unwrap());
        for n in 1..=8u64 {
            let base = (n as usize - 1) * per_count_samples;
            model.add_samples(n, (base..base + per_count_samples).map(|v| v as f64));
        }
        model
    }

    /// Observations `query` scans to answer a 90 % target on a model of
    /// `observations` samples, read from the obs counter.
    fn visits(query: fn(&YieldModel, f64) -> Option<QualityBand>, observations: usize) -> u64 {
        let model = synthetic_model(observations);
        let recorder = Arc::new(obs::Recorder::new());
        let band = {
            let _guard = obs::install(&recorder);
            query(&model, 0.9)
        };
        assert!(band.is_some_and(|band| band.max_quality > 0.0));
        recorder
            .snapshot()
            .counter(obs::Counter::YieldObservationsVisited)
    }

    /// Complexity gate, no stopwatch: quadrupling the observations may at
    /// most ~4.8x the search's work (`O(n log n)`); the linear scan's
    /// `O(n²)` grows ~16x and fails the same bound.
    #[test]
    fn threshold_search_work_grows_n_log_n() {
        const N: usize = 1000;
        let ratio = |query| visits(query, 4 * N) as f64 / visits(query, N) as f64;
        let search = ratio(YieldModel::quality_for_yield);
        assert!(
            search <= 6.0,
            "search visits grew {search:.2}x at 4x samples"
        );
        let oracle = ratio(YieldModel::quality_for_yield_linear);
        assert!(
            oracle > 6.0,
            "the gate no longer separates the linear scan ({oracle:.2}x)"
        );
    }
}
