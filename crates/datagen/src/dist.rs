//! Distribution machinery: Zipf sampling and a latent-variable row model
//! that plants correlation between attributes of one table.

use cardbench_support::rand::rngs::StdRng;
use cardbench_support::rand::Rng;

/// A Zipf(α) distribution over ranks `0..n`, sampled by inverse-CDF binary
/// search on a precomputed cumulative table. Rank 0 is the most frequent.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution. `n >= 1`; `alpha >= 0` (0 = uniform).
    pub fn new(n: usize, alpha: f64) -> Zipf {
        assert!(n >= 1, "Zipf needs a non-empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Domain size.
    pub fn domain(&self) -> usize {
        self.cdf.len()
    }

    /// Samples a rank in `0..n`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Quantile function: the smallest rank whose CDF reaches `p`.
    pub fn quantile(&self, p: f64) -> usize {
        self.cdf.partition_point(|&c| c < p).min(self.cdf.len() - 1)
    }

    /// Probability mass of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

/// A latent-variable generator for one table's filterable attributes.
///
/// Each row draws a latent "activity" `z ∈ [0,1)` (Zipf-shaped so a few
/// rows are very active). Each attribute is a noisy monotone function of
/// `z`, which plants positive pairwise correlation (paper Table 1 reports
/// ≈0.22 average |corr| for STATS vs ≈0.15 for IMDB) while Zipf rank maps
/// keep marginals heavy-tailed (skewness ≈21.8 vs ≈9.2).
#[derive(Debug, Clone)]
pub struct LatentRowModel {
    latent: Zipf,
    /// How strongly attributes follow the latent (0 = independent,
    /// 1 = deterministic).
    coupling: f64,
}

impl LatentRowModel {
    /// `levels`: resolution of the latent variable; `latent_alpha`: skew of
    /// the latent itself; `coupling`: attribute-latent coupling in `[0, 1]`.
    pub fn new(levels: usize, latent_alpha: f64, coupling: f64) -> LatentRowModel {
        LatentRowModel {
            latent: Zipf::new(levels, latent_alpha),
            coupling: coupling.clamp(0.0, 1.0),
        }
    }

    /// Draws a latent level in `[0,1)` for one row.
    pub fn draw_latent(&self, rng: &mut StdRng) -> f64 {
        let rank = self.latent.sample(rng);
        rank as f64 / self.latent.domain() as f64
    }

    /// Draws one attribute value as a Zipf rank over `domain`, coupled to
    /// the row latent `z`: with probability `coupling` the rank tracks `z`
    /// (plus small jitter), otherwise it is an independent Zipf draw.
    pub fn draw_attr(
        &self,
        rng: &mut StdRng,
        z: f64,
        domain: usize,
        attr_alpha: f64,
        attr_zipf: &Zipf,
    ) -> i64 {
        debug_assert_eq!(attr_zipf.domain(), domain);
        debug_assert!(attr_alpha >= 0.0);
        if rng.gen::<f64>() < self.coupling {
            // Deterministic-with-jitter mapping latent → rank through the
            // attribute's own quantile function, so coupling preserves the
            // Zipf-shaped marginal (a linear map would flatten it).
            let jitter = (rng.gen::<f64>() - 0.5) * 0.1;
            let pos = (z + jitter).clamp(0.0, 1.0 - 1e-9);
            attr_zipf.quantile(pos) as i64
        } else {
            attr_zipf.sample(rng) as i64
        }
    }
}

/// Moment skewness `E[(x-μ)³]/σ³` of a sample (absolute value), the
/// "distribution skewness" statistic of paper Table 1.
pub fn skewness(values: impl Iterator<Item = f64> + Clone) -> f64 {
    let n = values.clone().count();
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    let mean = values.clone().sum::<f64>() / nf;
    let m2 = values.clone().map(|v| (v - mean).powi(2)).sum::<f64>() / nf;
    let m3 = values.clone().map(|v| (v - mean).powi(3)).sum::<f64>() / nf;
    if m2 <= 0.0 {
        0.0
    } else {
        (m3 / m2.powf(1.5)).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardbench_support::rand::SeedableRng;
    use cardbench_support::stats::pearson;

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(100, 1.2);
        let total: f64 = (0..100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_rank_zero_most_likely() {
        let z = Zipf::new(50, 1.5);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(10));
    }

    #[test]
    fn zipf_uniform_when_alpha_zero() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn zipf_samples_in_domain_and_skewed() {
        let z = Zipf::new(20, 1.5);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 20];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[5]);
        assert!(counts[0] > 4000); // pmf(0) ≈ 0.42 for alpha=1.5, n=20
    }

    #[test]
    fn skewness_zero_for_symmetric() {
        let sym = [-2.0, -1.0, 0.0, 1.0, 2.0];
        assert!(skewness(sym.iter().copied()) < 1e-9);
    }

    #[test]
    fn skewness_positive_for_heavy_tail() {
        let tail = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 100.0];
        assert!(skewness(tail.iter().copied()) > 2.0);
    }

    #[test]
    fn latent_model_plants_correlation() {
        let m = LatentRowModel::new(64, 0.8, 0.7);
        let mut rng = StdRng::seed_from_u64(42);
        let zipf = Zipf::new(100, 1.0);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..4000 {
            let z = m.draw_latent(&mut rng);
            a.push(m.draw_attr(&mut rng, z, 100, 1.0, &zipf) as f64);
            b.push(m.draw_attr(&mut rng, z, 100, 1.0, &zipf) as f64);
        }
        let r = pearson(&a, &b);
        assert!(r > 0.2, "planted correlation too weak: {r}");
    }
}
