//! Lloyd's k-means over `f32` feature rows (row clustering for SPN sum
//! nodes).

use cardbench_support::rand::rngs::StdRng;
use cardbench_support::rand::{Rng, SeedableRng};

use crate::matrix::Matrix;

/// Clusters the rows of `xs` into `k` groups; returns per-row assignments.
/// Deterministic given `seed`. Degenerate inputs (fewer distinct rows than
/// `k`) simply produce empty clusters, which callers should tolerate.
pub fn kmeans(xs: &Matrix, k: usize, iters: usize, seed: u64) -> Vec<usize> {
    assert!(k >= 1);
    let n = xs.rows;
    if n == 0 {
        return Vec::new();
    }
    let d = xs.cols;
    let mut rng = StdRng::seed_from_u64(seed);
    // Farthest-point initialization: a random first centroid, then each
    // subsequent one is the row farthest from its nearest chosen centroid.
    // Unlike pure random draws this never seeds two centroids on the same
    // point unless the data itself is degenerate.
    let mut centroids: Vec<Vec<f32>> = vec![xs.row(rng.gen_range(0..n)).to_vec()];
    while centroids.len() < k {
        let far = (0..n)
            .max_by(|&a, &b| {
                let da = nearest_dist(xs.row(a), &centroids);
                let db = nearest_dist(xs.row(b), &centroids);
                da.total_cmp(&db)
            })
            .expect("at least one row");
        centroids.push(xs.row(far).to_vec());
    }
    let mut assign = vec![0usize; n];
    for _ in 0..iters {
        let mut changed = false;
        for r in 0..n {
            let row = xs.row(r);
            let mut best = 0;
            let mut best_d = f32::INFINITY;
            for (c, cent) in centroids.iter().enumerate() {
                let dist: f32 = row.iter().zip(cent).map(|(a, b)| (a - b) * (a - b)).sum();
                if dist < best_d {
                    best_d = dist;
                    best = c;
                }
            }
            if assign[r] != best {
                assign[r] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        // Recompute centroids.
        let mut sums = vec![vec![0.0f32; d]; k];
        let mut counts = vec![0usize; k];
        for r in 0..n {
            counts[assign[r]] += 1;
            for (s, &v) in sums[assign[r]].iter_mut().zip(xs.row(r)) {
                *s += v;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for s in &mut sums[c] {
                    *s /= counts[c] as f32;
                }
                centroids[c] = sums[c].clone();
            }
        }
    }
    assign
}

fn nearest_dist(row: &[f32], centroids: &[Vec<f32>]) -> f32 {
    centroids
        .iter()
        .map(|c| {
            row.iter()
                .zip(c)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
        })
        .fold(f32::INFINITY, f32::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separates_two_blobs() {
        let xs = Matrix::from_fn(20, 1, |r, _| {
            if r < 10 {
                r as f32 * 0.01
            } else {
                10.0 + r as f32 * 0.01
            }
        });
        let assign = kmeans(&xs, 2, 20, 1);
        // All of the first blob in one cluster, the second in the other.
        let first = assign[0];
        assert!(assign[..10].iter().all(|&a| a == first));
        assert!(assign[10..].iter().all(|&a| a != first));
    }

    #[test]
    fn single_cluster_assigns_all_zero() {
        let xs = Matrix::from_fn(5, 2, |r, c| (r + c) as f32);
        let assign = kmeans(&xs, 1, 5, 0);
        assert!(assign.iter().all(|&a| a == 0));
    }

    #[test]
    fn empty_input() {
        let xs = Matrix::zeros(0, 3);
        assert!(kmeans(&xs, 2, 5, 0).is_empty());
    }
}
