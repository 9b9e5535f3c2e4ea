//! Pairwise dependence scores between discretized columns.
//!
//! Plays the role RDC plays in DeepDB/FLAT: a `[0, 1]` score used to decide
//! independence splits (below ~0.3) and "highly correlated" grouping
//! (above ~0.7). We use mutual information normalized by the smaller
//! marginal entropy, which is 0 for independent columns and 1 when one
//! column determines the other.

/// Normalized mutual information of two equal-length bin-id columns.
pub fn dependence(a: &[u16], b: &[u16]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n == 0 {
        return 0.0;
    }
    let ka = *a.iter().max().unwrap_or(&0) as usize + 1;
    let kb = *b.iter().max().unwrap_or(&0) as usize + 1;
    let mut joint = vec![0f64; ka * kb];
    let mut pa = vec![0f64; ka];
    let mut pb = vec![0f64; kb];
    let inv = 1.0 / n as f64;
    for i in 0..n {
        let (x, y) = (a[i] as usize, b[i] as usize);
        joint[x * kb + y] += inv;
        pa[x] += inv;
        pb[y] += inv;
    }
    let mut mi = 0.0;
    for x in 0..ka {
        for y in 0..kb {
            let pxy = joint[x * kb + y];
            if pxy > 0.0 {
                mi += pxy * (pxy / (pa[x] * pb[y])).ln();
            }
        }
    }
    let ent = |p: &[f64]| -> f64 { p.iter().filter(|&&v| v > 0.0).map(|&v| -v * v.ln()).sum() };
    let h = ent(&pa).min(ent(&pb));
    if h <= 1e-12 {
        0.0
    } else {
        (mi / h).clamp(0.0, 1.0)
    }
}

/// Symmetric pairwise dependence matrix over columns (each column a
/// bin-id vector of equal length).
pub fn dependence_matrix(cols: &[Vec<u16>]) -> Vec<Vec<f64>> {
    let k = cols.len();
    let mut m = vec![vec![0.0; k]; k];
    for i in 0..k {
        m[i][i] = 1.0;
        for j in i + 1..k {
            let d = dependence(&cols[i], &cols[j]);
            m[i][j] = d;
            m[j][i] = d;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_columns_fully_dependent() {
        let a: Vec<u16> = (0..100).map(|i| (i % 4) as u16).collect();
        assert!(dependence(&a, &a) > 0.99);
    }

    #[test]
    fn independent_columns_near_zero() {
        let a: Vec<u16> = (0..1000).map(|i| (i % 4) as u16).collect();
        let b: Vec<u16> = (0..1000).map(|i| ((i / 4) % 5) as u16).collect();
        assert!(dependence(&a, &b) < 0.05);
    }

    #[test]
    fn deterministic_function_fully_dependent() {
        let a: Vec<u16> = (0..200).map(|i| (i % 6) as u16).collect();
        let b: Vec<u16> = a.iter().map(|&v| v / 2).collect();
        // b is a function of a: NMI normalized by min-entropy is 1.
        assert!(dependence(&a, &b) > 0.99);
    }

    #[test]
    fn constant_column_zero_dependence() {
        let a = vec![0u16; 50];
        let b: Vec<u16> = (0..50).map(|i| (i % 3) as u16).collect();
        assert_eq!(dependence(&a, &b), 0.0);
    }

    #[test]
    fn matrix_symmetric_with_unit_diagonal() {
        let cols = vec![
            (0..60).map(|i| (i % 3) as u16).collect::<Vec<_>>(),
            (0..60).map(|i| (i % 4) as u16).collect::<Vec<_>>(),
            (0..60).map(|i| ((i * i) % 5) as u16).collect::<Vec<_>>(),
        ];
        let m = dependence_matrix(&cols);
        for i in 0..3 {
            assert_eq!(m[i][i], 1.0);
            for j in 0..3 {
                assert_eq!(m[i][j], m[j][i]);
            }
        }
    }
}
