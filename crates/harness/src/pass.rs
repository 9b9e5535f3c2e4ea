//! The aggregates of a pass: any sequence of [`QueryRun`]s — one
//! workload under one estimator ([`crate::MethodRun`]), an adaptive or
//! update pass, or a slice of one (a join-count bucket of Table 4, a
//! TP/AP class of Table 5). Every table, observation check and
//! experiment aggregates its queries through these functions, so a
//! number has one definition wherever it is printed or checked.

use std::time::Duration;

use crate::endtoend::QueryRun;

/// Summed execution time.
pub fn exec<'a>(pass: impl IntoIterator<Item = &'a QueryRun>) -> Duration {
    pass.into_iter().map(|q| q.exec).sum()
}

/// Summed planning (inference) time.
pub fn plan<'a>(pass: impl IntoIterator<Item = &'a QueryRun>) -> Duration {
    pass.into_iter().map(|q| q.plan).sum()
}

/// End-to-end time: execution plus planning, summed.
pub fn e2e<'a>(pass: impl IntoIterator<Item = &'a QueryRun>) -> Duration {
    pass.into_iter().map(|q| q.exec + q.plan).sum()
}

/// Every valid sub-plan Q-Error, pooled over the pass's queries.
pub fn q_errors<'a>(pass: impl IntoIterator<Item = &'a QueryRun>) -> Vec<f64> {
    pass.into_iter()
        .flat_map(|q| q.q_errors.iter().copied())
        .collect()
}

/// The P-Error of every completed query.
pub fn p_errors<'a>(pass: impl IntoIterator<Item = &'a QueryRun>) -> Vec<f64> {
    pass.into_iter()
        .filter(|q| q.completed())
        .map(|q| q.p_error)
        .collect()
}

/// Improvement of `own` over `baseline` in percent (positive = faster
/// than the baseline); 0 against a zero baseline.
pub fn improvement(own: Duration, baseline: Duration) -> f64 {
    if baseline.is_zero() {
        return 0.0;
    }
    (baseline.as_secs_f64() - own.as_secs_f64()) / baseline.as_secs_f64() * 100.0
}
