//! Inter-application selection (Algorithm 1: `MINLOCALITY`).
//!
//! "Sort apps in the increasing order of the percentage of local jobs;
//! break ties by the percentage of local tasks; return the first app in
//! the sorted list." Percentages are *projected*: locality bought earlier
//! in the same round counts immediately ("Update executors and re-sort
//! apps during allocation").
//!
//! The sort key stores the percentages as exact rationals and compares
//! them by `u128` cross-multiplication, so the ordering is total, NaN-free
//! and safe to keep inside a binary heap: `1/2` and `2/4` compare equal by
//! construction, where a float division could (on other fraction pairs)
//! round two distinct fractions onto the same double or two equal ones
//! apart.

use std::cmp::Ordering;

use crate::custody::round::RoundApp;

/// One projected locality percentage as an exact fraction.
///
/// An empty history (denominator 0) normalizes to `1/1`: brand-new apps
/// rank *behind* apps with real, imperfect history.
#[derive(Debug, Clone, Copy)]
struct Fraction {
    num: u64,
    den: u64,
}

impl Fraction {
    fn new(num: usize, den: usize) -> Self {
        Self::new_u64(num as u64, den as u64)
    }

    fn new_u64(num: u64, den: u64) -> Self {
        if den == 0 {
            Fraction { num: 1, den: 1 }
        } else {
            Fraction { num, den }
        }
    }

    fn cmp_exact(&self, other: &Fraction) -> Ordering {
        // a/b vs c/d  ⇔  a·d vs c·b (denominators are positive).
        crate::cost::cmp_ratio(self.num, self.den, other.num, other.den)
    }
}

/// The sort key of Algorithm 1: (local-job %, local-task %), with the app
/// index as the final deterministic tie-breaker.
#[derive(Debug, Clone, Copy)]
pub struct LocalityKey {
    job: Fraction,
    task: Fraction,
    /// App index (total order guarantee).
    pub index: usize,
}

impl LocalityKey {
    /// Extracts the key from round state: the credit-weighted projected
    /// fractions (locality bought on a slow node counts for less). Without
    /// a cost table every credit is 1 at scale 1, so this is the plain
    /// count-based key.
    pub fn of(app: &RoundApp, index: usize) -> Self {
        let (jn, jd, tn, td) = app.health_weighted_fractions();
        Self::from_weighted(jn, jd, tn, td, index)
    }

    /// Builds a key from raw counts; a zero denominator means "no history"
    /// and normalizes to `1/1`.
    pub fn from_fractions(
        job_num: usize,
        job_den: usize,
        task_num: usize,
        task_den: usize,
        index: usize,
    ) -> Self {
        LocalityKey {
            job: Fraction::new(job_num, job_den),
            task: Fraction::new(task_num, task_den),
            index,
        }
    }

    /// Builds a key from health-weighted fractions in credit units: with
    /// bucket scale `S`, numerators carry `history·S + Σ credit` and
    /// denominators `total·S` (see [`crate::cost::HealthCost`]). The
    /// fractions stay exact `u64/u64` rationals compared by `u128`
    /// cross-multiplication; a zero denominator still normalizes to
    /// `1/1`. When every credit is neutral (`S` per task) both numerator
    /// and denominator pick up the same factor `S`, so the ordering is
    /// identical to the unweighted key's.
    pub fn from_weighted(
        job_num: u64,
        job_den: u64,
        task_num: u64,
        task_den: u64,
        index: usize,
    ) -> Self {
        LocalityKey {
            job: Fraction::new_u64(job_num, job_den),
            task: Fraction::new_u64(task_num, task_den),
            index,
        }
    }
}

impl PartialEq for LocalityKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for LocalityKey {}

impl PartialOrd for LocalityKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LocalityKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.job
            .cmp_exact(&other.job)
            .then_with(|| self.task.cmp_exact(&other.task))
            .then_with(|| self.index.cmp(&other.index))
    }
}

/// `MINLOCALITY`: the least-localized app among those passing `eligible`.
///
/// The linear reference implementation. The hot path ([`super::Round`])
/// keeps the same ordering in a lazy-deletion binary heap so each grant
/// costs O(log A) instead of a rescan; this function remains the
/// specification the heap is property-tested against.
pub fn min_locality<F>(apps: &[RoundApp], mut eligible: F) -> Option<usize>
where
    F: FnMut(usize, &RoundApp) -> bool,
{
    apps.iter()
        .enumerate()
        .filter(|(i, a)| eligible(*i, a))
        .min_by_key(|(i, a)| LocalityKey::of(a, *i))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::custody::round::RoundApp;
    use custody_workload::AppId;

    fn app(
        hist_local_jobs: usize,
        total_jobs: usize,
        hist_local_tasks: usize,
        total_tasks: usize,
    ) -> RoundApp {
        RoundApp::for_test(
            AppId::new(0),
            4,
            hist_local_jobs,
            total_jobs,
            hist_local_tasks,
            total_tasks,
        )
    }

    fn key(jn: usize, jd: usize, tn: usize, td: usize, index: usize) -> LocalityKey {
        LocalityKey::from_fractions(jn, jd, tn, td, index)
    }

    #[test]
    fn key_orders_by_job_fraction_first() {
        // 1/5 jobs beats 1/2 jobs even with a worse task fraction.
        let a = key(1, 5, 9, 10, 5);
        let b = key(1, 2, 1, 10, 0);
        assert!(a < b);
    }

    #[test]
    fn key_ties_break_by_task_fraction_then_index() {
        let a = key(1, 2, 2, 10, 3);
        let b = key(1, 2, 4, 10, 0);
        assert!(a < b);
        let c = key(1, 2, 2, 10, 1);
        assert!(c < a);
    }

    #[test]
    fn equal_fractions_with_different_denominators_tie() {
        // 1/2 vs 2/4 and 3/9 vs 1/3: exactly equal, index decides.
        let a = key(1, 2, 3, 9, 7);
        let b = key(2, 4, 1, 3, 2);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Greater, "index 7 > 2");
        assert_eq!(key(1, 2, 1, 3, 0), key(2, 4, 3, 9, 0));
    }

    #[test]
    fn huge_denominators_do_not_overflow() {
        let a = key(usize::MAX - 1, usize::MAX, 0, 1, 0);
        let b = key(usize::MAX, usize::MAX, 0, 1, 1);
        assert!(a < b);
    }

    #[test]
    fn zero_history_normalizes_to_one() {
        assert_eq!(key(0, 0, 0, 0, 1), key(1, 1, 1, 1, 1));
        assert!(key(0, 4, 0, 10, 0) < key(0, 0, 0, 0, 1));
    }

    #[test]
    fn min_locality_picks_least_localized() {
        let apps = vec![
            app(3, 4, 10, 10), // 75% jobs
            app(1, 4, 3, 10),  // 25% jobs
            app(2, 4, 8, 10),  // 50% jobs
        ];
        assert_eq!(min_locality(&apps, |_, _| true), Some(1));
    }

    #[test]
    fn min_locality_honours_filter() {
        let apps = vec![app(0, 4, 0, 10), app(2, 4, 5, 10)];
        assert_eq!(min_locality(&apps, |i, _| i != 0), Some(1));
        assert_eq!(min_locality(&apps, |_, _| false), None);
    }

    #[test]
    fn min_locality_tie_breaks_by_tasks() {
        let apps = vec![
            app(1, 4, 9, 10), // 25% jobs, 90% tasks
            app(1, 4, 2, 10), // 25% jobs, 20% tasks
        ];
        assert_eq!(min_locality(&apps, |_, _| true), Some(1));
    }

    #[test]
    fn weighted_keys_with_neutral_credit_match_unweighted_ordering() {
        // Scale 8, every credit neutral: (a·8)/(b·8) must compare exactly
        // like a/b against any other app's fractions.
        let s = 8u64;
        let plain_a = key(1, 4, 3, 10, 0);
        let plain_b = key(2, 4, 1, 10, 1);
        let w_a = LocalityKey::from_weighted(s, 4 * s, 3 * s, 10 * s, 0);
        let w_b = LocalityKey::from_weighted(2 * s, 4 * s, s, 10 * s, 1);
        assert_eq!(plain_a.cmp(&plain_b), w_a.cmp(&w_b));
        assert_eq!(plain_a, w_a, "same value, different representation");
    }

    #[test]
    fn discounted_credit_lowers_the_projected_fraction() {
        // Two apps each satisfied one of two tasks this round; app 0 did
        // it on a healthy node (credit 8/8), app 1 on a sick node
        // (credit 2/8). App 1's projected locality is lower, so it picks
        // next despite identical task counts.
        let healthy = LocalityKey::from_weighted(0, 8, 8, 16, 0);
        let sick = LocalityKey::from_weighted(0, 8, 2, 16, 1);
        assert!(sick < healthy);
    }

    #[test]
    fn weighted_zero_history_normalizes_to_one() {
        assert_eq!(
            LocalityKey::from_weighted(0, 0, 0, 0, 1),
            key(1, 1, 1, 1, 1)
        );
    }

    #[test]
    fn fresh_apps_rank_behind_zero_locality_apps() {
        let apps = vec![
            app(0, 0, 0, 0), // no history: fraction 1.0
            app(0, 4, 0, 10),
        ];
        assert_eq!(min_locality(&apps, |_, _| true), Some(1));
    }
}
