//! Speculative execution — the straggler-mitigation extension.
//!
//! §IV-B: "We can further utilize existing straggler mitigation schemes
//! (e.g., \[26\], \[27\], \[10\]) to offset such performance degradation"
//! for low-priority tasks that miss locality. This module implements the
//! standard clone-based policy (Spark's `spark.speculation`): when a
//! stage is mostly finished, tasks that have run far longer than the
//! median completed-task duration get a speculative copy; the first copy
//! to finish wins.

use custody_simcore::{SimDuration, SimTime};

/// Configuration of the speculative-execution policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeculationConfig {
    /// Fraction of a stage's tasks that must have completed before any
    /// speculation happens (Spark default: 0.75).
    pub quantile: f64,
    /// A running task is a straggler when its elapsed time exceeds
    /// `multiplier ×` the median completed-task duration (Spark default:
    /// 1.5).
    pub multiplier: f64,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        SpeculationConfig {
            quantile: 0.75,
            multiplier: 1.5,
        }
    }
}

/// Tracks one stage's task durations and answers "should this running
/// task be cloned?".
#[derive(Debug, Clone, PartialEq)]
pub struct SpeculationPolicy {
    config: SpeculationConfig,
    total_tasks: usize,
    /// Completed-task durations, kept in ascending order.
    completed_durations: Vec<SimDuration>,
}

impl SpeculationPolicy {
    /// Creates a policy for a stage of `total_tasks` tasks.
    pub fn new(config: SpeculationConfig, total_tasks: usize) -> Self {
        SpeculationPolicy {
            config,
            total_tasks,
            completed_durations: Vec::new(),
        }
    }

    /// Records a completed task's duration.
    pub fn record_completion(&mut self, duration: SimDuration) {
        let at = self.completed_durations.partition_point(|&d| d <= duration);
        self.completed_durations.insert(at, duration);
    }

    /// Number of recorded completions.
    pub fn completed(&self) -> usize {
        self.completed_durations.len()
    }

    /// Median duration of completed tasks, if any completed.
    ///
    /// Convention: the *lower middle* on even counts (pinned by test) —
    /// a duration threshold rounds toward speculating slightly earlier.
    /// This deliberately differs from the health detector's
    /// midpoint-of-the-two-middles median (`sim`'s `driver/health.rs`),
    /// whose ratios feed a cost model and must not bias pessimistic on
    /// even peer counts.
    pub fn median_duration(&self) -> Option<SimDuration> {
        if self.completed_durations.is_empty() {
            return None;
        }
        Some(self.completed_durations[(self.completed_durations.len() - 1) / 2])
    }

    /// Whether a task that started at `started_at` should get a
    /// speculative clone at time `now`.
    pub fn should_speculate(&self, started_at: SimTime, now: SimTime) -> bool {
        if self.total_tasks == 0 {
            return false;
        }
        let done_fraction = self.completed_durations.len() as f64 / self.total_tasks as f64;
        if done_fraction < self.config.quantile {
            return false;
        }
        let Some(median) = self.median_duration() else {
            return false;
        };
        let threshold = SimDuration::from_secs_f64(median.as_secs_f64() * self.config.multiplier);
        now.saturating_since(started_at) > threshold
    }
}

/// Picks which straggler to clone first: the candidate whose current
/// node carries the highest peer-relative placement penalty — clone off
/// the slowest node first, because that is where a restart buys the most
/// — with ties (including the all-zero penalties of a run without health
/// detection) resolved to the *earliest* candidate, exactly the order a
/// penalty-blind scan would pick. Returns the index into `candidates`.
pub fn pick_clone_source(penalties: &[u32]) -> Option<usize> {
    let mut best: Option<(u32, usize)> = None;
    for (i, &p) in penalties.iter().enumerate() {
        if best.is_none_or(|(bp, _)| p > bp) {
            best = Some((p, i));
        }
    }
    best.map(|(_, i)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(total: usize) -> SpeculationPolicy {
        SpeculationPolicy::new(SpeculationConfig::default(), total)
    }

    #[test]
    fn clone_source_prefers_highest_penalty() {
        assert_eq!(pick_clone_source(&[0, 3, 6, 3]), Some(2));
    }

    #[test]
    fn clone_source_ties_resolve_to_earliest() {
        // All-zero penalties (health detection off) degenerate to the
        // penalty-blind first-in-order pick.
        assert_eq!(pick_clone_source(&[0, 0, 0]), Some(0));
        assert_eq!(pick_clone_source(&[2, 5, 5]), Some(1));
        assert_eq!(pick_clone_source(&[]), None);
    }

    #[test]
    fn no_speculation_before_quantile() {
        let mut p = policy(4);
        p.record_completion(SimDuration::from_secs(1));
        p.record_completion(SimDuration::from_secs(1));
        // 2/4 = 50% < 75%.
        assert!(!p.should_speculate(SimTime::ZERO, SimTime::from_secs(100)));
    }

    #[test]
    fn speculates_on_slow_task_after_quantile() {
        let mut p = policy(4);
        for _ in 0..3 {
            p.record_completion(SimDuration::from_secs(2));
        }
        // Median 2s, multiplier 1.5 → threshold 3s.
        assert!(!p.should_speculate(SimTime::ZERO, SimTime::from_secs(3)));
        assert!(p.should_speculate(SimTime::ZERO, SimTime::from_millis(3_001)));
    }

    #[test]
    fn median_is_order_insensitive() {
        let mut p = policy(5);
        p.record_completion(SimDuration::from_secs(9));
        p.record_completion(SimDuration::from_secs(1));
        p.record_completion(SimDuration::from_secs(5));
        assert_eq!(p.median_duration(), Some(SimDuration::from_secs(5)));
        assert_eq!(p.completed(), 3);
    }

    #[test]
    fn empty_stage_never_speculates() {
        let p = policy(0);
        assert!(!p.should_speculate(SimTime::ZERO, SimTime::from_secs(1000)));
        assert_eq!(p.median_duration(), None);
    }

    #[test]
    fn median_of_even_count_takes_lower_middle() {
        let mut p = policy(8);
        for secs in [4, 1, 3, 2] {
            p.record_completion(SimDuration::from_secs(secs));
        }
        // Sorted [1, 2, 3, 4], index (4-1)/2 = 1 → the lower middle.
        assert_eq!(p.median_duration(), Some(SimDuration::from_secs(2)));
    }

    #[test]
    fn median_of_odd_count_takes_exact_middle() {
        let mut p = policy(8);
        for secs in [5, 1, 3, 2, 4] {
            p.record_completion(SimDuration::from_secs(secs));
        }
        assert_eq!(p.median_duration(), Some(SimDuration::from_secs(3)));
    }

    #[test]
    fn single_completion_is_its_own_median() {
        let mut p = policy(8);
        p.record_completion(SimDuration::from_secs(7));
        assert_eq!(p.median_duration(), Some(SimDuration::from_secs(7)));
    }

    #[test]
    fn zero_duration_tasks_clone_any_running_task() {
        // All completed tasks took zero time (cache-hot trivial work):
        // median 0 ⇒ threshold 0 ⇒ anything that has run at all is a
        // straggler; anything launched *right now* is not.
        let mut p = policy(4);
        for _ in 0..3 {
            p.record_completion(SimDuration::ZERO);
        }
        assert_eq!(p.median_duration(), Some(SimDuration::ZERO));
        assert!(!p.should_speculate(SimTime::from_secs(5), SimTime::from_secs(5)));
        assert!(p.should_speculate(SimTime::ZERO, SimTime::from_millis(1)));
    }

    #[test]
    fn zero_duration_mixed_with_real_durations_keeps_ordering() {
        let mut p = policy(4);
        p.record_completion(SimDuration::ZERO);
        p.record_completion(SimDuration::from_secs(2));
        p.record_completion(SimDuration::from_secs(4));
        // Sorted [0, 2, 4] → median 2s, threshold 3s.
        assert_eq!(p.median_duration(), Some(SimDuration::from_secs(2)));
        assert!(!p.should_speculate(SimTime::ZERO, SimTime::from_secs(3)));
        assert!(p.should_speculate(SimTime::ZERO, SimTime::from_millis(3_001)));
    }

    #[test]
    fn custom_config_thresholds() {
        let mut p = SpeculationPolicy::new(
            SpeculationConfig {
                quantile: 0.5,
                multiplier: 2.0,
            },
            2,
        );
        p.record_completion(SimDuration::from_secs(1));
        // 1/2 ≥ 0.5; threshold = 2s.
        assert!(!p.should_speculate(SimTime::ZERO, SimTime::from_secs(2)));
        assert!(p.should_speculate(SimTime::ZERO, SimTime::from_millis(2_001)));
    }
}
