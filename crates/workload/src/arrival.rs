//! Job submission schedules.
//!
//! "We generate a common job submission schedule that is shared by all the
//! experiments to minimize the influence of random factors. The
//! distribution of inter-arrival times is roughly exponential with a mean
//! of 4 seconds in accordance with the Facebook trace" (§VI-A2).
//!
//! [`SubmissionSchedule::generate`] draws, per application, an independent
//! sequence of exponential gaps, then merges all applications' submissions
//! into one global timeline. The schedule depends only on the seed and the
//! campaign shape, so Custody and the baseline replay identical workloads.

use custody_simcore::dist::{Distribution, Exponential};
use custody_simcore::{SimRng, SimTime};

use crate::app::{AppId, Campaign};

/// One job submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission {
    /// When the user submits the job.
    pub time: SimTime,
    /// The submitting application.
    pub app: AppId,
    /// Sequence number of this job within its application (0-based).
    pub seq: usize,
}

/// A time-ordered list of submissions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmissionSchedule {
    submissions: Vec<Submission>,
}

impl SubmissionSchedule {
    /// Generates the schedule for `campaign` from `seed`.
    pub fn generate(campaign: &Campaign, seed: u64) -> Self {
        let gap = Exponential::with_mean(campaign.mean_interarrival_secs);
        let mut submissions = Vec::with_capacity(campaign.total_jobs());
        for app_idx in 0..campaign.num_apps() {
            let mut rng = SimRng::for_stream(seed, &format!("arrivals/app-{app_idx}"));
            let mut t = SimTime::ZERO;
            for seq in 0..campaign.jobs_per_app {
                t += gap.sample_duration(&mut rng);
                submissions.push(Submission {
                    time: t,
                    app: AppId::new(app_idx),
                    seq,
                });
            }
        }
        // Merge deterministically: by time, then app, then seq.
        submissions.sort_unstable_by_key(|s| (s.time, s.app, s.seq));
        SubmissionSchedule { submissions }
    }

    /// The submissions in time order.
    pub fn submissions(&self) -> &[Submission] {
        &self.submissions
    }

    /// Number of submissions.
    pub fn len(&self) -> usize {
        self.submissions.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.submissions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadKind;

    fn campaign() -> Campaign {
        Campaign::paper(WorkloadKind::WordCount)
    }

    #[test]
    fn schedule_has_all_jobs_in_order() {
        let s = SubmissionSchedule::generate(&campaign(), 42);
        assert_eq!(s.len(), 120);
        assert!(s.submissions().windows(2).all(|w| w[0].time <= w[1].time));
        for app in 0..4 {
            let seqs: Vec<usize> = s
                .submissions()
                .iter()
                .filter(|sub| sub.app == AppId::new(app))
                .map(|sub| sub.seq)
                .collect();
            assert_eq!(seqs.len(), 30);
            // Each app's jobs appear in sequence order.
            assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn schedule_is_deterministic() {
        let a = SubmissionSchedule::generate(&campaign(), 42);
        let b = SubmissionSchedule::generate(&campaign(), 42);
        assert_eq!(a, b);
        let c = SubmissionSchedule::generate(&campaign(), 43);
        assert_ne!(a, c);
    }

    #[test]
    fn mean_gap_approximates_campaign_setting() {
        let big = campaign().with_jobs_per_app(2000);
        let s = SubmissionSchedule::generate(&big, 7);
        // Per-app mean gap should be close to 4s.
        let app0: Vec<SimTime> = s
            .submissions()
            .iter()
            .filter(|sub| sub.app == AppId::new(0))
            .map(|sub| sub.time)
            .collect();
        let total = app0.last().unwrap().as_secs_f64();
        let mean_gap = total / app0.len() as f64;
        assert!(
            (mean_gap - 4.0).abs() < 0.3,
            "mean gap {mean_gap} should be ~4s"
        );
    }

    #[test]
    fn adding_an_app_does_not_change_existing_streams() {
        let c4 = campaign();
        let mut c5 = campaign();
        c5.apps.push(c5.apps[0].clone());
        let s4 = SubmissionSchedule::generate(&c4, 9);
        let s5 = SubmissionSchedule::generate(&c5, 9);
        for app in 0..4 {
            let times4: Vec<SimTime> = s4
                .submissions()
                .iter()
                .filter(|s| s.app == AppId::new(app))
                .map(|s| s.time)
                .collect();
            let times5: Vec<SimTime> = s5
                .submissions()
                .iter()
                .filter(|s| s.app == AppId::new(app))
                .map(|s| s.time)
                .collect();
            assert_eq!(times4, times5, "app {app} stream perturbed");
        }
    }

    #[test]
    fn len_and_empty() {
        let s = SubmissionSchedule::generate(&campaign().with_jobs_per_app(1), 1);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
    }
}
