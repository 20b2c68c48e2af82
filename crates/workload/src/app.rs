//! Applications and experiment campaigns.
//!
//! "In all the following experiments, we register four applications to the
//! cluster manager and submit 30 jobs with an independent submission
//! schedule to each application" (§VI-A2). A [`Campaign`] captures that
//! setup declaratively: which applications exist, what workload each runs,
//! how many jobs each submits, and how their input datasets are drawn.

use custody_simcore::define_id;

use crate::generator::WorkloadKind;

define_id!(
    /// An application registered with the cluster manager.
    pub struct AppId, "app"
);

define_id!(
    /// A job, globally unique across the whole simulation.
    pub struct JobId, "job"
);

/// Static description of one application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplicationSpec {
    /// Display name.
    pub name: String,
    /// The workload this application's jobs run.
    pub workload: WorkloadKind,
}

/// How jobs obtain their input datasets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DatasetMode {
    /// Every job reads a fresh, private dataset (the paper's setting: each
    /// job "runs on a subset of this dump", with its own input file).
    FreshPerJob,
    /// Jobs draw from a shared pool of `pool_size` datasets per
    /// application, sampled with Zipf skew `skew` — hot datasets emerge,
    /// exercising the popularity-replication extension and the
    /// "executors storing popular blocks might be desired by multiple
    /// applications" contention of §IV-A.
    SharedPool {
        /// Datasets in the pool.
        pool_size: usize,
        /// Zipf exponent; `0.0` = uniform.
        skew: f64,
    },
}

/// A complete experiment workload description.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// The applications sharing the cluster.
    pub apps: Vec<ApplicationSpec>,
    /// Jobs each application submits.
    pub jobs_per_app: usize,
    /// Mean inter-arrival time between consecutive jobs of one
    /// application, in seconds (exponential; paper: 4 s).
    pub mean_interarrival_secs: f64,
    /// Input-dataset regime.
    pub dataset_mode: DatasetMode,
}

impl Campaign {
    /// The paper's setup for one workload: four applications all running
    /// `workload`, 30 jobs each, exponential arrivals with mean 4 s,
    /// private datasets.
    pub fn paper(workload: WorkloadKind) -> Self {
        Campaign {
            apps: (0..4)
                .map(|i| ApplicationSpec {
                    name: format!("{workload}-app-{i}"),
                    workload,
                })
                .collect(),
            jobs_per_app: 30,
            mean_interarrival_secs: 4.0,
            dataset_mode: DatasetMode::FreshPerJob,
        }
    }

    /// A mixed campaign: one application per workload plus a second
    /// PageRank application, exercising inter-application contention across
    /// heterogeneous demands.
    pub fn mixed() -> Self {
        let kinds = [
            WorkloadKind::PageRank,
            WorkloadKind::WordCount,
            WorkloadKind::Sort,
            WorkloadKind::PageRank,
        ];
        Campaign {
            apps: kinds
                .iter()
                .enumerate()
                .map(|(i, &workload)| ApplicationSpec {
                    name: format!("{workload}-app-{i}"),
                    workload,
                })
                .collect(),
            jobs_per_app: 30,
            mean_interarrival_secs: 4.0,
            dataset_mode: DatasetMode::FreshPerJob,
        }
    }

    /// Scales the campaign down (fewer jobs) for fast tests and examples.
    pub fn with_jobs_per_app(mut self, jobs: usize) -> Self {
        self.jobs_per_app = jobs;
        self
    }

    /// Overrides the dataset regime.
    pub fn with_dataset_mode(mut self, mode: DatasetMode) -> Self {
        self.dataset_mode = mode;
        self
    }

    /// Number of applications.
    pub fn num_apps(&self) -> usize {
        self.apps.len()
    }

    /// Total jobs across all applications.
    pub fn total_jobs(&self) -> usize {
        self.num_apps() * self.jobs_per_app
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_campaign_matches_evaluation() {
        let c = Campaign::paper(WorkloadKind::Sort);
        assert_eq!(c.num_apps(), 4);
        assert_eq!(c.jobs_per_app, 30);
        assert_eq!(c.total_jobs(), 120);
        assert_eq!(c.mean_interarrival_secs, 4.0);
        assert!(c.apps.iter().all(|a| a.workload == WorkloadKind::Sort));
        assert_eq!(c.apps[2].name, "sort-app-2");
    }

    #[test]
    fn mixed_campaign_covers_all_workloads() {
        let c = Campaign::mixed();
        assert_eq!(c.num_apps(), 4);
        for kind in WorkloadKind::ALL {
            assert!(c.apps.iter().any(|a| a.workload == kind));
        }
    }

    #[test]
    fn builders_override() {
        let c = Campaign::paper(WorkloadKind::WordCount)
            .with_jobs_per_app(5)
            .with_dataset_mode(DatasetMode::SharedPool {
                pool_size: 3,
                skew: 1.0,
            });
        assert_eq!(c.total_jobs(), 20);
        assert!(matches!(c.dataset_mode, DatasetMode::SharedPool { .. }));
    }

    #[test]
    fn ids_display() {
        assert_eq!(format!("{}", AppId::new(1)), "app-1");
        assert_eq!(format!("{}", JobId::new(9)), "job-9");
    }
}
