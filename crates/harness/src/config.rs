//! Benchmark configuration and setup.

use cardbench_datagen::{imdb_catalog, stats_catalog, ImdbConfig, StatsConfig};
use cardbench_engine::Database;
use cardbench_estimators::lw::TrainingSet;
use cardbench_estimators::mscn::MscnConfig;
use cardbench_estimators::neurocard::NeuroCardConfig;
use cardbench_estimators::uae::UaeConfig;
use cardbench_ml::autoreg::ArConfig;
use cardbench_ml::gbdt::GbdtConfig;
use cardbench_sketch::SketchConfig;
use cardbench_workload::{job_light, stats_ceb, training_workload, Workload, WorkloadConfig};

use cardbench_estimators::lw::LwNnConfig;

/// Hyper-parameters of every estimator in one place.
#[derive(Debug, Clone)]
pub struct EstimatorSettings {
    /// Global seed.
    pub seed: u64,
    /// Bins per model column for the data-driven coders.
    pub max_bins: usize,
    /// UniSample per-table sample size (paper: 10^4).
    pub sample_size: usize,
    /// Wander-join walks per sub-plan estimate.
    pub wj_walks: usize,
    /// MSCN hyper-parameters.
    pub mscn: MscnConfig,
    /// LW-NN hyper-parameters.
    pub lw_nn: LwNnConfig,
    /// LW-XGB hyper-parameters.
    pub gbdt: GbdtConfig,
    /// UAE / UAE-Q hyper-parameters.
    pub uae: UaeConfig,
    /// NeuroCard hyper-parameters.
    pub neurocard: NeuroCardConfig,
    /// Sketch-estimator hyper-parameters (HLL precision, count-min
    /// shape, build shards).
    pub sketch: SketchConfig,
}

impl EstimatorSettings {
    /// Benchmark-scale settings.
    pub fn standard(seed: u64) -> EstimatorSettings {
        EstimatorSettings {
            seed,
            max_bins: 24,
            sample_size: 10_000,
            wj_walks: 600,
            mscn: MscnConfig {
                seed,
                embed: 64,
                hidden: 96,
                epochs: 40,
                ..MscnConfig::default()
            },
            lw_nn: LwNnConfig {
                seed,
                ..LwNnConfig::default()
            },
            gbdt: GbdtConfig::default(),
            uae: UaeConfig {
                seed,
                ..UaeConfig::default()
            },
            neurocard: NeuroCardConfig {
                seed,
                ar: ArConfig {
                    samples: 100,
                    ..ArConfig::default()
                },
                ..NeuroCardConfig::default()
            },
            sketch: SketchConfig::with_seed(seed),
        }
    }

    /// Down-scaled settings for unit/integration tests.
    pub fn fast(seed: u64) -> EstimatorSettings {
        EstimatorSettings {
            seed,
            max_bins: 16,
            sample_size: 500,
            wj_walks: 120,
            mscn: MscnConfig {
                epochs: 4,
                seed,
                ..MscnConfig::default()
            },
            lw_nn: LwNnConfig {
                epochs: 4,
                seed,
                ..LwNnConfig::default()
            },
            gbdt: GbdtConfig {
                rounds: 10,
                ..GbdtConfig::default()
            },
            uae: UaeConfig {
                epochs: 4,
                seed,
                ..UaeConfig::default()
            },
            neurocard: NeuroCardConfig {
                sample_rows: 1200,
                max_bins: 12,
                ar: ArConfig {
                    epochs: 1,
                    samples: 60,
                    ..ArConfig::default()
                },
                seed,
            },
            sketch: SketchConfig::with_seed(seed),
        }
    }
}

/// Top-level benchmark configuration.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// STATS dataset generator config.
    pub stats: StatsConfig,
    /// IMDB dataset generator config.
    pub imdb: ImdbConfig,
    /// STATS-CEB workload config.
    pub stats_workload: WorkloadConfig,
    /// JOB-LIGHT workload config.
    pub imdb_workload: WorkloadConfig,
    /// Training queries per dataset for the query-driven methods
    /// (paper: 10^5; scaled with the data).
    pub training_queries: usize,
    /// Planning/estimation threads for the harness fan-out. `0` = auto:
    /// `CARDBENCH_THREADS`, then all cores.
    pub threads: usize,
    /// Estimator hyper-parameters.
    pub settings: EstimatorSettings,
}

impl BenchConfig {
    /// Benchmark-scale configuration (minutes of wall time).
    pub fn standard(seed: u64) -> BenchConfig {
        BenchConfig {
            stats: StatsConfig {
                seed,
                ..StatsConfig::default()
            },
            imdb: ImdbConfig {
                seed,
                ..ImdbConfig::default()
            },
            stats_workload: WorkloadConfig::stats_ceb(seed ^ 0x51),
            imdb_workload: WorkloadConfig::job_light(seed ^ 0x1f),
            training_queries: 1500,
            threads: 0,
            settings: EstimatorSettings::standard(seed),
        }
    }

    /// Tiny configuration for tests (seconds of wall time).
    pub fn fast(seed: u64) -> BenchConfig {
        BenchConfig {
            stats: StatsConfig::tiny(seed),
            imdb: ImdbConfig::tiny(seed),
            stats_workload: WorkloadConfig {
                templates: 16,
                queries: 20,
                ..WorkloadConfig::stats_ceb(seed ^ 0x51)
            },
            imdb_workload: WorkloadConfig {
                templates: 8,
                queries: 12,
                ..WorkloadConfig::job_light(seed ^ 0x1f)
            },
            training_queries: 120,
            threads: 0,
            settings: EstimatorSettings::fast(seed),
        }
    }
}

/// A fully materialized benchmark: databases, workloads, training sets.
pub struct Bench {
    /// The STATS-profile database.
    pub stats_db: Database,
    /// The simplified-IMDB database.
    pub imdb_db: Database,
    /// STATS-CEB analog workload.
    pub stats_wl: Workload,
    /// JOB-LIGHT analog workload.
    pub imdb_wl: Workload,
    /// Training workload for query-driven methods on STATS.
    pub stats_train: TrainingSet,
    /// Training workload for query-driven methods on IMDB.
    pub imdb_train: TrainingSet,
    /// The configuration that built everything.
    pub config: BenchConfig,
}

impl Bench {
    /// Builds both databases and workloads.
    pub fn build(config: BenchConfig) -> Bench {
        let stats_db = Database::new(stats_catalog(&config.stats));
        let imdb_db = Database::new(imdb_catalog(&config.imdb));
        let stats_wl = stats_ceb(&stats_db, &config.stats_workload);
        let imdb_wl = job_light(&imdb_db, &config.imdb_workload);
        let (qs, cs) = training_workload(
            &stats_db,
            config.training_queries,
            config.stats_workload.max_tables,
            config.settings.seed ^ 0x7a,
        );
        let stats_train = TrainingSet {
            queries: qs,
            cards: cs,
        };
        let (qi, ci) = training_workload(
            &imdb_db,
            config.training_queries,
            config.imdb_workload.max_tables,
            config.settings.seed ^ 0x7b,
        );
        let imdb_train = TrainingSet {
            queries: qi,
            cards: ci,
        };
        Bench {
            stats_db,
            imdb_db,
            stats_wl,
            imdb_wl,
            stats_train,
            imdb_train,
            config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_bench_builds() {
        let b = Bench::build(BenchConfig::fast(3));
        assert_eq!(b.stats_db.catalog().table_count(), 8);
        assert_eq!(b.imdb_db.catalog().table_count(), 6);
        assert_eq!(b.stats_wl.queries.len(), 20);
        assert_eq!(b.imdb_wl.queries.len(), 12);
        assert_eq!(b.stats_train.queries.len(), 120);
    }
}
