//! The reference every benchmark output is checked against: each cell of
//! the grid run once on the sequential `CampaignRunner` path, the
//! executor's naive oracle, independent of the matrix executor, the pool
//! and the daemon under test.

use std::collections::HashMap;

use secbranch::campaign::{CampaignReport, CampaignRunner};
use secbranch::{MatrixStats, SecurityCell, SecurityReport, Session};
use secbranch_gridd::catalog;

use crate::{Rng, GRID_MODELS, GRID_VARIANTS, GRID_WORKLOADS, MAX_STEPS};

/// The axis order of one grid request, as catalog names.
pub struct GridOrder {
    pub workloads: Vec<&'static str>,
    pub variants: Vec<&'static str>,
    pub models: Vec<&'static str>,
}

impl GridOrder {
    pub fn canonical() -> GridOrder {
        GridOrder {
            workloads: GRID_WORKLOADS.to_vec(),
            variants: GRID_VARIANTS.to_vec(),
            models: GRID_MODELS.to_vec(),
        }
    }

    /// The grid with every axis in a seeded order: the same cells, laid
    /// out differently in the report.
    pub fn shuffled(rng: &mut Rng) -> GridOrder {
        let mut order = GridOrder::canonical();
        rng.shuffle(&mut order.workloads);
        rng.shuffle(&mut order.variants);
        rng.shuffle(&mut order.models);
        order
    }

    pub fn names(&self) -> (Vec<String>, Vec<String>, Vec<String>) {
        let owned = |names: &[&str]| names.iter().map(|s| (*s).to_string()).collect();
        (
            owned(&self.workloads),
            owned(&self.variants),
            owned(&self.models),
        )
    }
}

/// Labels a report uses for one catalog cell.
struct Labels {
    workload: String,
    pipeline: String,
    model: String,
}

pub struct Oracle {
    pub trials: u64,
    cells: HashMap<(&'static str, &'static str, &'static str), (Labels, CampaignReport)>,
}

impl Oracle {
    /// Runs all 60 cells at sampling budget `trials` on the sequential path.
    pub fn compute(trials: u64) -> Result<Oracle, String> {
        let runner = CampaignRunner::new().with_threads(1);
        let mut session = Session::new();
        let mut cells = HashMap::new();
        for w in GRID_WORKLOADS {
            let workload = catalog::workload(w).ok_or("unknown workload")?;
            for v in GRID_VARIANTS {
                let pipeline = catalog::pipeline(v, MAX_STEPS).ok_or("unknown variant")?;
                let artifact = session
                    .artifact(&workload.name, &workload.module, &pipeline)
                    .map_err(|e| e.to_string())?;
                for m in GRID_MODELS {
                    let model = catalog::model(m, trials).ok_or("unknown model")?;
                    let report = artifact
                        .campaign_with(&runner, &workload.entry, &workload.args, &*model)
                        .map_err(|e| e.to_string())?;
                    let labels = Labels {
                        workload: workload.name.clone(),
                        pipeline: pipeline.label().to_string(),
                        model: model.name(),
                    };
                    cells.insert((w, v, m), (labels, report));
                }
            }
        }
        Ok(Oracle { trials, cells })
    }

    /// The report a correct run of the grid in `order` returns.
    pub fn report(&self, order: &GridOrder) -> SecurityReport {
        let mut cells = Vec::with_capacity(self.cells.len());
        for &w in &order.workloads {
            for &v in &order.variants {
                for &m in &order.models {
                    let (labels, report) = &self.cells[&(w, v, m)];
                    cells.push(SecurityCell {
                        workload: labels.workload.clone(),
                        pipeline: labels.pipeline.clone(),
                        model: labels.model.clone(),
                        report: report.clone(),
                    });
                }
            }
        }
        let per_workload = order.variants.len() * order.models.len();
        SecurityReport {
            workloads: cells
                .iter()
                .step_by(per_workload)
                .map(|c| c.workload.clone())
                .collect(),
            pipelines: cells[..per_workload]
                .iter()
                .step_by(order.models.len())
                .map(|c| c.pipeline.clone())
                .collect(),
            models: cells[..order.models.len()]
                .iter()
                .map(|c| c.model.clone())
                .collect(),
            cells,
            stats: MatrixStats::default(),
        }
    }
}
