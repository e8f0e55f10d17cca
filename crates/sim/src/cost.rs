//! Cost accounting: the price of privacy.
//!
//! The paper notes that "running chaff services is expensive" and that the
//! chaff budget `N − 1` models the user's willingness to pay (Secs. II-B,
//! VIII), leaving a quantitative cost-privacy study to future work. This
//! module supplies the measurement side of that study: per-service ledgers
//! of migration, communication and running costs that the evaluation
//! harness can put next to tracking accuracy.

use chaff_markov::CellId;

/// Unit costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of migrating one service instance between MECs.
    pub migration: f64,
    /// Cost per slot per unit cell-index distance between a user and its
    /// (real) service when they are not co-located.
    pub communication_per_distance: f64,
    /// Cost per slot of simply running one service instance.
    pub running: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            migration: 1.0,
            communication_per_distance: 0.5,
            running: 0.1,
        }
    }
}

impl CostModel {
    /// Communication cost for one slot with the user at `user` and the
    /// real service at `service` (index distance as in the 1-D models).
    pub fn communication(&self, user: CellId, service: CellId) -> f64 {
        let d = user.index().abs_diff(service.index()) as f64;
        self.communication_per_distance * d
    }
}

/// Accumulated costs of one service instance.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServiceCosts {
    /// Number of migrations performed.
    pub migrations: usize,
    /// Total migration cost.
    pub migration_cost: f64,
    /// Total communication cost (real service only; chaffs serve nobody).
    pub communication_cost: f64,
    /// Total running cost.
    pub running_cost: f64,
}

impl ServiceCosts {
    /// Sum of all cost components.
    pub fn total(&self) -> f64 {
        self.migration_cost + self.communication_cost + self.running_cost
    }
}

/// Ledger for a whole simulation: index 0 is the real service, the rest
/// are chaffs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostLedger {
    services: Vec<ServiceCosts>,
}

impl CostLedger {
    /// Creates a ledger for one real service plus `num_chaffs` chaffs.
    pub fn new(num_chaffs: usize) -> Self {
        CostLedger {
            services: vec![ServiceCosts::default(); num_chaffs + 1],
        }
    }

    /// Records a migration of service `index`.
    pub fn record_migration(&mut self, index: usize, model: &CostModel) {
        let s = &mut self.services[index];
        s.migrations += 1;
        s.migration_cost += model.migration;
    }

    /// Records one slot of running cost for service `index`.
    pub fn record_running(&mut self, index: usize, model: &CostModel) {
        self.services[index].running_cost += model.running;
    }

    /// Records one slot of communication cost for the real service.
    pub fn record_communication(&mut self, user: CellId, service: CellId, model: &CostModel) {
        self.services[0].communication_cost += model.communication(user, service);
    }

    /// Costs of the real service.
    pub fn real_service(&self) -> &ServiceCosts {
        &self.services[0]
    }

    /// Costs of chaff `i` (0-based).
    pub fn chaff(&self, i: usize) -> &ServiceCosts {
        &self.services[i + 1]
    }

    /// Number of chaffs tracked.
    pub fn num_chaffs(&self) -> usize {
        self.services.len() - 1
    }

    /// Total cost attributable to the chaff defense (everything except
    /// the real service's own costs).
    pub fn defense_cost(&self) -> f64 {
        self.services.iter().skip(1).map(ServiceCosts::total).sum()
    }

    /// Grand total.
    pub fn total(&self) -> f64 {
        self.services.iter().map(ServiceCosts::total).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn communication_scales_with_distance() {
        let m = CostModel::default();
        assert_eq!(m.communication(CellId::new(3), CellId::new(3)), 0.0);
        assert_eq!(m.communication(CellId::new(3), CellId::new(5)), 1.0);
        assert_eq!(m.communication(CellId::new(5), CellId::new(3)), 1.0);
    }

    #[test]
    fn ledger_attributes_costs_per_service() {
        let model = CostModel::default();
        let mut ledger = CostLedger::new(2);
        ledger.record_migration(0, &model);
        ledger.record_migration(1, &model);
        ledger.record_migration(1, &model);
        ledger.record_running(2, &model);
        ledger.record_communication(CellId::new(0), CellId::new(4), &model);
        assert_eq!(ledger.real_service().migrations, 1);
        assert_eq!(ledger.chaff(0).migrations, 2);
        assert!((ledger.chaff(1).running_cost - 0.1).abs() < 1e-12);
        assert!((ledger.real_service().communication_cost - 2.0).abs() < 1e-12);
        assert_eq!(ledger.num_chaffs(), 2);
        // Defense cost excludes the real service.
        assert!((ledger.defense_cost() - (2.0 + 0.1)).abs() < 1e-12);
        assert!((ledger.total() - (1.0 + 2.0 + 2.0 + 0.1)).abs() < 1e-12);
    }
}
