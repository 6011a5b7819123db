//! The assembled world: plan + execution + ground truth, with accessors
//! for the measurement-facing data sources.

use ens_subgraph::{Subgraph, SubgraphConfig};
use ens_types::Timestamp;
use etherscan_sim::{Etherscan, LabelService};
use opensea_sim::OpenSea;
use price_oracle::PriceOracle;
use serde::{Deserialize, Serialize};

use crate::config::WorldConfig;
use crate::engine::{execute, Executed};
use crate::plan::{build_plan, NameTruth, OwnerKind, Plan};

/// Headline counts of a built world.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorldSummary {
    /// Names simulated.
    pub total_names: usize,
    /// Names whose first period ended in expiry inside the window.
    pub expired_names: usize,
    /// Names dropcaught at least once (ground truth).
    pub caught_names: usize,
    /// Subdomain creations.
    pub subdomains: usize,
    /// On-chain transactions.
    pub transactions: usize,
    /// ENS events emitted.
    pub ens_events: usize,
    /// Marketplace events.
    pub market_events: usize,
}

/// A fully built world.
pub struct World {
    /// The configuration it was built from.
    pub config: WorldConfig,
    /// The executed substrates.
    executed: Executed,
    /// Ground truth (the measurement pipeline never sees this).
    truth: Vec<NameTruth>,
}

impl WorldConfig {
    /// Plans and executes the world: [`build_plan`], then
    /// [`World::from_plan`].
    pub fn build(self) -> World {
        let plan = build_plan(&self);
        World::from_plan(self, plan)
    }
}

impl World {
    /// Executes `plan`, which [`build_plan`] made from `config`. Panics on
    /// planner/executor inconsistencies (they are bugs, not data). The
    /// plan's event vector is consumed and freed as soon as the replay
    /// finishes, keeping the paper-scale build's peak memory at one copy of
    /// the event stream.
    pub fn from_plan(config: WorldConfig, plan: Plan) -> World {
        let (executed, truth) =
            execute(&config, plan, None).unwrap_or_else(|e| panic!("execution failed: {e}"));
        World {
            config,
            executed,
            truth,
        }
    }

    /// The ledger.
    pub fn chain(&self) -> &sim_chain::Chain {
        &self.executed.chain
    }

    /// The ENS deployment.
    pub fn ens(&self) -> &ens_registry::EnsSystem {
        &self.executed.ens
    }

    /// The marketplace.
    pub fn opensea(&self) -> &OpenSea {
        &self.executed.opensea
    }

    /// The address label directory.
    pub fn labels(&self) -> &LabelService {
        &self.executed.labels
    }

    /// The price oracle used for all conversions.
    pub fn oracle(&self) -> &PriceOracle {
        &self.executed.oracle
    }

    /// End of the observation window.
    pub fn observation_end(&self) -> Timestamp {
        self.config.observation_end
    }

    /// Builds the subgraph view a crawler would query.
    pub fn subgraph(&self, config: SubgraphConfig) -> Subgraph {
        Subgraph::index(self.ens().events(), config)
    }

    /// Builds the transaction-explorer view a crawler would query.
    pub fn etherscan(&self) -> Etherscan {
        Etherscan::index(self.chain(), self.labels().clone())
    }

    /// Ground truth per name — for validation only.
    pub fn truth(&self) -> &[NameTruth] {
        &self.truth
    }

    /// Headline counts.
    pub fn dataset_summary(&self) -> WorldSummary {
        let expired = self.truth.iter().filter(|t| t.expired).count();
        let caught = self.truth.iter().filter(|t| t.catch_count > 0).count();
        WorldSummary {
            total_names: self.truth.len(),
            expired_names: expired,
            caught_names: caught,
            subdomains: self
                .ens()
                .events()
                .iter()
                .filter(|e| matches!(e.kind, ens_registry::EnsEventKind::SubnodeCreated { .. }))
                .count(),
            transactions: self.chain().transaction_count(),
            ens_events: self.ens().events().len(),
            market_events: self.opensea().event_count(),
        }
    }

    /// Ground-truth dropcatcher tenure count per address (for validating
    /// the concentration analysis).
    pub fn truth_catch_periods(&self) -> usize {
        self.truth
            .iter()
            .flat_map(|t| &t.periods)
            .filter(|p| p.kind == OwnerKind::Catcher)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use ens_types::EnsName;

    fn tiny() -> World {
        WorldConfig::small().with_names(400).with_seed(11).build()
    }

    #[test]
    fn builds_without_protocol_errors_and_conserves_value() {
        let world = tiny();
        let s = world.dataset_summary();
        assert_eq!(s.total_names, 400);
        assert!(s.transactions > 1_000);
        assert!(s.ens_events > 400);
        assert_eq!(
            world.chain().total_balance(),
            world.chain().total_minted(),
            "value conservation"
        );
    }

    #[test]
    fn reregistered_names_resolve_to_their_catcher() {
        let world = tiny();
        let caught = world
            .truth()
            .iter()
            .find(|t| t.catch_count > 0 && !t.sold)
            .expect("at least one caught name");
        let name = EnsName::from_label(caught.label.clone());
        let resolved = world.ens().resolve(&name).expect("resolves");
        let last_period = caught.periods.last().unwrap();
        assert_eq!(resolved, last_period.owner);
    }

    #[test]
    fn expired_uncaught_names_still_resolve_to_the_old_owner() {
        let world = tiny();
        let lapsed = world
            .truth()
            .iter()
            .find(|t| t.expired && t.catch_count == 0)
            .expect("at least one expired-uncaught name");
        let name = EnsName::from_label(lapsed.label.clone());
        // The paper's central hazard: the record survives expiry.
        assert_eq!(world.ens().resolve(&name), Some(lapsed.periods[0].owner));
    }

    #[test]
    fn deterministic_end_to_end() {
        let a = WorldConfig::small().with_names(150).with_seed(5).build();
        let b = WorldConfig::small().with_names(150).with_seed(5).build();
        assert_eq!(a.dataset_summary(), b.dataset_summary());
        assert_eq!(
            a.chain().transactions().last().map(|t| t.hash),
            b.chain().transactions().last().map(|t| t.hash)
        );
    }

    #[test]
    fn no_auction_counterfactual_removes_premiums_and_the_21_day_wait() {
        let cfg = WorldConfig::small().with_names(800).with_seed(31);
        let with_auction = cfg.clone().build();
        let without = cfg.without_auction().build();

        // No premium is ever paid in the counterfactual.
        let premium_events = |w: &World| {
            w.ens()
                .events()
                .iter()
                .filter(|e| {
                    matches!(
                        &e.kind,
                        ens_registry::EnsEventKind::NameRegistered { premium, .. }
                        if !premium.is_zero()
                    )
                })
                .count()
        };
        assert!(premium_events(&with_auction) > 0);
        assert_eq!(premium_events(&without), 0);

        // Catches happen right at grace end instead of after the auction.
        let min_gap_days = |w: &World| {
            w.truth()
                .iter()
                .flat_map(|t| {
                    t.periods
                        .windows(2)
                        .map(|p| (p[0].expiry, p[1]))
                        .collect::<Vec<_>>()
                })
                .filter(|(_, p1)| p1.kind == crate::plan::OwnerKind::Catcher)
                .map(|(e, p1)| (p1.start.0 - e.0) as f64 / 86_400.0)
                .fold(f64::INFINITY, f64::min)
        };
        assert!(min_gap_days(&with_auction) >= 90.0 + 8.0, "auction floor");
        let cf_min = min_gap_days(&without);
        assert!(
            (90.0..92.0).contains(&cf_min),
            "drop race at grace end, got {cf_min}"
        );
    }

    #[test]
    fn subgraph_and_etherscan_views_cover_the_world() {
        let world = tiny();
        let sg = world.subgraph(ens_subgraph::SubgraphConfig::lossless());
        assert_eq!(sg.stats().domains, 400);
        let scan = world.etherscan();
        assert_eq!(scan.total_transactions(), world.chain().transaction_count());
        // Custodial pools got labelled.
        assert!(scan.labels().len() >= world.config.senders.custodial_pool);
    }
}
