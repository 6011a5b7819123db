//! Phase B of world generation: *execution*.
//!
//! Replays a sorted [`Plan`](crate::plan::Plan) against real substrate
//! instances — the ledger, the ENS deployment, the marketplace — producing
//! the world the measurement pipeline will crawl. Execution is strict: any
//! protocol error aborts with context, so planner bugs surface as test
//! failures instead of silently skewing the data.
//!
//! Every payment is priced at its day's close, read from one
//! [`PriceTable`] built over the plan's time span before the replay: one
//! oracle evaluation per day instead of one per event.
//!
//! A caller that indexes the logs as they grow hands [`execute`] a
//! consumer: after each block of [`HANDOVER_EVENTS`] plan events, the
//! transactions and ENS events the block appended are moved out of the
//! ledger and the deployment into one [`Logs`] and handed to it.

use ens_registry::{usd_to_wei, EnsEvent, EnsSystem};
use ens_types::{Address, Duration, Label, UsdCents, Wei};

use etherscan_sim::LabelService;
use opensea_sim::OpenSea;
use price_oracle::{PriceOracle, PriceTable};
use sim_chain::{Chain, Transaction, TxKind};

use crate::config::WorldConfig;
use crate::plan::{NameTruth, Plan, PlannedAction, PlannedEvent};

/// An execution failure, annotated with the offending event.
#[derive(Debug)]
pub struct ExecError {
    /// Index of the event in the plan.
    pub index: usize,
    /// The event that failed.
    pub event: PlannedEvent,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "event #{} at {:?} failed: {} ({:?})",
            self.index, self.event.at, self.message, self.event.action
        )
    }
}

impl std::error::Error for ExecError {}

/// The executed substrates.
pub struct Executed {
    /// The ledger with the full transaction log.
    pub chain: Chain,
    /// The ENS deployment with the full event log.
    pub ens: EnsSystem,
    /// The marketplace.
    pub opensea: OpenSea,
    /// Address labels (custodial pools, contracts).
    pub labels: LabelService,
    /// The price oracle used for all conversions.
    pub oracle: PriceOracle,
}

/// Plan events replayed between two hand-overs of the logs. At 60 K
/// names (220 K plan events, 191 K transactions, 216 K ENS events) that
/// is 54 hand-overs of ~3.6 K transactions and ~4.0 K events, ~1.2 MB
/// each. On 2 cores, blocks of 1 K to 8 K events timed within the host's
/// noise of each other and 16 K slower.
pub const HANDOVER_EVENTS: usize = 4_096;

/// What one stretch of the replay appended to the chain's logs, moved out
/// of the ledger and the ENS deployment: the next transactions in
/// confirmation order and the next ENS events in chain order. Nonces and
/// event ids keep counting across hand-overs, so the logs handed over,
/// concatenated, are the logs of a replay that kept them.
#[derive(Debug, Default)]
pub struct Logs {
    /// The transactions confirmed since the previous hand-over.
    pub transactions: Vec<Transaction>,
    /// The ENS events emitted since the previous hand-over.
    pub events: Vec<EnsEvent>,
}

/// Executes a plan, consuming it: the event vector — the bulk of a
/// paper-scale plan's memory (~10M planned events at 3.1M names) — is
/// freed the moment the replay loop finishes, so the caller builds the
/// measurement views (subgraph, explorer, dataset) without the whole plan
/// still resident. Returns the executed substrates together with the
/// plan's ground truth.
///
/// With `hand_over`, after each block of [`HANDOVER_EVENTS`] plan events
/// (the last block may be shorter) the replay moves what it appended to
/// both logs into one [`Logs`] and passes it on, so the returned ledger
/// and deployment hold no logs. Without it they keep the full logs. The
/// consumer is dropped right after the last hand-over, before the plan's
/// events are freed, so one that feeds a queue closes it as early as it
/// can.
pub fn execute(
    cfg: &WorldConfig,
    plan: Plan,
    mut hand_over: Option<Box<dyn FnMut(Logs) + '_>>,
) -> Result<(Executed, Vec<NameTruth>), Box<ExecError>> {
    let Plan {
        events,
        truth,
        catchers: _,
        custodial_pool,
        coinbase_pool,
    } = plan;
    let oracle = PriceOracle::new();
    let mut chain = Chain::new(cfg.start - Duration::from_days(3));
    let mut ens = if cfg.behavior.auction_enabled {
        EnsSystem::new()
    } else {
        EnsSystem::new().with_premium_disabled()
    };
    let mut opensea = OpenSea::new();

    let mut labels = LabelService::new();
    for (i, a) in custodial_pool.iter().enumerate() {
        labels.add_custodial(*a, format!("Exchange {i}"));
    }
    for (i, a) in coinbase_pool.iter().enumerate() {
        labels.add_coinbase(*a, format!("Coinbase {i}"));
    }
    labels.add(etherscan_sim::AddressLabel {
        address: ens.controller_address(),
        name: "ENS: ETH Registrar Controller".into(),
        kind: etherscan_sim::LabelKind::Contract,
    });

    // The table equals the oracle on every day, and falls back to it
    // outside the span, so the replay prices exactly as the oracle would.
    let prices = oracle.day_table(chain.now(), events.last().map_or(chain.now(), |e| e.at));
    let mut exec = Executor {
        chain: &mut chain,
        ens: &mut ens,
        opensea: &mut opensea,
        prices: &prices,
    };
    for (block, chunk) in events.chunks(HANDOVER_EVENTS).enumerate() {
        for (offset, event) in chunk.iter().enumerate() {
            exec.apply(event).map_err(|message| {
                Box::new(ExecError {
                    index: block * HANDOVER_EVENTS + offset,
                    event: event.clone(),
                    message,
                })
            })?;
        }
        if let Some(hand_over) = hand_over.as_mut() {
            hand_over(Logs {
                transactions: exec.chain.take_transactions(),
                events: exec.ens.take_events(),
            });
        }
    }
    drop(hand_over);
    drop(events);

    Ok((
        Executed {
            chain,
            ens,
            opensea,
            labels,
            oracle,
        },
        truth,
    ))
}

struct Executor<'a> {
    chain: &'a mut Chain,
    ens: &'a mut EnsSystem,
    opensea: &'a mut OpenSea,
    prices: &'a PriceTable,
}

impl Executor<'_> {
    fn apply(&mut self, event: &PlannedEvent) -> Result<(), String> {
        if event.at > self.chain.now() {
            self.chain
                .advance_to(event.at)
                .map_err(|e| format!("clock: {e}"))?;
        }
        let now = self.chain.now();
        let price = self.prices.cents_per_eth(now);

        match &event.action {
            PlannedAction::ImportLegacy {
                label,
                owner,
                expiry,
                publish_label,
            } => self
                .ens
                .import_legacy_with(
                    self.chain,
                    label,
                    *owner,
                    *expiry,
                    Some(*owner),
                    *publish_label,
                )
                .map_err(|e| e.to_string()),

            PlannedAction::Commit {
                label,
                owner,
                secret,
            } => {
                let c = EnsSystem::make_commitment(label, *owner, *secret);
                self.ens.commit(self.chain, c);
                Ok(())
            }

            PlannedAction::Register {
                label,
                owner,
                secret,
                years,
            } => {
                let duration = Duration::from_years(*years);
                let (rent, premium) = self.ens.price_usd(label, duration, now);
                let cost = usd_to_wei(rent + premium, price);
                self.ensure_funds(*owner, cost);
                self.ens
                    .register(
                        self.chain,
                        label,
                        *owner,
                        *secret,
                        duration,
                        price,
                        Some(*owner),
                    )
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            }

            PlannedAction::Renew {
                label,
                payer,
                years,
            } => {
                let duration = Duration::from_years(*years);
                let (rent, _) = self.ens.price_usd(label, duration, now);
                self.ensure_funds(*payer, usd_to_wei(rent, price));
                self.ens
                    .renew(self.chain, label, *payer, duration, price)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            }

            PlannedAction::Send { from, to, usd } => {
                let wei = self.usd_to_wei_now(*usd, price);
                self.ensure_funds(*from, wei);
                self.chain
                    .transfer(*from, *to, wei, TxKind::Transfer)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            }

            PlannedAction::Transfer { label, from, to } => self
                .ens
                .transfer(self.chain, label, *from, *to)
                .map_err(|e| e.to_string()),

            PlannedAction::List { label, seller, usd } => {
                self.opensea
                    .list(label.hash(), *seller, usd_cents(*usd), now);
                Ok(())
            }

            PlannedAction::Sale {
                label,
                seller,
                buyer,
                usd,
            } => {
                let wei = self.usd_to_wei_now(*usd, price);
                self.ensure_funds(*buyer, wei);
                self.chain
                    .transfer(*buyer, *seller, wei, TxKind::Transfer)
                    .map_err(|e| e.to_string())?;
                self.ens
                    .transfer(self.chain, label, *seller, *buyer)
                    .map_err(|e| format!("sale transfer: {e}"))?;
                // The buyer points the name at their own wallet.
                self.ens
                    .set_addr(self.chain, label, *buyer, *buyer)
                    .map_err(|e| format!("sale set_addr: {e}"))?;
                self.opensea
                    .record_sale(label.hash(), *seller, *buyer, usd_cents(*usd), now);
                Ok(())
            }

            PlannedAction::SetReverse { addr, label } => {
                let name = ens_types::EnsName::from_label(label.clone());
                self.ens.set_primary_name(self.chain, *addr, &name);
                Ok(())
            }

            PlannedAction::Subdomain {
                label,
                caller,
                sub_label,
                sub_owner,
            } => {
                let sub = Label::parse_any(sub_label).map_err(|e| e.to_string())?;
                self.ens
                    .create_subdomain(
                        self.chain,
                        label,
                        *caller,
                        &sub,
                        *sub_owner,
                        Some(*sub_owner),
                    )
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            }
        }
    }

    /// Converts a planned USD amount to wei at the current day's close.
    fn usd_to_wei_now(&self, usd: f64, cents_per_eth: u64) -> Wei {
        let cents = UsdCents((usd * 100.0).round().max(1.0) as u128);
        usd_to_wei(cents, cents_per_eth)
    }

    /// Tops an account up (with a 0.1 ETH buffer) so `need` is spendable.
    /// Mints are recorded as transactions from the zero address, so actors
    /// typically show a single funding entry in their history.
    fn ensure_funds(&mut self, who: Address, need: Wei) {
        let balance = self.chain.balance(who);
        if balance < need {
            let shortfall = need - balance + Wei::from_milli_eth(100);
            self.chain.mint(who, shortfall);
        }
    }
}

fn usd_cents(usd: f64) -> UsdCents {
    UsdCents((usd * 100.0).round().max(0.0) as u128)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Plan, PlannedEvent};
    use ens_types::Timestamp;

    fn empty_plan(events: Vec<PlannedEvent>) -> Plan {
        Plan {
            events,
            truth: Vec::new(),
            catchers: Vec::new(),
            custodial_pool: vec![Address::derive(b"exchange-0")],
            coinbase_pool: vec![Address::derive(b"coinbase-0")],
        }
    }

    fn cfg() -> WorldConfig {
        WorldConfig::small()
    }

    fn ev(at: Timestamp, seq: u64, action: PlannedAction) -> PlannedEvent {
        PlannedEvent { at, seq, action }
    }

    fn t(days: u64) -> Timestamp {
        Timestamp::from_ymd(2021, 1, 1) + Duration::from_days(days)
    }

    #[test]
    fn executes_a_minimal_consistent_plan() {
        let owner = Address::derive(b"owner");
        let sender = Address::derive(b"sender");
        let label = Label::parse("enginetest").unwrap();
        let plan = empty_plan(vec![
            ev(
                t(0),
                0,
                PlannedAction::Commit {
                    label: label.clone(),
                    owner,
                    secret: 1,
                },
            ),
            ev(
                t(1),
                1,
                PlannedAction::Register {
                    label: label.clone(),
                    owner,
                    secret: 1,
                    years: 1,
                },
            ),
            ev(
                t(2),
                2,
                PlannedAction::Send {
                    from: sender,
                    to: owner,
                    usd: 150.0,
                },
            ),
            ev(
                t(3),
                3,
                PlannedAction::SetReverse {
                    addr: owner,
                    label: label.clone(),
                },
            ),
            ev(
                t(4),
                4,
                PlannedAction::Renew {
                    label: label.clone(),
                    payer: owner,
                    years: 1,
                },
            ),
        ]);
        let (executed, _) = execute(&cfg(), plan, None).expect("consistent plan executes");
        let name = ens_types::EnsName::from_label(label);
        assert_eq!(executed.ens.resolve(&name), Some(owner));
        assert_eq!(executed.ens.primary_name(owner), Some(&name));
        assert!(executed.ens.forward_and_back_match(&name));
        // Lazy funding minted for the owner, the sender, and the payment
        // landed: value conservation still holds.
        assert_eq!(
            executed.chain.total_balance(),
            executed.chain.total_minted()
        );
        assert!(executed.chain.balance(owner) > Wei::ZERO);
        // Custodial pools got labelled.
        assert!(executed.labels.is_custodial(Address::derive(b"exchange-0")));
    }

    #[test]
    fn handed_over_logs_concatenate_to_the_kept_logs() {
        let config = WorldConfig::small().with_names(2_000).with_seed(3);
        let plan = crate::plan::build_plan(&config);
        assert!(plan.events.len() > HANDOVER_EVENTS, "at least two blocks");
        let (kept, _) = execute(&config, plan.clone(), None).expect("plan executes");
        let (mut all, mut hand_overs) = (Logs::default(), 0);
        let (streamed, _) = execute(
            &config,
            plan,
            Some(Box::new(|logs: Logs| {
                hand_overs += 1;
                all.transactions.extend(logs.transactions);
                all.events.extend(logs.events);
            })),
        )
        .expect("plan executes");
        assert!(hand_overs >= 2);
        assert_eq!(all.transactions, kept.chain.transactions());
        assert_eq!(all.events, kept.ens.events());
        assert!(streamed.chain.transactions().is_empty());
        assert!(streamed.ens.events().is_empty());
        assert_eq!(
            streamed.chain.transaction_count(),
            kept.chain.transaction_count()
        );
    }

    #[test]
    fn inconsistent_plans_fail_loudly_with_context() {
        let owner = Address::derive(b"owner");
        let label = Label::parse("enginetest").unwrap();
        // Register without a commitment: a planner bug, not data.
        let plan = empty_plan(vec![ev(
            t(0),
            0,
            PlannedAction::Register {
                label,
                owner,
                secret: 9,
                years: 1,
            },
        )]);
        let Err(err) = execute(&cfg(), plan, None) else {
            panic!("inconsistent plan must fail");
        };
        assert_eq!(err.index, 0);
        assert!(err.to_string().contains("commitment"), "{err}");
    }

    #[test]
    fn unsorted_plans_are_rejected_by_the_clock() {
        let owner = Address::derive(b"owner");
        let sender = Address::derive(b"sender");
        let plan = empty_plan(vec![
            ev(
                t(10),
                0,
                PlannedAction::Send {
                    from: sender,
                    to: owner,
                    usd: 5.0,
                },
            ),
            // Earlier than the previous event: the monotone clock refuses.
            ev(
                Timestamp(t(10).0 - 86_400),
                1,
                PlannedAction::Send {
                    from: sender,
                    to: owner,
                    usd: 5.0,
                },
            ),
        ]);
        // advance_to is only called for future times, so an out-of-order
        // event silently executes at the later clock -- verify it does NOT
        // error but also does not rewind time.
        let (executed, _) = execute(&cfg(), plan, None).expect("executes at the current clock");
        let times: Vec<_> = executed
            .chain
            .transactions()
            .iter()
            .map(|tx| tx.timestamp)
            .collect();
        for w in times.windows(2) {
            assert!(w[0] <= w[1], "chain time went backwards");
        }
    }
}
