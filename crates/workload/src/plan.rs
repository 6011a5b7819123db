//! Phase A of world generation: *planning*.
//!
//! Every name's lifecycle (registration → renewals → expiry → possible
//! dropcatch → possible resale, plus all sender traffic) is planned as pure
//! data with timestamps, name by name. Because the simulated chain's clock
//! is monotone, the plan is then globally sorted by time and executed in one
//! pass by [`crate::engine`]. Planning also produces the per-name ground
//! truth ([`NameTruth`]) that integration tests compare the measurement
//! pipeline against — the pipeline itself never sees it.

use ens_types::{Address, Duration, Label, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::config::WorldConfig;
use crate::dist::{
    chance, exponential, geometric, log_normal, poisson, weighted_choice, CumulativeTable,
};
use crate::namegen::{NameClass, NameGenerator, NameSpec};

/// The 90-day grace period (mirrors `ens_registry::GRACE_PERIOD` without
/// the dependency).
const GRACE: Duration = Duration::from_days(90);

/// One planned action against the world.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PlannedAction {
    /// Auction-era registration imported at the 2020 migration.
    ImportLegacy {
        /// The name.
        label: Label,
        /// Its owner.
        owner: Address,
        /// Migration-mandated expiry.
        expiry: Timestamp,
        /// Whether the migration event publishes the plaintext label
        /// (most do; the residue is the paper's unrecoverable set).
        publish_label: bool,
    },
    /// A registration commitment (front-running guard).
    Commit {
        /// The name.
        label: Label,
        /// The prospective owner.
        owner: Address,
        /// Commitment secret.
        secret: u64,
    },
    /// A controller registration (pays rent + any premium at execution).
    Register {
        /// The name.
        label: Label,
        /// The new owner.
        owner: Address,
        /// Must match the earlier commitment.
        secret: u64,
        /// Registration length in years.
        years: u64,
    },
    /// A renewal.
    Renew {
        /// The name.
        label: Label,
        /// Who pays (usually the holder).
        payer: Address,
        /// Extension in years.
        years: u64,
    },
    /// A plain value transfer, amount in USD (converted at the day's price
    /// during execution).
    Send {
        /// Sender.
        from: Address,
        /// Recipient.
        to: Address,
        /// Amount in USD.
        usd: f64,
    },
    /// A private NFT transfer (not a sale).
    Transfer {
        /// The name.
        label: Label,
        /// Current holder.
        from: Address,
        /// New holder.
        to: Address,
    },
    /// A marketplace listing.
    List {
        /// The name.
        label: Label,
        /// The seller.
        seller: Address,
        /// Asking price in USD.
        usd: f64,
    },
    /// A marketplace sale: payment + NFT transfer + resolver update.
    Sale {
        /// The name.
        label: Label,
        /// The seller.
        seller: Address,
        /// The buyer.
        buyer: Address,
        /// Sale price in USD.
        usd: f64,
    },
    /// An address claims a primary (reverse) name.
    SetReverse {
        /// The claiming address.
        addr: Address,
        /// The name claimed.
        label: Label,
    },
    /// Creation of one subdomain.
    Subdomain {
        /// Parent name.
        label: Label,
        /// Parent registrant (caller).
        caller: Address,
        /// Subdomain label text (validated at execution).
        sub_label: String,
        /// Subdomain owner.
        sub_owner: Address,
    },
}

/// A timestamped planned action. `seq` breaks ties deterministically.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlannedEvent {
    /// When it happens.
    pub at: Timestamp,
    /// Global planning sequence number (tie-break).
    pub seq: u64,
    /// What happens.
    pub action: PlannedAction,
}

/// Who held a name during one registration period.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum OwnerKind {
    /// An organic user (first registrant or marketplace buyer).
    Organic,
    /// A dropcatcher.
    Catcher,
}

/// Ground truth for one ownership period.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeriodTruth {
    /// The holder's wallet address.
    pub owner: Address,
    /// Organic user or dropcatcher.
    pub kind: OwnerKind,
    /// Period start (registration time).
    pub start: Timestamp,
    /// Final expiry after renewals.
    pub expiry: Timestamp,
}

/// Ground truth for one planned misdirected transaction.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MisdirectTruth {
    /// The common sender `c`.
    pub sender: Address,
    /// The old owner `a1` the funds were meant for.
    pub intended: Address,
    /// The catcher `a2` who received them.
    pub received_by: Address,
    /// Amount in USD.
    pub usd: f64,
    /// When.
    pub at: Timestamp,
}

/// Everything the planner decided about one name.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NameTruth {
    /// The label.
    pub label: Label,
    /// Its lexical class.
    pub class: NameClass,
    /// Its desirability score.
    pub desirability: f64,
    /// Auction-era name?
    pub legacy: bool,
    /// Ownership periods in order.
    pub periods: Vec<PeriodTruth>,
    /// Planned organic income (USD) of the first period.
    pub first_income_usd: f64,
    /// Did the first period end in expiry (inside the observation window)?
    pub expired: bool,
    /// How many times the name was dropcaught.
    pub catch_count: usize,
    /// Planned misdirected transactions (the paper's `c → a2` pattern).
    pub misdirected: Vec<MisdirectTruth>,
    /// Planned hijackable USD (funds sent to the lapsed owner's address
    /// between expiry and re-registration).
    pub hijackable_usd: f64,
    /// Was it listed on the marketplace after a catch?
    pub listed: bool,
    /// Did it sell?
    pub sold: bool,
}

/// The full planning output.
#[derive(Clone, Debug)]
pub struct Plan {
    /// All events, globally sorted by `(at, seq)`.
    pub events: Vec<PlannedEvent>,
    /// Per-name ground truth.
    pub truth: Vec<NameTruth>,
    /// The dropcatcher address pool.
    pub catchers: Vec<Address>,
    /// Shared non-Coinbase custodial sender addresses.
    pub custodial_pool: Vec<Address>,
    /// Shared Coinbase sender addresses.
    pub coinbase_pool: Vec<Address>,
}

/// A sender planned for one ownership period.
#[derive(Clone, Copy, Debug)]
struct SenderInfo {
    addr: Address,
    /// True when drawn from a shared custodial/Coinbase pool. Carried for
    /// planner introspection; the analysis derives custody from the label
    /// service, exactly like the paper.
    #[allow(dead_code)]
    custodial: bool,
}

/// Builds the full plan for a configuration.
pub fn build_plan(cfg: &WorldConfig) -> Plan {
    Planner::new(cfg).run()
}

struct Planner<'a> {
    cfg: &'a WorldConfig,
    rng: StdRng,
    namegen: NameGenerator,
    events: Vec<PlannedEvent>,
    truth: Vec<NameTruth>,
    seq: u64,
    secret: u64,
    sender_counter: u64,
    owner_counter: u64,
    buyer_counter: u64,
    catchers: Vec<Address>,
    catcher_table: CumulativeTable,
    custodial_pool: Vec<Address>,
    coinbase_pool: Vec<Address>,
    month_starts: Vec<Timestamp>,
    month_weights: Vec<f64>,
}

impl<'a> Planner<'a> {
    fn new(cfg: &'a WorldConfig) -> Planner<'a> {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x656e735f77697a64);
        let n_catchers = ((cfg.n_names as f64 * cfg.behavior.catcher_pool_frac) as usize).max(20);
        let catchers: Vec<Address> = (0..n_catchers)
            .map(|i| Address::derive_indexed("catcher", i as u64))
            .collect();
        // Pareto-distributed activity weights: a few whales catch thousands.
        let weights: Vec<f64> = (0..n_catchers)
            .map(|_| crate::dist::pareto(&mut rng, 1.0, cfg.behavior.catcher_pareto_alpha))
            .collect();
        let catcher_table = CumulativeTable::new(&weights);
        let custodial_pool = (0..cfg.senders.custodial_pool)
            .map(|i| Address::derive_indexed("exchange", i as u64))
            .collect();
        let coinbase_pool = (0..cfg.senders.coinbase_pool)
            .map(|i| Address::derive_indexed("coinbase", i as u64))
            .collect();
        let months = cfg.registration_month_weights();
        Planner {
            cfg,
            rng,
            namegen: NameGenerator::new(cfg.class_mix.clone()),
            events: Vec::new(),
            truth: Vec::with_capacity(cfg.n_names),
            seq: 0,
            secret: 0,
            sender_counter: 0,
            owner_counter: 0,
            buyer_counter: 0,
            catchers,
            catcher_table,
            custodial_pool,
            coinbase_pool,
            month_starts: months.iter().map(|(t, _)| *t).collect(),
            month_weights: months.iter().map(|(_, w)| *w).collect(),
        }
    }

    fn run(mut self) -> Plan {
        for _ in 0..self.cfg.n_names {
            let spec = self.namegen.generate(&mut self.rng);
            self.plan_name(spec);
        }
        // `seq` is unique, so the unstable sort gives the stable order
        // without the stable sort's scratch buffer of half the events.
        self.events.sort_unstable_by_key(|e| (e.at, e.seq));
        Plan {
            events: self.events,
            truth: self.truth,
            catchers: self.catchers,
            custodial_pool: self.custodial_pool,
            coinbase_pool: self.coinbase_pool,
        }
    }

    // ------------------------------------------------------------------
    // Event helpers
    // ------------------------------------------------------------------

    fn push(&mut self, at: Timestamp, action: PlannedAction) {
        self.events.push(PlannedEvent {
            at,
            seq: self.seq,
            action,
        });
        self.seq += 1;
    }

    fn uniform_ts(&mut self, a: Timestamp, b: Timestamp) -> Timestamp {
        debug_assert!(a < b, "empty time range");
        Timestamp(self.rng.gen_range(a.0..b.0))
    }

    fn uniform_days(&mut self, lo: u64, hi: u64) -> Duration {
        Duration::from_secs(self.rng.gen_range(lo * 86_400..hi * 86_400))
    }

    fn next_secret(&mut self) -> u64 {
        self.secret += 1;
        self.secret
    }

    // ------------------------------------------------------------------
    // Per-name lifecycle
    // ------------------------------------------------------------------

    fn plan_name(&mut self, spec: NameSpec) {
        let cfg = self.cfg;
        let obs_end = cfg.observation_end;
        let legacy = chance(&mut self.rng, cfg.legacy_fraction);

        self.owner_counter += 1;
        let first_owner = Address::derive_indexed("owner", self.owner_counter);

        let label = spec.label.clone();
        let mut truth = NameTruth {
            label: label.clone(),
            class: spec.class,
            desirability: spec.desirability,
            legacy,
            periods: Vec::new(),
            first_income_usd: 0.0,
            expired: false,
            catch_count: 0,
            misdirected: Vec::new(),
            hijackable_usd: 0.0,
            listed: false,
            sold: false,
        };

        // Initial registration.
        let (start_t, mut expiry) = if legacy {
            let t = self.uniform_ts(cfg.start, Timestamp::from_ymd(2020, 3, 15));
            let expiry = cfg.migration_deadline + self.uniform_days(0, 25);
            let publish_label = chance(&mut self.rng, 0.93);
            self.push(
                t,
                PlannedAction::ImportLegacy {
                    label: label.clone(),
                    owner: first_owner,
                    expiry,
                    publish_label,
                },
            );
            (t, expiry)
        } else {
            let month = weighted_choice(&mut self.rng, &self.month_weights.clone());
            let month_start = self.month_starts[month].max(cfg.start);
            let t = self.uniform_ts(month_start, month_start + Duration::from_days(27));
            let years = match weighted_choice(&mut self.rng, &[0.80, 0.15, 0.05]) {
                0 => 1,
                1 => 2,
                _ => 3,
            };
            let secret = self.next_secret();
            self.push(
                t - Duration::from_secs(3600),
                PlannedAction::Commit {
                    label: label.clone(),
                    owner: first_owner,
                    secret,
                },
            );
            self.push(
                t,
                PlannedAction::Register {
                    label: label.clone(),
                    owner: first_owner,
                    secret,
                    years,
                },
            );
            (t, t + Duration::from_years(years))
        };

        // Organic owners often claim the name as their primary (reverse)
        // name; dropcatchers rarely bother — the asymmetry the reverse-check
        // countermeasure exploits.
        if chance(&mut self.rng, 0.40) {
            let at = start_t + self.uniform_days(0, 20) + Duration::from_secs(7_200);
            if at < expiry && at < obs_end {
                self.push(
                    at,
                    PlannedAction::SetReverse {
                        addr: first_owner,
                        label: label.clone(),
                    },
                );
            }
        }

        // Per-name income multiplier: correlated with desirability, so the
        // lexically attractive names are also the financially busy ones.
        let income_mult = log_normal(&mut self.rng, 1.0, cfg.senders.income_multiplier_sigma)
            * (0.4 + 1.2 * spec.desirability);

        let mut holder = first_owner;
        let mut holder_kind = OwnerKind::Organic;
        let mut period_start = start_t;
        let mut first_cycle = true;

        loop {
            // First expiry before any renewal: the only span where the
            // holder is guaranteed to be a live registrant (late renewals
            // leave an expired gap mid-period).
            let first_expiry = expiry;
            // --- Renewals: fold into the final expiry of this period. ---
            let renew_prob = match holder_kind {
                // Income is planned after the renewal horizon is known, so
                // the decision uses the per-name income multiplier as its
                // wealth proxy (they are monotonically related).
                OwnerKind::Organic => {
                    let inc = (1.0 + income_mult * 20.0).log10();
                    (cfg.behavior.renew_prob_base + cfg.behavior.renew_income_weight * inc)
                        .clamp(0.0, 0.95)
                }
                OwnerKind::Catcher => cfg.behavior.catcher_renew_prob,
            };
            while expiry <= obs_end && chance(&mut self.rng, renew_prob) {
                let late = chance(&mut self.rng, cfg.behavior.late_renewal_frac);
                let renew_at = if late {
                    expiry + self.uniform_days(1, 80)
                } else {
                    let early = self.uniform_days(1, 60);
                    let candidate = Timestamp(expiry.0.saturating_sub(early.as_secs()));
                    Timestamp(candidate.0.max(period_start.0 + 7_200))
                };
                self.push(
                    renew_at,
                    PlannedAction::Renew {
                        label: label.clone(),
                        payer: holder,
                        years: 1,
                    },
                );
                expiry += Duration::from_years(1);
            }

            truth.periods.push(PeriodTruth {
                owner: holder,
                kind: holder_kind,
                start: period_start,
                expiry,
            });

            // --- Organic income + side activity during this period. ---
            let income_window_end = expiry.min(obs_end);
            let mut period_senders: Vec<SenderInfo> = Vec::new();
            if holder_kind == OwnerKind::Organic && period_start < income_window_end {
                let (income, senders) =
                    self.plan_income(holder, period_start, income_window_end, income_mult);
                if first_cycle {
                    truth.first_income_usd = income;
                }
                period_senders = senders;

                if first_cycle {
                    let safe_end = first_expiry.min(income_window_end);
                    self.plan_side_activity(&label, holder, period_start, safe_end);
                }
            }

            if expiry > obs_end {
                break; // Held through the end of the observation window.
            }
            if first_cycle {
                truth.expired = true;
            }

            // --- Dropcatch decision. ---
            // Later cycles: speculators price a name on its *historical*
            // income (the resolver still carries the old traffic), slightly
            // discounted — this is what keeps hot names cycling through
            // multiple catchers (Fig 4's tail).
            let income_for_catch = if first_cycle {
                truth.first_income_usd
            } else {
                truth.first_income_usd * 0.6
            };
            let p_catch = self.catch_probability(spec.desirability, income_for_catch);
            let grace_end = expiry + GRACE;
            let caught_at = if chance(&mut self.rng, p_catch) {
                let delay = self.sample_catch_delay();
                let t = grace_end + delay;
                (t + Duration::from_days(1) <= obs_end).then_some(t)
            } else {
                None
            };

            // --- Hijackable traffic into the gap (expiry → catch/end). ---
            let gap_end = caught_at.unwrap_or(obs_end);
            if expiry < gap_end {
                let hijackable =
                    self.plan_gap_traffic(&period_senders, holder, expiry, gap_end, income_mult);
                truth.hijackable_usd += hijackable;
            }

            let Some(catch_t) = caught_at else {
                break; // Expired and never re-registered: a control name.
            };

            // --- The catch itself. ---
            let catcher = self.catchers[self.catcher_table.sample(&mut self.rng)];
            let secret = self.next_secret();
            self.push(
                catch_t - Duration::from_secs(3600),
                PlannedAction::Commit {
                    label: label.clone(),
                    owner: catcher,
                    secret,
                },
            );
            self.push(
                catch_t,
                PlannedAction::Register {
                    label: label.clone(),
                    owner: catcher,
                    secret,
                    years: 1,
                },
            );
            truth.catch_count += 1;
            let catch_expiry = catch_t + Duration::from_years(1);
            if chance(&mut self.rng, 0.05) {
                let at = catch_t + self.uniform_days(0, 10) + Duration::from_secs(7_200);
                if at < obs_end {
                    self.push(
                        at,
                        PlannedAction::SetReverse {
                            addr: catcher,
                            label: label.clone(),
                        },
                    );
                }
            }

            // --- Misdirected common-sender traffic, or resale (exclusive). ---
            let did_misdirect = !period_senders.is_empty()
                && chance(&mut self.rng, cfg.senders.misdirect_domain_prob);
            let mut next_holder = catcher;
            let mut next_kind = OwnerKind::Catcher;
            let mut next_start = catch_t;

            if did_misdirect {
                self.plan_misdirects(
                    &mut truth,
                    &period_senders,
                    holder,
                    catcher,
                    catch_t,
                    obs_end,
                );
            } else if chance(&mut self.rng, cfg.market.list_prob) {
                truth.listed = true;
                let list_t = catch_t + self.uniform_days(5, 60);
                let ask = (log_normal(&mut self.rng, 300.0, 1.3) * (0.5 + 2.0 * spec.desirability))
                    .max(25.0);
                if list_t + Duration::from_days(1) < obs_end {
                    self.push(
                        list_t,
                        PlannedAction::List {
                            label: label.clone(),
                            seller: catcher,
                            usd: ask,
                        },
                    );
                    let sale_t = list_t + self.uniform_days(1, 90);
                    if chance(&mut self.rng, cfg.market.sale_prob_given_listed)
                        && sale_t < catch_expiry.min(obs_end)
                    {
                        truth.sold = true;
                        self.buyer_counter += 1;
                        let buyer = Address::derive_indexed("buyer", self.buyer_counter);
                        self.push(
                            sale_t,
                            PlannedAction::Sale {
                                label: label.clone(),
                                seller: catcher,
                                buyer,
                                usd: ask * 0.9,
                            },
                        );
                        next_holder = buyer;
                        next_kind = OwnerKind::Organic;
                        next_start = sale_t;
                    }
                }
            }

            // --- Bypass noise: non-common senders who keep paying the old
            //     owner's raw address after the catch. ---
            let common: Vec<Address> = truth.misdirected.iter().map(|m| m.sender).collect();
            let bypassers: Vec<Address> = period_senders
                .iter()
                .filter(|s| !common.contains(&s.addr))
                .map(|s| s.addr)
                .collect();
            for sender in bypassers {
                if chance(&mut self.rng, cfg.senders.bypass_sender_prob) {
                    let latest = obs_end.0.saturating_sub(86_400);
                    if catch_t.0 + 10 * 86_400 < latest {
                        let at =
                            self.uniform_ts(catch_t + Duration::from_days(10), Timestamp(latest));
                        let usd = self.sample_amount(income_mult);
                        self.push(
                            at,
                            PlannedAction::Send {
                                from: sender,
                                to: holder,
                                usd,
                            },
                        );
                    }
                }
            }

            // Next cycle: the catcher (or buyer) holds the name.
            holder = next_holder;
            holder_kind = next_kind;
            period_start = next_start;
            expiry = catch_expiry;
            first_cycle = false;
        }

        self.truth.push(truth);
    }

    // ------------------------------------------------------------------
    // Sub-planners
    // ------------------------------------------------------------------

    /// Plans organic income for a holder over a window; returns the total
    /// USD planned and the senders used.
    fn plan_income(
        &mut self,
        holder: Address,
        from: Timestamp,
        to: Timestamp,
        mult: f64,
    ) -> (f64, Vec<SenderInfo>) {
        let cfg = self.cfg;
        // At income_prob == 1.0 no roll is drawn, so worlds generated
        // before this knob existed replay byte-identically.
        if cfg.senders.income_prob < 1.0 && !chance(&mut self.rng, cfg.senders.income_prob) {
            return (0.0, Vec::new());
        }
        let n_senders = 1 + poisson(&mut self.rng, cfg.senders.senders_per_name_lambda) as usize;
        let mut senders = Vec::with_capacity(n_senders);
        let mut total = 0.0;
        for _ in 0..n_senders {
            let roll: f64 = self.rng.gen();
            let info = if roll < cfg.senders.coinbase_sender_frac {
                let idx = self.rng.gen_range(0..self.coinbase_pool.len());
                SenderInfo {
                    addr: self.coinbase_pool[idx],
                    custodial: true,
                }
            } else if roll < cfg.senders.coinbase_sender_frac + cfg.senders.custodial_sender_frac {
                let idx = self.rng.gen_range(0..self.custodial_pool.len());
                SenderInfo {
                    addr: self.custodial_pool[idx],
                    custodial: true,
                }
            } else {
                self.sender_counter += 1;
                SenderInfo {
                    addr: Address::derive_indexed("sender", self.sender_counter),
                    custodial: false,
                }
            };
            let n_txs = 1 + geometric(&mut self.rng, cfg.senders.txs_per_sender_p);
            for _ in 0..n_txs {
                let at = self.uniform_ts(from, to);
                let usd = self.sample_amount(mult);
                total += usd;
                self.push(
                    at,
                    PlannedAction::Send {
                        from: info.addr,
                        to: holder,
                        usd,
                    },
                );
            }
            senders.push(info);
        }
        (total, senders)
    }

    /// One income-shaped USD amount.
    fn sample_amount(&mut self, mult: f64) -> f64 {
        (log_normal(
            &mut self.rng,
            self.cfg.senders.amount_median_usd,
            self.cfg.senders.amount_sigma,
        ) * mult)
            .clamp(0.25, 5_000_000.0)
    }

    /// Subdomains and private transfers during the first organic period.
    fn plan_side_activity(
        &mut self,
        label: &Label,
        holder: Address,
        from: Timestamp,
        to: Timestamp,
    ) {
        const SUB_LABELS: &[&str] = &[
            "pay", "wallet", "app", "mail", "vault", "dao", "nft", "blog", "shop", "id",
        ];
        let span = to.0 - from.0;
        if span < 4 * 86_400 {
            return;
        }
        if chance(&mut self.rng, self.cfg.market.subdomain_prob) {
            let n = 1 + geometric(&mut self.rng, 0.6) as usize;
            let mut picks: Vec<&str> = SUB_LABELS.to_vec();
            for i in 0..n.min(picks.len()) {
                let j = self.rng.gen_range(i..picks.len());
                picks.swap(i, j);
                // First half of the period, before any transfer.
                let at = self.uniform_ts(from, Timestamp(from.0 + span / 2));
                self.sender_counter += 1;
                let sub_owner = Address::derive_indexed("subowner", self.sender_counter);
                self.push(
                    at,
                    PlannedAction::Subdomain {
                        label: label.clone(),
                        caller: holder,
                        sub_label: picks[i].to_string(),
                        sub_owner,
                    },
                );
            }
        }
        if chance(&mut self.rng, self.cfg.market.transfer_prob) {
            // Second half of the period: hand the NFT to another wallet of
            // (conceptually) the same user — must NOT read as a dropcatch.
            let at = self.uniform_ts(Timestamp(from.0 + span / 2 + 1), to);
            self.owner_counter += 1;
            let to_addr = Address::derive_indexed("owner", self.owner_counter);
            self.push(
                at,
                PlannedAction::Transfer {
                    label: label.clone(),
                    from: holder,
                    to: to_addr,
                },
            );
        }
    }

    /// Traffic still flowing to the lapsed owner's address while the name
    /// sits expired (hijackable, Fig 7). Returns the USD total.
    fn plan_gap_traffic(
        &mut self,
        senders: &[SenderInfo],
        old_holder: Address,
        from: Timestamp,
        to: Timestamp,
        mult: f64,
    ) -> f64 {
        if to.0 - from.0 < 2 * 86_400 {
            return 0.0;
        }
        let mut total = 0.0;
        for s in senders {
            if !chance(&mut self.rng, self.cfg.senders.gap_continue_prob) {
                continue;
            }
            let n = 1 + geometric(&mut self.rng, 0.6);
            for _ in 0..n {
                let at = self.uniform_ts(from, to);
                let usd = self.sample_amount(mult);
                total += usd;
                self.push(
                    at,
                    PlannedAction::Send {
                        from: s.addr,
                        to: old_holder,
                        usd,
                    },
                );
            }
        }
        total
    }

    /// Misdirected common-sender traffic after a catch: `c` paid `a1` while
    /// `a1` held the name, now unknowingly pays `a2` — and never `a1` again.
    fn plan_misdirects(
        &mut self,
        truth: &mut NameTruth,
        senders: &[SenderInfo],
        old_holder: Address,
        catcher: Address,
        catch_t: Timestamp,
        obs_end: Timestamp,
    ) {
        let cfg = self.cfg;
        let window_end = Timestamp((catch_t.0 + 330 * 86_400).min(obs_end.0 - 86_400));
        // Sends start an hour after the catch; a window that closes by
        // then has no time to sample from.
        let first_send = catch_t + Duration::from_secs(3600);
        if window_end <= first_send {
            return;
        }
        let n_common = (1 + geometric(&mut self.rng, 0.5) as usize).min(senders.len());
        // Deterministic partial shuffle to pick which senders are "common".
        let mut pool: Vec<SenderInfo> = senders.to_vec();
        for i in 0..n_common {
            let j = self.rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        for s in pool.iter().take(n_common) {
            let n_txs = if chance(&mut self.rng, 0.70) {
                1
            } else {
                2 + geometric(&mut self.rng, 0.45)
            };
            for _ in 0..n_txs {
                let at = self.uniform_ts(first_send, window_end);
                let usd = (log_normal(
                    &mut self.rng,
                    cfg.senders.misdirect_amount_median,
                    cfg.senders.misdirect_amount_sigma,
                ))
                .clamp(1.0, 2_000_000.0);
                truth.misdirected.push(MisdirectTruth {
                    sender: s.addr,
                    intended: old_holder,
                    received_by: catcher,
                    usd,
                    at,
                });
                self.push(
                    at,
                    PlannedAction::Send {
                        from: s.addr,
                        to: catcher,
                        usd,
                    },
                );
            }
        }
    }

    /// The probability an expired name gets re-registered, increasing in
    /// desirability and prior income — the effect Table 1 and Fig 6 measure.
    /// The income factor is a power law: dropcatchers chase wallets with
    /// real money far harder than linearly (the paper's 3.3× mean-income
    /// contrast needs this selectivity).
    fn catch_probability(&self, desirability: f64, income_usd: f64) -> f64 {
        let b = &self.cfg.behavior;
        let des_mult = 0.2 + 1.8 * desirability;
        let inc_mult = ((income_usd / 15_000.0).powf(0.42)).clamp(0.20, 3.5);
        (b.catch_base * des_mult * inc_mult).clamp(0.0, 0.92)
    }

    /// Delay between grace end and the catch (Fig 3's shape, offset by the
    /// 90-day grace).
    fn sample_catch_delay(&mut self) -> Duration {
        let b = &self.cfg.behavior;
        if !b.auction_enabled {
            // No auction: bots race to the instant the grace period ends,
            // with the same long tail of late pickups.
            let choice = weighted_choice(&mut self.rng, &[0.45, 0.25, 0.30]);
            let days = match choice {
                0 => self.rng.gen::<f64>(),             // the drop race
                1 => 1.0 + 6.0 * self.rng.gen::<f64>(), // the first week
                _ => 7.0 + exponential(&mut self.rng, b.tail_mean_days),
            };
            return Duration::from_secs((days * 86_400.0) as u64);
        }
        let choice = weighted_choice(
            &mut self.rng,
            &[
                b.premium_catch_frac,
                b.day_of_premium_end_frac,
                b.week_after_frac,
                (1.0 - b.premium_catch_frac - b.day_of_premium_end_frac - b.week_after_frac)
                    .max(0.01),
            ],
        );
        let days = match choice {
            // Premium buyers cluster late in the auction where the price is
            // four or five digits, with a rare deep-pocket early entry.
            0 => (21.0 - exponential(&mut self.rng, 2.5)).clamp(8.0, 20.99),
            // The bots that fire the moment the premium hits zero.
            1 => 21.0 + self.rng.gen::<f64>(),
            // The following week.
            2 => 22.0 + 6.0 * self.rng.gen::<f64>(),
            // A long exponential tail.
            _ => 28.0 + exponential(&mut self.rng, b.tail_mean_days),
        };
        Duration::from_secs((days * 86_400.0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_plan() -> Plan {
        build_plan(&WorldConfig::small().with_seed(3))
    }

    #[test]
    fn plan_is_sorted_and_deterministic() {
        let p1 = small_plan();
        let p2 = small_plan();
        assert_eq!(p1.events.len(), p2.events.len());
        assert_eq!(p1.events.first(), p2.events.first());
        assert_eq!(p1.events.last(), p2.events.last());
        for w in p1.events.windows(2) {
            assert!((w[0].at, w[0].seq) <= (w[1].at, w[1].seq));
        }
    }

    #[test]
    fn every_name_has_at_least_one_period() {
        let plan = small_plan();
        assert_eq!(plan.truth.len(), 2_000);
        for t in &plan.truth {
            assert!(!t.periods.is_empty(), "{} has no periods", t.label);
            // Periods are ordered and non-overlapping.
            for w in t.periods.windows(2) {
                assert!(w[0].expiry <= w[1].start, "{} overlapping periods", t.label);
            }
        }
    }

    #[test]
    fn catches_only_happen_to_expired_names() {
        let plan = small_plan();
        for t in &plan.truth {
            if t.catch_count > 0 {
                assert!(t.expired, "{} caught but never expired", t.label);
                assert!(t.periods.len() >= 2);
            }
        }
    }

    #[test]
    fn aggregate_rates_are_in_calibrated_ranges() {
        let plan = build_plan(&WorldConfig::default().with_seed(1));
        let n = plan.truth.len() as f64;
        let expired = plan.truth.iter().filter(|t| t.expired).count() as f64;
        let caught = plan.truth.iter().filter(|t| t.catch_count > 0).count() as f64;
        // Paper: 1.41M of 3.1M expired (~45%), 241K of those re-registered (~17%).
        assert!(
            (0.30..0.65).contains(&(expired / n)),
            "expired fraction {}",
            expired / n
        );
        assert!(
            (0.08..0.30).contains(&(caught / expired)),
            "catch rate {}",
            caught / expired
        );
    }

    #[test]
    fn caught_names_have_higher_income_and_desirability() {
        let plan = build_plan(&WorldConfig::default().with_seed(2));
        let caught: Vec<&NameTruth> = plan
            .truth
            .iter()
            .filter(|t| t.expired && t.catch_count > 0)
            .collect();
        let control: Vec<&NameTruth> = plan
            .truth
            .iter()
            .filter(|t| t.expired && t.catch_count == 0)
            .collect();
        assert!(caught.len() > 100 && control.len() > 100);
        let mean = |v: &[&NameTruth], f: fn(&NameTruth) -> f64| {
            v.iter().map(|t| f(t)).sum::<f64>() / v.len() as f64
        };
        let income_ratio =
            mean(&caught, |t| t.first_income_usd) / mean(&control, |t| t.first_income_usd);
        // Paper: 69,980 / 21,400 ≈ 3.3×. Accept a broad band.
        assert!(
            (1.8..6.5).contains(&income_ratio),
            "income ratio {income_ratio}"
        );
        let des_ratio = mean(&caught, |t| t.desirability) / mean(&control, |t| t.desirability);
        assert!(des_ratio > 1.3, "desirability ratio {des_ratio}");
    }

    #[test]
    fn misdirected_senders_never_pay_the_old_owner_afterwards() {
        let plan = build_plan(&WorldConfig::default().with_seed(4));
        let mut checked = 0;
        for t in &plan.truth {
            for m in &t.misdirected {
                checked += 1;
                // No planned Send from m.sender to m.intended at or after the
                // misdirect time.
                let betrayal = plan.events.iter().any(|e| {
                    matches!(
                        &e.action,
                        PlannedAction::Send { from, to, .. }
                        if *from == m.sender && *to == m.intended && e.at >= m.at
                    )
                });
                assert!(!betrayal, "{}: common sender kept paying a1", t.label);
            }
        }
        assert!(checked > 20, "only {checked} misdirected txs planned");
    }

    #[test]
    fn a_catch_within_an_hour_of_the_misdirect_window_end_plans_nothing() {
        let cfg = WorldConfig::small().with_seed(3);
        let mut planner = Planner::new(&cfg);
        let mut truth = NameTruth {
            label: Label::parse("goldwhale").unwrap(),
            class: NameClass::Compound,
            desirability: 0.5,
            legacy: false,
            periods: Vec::new(),
            first_income_usd: 0.0,
            expired: true,
            catch_count: 1,
            misdirected: Vec::new(),
            hijackable_usd: 0.0,
            listed: false,
            sold: false,
        };
        let catch_t = Timestamp::from_ymd(2022, 6, 1);
        // The window ends a day before `obs_end`: 30 minutes after the catch,
        // before the first send could land.
        let obs_end = catch_t + Duration::from_days(1) + Duration::from_secs(1800);
        let sender = SenderInfo {
            addr: Address::derive(b"common-sender"),
            custodial: false,
        };
        planner.plan_misdirects(
            &mut truth,
            &[sender],
            Address::derive(b"old-holder"),
            Address::derive(b"catcher"),
            catch_t,
            obs_end,
        );
        assert!(truth.misdirected.is_empty());
        assert!(planner.events.is_empty());
    }

    #[test]
    fn catch_delays_have_the_premium_cliff() {
        let plan = build_plan(&WorldConfig::default().with_seed(5));
        // Reconstruct delays from the ground truth periods.
        let mut at_premium = 0usize;
        let mut at_cliff = 0usize; // within a day after the premium's end
        let mut total = 0usize;
        for t in &plan.truth {
            for w in t.periods.windows(2) {
                if w[1].kind != OwnerKind::Catcher {
                    continue;
                }
                let delay_days = (w[1].start.0 - w[0].expiry.0) as f64 / 86_400.0 - 90.0;
                total += 1;
                if delay_days < 21.0 {
                    at_premium += 1;
                } else if delay_days < 22.0 {
                    at_cliff += 1;
                }
            }
        }
        assert!(total > 300, "too few catches ({total}) to assess");
        let premium_frac = at_premium as f64 / total as f64;
        let cliff_frac = at_cliff as f64 / total as f64;
        assert!(
            (0.03..0.15).contains(&premium_frac),
            "premium {premium_frac}"
        );
        assert!((0.25..0.45).contains(&cliff_frac), "cliff {cliff_frac}");
    }

    #[test]
    fn catcher_concentration_is_heavy_tailed() {
        let plan = build_plan(&WorldConfig::default().with_seed(6));
        let mut counts: std::collections::HashMap<Address, usize> = Default::default();
        for t in &plan.truth {
            for p in &t.periods {
                if p.kind == OwnerKind::Catcher {
                    *counts.entry(p.owner).or_default() += 1;
                }
            }
        }
        let mut v: Vec<usize> = counts.values().copied().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = v.iter().sum();
        assert!(v.len() > 20);
        // The top catcher holds a disproportionate share (paper: 5,070 of
        // 241K ≈ 2%; Pareto weights make this several percent here).
        let top_share = v[0] as f64 / total as f64;
        assert!(top_share > 0.02, "top catcher share {top_share}");
    }
}
