//! The re-registration overview of §4.1: the monthly timeline (Fig 2), the
//! expiry→re-registration delay distribution (Fig 3), per-domain
//! re-registration frequencies (Fig 4), and per-address dropcatcher
//! concentration (Fig 5).

use std::collections::{BTreeMap, HashMap};

use ens_obs::Metrics;
use ens_subgraph::DomainRecord;
use ens_types::{Address, Duration, Timestamp};
use serde::{Deserialize, Serialize};

use crate::registrations::ReRegistration;
use crate::stats::Ecdf;

/// One month's counts in Fig 2.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonthRow {
    /// `YYYY-MM`.
    pub month: String,
    /// New registrations.
    pub registrations: usize,
    /// Registrations that lapsed (reached their final expiry) this month.
    pub expirations: usize,
    /// Re-registrations by a different owner.
    pub reregistrations: usize,
}

/// Fig 2: the monthly timeline.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Fig2Timeline {
    /// One row per month, ascending.
    pub months: Vec<MonthRow>,
}

impl Fig2Timeline {
    /// Total registrations across the window.
    pub fn total_registrations(&self) -> usize {
        self.months.iter().map(|m| m.registrations).sum()
    }
}

/// Builds Fig 2 from domain records and their detected re-registrations
/// (monthly counts are order-insensitive).
pub fn fig2_timeline(
    domains: &[DomainRecord],
    observation_end: Timestamp,
    rereg: &[ReRegistration],
) -> Fig2Timeline {
    let mut rows: BTreeMap<i64, MonthRow> = BTreeMap::new();
    let touch = |t: Timestamp, rows: &mut BTreeMap<i64, MonthRow>| -> Option<i64> {
        if t >= observation_end {
            return None;
        }
        let key = t.month_index();
        rows.entry(key).or_insert_with(|| MonthRow {
            month: t.year_month_label(),
            ..MonthRow::default()
        });
        Some(key)
    };

    for d in domains {
        for (i, reg) in d.registrations.iter().enumerate() {
            if let Some(k) = touch(reg.registered_at, &mut rows) {
                rows.get_mut(&k).expect("touched").registrations += 1;
            }
            if let Some(expiry) = d.expiry_of_registration(i) {
                // A registration "expired" if its final expiry passed inside
                // the window (whatever happened afterwards).
                if let Some(k) = touch(expiry, &mut rows) {
                    rows.get_mut(&k).expect("touched").expirations += 1;
                }
            }
        }
    }
    for r in rereg {
        if let Some(k) = touch(r.at, &mut rows) {
            rows.get_mut(&k).expect("touched").reregistrations += 1;
        }
    }

    // Fill gaps so plots have a contiguous axis.
    if let (Some(&first), Some(&last)) = (rows.keys().next(), rows.keys().next_back()) {
        for key in first..=last {
            rows.entry(key).or_insert_with(|| MonthRow {
                month: format!("{:04}-{:02}", key.div_euclid(12), key.rem_euclid(12) + 1),
                ..MonthRow::default()
            });
        }
    }
    Fig2Timeline {
        months: rows.into_values().collect(),
    }
}

/// Fig 3: the delay between expiry and re-registration.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Fig3Delays {
    /// Delay in days for every re-registration.
    pub delays_days: Vec<f64>,
    /// Catches that paid a premium (inside the 21-day auction).
    pub at_premium: usize,
    /// Catches within 24h of the premium's end ("on the very day").
    pub on_premium_end_day: usize,
    /// Catches within 7 days after the premium's end ("shortly after").
    pub shortly_after_premium: usize,
}

/// Builds Fig 3.
pub fn fig3_delays(rereg: &[ReRegistration]) -> Fig3Delays {
    let mut fig = Fig3Delays::default();
    for r in rereg {
        fig.delays_days.push(r.delay.as_days_f64());
        if r.paid_premium() {
            fig.at_premium += 1;
        }
        if r.near_premium_end(Duration::from_days(1)) {
            fig.on_premium_end_day += 1;
        }
        if r.near_premium_end(Duration::from_days(7)) {
            fig.shortly_after_premium += 1;
        }
    }
    fig
}

/// Fig 4: how many times each re-registered domain was re-registered.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Fig4Frequency {
    /// `count → number of domains re-registered exactly count times`.
    pub frequency: BTreeMap<usize, usize>,
}

impl Fig4Frequency {
    /// Domains *registered* more than twice, i.e. re-registered at least
    /// twice (paper: 12,614 of 241K ≈ 5%).
    pub fn registered_more_than_twice(&self) -> usize {
        self.frequency
            .iter()
            .filter(|(k, _)| **k >= 2)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Total re-registered domains.
    pub fn total_domains(&self) -> usize {
        self.frequency.values().sum()
    }
}

/// Builds Fig 4.
pub fn fig4_domain_frequency(rereg: &[ReRegistration]) -> Fig4Frequency {
    let mut per_domain: HashMap<ens_types::LabelHash, usize> = HashMap::new();
    for r in rereg {
        *per_domain.entry(r.label_hash).or_default() += 1;
    }
    let mut frequency: BTreeMap<usize, usize> = BTreeMap::new();
    for count in per_domain.into_values() {
        *frequency.entry(count).or_default() += 1;
    }
    Fig4Frequency { frequency }
}

/// Fig 5: re-registrations per unique catching address.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Fig5Catchers {
    /// Catches per address, descending.
    pub counts_desc: Vec<(Address, usize)>,
    /// ECDF over the per-address counts.
    pub cdf: Ecdf,
}

impl Fig5Catchers {
    /// Addresses that re-registered more than one domain (paper: 19,763).
    pub fn multi_catchers(&self) -> usize {
        self.counts_desc.iter().filter(|(_, c)| *c > 1).count()
    }

    /// The top `k` most active catchers (paper: 5,070 / 3,165 / 2,421).
    pub fn top(&self, k: usize) -> &[(Address, usize)] {
        &self.counts_desc[..k.min(self.counts_desc.len())]
    }
}

/// Builds Fig 5.
pub fn fig5_catcher_concentration(rereg: &[ReRegistration]) -> Fig5Catchers {
    let mut per_addr: HashMap<Address, usize> = HashMap::new();
    for r in rereg {
        *per_addr.entry(r.new_owner).or_default() += 1;
    }
    let mut counts_desc: Vec<(Address, usize)> = per_addr.into_iter().collect();
    counts_desc.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let cdf = Ecdf::new(counts_desc.iter().map(|(_, c)| *c as f64).collect());
    Fig5Catchers { counts_desc, cdf }
}

/// The full §4.1 bundle.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OverviewReport {
    /// Fig 2.
    pub timeline: Fig2Timeline,
    /// Fig 3.
    pub delays: Fig3Delays,
    /// Fig 4.
    pub domain_frequency: Fig4Frequency,
    /// Fig 5.
    pub catchers: Fig5Catchers,
    /// All detected re-registrations.
    pub reregistrations: Vec<ReRegistration>,
}

/// Runs §4.1 from an already-detected re-registration list (one
/// [`detect_all`](crate::registrations::detect_all) per study, shared by
/// every pass) under an `overview` span, recording timeline and
/// catcher-concentration counters.
pub fn overview(
    domains: &[DomainRecord],
    observation_end: Timestamp,
    rereg: Vec<ReRegistration>,
    metrics: &Metrics,
) -> OverviewReport {
    let span = metrics.span("overview");
    let report = OverviewReport {
        timeline: fig2_timeline(domains, observation_end, &rereg),
        delays: fig3_delays(&rereg),
        domain_frequency: fig4_domain_frequency(&rereg),
        catchers: fig5_catcher_concentration(&rereg),
        reregistrations: rereg,
    };
    if metrics.is_enabled() {
        metrics.add("overview/months", report.timeline.months.len() as u64);
        metrics.add(
            "overview/reregistrations",
            report.reregistrations.len() as u64,
        );
        metrics.add(
            "overview/multi_catchers",
            report.catchers.multi_catchers() as u64,
        );
    }
    drop(span);
    report
}

/// [`overview`] without metrics: a forward kept for `perfbench/tracer`,
/// deleted with ROADMAP item 1b.
pub fn overview_from(
    domains: &[DomainRecord],
    observation_end: Timestamp,
    rereg: Vec<ReRegistration>,
) -> OverviewReport {
    overview(domains, observation_end, rereg, &Metrics::disabled())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registrations::detect_all;
    use ens_subgraph::SubgraphConfig;
    use workload::WorldConfig;

    fn report() -> OverviewReport {
        let world = WorldConfig::small().with_seed(40).build();
        let sg = world.subgraph(SubgraphConfig::lossless());
        let domains: Vec<DomainRecord> = sg.iter().cloned().collect();
        let rereg = detect_all(&domains);
        overview(
            &domains,
            world.observation_end(),
            rereg,
            &Metrics::disabled(),
        )
    }

    #[test]
    fn timeline_covers_the_window_contiguously() {
        let r = report();
        let months = &r.timeline.months;
        assert!(months.len() >= 40, "got {} months", months.len());
        for w in months.windows(2) {
            assert!(w[0].month < w[1].month, "months out of order");
        }
        assert!(r.timeline.total_registrations() >= 2_000);
    }

    #[test]
    fn timeline_shows_the_migration_expiry_spike() {
        let r = report();
        let expirations_in = |ym: &str| {
            r.timeline
                .months
                .iter()
                .find(|m| m.month == ym)
                .map_or(0, |m| m.expirations)
        };
        // The 2020 migration cohort expires around May 2020.
        let spike = expirations_in("2020-05") + expirations_in("2020-04");
        let quiet = expirations_in("2020-09") + expirations_in("2020-10");
        assert!(
            spike > quiet.max(1) * 2,
            "expected migration spike: {spike} vs {quiet}"
        );
    }

    #[test]
    fn delays_exceed_grace_and_cluster_after_premium() {
        let r = report();
        assert!(!r.delays.delays_days.is_empty());
        // No catch can happen before expiry + 90 days.
        assert!(r.delays.delays_days.iter().all(|&d| d >= 90.0));
        // The cliff after the premium end dominates single days elsewhere.
        let total = r.delays.delays_days.len();
        assert!(
            r.delays.on_premium_end_day * 4 > total / 10,
            "cliff too small: {} of {total}",
            r.delays.on_premium_end_day
        );
        assert!(r.delays.shortly_after_premium >= r.delays.on_premium_end_day);
        assert!(r.delays.at_premium > 0);
    }

    #[test]
    fn frequency_counts_match_reregistration_totals() {
        let r = report();
        let total_events: usize = r
            .domain_frequency
            .frequency
            .iter()
            .map(|(k, v)| k * v)
            .sum();
        assert_eq!(total_events, r.reregistrations.len());
        assert!(r.domain_frequency.total_domains() > 0);
    }

    #[test]
    fn catcher_concentration_is_heavy_tailed() {
        let r = report();
        let top = r.catchers.top(3);
        assert!(!top.is_empty());
        let total: usize = r.catchers.counts_desc.iter().map(|(_, c)| c).sum();
        assert_eq!(total, r.reregistrations.len());
        // Top catcher takes a visible share.
        assert!(top[0].1 as f64 / total as f64 > 0.02);
        // CDF is over addresses.
        assert_eq!(r.catchers.cdf.len(), r.catchers.counts_desc.len());
    }
}
