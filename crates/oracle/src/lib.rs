//! # price-oracle
//!
//! A deterministic synthetic daily ETH-USD price series standing in for the
//! Yahoo-Finance adjusted closes the paper uses to convert transaction
//! amounts (\[22\] in the paper). The series is piecewise log-linear between
//! historical anchor points (the 2019 trough, the 2021 bull run, the 2022
//! crash, the 2023 recovery) with small deterministic day-to-day noise, so
//! income comparisons behave like they would against the real series while
//! every run is bit-for-bit reproducible.
//!
//! Failure injection: [`PriceOracle::with_missing_days`] simulates gaps in
//! the upstream data; [`PriceOracle::cents_per_eth`] carries the previous
//! close forward across gaps (what any analyst pipeline does), while
//! [`PriceOracle::try_cents_per_eth`] exposes the raw gap to tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeSet;

use ens_types::{keccak256, Timestamp, UsdCents, Wei};
use serde::{Deserialize, Serialize};

/// `(date, close in USD)` anchor of the synthetic series.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Anchor {
    /// Day the anchor applies to.
    pub day: (i32, u32, u32),
    /// Closing price in whole USD.
    pub usd: u64,
}

/// Default anchors tracing the real ETH-USD shape over the study window.
pub const DEFAULT_ANCHORS: &[Anchor] = &[
    Anchor {
        day: (2019, 1, 1),
        usd: 130,
    },
    Anchor {
        day: (2019, 7, 1),
        usd: 290,
    },
    Anchor {
        day: (2020, 1, 1),
        usd: 130,
    },
    Anchor {
        day: (2020, 3, 15),
        usd: 120,
    },
    Anchor {
        day: (2020, 9, 1),
        usd: 430,
    },
    Anchor {
        day: (2021, 1, 1),
        usd: 730,
    },
    Anchor {
        day: (2021, 5, 10),
        usd: 3900,
    },
    Anchor {
        day: (2021, 7, 20),
        usd: 1800,
    },
    Anchor {
        day: (2021, 11, 8),
        usd: 4800,
    },
    Anchor {
        day: (2022, 6, 18),
        usd: 1000,
    },
    Anchor {
        day: (2022, 8, 14),
        usd: 1900,
    },
    Anchor {
        day: (2022, 12, 31),
        usd: 1200,
    },
    Anchor {
        day: (2023, 4, 15),
        usd: 2100,
    },
    Anchor {
        day: (2023, 10, 1),
        usd: 1700,
    },
    Anchor {
        day: (2024, 3, 12),
        usd: 3900,
    },
    Anchor {
        day: (2024, 12, 31),
        usd: 3400,
    },
];

/// Relative amplitude of the deterministic daily noise (±3%).
const NOISE_AMPLITUDE: f64 = 0.03;

/// The deterministic price oracle.
///
/// ```
/// use ens_types::{Timestamp, Wei};
/// use price_oracle::PriceOracle;
///
/// let oracle = PriceOracle::new().without_noise();
/// let peak = Timestamp::from_ymd(2021, 11, 8);
/// assert_eq!(oracle.cents_per_eth(peak), 480_000); // $4,800
/// assert_eq!(oracle.to_usd(Wei::from_eth(2), peak).whole_dollars(), 9_600);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PriceOracle {
    /// `(day_index, cents)` anchor points, sorted by day.
    anchors: Vec<(u64, u64)>,
    missing_days: BTreeSet<u64>,
    noise: bool,
}

impl Default for PriceOracle {
    fn default() -> Self {
        Self::new()
    }
}

impl PriceOracle {
    /// Oracle over [`DEFAULT_ANCHORS`] with daily noise enabled.
    pub fn new() -> PriceOracle {
        Self::from_anchors(DEFAULT_ANCHORS)
    }

    /// Oracle over custom anchors.
    pub fn from_anchors(anchors: &[Anchor]) -> PriceOracle {
        let mut pts: Vec<(u64, u64)> = anchors
            .iter()
            .map(|a| {
                let (y, m, d) = a.day;
                let days = ens_types::time::days_from_civil(y, m, d);
                assert!(days >= 0, "anchors must be post-epoch");
                (days as u64, a.usd * 100)
            })
            .collect();
        pts.sort_unstable();
        assert!(!pts.is_empty(), "need at least one anchor");
        PriceOracle {
            anchors: pts,
            missing_days: BTreeSet::new(),
            noise: true,
        }
    }

    /// Disables the daily noise (pure interpolation) — useful for tests that
    /// want exact conversions.
    pub fn without_noise(mut self) -> PriceOracle {
        self.noise = false;
        self
    }

    /// Marks day indices (days since epoch) as missing from the feed.
    pub fn with_missing_days(mut self, days: impl IntoIterator<Item = u64>) -> PriceOracle {
        self.missing_days.extend(days);
        self
    }

    /// Raw close for the day of `t`, or `None` if that day is missing.
    pub fn try_cents_per_eth(&self, t: Timestamp) -> Option<u64> {
        let day = t.day_index();
        if self.missing_days.contains(&day) {
            return None;
        }
        Some(self.raw_close(day))
    }

    /// Close for the day of `t`, carrying the previous available close
    /// forward across missing days.
    pub fn cents_per_eth(&self, t: Timestamp) -> u64 {
        let mut day = t.day_index();
        while self.missing_days.contains(&day) && day > 0 {
            day -= 1;
        }
        self.raw_close(day)
    }

    /// Converts a wei amount to USD cents at the close of the day of `t`.
    pub fn to_usd(&self, amount: Wei, t: Timestamp) -> UsdCents {
        amount.to_usd_cents(self.cents_per_eth(t))
    }

    /// Materializes one close per day for `[from, to]` (by day index) into
    /// a [`PriceTable`], so bulk valuation pays the per-day work (noise
    /// hash, interpolation, missing-day walk-back) once per *day* instead
    /// of once per *transaction*.
    pub fn day_table(&self, from: Timestamp, to: Timestamp) -> PriceTable {
        let base_day = from.day_index();
        let last_day = to.day_index().max(base_day);
        let cents = (base_day..=last_day)
            .map(|d| self.cents_per_eth(Timestamp(d * ens_types::time::SECONDS_PER_DAY)))
            .collect();
        PriceTable {
            base_day,
            cents,
            oracle: self.clone(),
        }
    }

    fn raw_close(&self, day: u64) -> u64 {
        let base = self.interpolate(day);
        if !self.noise {
            return base;
        }
        // Deterministic ±3% noise from the day index.
        let h = keccak256(&day.to_be_bytes());
        let r = u64::from_be_bytes(h[..8].try_into().expect("8 bytes")) as f64 / u64::MAX as f64;
        let factor = 1.0 + NOISE_AMPLITUDE * (2.0 * r - 1.0);
        ((base as f64) * factor) as u64
    }

    /// Log-linear interpolation between anchors, clamped at the ends.
    fn interpolate(&self, day: u64) -> u64 {
        let first = self.anchors[0];
        let last = *self.anchors.last().expect("non-empty");
        if day <= first.0 {
            return first.1;
        }
        if day >= last.0 {
            return last.1;
        }
        let idx = self.anchors.partition_point(|&(d, _)| d <= day);
        let (d0, p0) = self.anchors[idx - 1];
        let (d1, p1) = self.anchors[idx];
        if d0 == day {
            return p0;
        }
        let t = (day - d0) as f64 / (d1 - d0) as f64;
        let log_p = (p0 as f64).ln() * (1.0 - t) + (p1 as f64).ln() * t;
        log_p.exp() as u64
    }
}

/// A day-indexed cache of oracle closes over a fixed range.
///
/// Built once by [`PriceOracle::day_table`]; every lookup inside the range
/// is an array read returning exactly the oracle's value for that day.
/// Days outside the materialized range fall back to the oracle itself, so
/// a table is *always* equivalent to its oracle, just faster where it
/// matters.
///
/// ```
/// use ens_types::{Timestamp, Wei};
/// use price_oracle::PriceOracle;
///
/// let oracle = PriceOracle::new();
/// let t0 = Timestamp::from_ymd(2020, 1, 1);
/// let t1 = Timestamp::from_ymd(2023, 12, 31);
/// let table = oracle.day_table(t0, t1);
/// let day = Timestamp::from_ymd(2021, 11, 8);
/// assert_eq!(table.cents_per_eth(day), oracle.cents_per_eth(day));
/// assert_eq!(table.to_usd(Wei::from_eth(3), day), oracle.to_usd(Wei::from_eth(3), day));
/// ```
#[derive(Clone, Debug)]
pub struct PriceTable {
    base_day: u64,
    cents: Vec<u64>,
    oracle: PriceOracle,
}

impl PriceTable {
    /// Close for the day of `t` — an array read inside the materialized
    /// range, the oracle's own computation outside it.
    pub fn cents_per_eth(&self, t: Timestamp) -> u64 {
        let day = t.day_index();
        match day
            .checked_sub(self.base_day)
            .and_then(|i| self.cents.get(i as usize))
        {
            Some(&c) => c,
            None => self.oracle.cents_per_eth(t),
        }
    }

    /// Converts a wei amount to USD cents at the close of the day of `t` —
    /// identical to [`PriceOracle::to_usd`].
    pub fn to_usd(&self, amount: Wei, t: Timestamp) -> UsdCents {
        amount.to_usd_cents(self.cents_per_eth(t))
    }

    /// Number of materialized days.
    pub fn days(&self) -> usize {
        self.cents.len()
    }

    /// True if the day of `t` falls inside the materialized range (an
    /// array-read hit); false when [`PriceTable::cents_per_eth`] falls back
    /// to the oracle's own computation.
    pub fn is_materialized(&self, t: Timestamp) -> bool {
        t.day_index()
            .checked_sub(self.base_day)
            .is_some_and(|i| (i as usize) < self.cents.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ens_types::Duration;

    #[test]
    fn anchors_are_hit_exactly_without_noise() {
        let o = PriceOracle::new().without_noise();
        let t = Timestamp::from_ymd(2021, 11, 8);
        assert_eq!(o.cents_per_eth(t), 480_000);
    }

    #[test]
    fn series_is_deterministic() {
        let a = PriceOracle::new();
        let b = PriceOracle::new();
        for d in 0..2000u64 {
            let t = Timestamp::from_ymd(2019, 1, 1) + Duration::from_days(d);
            assert_eq!(a.cents_per_eth(t), b.cents_per_eth(t));
        }
    }

    #[test]
    fn shape_matches_the_real_cycles() {
        let o = PriceOracle::new().without_noise();
        let p = |y, m, d| o.cents_per_eth(Timestamp::from_ymd(y, m, d));
        // Bull run: Nov 2021 ≫ Jan 2020.
        assert!(p(2021, 11, 8) > 10 * p(2020, 1, 1));
        // Crash: mid-2022 well below the peak.
        assert!(p(2022, 6, 18) < p(2021, 11, 8) / 3);
        // Interpolated days lie between their anchors.
        let mid = p(2021, 3, 1);
        assert!(mid > p(2021, 1, 1) && mid < p(2021, 5, 10));
    }

    #[test]
    fn noise_is_bounded() {
        let noisy = PriceOracle::new();
        let clean = PriceOracle::new().without_noise();
        for d in 0..3000u64 {
            let t = Timestamp::from_ymd(2019, 1, 1) + Duration::from_days(d);
            let n = noisy.cents_per_eth(t) as f64;
            let c = clean.cents_per_eth(t) as f64;
            assert!((n / c - 1.0).abs() <= NOISE_AMPLITUDE + 1e-9, "day {d}");
        }
    }

    #[test]
    fn day_table_is_equivalent_to_the_oracle() {
        let start = Timestamp::from_ymd(2020, 1, 1);
        let missing: Vec<u64> = (0..40).map(|i| start.day_index() + 90 + i * 7).collect();
        let oracle = PriceOracle::new().with_missing_days(missing);
        let table = oracle.day_table(start, Timestamp::from_ymd(2023, 9, 30));
        assert!(table.days() > 1300);
        // Inside the range (including carried-forward missing days), and a
        // year beyond either end.
        for d in 0..1720u64 {
            let t = Timestamp::from_ymd(2019, 6, 1) + Duration::from_days(d);
            assert_eq!(table.cents_per_eth(t), oracle.cents_per_eth(t), "day {d}");
            let w = Wei::from_eth(1) + Wei(d as u128 * 1_000_000_007);
            assert_eq!(table.to_usd(w, t), oracle.to_usd(w, t), "usd day {d}");
        }
    }

    #[test]
    fn out_of_range_clamps_to_endpoints() {
        let o = PriceOracle::new().without_noise();
        assert_eq!(o.cents_per_eth(Timestamp::from_ymd(2015, 1, 1)), 13_000);
        assert_eq!(o.cents_per_eth(Timestamp::from_ymd(2030, 1, 1)), 340_000);
    }

    #[test]
    fn missing_days_carry_forward() {
        let t = Timestamp::from_ymd(2022, 5, 10);
        let gap = t.day_index();
        let o = PriceOracle::new().with_missing_days([gap]);
        assert_eq!(o.try_cents_per_eth(t), None);
        let prev = Timestamp::from_ymd(2022, 5, 9);
        assert_eq!(o.cents_per_eth(t), o.cents_per_eth(prev));
    }

    #[test]
    fn to_usd_uses_day_of_transaction() {
        let o = PriceOracle::new().without_noise();
        let t = Timestamp::from_ymd(2021, 11, 8);
        assert_eq!(o.to_usd(Wei::from_eth(2), t), UsdCents::from_dollars(9600));
    }
}
