//! The lexical + transactional feature comparison of §4.3 (Table 1) and
//! the income distributions of Fig 6.
//!
//! Feature definitions follow the paper (which follows Miramirkhani et
//! al.'s DNS study). Note on `contains_digit`: the paper's Table 1 reports
//! it *below* `is_numeric` for the re-registered group, which is only
//! coherent if the feature means "contains a digit but is not purely
//! numeric"; we compute it that way (see `ens-lexicon`'s crate docs).

use std::collections::HashSet;

use ens_obs::Metrics;
use ens_subgraph::DomainRecord;
use ens_types::{keccak256, LabelHash, Timestamp};
use price_oracle::PriceOracle;
use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::index::AnalysisIndex;
use crate::registrations::{
    classify, classify_with_detected, effective_owner_at_expiry, DomainOutcome,
};
use crate::shard::shard_map;
use crate::stats::{two_proportion_z_test, welch_t_test, Ecdf, TestResult};

/// Features of one domain's *previous owner* era (the registration that
/// expired), as used in Table 1.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DomainFeatures {
    /// The label text (None if unrecoverable — excluded from lexical rows).
    pub label: Option<String>,
    /// Label length in characters.
    pub length: Option<usize>,
    /// Mixed alphanumeric (digit present, not purely numeric).
    pub contains_digit: Option<bool>,
    /// Purely numeric.
    pub is_numeric: Option<bool>,
    /// Contains a dictionary word of 3+ characters.
    pub contains_dictionary_word: Option<bool>,
    /// Is exactly a dictionary word.
    pub is_dictionary_word: Option<bool>,
    /// Contains a known brand name.
    pub contains_brand_name: Option<bool>,
    /// Contains an adult-content word.
    pub contains_adult_word: Option<bool>,
    /// Contains a hyphen.
    pub contains_hyphen: Option<bool>,
    /// Contains an underscore.
    pub contains_underscore: Option<bool>,
    /// Total USD received by the previous owner's wallet before expiry.
    pub income_usd: f64,
    /// Distinct senders to that wallet before expiry.
    pub num_unique_senders: usize,
    /// Incoming transactions to that wallet before expiry.
    pub num_transactions: usize,
}

/// The lexical columns of one record, plus the owner and tenure window of
/// its first (expired) registration — everything a feature vector needs
/// except the transactional queries.
#[allow(clippy::type_complexity)]
fn feature_frame(
    record: &DomainRecord,
) -> Option<(
    ens_types::Address,
    (Timestamp, Timestamp),
    Option<(
        String,
        usize,
        bool,
        bool,
        bool,
        bool,
        bool,
        bool,
        bool,
        bool,
    )>,
)> {
    let first = record.registrations.first()?;
    let expiry = record.expiry_of_registration(0)?;
    let owner = effective_owner_at_expiry(record, 0)?;
    let lex = record.name.as_ref().map(|n| {
        let s = n.label().as_str();
        (
            s.to_string(),
            s.len(),
            ens_lexicon::contains_digit(s) && !ens_lexicon::is_numeric(s),
            ens_lexicon::is_numeric(s),
            ens_lexicon::contains_dictionary_word(s),
            ens_lexicon::is_dictionary_word(s),
            ens_lexicon::contains_brand_name(s),
            ens_lexicon::contains_adult_word(s),
            ens_lexicon::contains_hyphen(s),
            ens_lexicon::contains_underscore(s),
        )
    });
    Some((owner, (first.registered_at, expiry), lex))
}

#[allow(clippy::type_complexity)]
fn assemble_features(
    lex: Option<(
        String,
        usize,
        bool,
        bool,
        bool,
        bool,
        bool,
        bool,
        bool,
        bool,
    )>,
    income_usd: f64,
    num_unique_senders: usize,
    num_transactions: usize,
) -> DomainFeatures {
    DomainFeatures {
        label: lex.as_ref().map(|l| l.0.clone()),
        length: lex.as_ref().map(|l| l.1),
        contains_digit: lex.as_ref().map(|l| l.2),
        is_numeric: lex.as_ref().map(|l| l.3),
        contains_dictionary_word: lex.as_ref().map(|l| l.4),
        is_dictionary_word: lex.as_ref().map(|l| l.5),
        contains_brand_name: lex.as_ref().map(|l| l.6),
        contains_adult_word: lex.as_ref().map(|l| l.7),
        contains_hyphen: lex.as_ref().map(|l| l.8),
        contains_underscore: lex.as_ref().map(|l| l.9),
        income_usd,
        num_unique_senders,
        num_transactions,
    }
}

/// Extracts the feature vector for the first (expired) registration period
/// of a domain — the naive baseline path: three separate scans of the
/// owner's full transaction vector (income, unique senders, count).
pub fn extract_features(
    dataset: &Dataset,
    oracle: &PriceOracle,
    record: &DomainRecord,
) -> Option<DomainFeatures> {
    let (owner, window, lex) = feature_frame(record)?;
    let window = Some(window);
    let income_usd = dataset.income_usd(owner, window, oracle).as_dollars_f64();
    let num_unique_senders = dataset.unique_senders(owner, window);
    let num_transactions = dataset.incoming(owner, window).count();
    Some(assemble_features(
        lex,
        income_usd,
        num_unique_senders,
        num_transactions,
    ))
}

/// [`extract_features`] on the analysis substrate: income and transaction
/// count come from a single prefix-sum range lookup (the seed scanned the
/// vector once for income and again for the count), unique senders from
/// the same pre-filtered slice.
pub fn extract_features_with(
    index: &AnalysisIndex,
    record: &DomainRecord,
) -> Option<DomainFeatures> {
    let (owner, window, lex) = feature_frame(record)?;
    let window = Some(window);
    let (income, num_transactions) = index.income_and_count(owner, window);
    let num_unique_senders = index.unique_senders(owner, window);
    Some(assemble_features(
        lex,
        income.as_dollars_f64(),
        num_unique_senders,
        num_transactions,
    ))
}

/// One row of Table 1.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FeatureRow {
    /// A numerical feature compared by Welch's t-test.
    Numeric {
        /// Feature name.
        name: String,
        /// Mean in the re-registered group.
        mean_rereg: f64,
        /// Mean in the control group.
        mean_control: f64,
        /// The test (None if degenerate).
        test: Option<TestResult>,
    },
    /// A categorical feature compared by a two-proportion z-test.
    Categorical {
        /// Feature name.
        name: String,
        /// Count / fraction in the re-registered group.
        count_rereg: usize,
        /// Fraction in the re-registered group.
        frac_rereg: f64,
        /// Count in the control group.
        count_control: usize,
        /// Fraction in the control group.
        frac_control: f64,
        /// The test.
        test: Option<TestResult>,
    },
}

impl FeatureRow {
    /// The feature's name.
    pub fn name(&self) -> &str {
        match self {
            FeatureRow::Numeric { name, .. } | FeatureRow::Categorical { name, .. } => name,
        }
    }

    /// Whether the difference is significant at α = 0.05.
    pub fn significant(&self) -> bool {
        match self {
            FeatureRow::Numeric { test, .. } | FeatureRow::Categorical { test, .. } => {
                test.as_ref().is_some_and(TestResult::significant)
            }
        }
    }
}

/// Table 1 plus the Fig 6 income distributions.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FeatureComparison {
    /// Re-registered domains in the comparison.
    pub n_rereg: usize,
    /// Control domains in the comparison (equal-size sample).
    pub n_control: usize,
    /// Table 1 rows in the paper's order.
    pub rows: Vec<FeatureRow>,
    /// Fig 6: income ECDF of re-registered domains' previous owners (USD).
    pub income_rereg: Ecdf,
    /// Fig 6: income ECDF of control domains' owners (USD).
    pub income_control: Ecdf,
}

impl FeatureComparison {
    /// Looks a row up by name.
    pub fn row(&self, name: &str) -> Option<&FeatureRow> {
        self.rows.iter().find(|r| r.name() == name)
    }
}

/// Deterministic pseudo-random sampling of `k` items, keyed by each item's
/// label hash and a seed — the stand-in for the paper's "randomly sampled"
/// control group that keeps every run reproducible.
fn sample_control(pool: Vec<&DomainRecord>, k: usize, seed: u64) -> Vec<&DomainRecord> {
    let mut keyed: Vec<(u64, &DomainRecord)> = pool
        .into_iter()
        .map(|d| {
            let mut buf = [0u8; 40];
            buf[..32].copy_from_slice(&d.label_hash.0 .0);
            buf[32..].copy_from_slice(&seed.to_be_bytes());
            let h = keccak256(&buf);
            (u64::from_be_bytes(h[..8].try_into().expect("8 bytes")), d)
        })
        .collect();
    keyed.sort_by_key(|(k, d)| (*k, d.label_hash));
    keyed.into_iter().take(k).map(|(_, d)| d).collect()
}

/// Runs the full §4.3 comparison on the naive baseline path: per-domain
/// re-registration detection for the group split and triple full-vector
/// scans per feature vector, sequentially. Kept as the reference
/// implementation the equivalence tests and `BENCH_analysis.json` regress
/// against.
pub fn compare_features_naive(
    dataset: &Dataset,
    oracle: &PriceOracle,
    control_seed: u64,
) -> FeatureComparison {
    let mut rereg: Vec<&DomainRecord> = Vec::new();
    let mut expired_pool: Vec<&DomainRecord> = Vec::new();
    for d in &dataset.domains {
        match classify(d, dataset.observation_end) {
            DomainOutcome::ReRegistered => rereg.push(d),
            DomainOutcome::ExpiredNotReRegistered => expired_pool.push(d),
            DomainOutcome::ActiveOriginal => {}
        }
    }
    let control = sample_control(expired_pool, rereg.len(), control_seed);

    let f_rereg: Vec<DomainFeatures> = rereg
        .iter()
        .filter_map(|d| extract_features(dataset, oracle, d))
        .collect();
    let f_control: Vec<DomainFeatures> = control
        .iter()
        .filter_map(|d| extract_features(dataset, oracle, d))
        .collect();
    build_comparison(f_rereg, f_control)
}

/// Runs the full §4.3 comparison. Builds a one-shot [`AnalysisIndex`];
/// callers running multiple passes should build the index once and use
/// [`compare_features_with`].
pub fn compare_features(
    dataset: &Dataset,
    oracle: &PriceOracle,
    control_seed: u64,
) -> FeatureComparison {
    let index = AnalysisIndex::build(dataset, oracle);
    compare_features_with(dataset, control_seed, &index, 1)
}

/// Runs the full §4.3 comparison on the analysis substrate: the group
/// split reuses the index's re-registration list instead of re-detecting
/// per domain, and the per-domain feature extraction fans across
/// `threads` scoped workers with a deterministic ordered merge. The
/// comparison is identical to [`compare_features_naive`] at any thread
/// count.
pub fn compare_features_with(
    dataset: &Dataset,
    control_seed: u64,
    index: &AnalysisIndex,
    threads: usize,
) -> FeatureComparison {
    compare_features_metered(dataset, control_seed, index, threads, &Metrics::disabled())
}

/// [`compare_features_with`] under a `features` span, recording group
/// sizes and extraction counts. Per-shard feature vectors merge in input
/// order, so the recorded metrics are byte-identical at any thread count.
pub fn compare_features_metered(
    dataset: &Dataset,
    control_seed: u64,
    index: &AnalysisIndex,
    threads: usize,
    metrics: &Metrics,
) -> FeatureComparison {
    let span = metrics.span("features");
    let caught: HashSet<LabelHash> = index
        .reregistrations()
        .iter()
        .map(|r| r.label_hash)
        .collect();
    let mut rereg: Vec<&DomainRecord> = Vec::new();
    let mut expired_pool: Vec<&DomainRecord> = Vec::new();
    for d in &dataset.domains {
        match classify_with_detected(d, dataset.observation_end, caught.contains(&d.label_hash)) {
            DomainOutcome::ReRegistered => rereg.push(d),
            DomainOutcome::ExpiredNotReRegistered => expired_pool.push(d),
            DomainOutcome::ActiveOriginal => {}
        }
    }
    if metrics.is_enabled() {
        metrics.add("features/rereg_domains", rereg.len() as u64);
        metrics.add("features/expired_pool", expired_pool.len() as u64);
    }
    let control = sample_control(expired_pool, rereg.len(), control_seed);
    if metrics.is_enabled() {
        metrics.add("features/control_domains", control.len() as u64);
    }

    let extract = |domains: &[&DomainRecord]| -> Vec<DomainFeatures> {
        shard_map(domains, threads, |d| extract_features_with(index, d))
            .into_iter()
            .flatten()
            .collect()
    };
    let f_rereg = extract(&rereg);
    let f_control = extract(&control);
    if metrics.is_enabled() {
        metrics.add(
            "features/vectors_extracted",
            (f_rereg.len() + f_control.len()) as u64,
        );
    }
    let comparison = build_comparison(f_rereg, f_control);
    if metrics.is_enabled() {
        metrics.add("features/rows", comparison.rows.len() as u64);
    }
    drop(span);
    comparison
}

/// Builds Table 1 and the Fig 6 distributions from the two groups'
/// feature vectors — shared by the naive and indexed paths so their
/// outputs are byte-identical by construction.
fn build_comparison(
    f_rereg: Vec<DomainFeatures>,
    f_control: Vec<DomainFeatures>,
) -> FeatureComparison {
    let mut rows = Vec::new();

    let numeric = |name: &str, fr: &dyn Fn(&DomainFeatures) -> Option<f64>| -> FeatureRow {
        let a: Vec<f64> = f_rereg.iter().filter_map(fr).collect();
        let b: Vec<f64> = f_control.iter().filter_map(fr).collect();
        FeatureRow::Numeric {
            name: name.to_string(),
            mean_rereg: crate::stats::Summary::of(&a).mean,
            mean_control: crate::stats::Summary::of(&b).mean,
            test: welch_t_test(&a, &b),
        }
    };
    let categorical = |name: &str, fr: &dyn Fn(&DomainFeatures) -> Option<bool>| -> FeatureRow {
        let a: Vec<bool> = f_rereg.iter().filter_map(fr).collect();
        let b: Vec<bool> = f_control.iter().filter_map(fr).collect();
        let (ka, na) = (a.iter().filter(|x| **x).count(), a.len());
        let (kb, nb) = (b.iter().filter(|x| **x).count(), b.len());
        FeatureRow::Categorical {
            name: name.to_string(),
            count_rereg: ka,
            frac_rereg: if na == 0 { 0.0 } else { ka as f64 / na as f64 },
            count_control: kb,
            frac_control: if nb == 0 { 0.0 } else { kb as f64 / nb as f64 },
            test: two_proportion_z_test(ka, na, kb, nb),
        }
    };

    // Rows in the paper's Table 1 order.
    rows.push(numeric("average_income_USD", &|f| Some(f.income_usd)));
    rows.push(numeric("average_num_unique_senders", &|f| {
        Some(f.num_unique_senders as f64)
    }));
    rows.push(numeric("average_num_transactions", &|f| {
        Some(f.num_transactions as f64)
    }));
    rows.push(numeric("average_length", &|f| f.length.map(|l| l as f64)));
    rows.push(categorical("contains_digit", &|f| f.contains_digit));
    rows.push(categorical("is_numeric", &|f| f.is_numeric));
    rows.push(categorical("contains_dictionary_word", &|f| {
        f.contains_dictionary_word
    }));
    rows.push(categorical("is_dictionary_word", &|f| f.is_dictionary_word));
    rows.push(categorical("contains_brand_name", &|f| {
        f.contains_brand_name
    }));
    rows.push(categorical("contains_adult_word", &|f| {
        f.contains_adult_word
    }));
    rows.push(categorical("contains_hyphen", &|f| f.contains_hyphen));
    rows.push(categorical("contains_underscore", &|f| {
        f.contains_underscore
    }));

    FeatureComparison {
        n_rereg: f_rereg.len(),
        n_control: f_control.len(),
        income_rereg: Ecdf::new(f_rereg.iter().map(|f| f.income_usd).collect()),
        income_control: Ecdf::new(f_control.iter().map(|f| f.income_usd).collect()),
        rows,
    }
}

/// True for timestamps the comparison should treat as observable.
pub fn within_window(t: Timestamp, observation_end: Timestamp) -> bool {
    t < observation_end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::collect_clean;
    use ens_subgraph::SubgraphConfig;
    use workload::WorldConfig;

    fn comparison() -> FeatureComparison {
        let world = WorldConfig::default().with_seed(50).build();
        let ds = collect_clean(&world, SubgraphConfig::lossless());
        compare_features(&ds, world.oracle(), 7)
    }

    #[test]
    fn groups_are_equal_sized_and_nonempty() {
        let c = comparison();
        assert!(c.n_rereg > 300, "n_rereg {}", c.n_rereg);
        // Control pool is much larger than the re-registered set, so the
        // sample matches exactly.
        assert_eq!(c.n_rereg, c.n_control);
        assert_eq!(c.rows.len(), 12);
    }

    #[test]
    fn income_contrast_matches_the_paper_direction() {
        let c = comparison();
        let FeatureRow::Numeric {
            mean_rereg,
            mean_control,
            test,
            ..
        } = c.row("average_income_USD").unwrap()
        else {
            panic!("income row should be numeric")
        };
        let ratio = mean_rereg / mean_control;
        // Paper: 69,980 / 21,400 ≈ 3.3×.
        assert!((1.7..7.0).contains(&ratio), "income ratio {ratio}");
        assert!(test.as_ref().unwrap().significant());
        // Fig 6: stochastic dominance at the quartiles.
        for q in [0.25, 0.5, 0.75, 0.9] {
            assert!(
                c.income_rereg.quantile(q) >= c.income_control.quantile(q),
                "dominance fails at q={q}"
            );
        }
    }

    #[test]
    fn lexical_contrasts_match_the_paper_directions() {
        let c = comparison();
        let frac = |name: &str| -> (f64, f64) {
            match c.row(name).unwrap() {
                FeatureRow::Categorical {
                    frac_rereg,
                    frac_control,
                    ..
                } => (*frac_rereg, *frac_control),
                _ => panic!("{name} should be categorical"),
            }
        };
        // Catchers avoid mixed alphanumerics, hyphens, underscores...
        let (r, c_) = frac("contains_digit");
        assert!(r < c_, "contains_digit {r} !< {c_}");
        let (r, c_) = frac("contains_hyphen");
        assert!(r < c_, "hyphen {r} !< {c_}");
        let (r, c_) = frac("contains_underscore");
        assert!(r < c_, "underscore {r} !< {c_}");
        // ...and prefer dictionary words.
        let (r, c_) = frac("is_dictionary_word");
        assert!(r > c_ * 2.0, "is_dictionary {r} vs {c_}");
        let (r, c_) = frac("contains_dictionary_word");
        assert!(r > c_, "contains_dictionary {r} vs {c_}");

        // Length: re-registered names are shorter.
        let FeatureRow::Numeric {
            mean_rereg,
            mean_control,
            ..
        } = c.row("average_length").unwrap()
        else {
            panic!()
        };
        assert!(mean_rereg < mean_control);
    }

    #[test]
    fn key_features_are_statistically_significant() {
        let c = comparison();
        for name in [
            "average_income_USD",
            "average_length",
            "contains_digit",
            "is_dictionary_word",
        ] {
            assert!(
                c.row(name).unwrap().significant(),
                "{name} should be significant"
            );
        }
    }

    #[test]
    fn control_sampling_is_deterministic_but_seed_sensitive() {
        let world = WorldConfig::small().with_seed(51).build();
        let ds = collect_clean(&world, SubgraphConfig::lossless());
        let a = compare_features(&ds, world.oracle(), 1);
        let b = compare_features(&ds, world.oracle(), 1);
        let c = compare_features(&ds, world.oracle(), 2);
        let income = |x: &FeatureComparison| match x.row("average_income_USD").unwrap() {
            FeatureRow::Numeric { mean_control, .. } => *mean_control,
            _ => unreachable!(),
        };
        assert_eq!(income(&a), income(&b));
        assert_ne!(income(&a), income(&c));
    }
}
