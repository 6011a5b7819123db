//! # ens-serve
//!
//! The resident query daemon over a crawled [`Dataset`]: load once, build
//! the [`AnalysisIndex`] (and its outgoing-side twin) once, run the study
//! once, then serve unlimited concurrent read-only queries from an
//! immutable [`Arc`]ed snapshot. Four query types cover the paper's
//! consumer-facing questions:
//!
//! - **name-risk** — is/was this name dropcaught, who holds it now, where
//!   is it in the expiry → grace → premium lifecycle;
//! - **address-forensics** — incoming/outgoing transfer counts and USD
//!   totals for any address over any window, O(log n) via prefix sums;
//! - **loss-findings** — the §4.4 misdirected-fund findings for one
//!   victim wallet;
//! - **report-slice** — any [`StudyReport`] section as structured JSON.
//!
//! Two transports share one code path: the in-process [`ServeHandle`]
//! (what tests and benches drive, no sockets) and the dependency-free
//! HTTP/1.1 loop in [`http`]. Every reply is deterministic hand-rolled
//! JSON — byte-identical at any worker count, which the serve bench
//! gates on — and every failure is a typed
//! [`QueryError`], never a panic: an adversarial name, an unknown
//! address, an inverted window or an empty dataset all produce error
//! replies.
//!
//! [`Dataset`]: ens_dropcatch::Dataset
//! [`AnalysisIndex`]: ens_dropcatch::AnalysisIndex
//! [`StudyReport`]: ens_dropcatch::StudyReport

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
mod json;
mod replies;

use std::collections::BTreeMap;
use std::sync::Arc;

use ens_dropcatch::{
    join, AnalysisIndex, Dataset, Metrics, NameDirectory, OutgoingIndex, QueryError, StudyConfig,
    StudyReport,
};
use ens_types::Address;
use price_oracle::PriceOracle;

/// Everything a query needs, built once at startup and shared immutably
/// (behind an [`Arc`]) by every worker thread for the daemon's lifetime.
pub struct ServeState {
    /// The loaded dataset (self-contained: labels, reverse claims and
    /// marketplace events travel inside it).
    pub dataset: Dataset,
    /// Incoming-side index: per-address timestamp-sorted transfers with
    /// USD prefix sums, plus the re-registration list and its lookups.
    pub index: AnalysisIndex,
    /// Outgoing-side index (serve-only; the offline study never needs
    /// it): per-address *sent* transfers with the same prefix-sum trick.
    pub outgoing: OutgoingIndex,
    /// Full-name → domain-position directory for `name-risk` lookups.
    pub names: NameDirectory,
    /// The complete study, run once at startup; `report-slice` serves
    /// its sections.
    pub report: StudyReport,
    /// Positions into `report.losses.findings`, keyed by victim wallet.
    loss_by_victim: BTreeMap<Address, Vec<usize>>,
}

impl ServeState {
    /// Builds the resident state: indexes the dataset (sharded over
    /// `threads`), runs the full study once, and precomputes the name
    /// and victim directories. This is the expensive call — everything
    /// after it is read-only. Above one thread the incoming index builds
    /// beside the outgoing index and the name directory (a [`join`]), and
    /// the study then runs its passes side by side as the CLI's does.
    pub fn build(dataset: Dataset, threads: usize) -> ServeState {
        let oracle = PriceOracle::new();
        let (index, (outgoing, names)) = join(
            threads,
            || AnalysisIndex::build(&dataset, &oracle, threads, &Metrics::disabled()),
            || {
                (
                    OutgoingIndex::build_with_threads(&dataset, &oracle, threads),
                    NameDirectory::build(&dataset.domains),
                )
            },
        );
        let config = StudyConfig {
            threads,
            ..StudyConfig::default()
        };
        let report = ens_dropcatch::run_study_on(
            &dataset,
            &oracle,
            &config,
            Some(&index),
            &Metrics::disabled(),
        );
        let mut loss_by_victim: BTreeMap<Address, Vec<usize>> = BTreeMap::new();
        for (i, f) in report.losses.findings.iter().enumerate() {
            loss_by_victim.entry(f.prev_wallet).or_default().push(i);
        }
        ServeState {
            dataset,
            index,
            outgoing,
            names,
            report,
            loss_by_victim,
        }
    }

    /// Positions into `report.losses.findings` for one victim wallet
    /// (empty for an address that lost nothing — not an error).
    pub fn losses_of_victim(&self, victim: Address) -> &[usize] {
        self.loss_by_victim
            .get(&victim)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// A parsed query — the transport-independent request form. The HTTP
/// layer maps URLs onto this; tests and benches construct it directly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// `name-risk`: lifecycle + dropcatch history of one name.
    NameRisk {
        /// The name to look up (bare label or `label.eth`).
        name: String,
    },
    /// `address-forensics`: transfer counts and USD totals for one
    /// address, optionally windowed to `[from, to)` (unix seconds).
    AddressForensics {
        /// 20-byte hex address.
        address: String,
        /// Window start (inclusive), unix seconds.
        from: Option<u64>,
        /// Window end (exclusive), unix seconds.
        to: Option<u64>,
    },
    /// `loss-findings`: the misdirected-fund findings for one victim.
    LossFindings {
        /// 20-byte hex address of the lapsed wallet.
        victim: String,
    },
    /// `report-slice`: one [`StudyReport`] section as structured JSON.
    ///
    /// [`StudyReport`]: ens_dropcatch::StudyReport
    ReportSlice {
        /// One of [`ens_dropcatch::REPORT_SECTIONS`].
        section: String,
    },
}

impl Request {
    /// Parses an HTTP request target (`/name-risk?name=gold.eth`) into a
    /// [`Request`]. Unknown endpoints, missing parameters and malformed
    /// integers are all [`QueryError::BadRequest`] — typed, not panics.
    pub fn from_target(target: &str) -> Result<Request, QueryError> {
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };
        let params = parse_query(query)?;
        let require = |key: &str| -> Result<String, QueryError> {
            params
                .get(key)
                .cloned()
                .ok_or_else(|| QueryError::BadRequest(format!("missing parameter {key:?}")))
        };
        let optional_u64 = |key: &str| -> Result<Option<u64>, QueryError> {
            params
                .get(key)
                .map(|v| {
                    v.parse::<u64>().map_err(|_| {
                        QueryError::BadRequest(format!(
                            "parameter {key:?} is not an integer: {v:?}"
                        ))
                    })
                })
                .transpose()
        };
        match path {
            "/name-risk" => Ok(Request::NameRisk {
                name: require("name")?,
            }),
            "/address-forensics" => Ok(Request::AddressForensics {
                address: require("address")?,
                from: optional_u64("from")?,
                to: optional_u64("to")?,
            }),
            "/loss-findings" => Ok(Request::LossFindings {
                victim: require("victim")?,
            }),
            "/report-slice" => Ok(Request::ReportSlice {
                section: require("section")?,
            }),
            other => Err(QueryError::BadRequest(format!(
                "unknown endpoint {other:?}"
            ))),
        }
    }
}

/// Splits `k=v&k2=v2` with percent-decoding; later keys win duplicates.
fn parse_query(query: &str) -> Result<BTreeMap<String, String>, QueryError> {
    let mut out = BTreeMap::new();
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        out.insert(percent_decode(k)?, percent_decode(v)?);
    }
    Ok(out)
}

/// Minimal percent-decoding (`%41` → `A`, `+` → space); invalid escapes
/// are a typed bad request, and non-UTF-8 decodes are rejected.
fn percent_decode(s: &str) -> Result<String, QueryError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                    .ok_or_else(|| {
                        QueryError::BadRequest(format!("invalid percent-escape in {s:?}"))
                    })?;
                out.push(hex);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out)
        .map_err(|_| QueryError::BadRequest(format!("query parameter is not UTF-8: {s:?}")))
}

/// The in-process query interface: a cheap clone around the shared
/// state. One [`ServeHandle`] per worker thread; every query is a pure
/// read returning either a deterministic JSON body or a typed error.
#[derive(Clone)]
pub struct ServeHandle {
    state: Arc<ServeState>,
}

impl ServeHandle {
    /// Wraps already-built state.
    pub fn new(state: Arc<ServeState>) -> ServeHandle {
        ServeHandle { state }
    }

    /// The shared state (for tests that want to inspect it).
    pub fn state(&self) -> &ServeState {
        &self.state
    }

    /// Answers one query. The reply body is a deterministic function of
    /// the request and the loaded dataset — byte-identical no matter
    /// which worker thread runs it, which the serve bench gates on.
    pub fn query(&self, request: &Request) -> Result<String, QueryError> {
        match request {
            Request::NameRisk { name } => replies::name_risk(&self.state, name),
            Request::AddressForensics { address, from, to } => {
                replies::address_forensics(&self.state, address, *from, *to)
            }
            Request::LossFindings { victim } => replies::loss_findings(&self.state, victim),
            Request::ReportSlice { section } => replies::report_slice(&self.state, section),
        }
    }

    /// The error reply body for a failed query — also deterministic, so
    /// the equivalence gate covers error paths too.
    pub fn error_body(error: &QueryError) -> String {
        format!(
            "{{\"error\": {}, \"detail\": {}}}",
            json::str_lit(error.kind()),
            json::str_lit(&error.to_string())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_parse_into_typed_requests() {
        assert_eq!(
            Request::from_target("/name-risk?name=gold.eth"),
            Ok(Request::NameRisk {
                name: "gold.eth".into()
            })
        );
        assert_eq!(
            Request::from_target("/address-forensics?address=0xab&from=5&to=9"),
            Ok(Request::AddressForensics {
                address: "0xab".into(),
                from: Some(5),
                to: Some(9),
            })
        );
        assert_eq!(
            Request::from_target("/loss-findings?victim=0xab"),
            Ok(Request::LossFindings {
                victim: "0xab".into()
            })
        );
        assert_eq!(
            Request::from_target("/report-slice?section=losses"),
            Ok(Request::ReportSlice {
                section: "losses".into()
            })
        );
    }

    #[test]
    fn malformed_targets_are_typed_bad_requests() {
        for target in [
            "/nope",
            "/name-risk",
            "/name-risk?title=x",
            "/address-forensics?address=0xab&from=notanumber",
            "/name-risk?name=%zz",
        ] {
            assert!(
                matches!(Request::from_target(target), Err(QueryError::BadRequest(_))),
                "{target} should be a bad request"
            );
        }
    }

    #[test]
    fn percent_escapes_decode() {
        assert_eq!(
            Request::from_target("/name-risk?name=gold%2Deth+x"),
            Ok(Request::NameRisk {
                name: "gold-eth x".into()
            })
        );
    }
}
