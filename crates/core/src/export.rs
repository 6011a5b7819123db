//! Exports: the dataset's on-disk format seam, plus CSV export of every
//! figure and table for plotting outside Rust.
//!
//! # Dataset files
//!
//! [`Dataset::save`] and [`Dataset::load`] are the only file-level entry
//! points; everything above them (CLI, benches, examples) is
//! format-agnostic. Two formats exist:
//!
//! - [`Format::Json`] — the interchange and differential-testing form
//!   (human-greppable, diffable, what the paper's own dataset release
//!   looks like);
//! - [`Format::Columnar`] — the native form: the sectioned struct-of-arrays
//!   container of `ens-columnar` (see [`crate::storage`]), loading at a
//!   multiple of the JSON rate in a fraction of the footprint.
//!
//! [`Dataset::load`] auto-detects the format from the magic bytes
//! (columnar files open with `ENSC`; JSON with `{`), so consumers never
//! name a format on the read path. It reads a columnar file one section at
//! a time ([`Dataset::read_columnar`]), so the whole file is never in
//! memory beside the dataset it decodes into; a JSON file is read whole.
//! [`DatasetFile`] splits the same load into its open and its decode, for
//! a caller that checks the detected format before decoding.
//! [`Dataset::from_bytes`] decodes bytes already in memory through the
//! same two decoders: [`Dataset::read_columnar`] over a cursor, and the
//! JSON decode `DatasetFile` uses.
//!
//! # CSV artifacts
//!
//! Each [`CsvArtifact`] becomes one CSV file whose rows are the exact
//! series the paper plots — the same spirit as the paper's own dataset
//! release.

use std::fmt;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use ens_obs::Metrics;

use crate::dataset::Dataset;
use crate::features::FeatureRow;
use crate::pipeline::StudyReport;
use crate::report::to_csv;

/// An on-disk dataset format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Line-free canonical JSON — the interchange form.
    Json,
    /// The `ens-columnar` binary container — the native form.
    Columnar,
}

impl Format {
    /// The canonical file extension (`json` / `ensc`).
    pub fn extension(self) -> &'static str {
        match self {
            Format::Json => "json",
            Format::Columnar => "ensc",
        }
    }

    /// The format a path's extension implies, if it names one.
    pub fn from_extension(path: &Path) -> Option<Format> {
        match path.extension()?.to_str()? {
            "json" => Some(Format::Json),
            "ensc" => Some(Format::Columnar),
            _ => None,
        }
    }

    /// Parses a user-supplied format name (the CLI's `--format` values).
    pub fn parse(name: &str) -> Option<Format> {
        match name {
            "json" => Some(Format::Json),
            "columnar" | "ensc" => Some(Format::Columnar),
            _ => None,
        }
    }

    /// Detects the format of in-memory file contents by magic bytes:
    /// columnar files open with `ENSC`, anything else is treated as JSON
    /// (whose own parser produces the error for non-JSON bytes).
    pub fn detect(bytes: &[u8]) -> Format {
        if ens_columnar::is_columnar(bytes) {
            Format::Columnar
        } else {
            Format::Json
        }
    }
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Format::Json => "json",
            Format::Columnar => "columnar",
        })
    }
}

/// Why a dataset file failed to save or load.
#[derive(Debug)]
pub enum StorageError {
    /// The filesystem failed.
    Io(std::io::Error),
    /// JSON (de)serialization failed.
    Json(serde_json::Error),
    /// The columnar container failed to encode or decode.
    Columnar(ens_columnar::ColumnarError),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "dataset file I/O failed: {e}"),
            StorageError::Json(e) => write!(f, "dataset JSON failed: {e}"),
            StorageError::Columnar(e) => write!(f, "dataset columnar file failed: {e}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Json(e) => Some(e),
            StorageError::Columnar(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<serde_json::Error> for StorageError {
    fn from(e: serde_json::Error) -> Self {
        StorageError::Json(e)
    }
}

impl From<ens_columnar::ColumnarError> for StorageError {
    fn from(e: ens_columnar::ColumnarError) -> Self {
        StorageError::Columnar(e)
    }
}

impl From<ens_columnar::ReadError> for StorageError {
    fn from(e: ens_columnar::ReadError) -> Self {
        match e {
            ens_columnar::ReadError::Io(e) => StorageError::Io(e),
            ens_columnar::ReadError::Columnar(e) => StorageError::Columnar(e),
        }
    }
}

/// Writes `bytes` to `path` atomically: the bytes land in a `.tmp` sibling
/// first and are published by a single `rename`, so a process that dies
/// mid-write can never leave a torn file at `path` — readers see either
/// the old complete contents or the new complete contents. This is the
/// commit protocol the checkpoint layer's crash-safety proof rests on (see
/// [`crate::checkpoint`]); dataset saves use it too so an interrupted
/// export never corrupts a previous good file.
///
/// Nothing here calls `sync_all`, so the guarantee covers process death
/// (what the kill/resume tests exercise) but not power loss or an OS
/// crash, after which the published file may hold blocks the kernel never
/// wrote back. A torn checkpoint segment or `.ensc` dataset then fails its
/// section checksum on load (a torn JSON export fails to parse): that
/// costs progress — a refetch, or a clean crawl — not correctness.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
    write_atomic_with(path, |file| file.write_all(bytes))
}

/// [`write_atomic`] of whatever `write` writes into the temp file.
fn write_atomic_with(
    path: &Path,
    write: impl FnOnce(&mut File) -> std::io::Result<()>,
) -> Result<(), StorageError> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let mut file = File::create(&tmp)?;
    write(&mut file)?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

impl Dataset {
    /// Serializes the dataset into `format`'s in-memory bytes, under a
    /// `json/encode` or `columnar/encode` span.
    fn encode(&self, format: Format, metrics: &Metrics) -> Result<Vec<u8>, StorageError> {
        Ok(match format {
            Format::Json => {
                let _span = metrics.span("json/encode");
                self.to_json()?.into_bytes()
            }
            Format::Columnar => self.to_columnar(metrics)?,
        })
    }

    /// Serializes the dataset into `format`'s in-memory bytes: a forward
    /// kept for `perfbench/tracer`, deleted with ROADMAP item 1b.
    pub fn to_bytes(&self, format: Format) -> Result<Vec<u8>, StorageError> {
        self.encode(format, &Metrics::disabled())
    }

    /// Deserializes a dataset from bytes in memory, auto-detecting the
    /// format (see [`Format::detect`]), on the calling thread. A columnar
    /// file is read through [`Dataset::read_columnar`] over a cursor, as a
    /// file on disk is, so a corrupt one fails with
    /// [`StorageError::Columnar`]. Any other bytes that are not a JSON
    /// dataset, including bytes that are not UTF-8, fail with
    /// [`StorageError::Json`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Dataset, StorageError> {
        let metrics = Metrics::disabled();
        match Format::detect(bytes) {
            Format::Columnar => Ok(Dataset::read_columnar(
                std::io::Cursor::new(bytes),
                1,
                &metrics,
            )?),
            Format::Json => decode_json(bytes, &metrics),
        }
    }

    /// Writes the dataset to `path` in `format`, recording encode metrics
    /// and a `storage/write` span around the file write. A columnar file is
    /// written section by section, never joined into one buffer; its bytes
    /// equal [`Dataset::to_columnar`]'s.
    pub fn save(&self, path: &Path, format: Format, metrics: &Metrics) -> Result<(), StorageError> {
        if format == Format::Json {
            let bytes = self.encode(format, metrics)?;
            let _span = metrics.span("storage/write");
            return write_atomic(path, &bytes);
        }
        let sections = {
            let _span = metrics.span("columnar/encode");
            self.columnar_sections(metrics)?
        };
        let _span = metrics.span("storage/write");
        let bytes = sections.file_len();
        let mut checksum = 0;
        write_atomic_with(path, |file| {
            checksum = sections.write_to(file)?;
            Ok(())
        })?;
        crate::storage::record_file(metrics, bytes, checksum);
        Ok(())
    }

    /// Reads a dataset from `path`, auto-detecting the format from the
    /// file's magic bytes (the extension is never consulted). A columnar
    /// file is read one section at a time, on the calling thread; see
    /// [`DatasetFile`].
    pub fn load(path: &Path) -> Result<Dataset, StorageError> {
        DatasetFile::open(path)?.decode(1, &Metrics::disabled())
    }
}

/// A dataset file opened for decoding, its format sniffed from the magic
/// bytes. A JSON file is read whole at open; a columnar file is only
/// opened, and [`DatasetFile::decode`] reads it one section at a time.
pub struct DatasetFile {
    len: u64,
    body: Body,
}

enum Body {
    Columnar(File),
    Json(Vec<u8>),
}

impl DatasetFile {
    /// Opens `path` and detects its format from its first bytes, as
    /// [`Format::detect`] does for bytes in memory.
    pub fn open(path: &Path) -> Result<DatasetFile, StorageError> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut magic = Vec::with_capacity(4);
        (&mut file).take(4).read_to_end(&mut magic)?;
        file.seek(SeekFrom::Start(0))?;
        let body = match Format::detect(&magic) {
            Format::Columnar => Body::Columnar(file),
            Format::Json => {
                let mut bytes = Vec::new();
                file.read_to_end(&mut bytes)?;
                Body::Json(bytes)
            }
        };
        Ok(DatasetFile { len, body })
    }

    /// The detected format.
    pub fn format(&self) -> Format {
        match self.body {
            Body::Columnar(_) => Format::Columnar,
            Body::Json(_) => Format::Json,
        }
    }

    /// The file's size in bytes when it was opened.
    pub fn file_len(&self) -> u64 {
        self.len
    }

    /// Decodes the dataset under a `columnar/decode` or `json/decode`
    /// span; a columnar file's rows split over `threads` (see
    /// [`Dataset::read_columnar`]).
    pub fn decode(self, threads: usize, metrics: &Metrics) -> Result<Dataset, StorageError> {
        match self.body {
            Body::Columnar(file) => Ok(Dataset::read_columnar(file, threads, metrics)?),
            Body::Json(bytes) => decode_json(&bytes, metrics),
        }
    }
}

/// Decodes a JSON dataset under a `json/decode` span.
fn decode_json(bytes: &[u8], metrics: &Metrics) -> Result<Dataset, StorageError> {
    let _span = metrics.span("json/decode");
    Ok(serde_json::from_slice(bytes)?)
}

/// A named CSV artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsvArtifact {
    /// Suggested file name (`fig2_timeline.csv`, ...).
    pub filename: String,
    /// CSV contents with a header row.
    pub contents: String,
}

impl StudyReport {
    /// Exports every figure and table as CSV.
    pub fn csv_bundle(&self) -> Vec<CsvArtifact> {
        let mut out = Vec::new();
        let mut push = |filename: &str, headers: &[&str], rows: Vec<Vec<String>>| {
            out.push(CsvArtifact {
                filename: filename.to_string(),
                contents: to_csv(headers, &rows),
            });
        };

        // Fig 2.
        push(
            "fig2_timeline.csv",
            &["month", "registrations", "expirations", "reregistrations"],
            self.overview
                .timeline
                .months
                .iter()
                .map(|m| {
                    vec![
                        m.month.clone(),
                        m.registrations.to_string(),
                        m.expirations.to_string(),
                        m.reregistrations.to_string(),
                    ]
                })
                .collect(),
        );

        // Fig 3.
        push(
            "fig3_delays.csv",
            &["delay_days"],
            self.overview
                .delays
                .delays_days
                .iter()
                .map(|d| vec![format!("{d:.3}")])
                .collect(),
        );

        // Fig 4.
        push(
            "fig4_domain_frequency.csv",
            &["reregistration_count", "domains"],
            self.overview
                .domain_frequency
                .frequency
                .iter()
                .map(|(k, v)| vec![k.to_string(), v.to_string()])
                .collect(),
        );

        // Fig 5.
        push(
            "fig5_catchers.csv",
            &["address", "catches"],
            self.overview
                .catchers
                .counts_desc
                .iter()
                .map(|(a, c)| vec![a.to_hex(), c.to_string()])
                .collect(),
        );

        // Table 1.
        push(
            "table1_features.csv",
            &[
                "feature",
                "kind",
                "rereg_value",
                "control_value",
                "statistic",
                "p_value",
            ],
            self.features
                .rows
                .iter()
                .map(|row| match row {
                    FeatureRow::Numeric {
                        name,
                        mean_rereg,
                        mean_control,
                        test,
                    } => vec![
                        name.clone(),
                        "numeric".into(),
                        format!("{mean_rereg:.4}"),
                        format!("{mean_control:.4}"),
                        test.map_or(String::new(), |t| format!("{:.4}", t.statistic)),
                        test.map_or(String::new(), |t| format!("{:.6e}", t.p_value)),
                    ],
                    FeatureRow::Categorical {
                        name,
                        frac_rereg,
                        frac_control,
                        test,
                        ..
                    } => vec![
                        name.clone(),
                        "categorical".into(),
                        format!("{frac_rereg:.6}"),
                        format!("{frac_control:.6}"),
                        test.map_or(String::new(), |t| format!("{:.4}", t.statistic)),
                        test.map_or(String::new(), |t| format!("{:.6e}", t.p_value)),
                    ],
                })
                .collect(),
        );

        // Fig 6: income samples per group.
        let mut fig6 = Vec::new();
        for v in self.features.income_rereg.values() {
            fig6.push(vec!["reregistered".to_string(), format!("{v:.2}")]);
        }
        for v in self.features.income_control.values() {
            fig6.push(vec!["control".to_string(), format!("{v:.2}")]);
        }
        push("fig6_income.csv", &["group", "income_usd"], fig6);

        // Fig 7.
        push(
            "fig7_hijackable.csv",
            &["usd"],
            self.losses
                .hijackable
                .usd_per_domain
                .iter()
                .map(|v| vec![format!("{v:.2}")])
                .collect(),
        );

        // Fig 8.
        push(
            "fig8_misdirected.csv",
            &["domain", "usd"],
            self.losses
                .findings
                .iter()
                .filter(|f| f.misdirected_usd() > 0.0)
                .map(|f| {
                    vec![
                        f.name.clone().unwrap_or_else(|| f.label_hash.to_hex()),
                        format!("{:.2}", f.misdirected_usd()),
                    ]
                })
                .collect(),
        );

        // Figs 9 and 11.
        for (filename, scatter) in [
            ("fig9_scatter.csv", self.losses.fig9_scatter()),
            (
                "fig11_scatter_noncustodial.csv",
                self.losses.fig11_scatter(),
            ),
        ] {
            push(
                filename,
                &["txs_to_prev_owner", "txs_to_new_owner", "sender_kind"],
                scatter
                    .iter()
                    .map(|p| {
                        vec![
                            p.to_prev.to_string(),
                            p.to_new.to_string(),
                            format!("{:?}", p.kind),
                        ]
                    })
                    .collect(),
            );
        }

        // Fig 10.
        push(
            "fig10_profit.csv",
            &["catcher", "spent_usd", "misdirected_income_usd"],
            self.losses
                .fig10_profit()
                .iter()
                .map(|(a, s, i)| vec![a.to_hex(), format!("{s:.2}"), format!("{i:.2}")])
                .collect(),
        );

        // Table 2.
        push(
            "table2_wallets.csv",
            &["wallet", "version", "displays_warning"],
            self.countermeasures
                .table2
                .iter()
                .map(|r| {
                    vec![
                        r.wallet.clone(),
                        r.version.clone(),
                        r.displays_warning.to_string(),
                    ]
                })
                .collect(),
        );

        // Countermeasure policy outcomes (the extension).
        let pol = |name: &str, o: &crate::countermeasures::PolicyOutcome| {
            vec![
                name.to_string(),
                format!("{:.6}", o.interception_rate()),
                format!("{:.6}", o.annoyance_rate()),
                o.flagged_txs.to_string(),
                o.misdirected_txs.to_string(),
                o.false_positive_txs.to_string(),
                o.legit_txs.to_string(),
            ]
        };
        push(
            "countermeasure_policies.csv",
            &[
                "policy",
                "interception_rate",
                "annoyance_rate",
                "flagged_txs",
                "misdirected_txs",
                "false_positive_txs",
                "legit_txs",
            ],
            vec![
                pol("naive_freshness", &self.countermeasures.risk_policy),
                pol("history_aware_rereg", &self.countermeasures.rereg_policy),
                pol("reverse_record", &self.countermeasures.reverse_policy),
                pol("combined", &self.countermeasures.combined_policy),
            ],
        );

        out
    }

    /// Writes the CSV bundle into a directory (created if missing).
    pub fn write_csv_bundle(&self, dir: &std::path::Path) -> std::io::Result<Vec<String>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for artifact in self.csv_bundle() {
            let path = dir.join(&artifact.filename);
            std::fs::write(&path, &artifact.contents)?;
            written.push(artifact.filename);
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DataSources;
    use crate::pipeline::{run_study, StudyConfig};
    use ens_subgraph::SubgraphConfig;
    use workload::WorldConfig;

    fn study() -> StudyReport {
        let world = WorldConfig::small().with_seed(13).build();
        let sg = world.subgraph(SubgraphConfig::default());
        let scan = world.etherscan();
        let sources = DataSources {
            subgraph: &sg,
            etherscan: &scan,
            opensea: world.opensea(),
            observation_end: world.observation_end(),
            crawl: Default::default(),
        };
        run_study(
            &sources,
            world.oracle(),
            &StudyConfig::default(),
            &Metrics::disabled(),
        )
        .unwrap()
    }

    #[test]
    fn bundle_contains_every_artifact_with_headers() {
        let report = study();
        let bundle = report.csv_bundle();
        let names: Vec<&str> = bundle.iter().map(|a| a.filename.as_str()).collect();
        for expected in [
            "fig2_timeline.csv",
            "fig3_delays.csv",
            "fig4_domain_frequency.csv",
            "fig5_catchers.csv",
            "table1_features.csv",
            "fig6_income.csv",
            "fig7_hijackable.csv",
            "fig8_misdirected.csv",
            "fig9_scatter.csv",
            "fig10_profit.csv",
            "fig11_scatter_noncustodial.csv",
            "table2_wallets.csv",
            "countermeasure_policies.csv",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        for artifact in &bundle {
            let mut lines = artifact.contents.lines();
            let header = lines.next().expect("header row");
            assert!(!header.is_empty(), "{} missing header", artifact.filename);
            // Every row has the same number of commas as the header
            // (fields are quote-escaped, and none embed commas here).
            let cols = header.matches(',').count();
            for line in lines {
                assert_eq!(
                    line.matches(',').count(),
                    cols,
                    "{}: ragged row {line}",
                    artifact.filename
                );
            }
        }
    }

    #[test]
    fn write_bundle_creates_files() {
        let report = study();
        let dir = std::env::temp_dir().join(format!("ens-dropcatch-csv-{}", std::process::id()));
        let written = report.write_csv_bundle(&dir).expect("writes");
        assert_eq!(written.len(), 13);
        for name in &written {
            let path = dir.join(name);
            assert!(path.exists(), "{name} not written");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn table1_csv_round_trips_pvalues() {
        let report = study();
        let bundle = report.csv_bundle();
        let table1 = bundle
            .iter()
            .find(|a| a.filename == "table1_features.csv")
            .unwrap();
        // 12 features + header.
        assert_eq!(table1.contents.lines().count(), 13);
        // Income row should carry a tiny p-value in scientific notation.
        let income_line = table1
            .contents
            .lines()
            .find(|l| l.starts_with("average_income_USD"))
            .unwrap();
        assert!(
            income_line.contains('e'),
            "p-value not scientific: {income_line}"
        );
    }
}
