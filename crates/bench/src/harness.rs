//! What every bench bin shares: one flag parser, one timer, one gate and
//! one report writer.
//!
//! A bin declares its flags with [`Flags`], each bound to the local it
//! fills, so `--help`, unknown flags, missing values and counts out of
//! range are handled here and rejected before any world is built. Timings
//! go through [`time_ms`] and [`best_of`], and reports through
//! [`write_report`], which stamps each one with the [`Envelope`] of the
//! run that wrote it.

use std::process::{exit, Command};
use std::str::FromStr;
use std::time::Instant;

use serde::value::Value;
use serde::Serialize;

/// Why [`Flags::parse`] stopped.
#[derive(Debug, PartialEq)]
pub enum ArgError {
    /// `--help` or `-h`: print the usage and exit 0.
    Help,
    /// A bad argument: print this message and the usage, exit 2.
    Bad(String),
}

type Setter<'a> = Box<dyn FnMut(&str, &str) -> Result<(), String> + 'a>;

enum Slot<'a> {
    Switch(&'a mut bool),
    Value(Setter<'a>),
}

/// A bin's flags, each bound to the variable its value goes into.
///
/// A flag is declared by its usage fragment, `"--names N"`: the first
/// word is the flag, the rest documents its value. Values stay at the
/// caller's defaults unless the flag is given.
pub struct Flags<'a> {
    bin: &'static str,
    slots: Vec<(&'static str, Slot<'a>)>,
}

fn flag_name(spec: &str) -> &str {
    spec.split_once(' ').map_or(spec, |(name, _)| name)
}

fn parse_value<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value {value:?} for {flag}"))
}

fn parse_count(flag: &str, value: &str, max: usize) -> Result<usize, String> {
    match parse_value(flag, value)? {
        0 => Err(format!("{flag} must be >= 1 (got 0)")),
        n if n > max => Err(format!("{flag} must be <= {max} (got {n})")),
        n => Ok(n),
    }
}

impl<'a> Flags<'a> {
    /// No flags yet; `bin` names the program in the usage line.
    pub fn new(bin: &'static str) -> Flags<'a> {
        Flags {
            bin,
            slots: Vec::new(),
        }
    }

    fn slot(mut self, spec: &'static str, slot: Slot<'a>) -> Flags<'a> {
        self.slots.push((spec, slot));
        self
    }

    /// A flag without a value that sets `target`.
    pub fn switch(self, spec: &'static str, target: &'a mut bool) -> Flags<'a> {
        self.slot(spec, Slot::Switch(target))
    }

    /// A flag whose value parses into `target`.
    pub fn value<T: FromStr>(self, spec: &'static str, target: &'a mut T) -> Flags<'a> {
        let set = move |flag: &str, v: &str| {
            *target = parse_value(flag, v)?;
            Ok(())
        };
        self.slot(spec, Slot::Value(Box::new(set)))
    }

    /// A flag whose value, when given, parses into `Some` in `target`.
    pub fn optional<T: FromStr>(self, spec: &'static str, target: &'a mut Option<T>) -> Flags<'a> {
        let set = move |flag: &str, v: &str| {
            *target = Some(parse_value(flag, v)?);
            Ok(())
        };
        self.slot(spec, Slot::Value(Box::new(set)))
    }

    /// A count: a whole number of at least 1.
    pub fn count(self, spec: &'static str, target: &'a mut usize) -> Flags<'a> {
        let set = move |flag: &str, v: &str| {
            *target = parse_count(flag, v, usize::MAX)?;
            Ok(())
        };
        self.slot(spec, Slot::Value(Box::new(set)))
    }

    /// A comma-separated list of counts, each at least 1.
    pub fn counts(self, spec: &'static str, target: &'a mut Vec<usize>) -> Flags<'a> {
        self.counts_up_to(spec, usize::MAX, target)
    }

    /// A comma-separated list of counts, each from 1 to `max`: a bin that
    /// starts one thread per unit rejects a count it could not start.
    pub fn counts_up_to(
        self,
        spec: &'static str,
        max: usize,
        target: &'a mut Vec<usize>,
    ) -> Flags<'a> {
        let set = move |flag: &str, v: &str| {
            *target = v
                .split(',')
                .map(|entry| parse_count(flag, entry, max))
                .collect::<Result<_, _>>()?;
            Ok(())
        };
        self.slot(spec, Slot::Value(Box::new(set)))
    }

    /// The one-line usage, built from the declared flags.
    pub fn usage(&self) -> String {
        let mut usage = format!("usage: {}", self.bin);
        for (spec, _) in &self.slots {
            usage.push_str(&format!(" [{spec}]"));
        }
        usage
    }

    /// Fills every declared flag's variable from `args` (the arguments
    /// after the program name).
    pub fn parse(mut self, args: impl IntoIterator<Item = String>) -> Result<(), ArgError> {
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Err(ArgError::Help);
            }
            let Some((_, slot)) = self
                .slots
                .iter_mut()
                .find(|(spec, _)| flag_name(spec) == arg)
            else {
                return Err(ArgError::Bad(format!("unknown argument {arg}")));
            };
            match slot {
                Slot::Switch(on) => **on = true,
                Slot::Value(set) => {
                    let value = args
                        .next()
                        .ok_or_else(|| ArgError::Bad(format!("{arg} needs a value")))?;
                    set(&arg, &value).map_err(ArgError::Bad)?;
                }
            }
        }
        Ok(())
    }

    /// [`Flags::parse`] over the process's own arguments: on `--help` it
    /// prints the usage and exits 0, on a bad argument it prints the
    /// error and the usage and exits 2.
    pub fn parse_env(self) {
        let usage = self.usage();
        match self.parse(std::env::args().skip(1)) {
            Ok(()) => {}
            Err(ArgError::Help) => {
                eprintln!("{usage}");
                exit(0);
            }
            Err(ArgError::Bad(message)) => {
                eprintln!("error: {message}\n{usage}");
                exit(2);
            }
        }
    }
}

/// Wall time of one call of `f`, in ms, with its result.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64() * 1e3, out)
}

/// Min wall time over `repeats` calls of `f`, in ms, with the last
/// result. Each call's predecessor is dropped before the clock starts:
/// tearing down a paper-scale index costs whole seconds, and that belongs
/// to the repeat that built it.
///
/// # Panics
///
/// If `repeats` is 0; [`Flags::count`] rejects a zero count.
pub fn best_of<R>(repeats: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..repeats {
        drop(out.take());
        let (ms, result) = time_ms(&mut f);
        best = best.min(ms);
        out = Some(result);
    }
    (best, out.expect("best_of needs at least one repeat"))
}

/// Prints a gate's verdict; a failed gate exits 1.
pub fn gate(passed: bool, verdict: &str) {
    if passed {
        eprintln!("{verdict}");
    } else {
        eprintln!("FAIL: {verdict}");
        exit(1);
    }
}

/// Cores this process may run on (1 when the host will not say).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The machine and build a report was measured on, under the key names
/// `perfbench` uses.
#[derive(Serialize)]
pub struct Envelope {
    /// Cores this process could run on ([`nproc`]).
    pub nproc: usize,
    /// `git rev-parse HEAD` in the working directory; null outside a
    /// checkout.
    pub git_rev: Option<String>,
    /// `rustc -V`; null when no `rustc` is on the path.
    pub rustc: Option<String>,
    /// The command line, program name first.
    pub argv: Vec<String>,
}

impl Envelope {
    /// The envelope of this process.
    pub fn current() -> Envelope {
        let output = |program: &str, args: &[&str]| {
            let out = Command::new(program).args(args).output().ok()?;
            let text = String::from_utf8(out.stdout).ok()?;
            out.status.success().then(|| text.trim().to_string())
        };
        Envelope {
            nproc: nproc(),
            git_rev: output("git", &["rev-parse", "HEAD"]),
            rustc: output("rustc", &["-V"]),
            argv: std::env::args().collect(),
        }
    }
}

fn to_value<T: Serialize + ?Sized>(x: &T) -> Value {
    let json = serde_json::to_string(x).expect("report serializes");
    serde_json::parse_value(&json).expect("serializer output parses")
}

/// `report` as indented JSON with `envelope` as its first key, ready for
/// disk.
///
/// # Panics
///
/// If `report` does not serialize to a JSON object.
fn report_json<T: Serialize>(report: &T, envelope: &Envelope) -> String {
    let Value::Map(mut fields) = to_value(report) else {
        panic!("a bench report serializes to a JSON object");
    };
    fields.insert(0, ("envelope".to_string(), to_value(envelope)));
    let compact = serde_json::to_string(&Value::Map(fields)).expect("report serializes");
    let mut json = indent_json(&compact);
    json.push('\n');
    json
}

/// Writes `report` with this process's [`Envelope`] to `out`, or to
/// stdout when no path is given.
pub fn write_report<T: Serialize>(report: &T, out: Option<&str>) {
    let json = report_json(report, &Envelope::current());
    match out {
        Some(path) => {
            std::fs::write(path, json).expect("write bench report");
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
}

/// Re-indents compact JSON (the vendored `serde_json` has no pretty
/// printer). String-aware, two-space indent.
fn indent_json(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    };
    for c in compact.chars() {
        if in_string {
            out.push(c);
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                depth += 1;
                newline(&mut out, depth);
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                newline(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, depth);
            }
            ':' => out.push_str(": "),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ens_dropcatch::MAX_WORKERS;

    #[test]
    fn flags_reject_bad_arguments_before_any_work() {
        let bad = |m: &str| Err(ArgError::Bad(m.to_string()));
        let cases: Vec<(&[&str], Result<(), ArgError>)> = vec![
            (
                &[
                    "--names",
                    "5",
                    "--scales",
                    "2,8",
                    "--legacy",
                    "--workers",
                    "1,64",
                ],
                Ok(()),
            ),
            (&["--bogus"], bad("unknown argument --bogus")),
            (&["--names"], bad("--names needs a value")),
            (&["--names", "0"], bad("--names must be >= 1 (got 0)")),
            (&["--names", "-3"], bad("bad value \"-3\" for --names")),
            (&["--scales", "1,x"], bad("bad value \"x\" for --scales")),
            (&["--scales", "4,0"], bad("--scales must be >= 1 (got 0)")),
            (&["--scales", ""], bad("bad value \"\" for --scales")),
            (
                &["--workers", "1,65"],
                bad("--workers must be <= 64 (got 65)"),
            ),
            (
                &["--workers", "100000"],
                bad("--workers must be <= 64 (got 100000)"),
            ),
            (
                &["--out", "r.json", "--help", "--bogus"],
                Err(ArgError::Help),
            ),
            (&["-h"], Err(ArgError::Help)),
        ];
        for (argv, want) in cases {
            let (mut names, mut scales, mut legacy, mut out) = (300, vec![1], false, None);
            let mut workers = vec![1];
            let flags = Flags::new("t")
                .count("--names N", &mut names)
                .counts("--scales 1,4,16", &mut scales)
                .counts_up_to("--workers 1,2,8", MAX_WORKERS, &mut workers)
                .switch("--legacy", &mut legacy)
                .optional::<String>("--out PATH", &mut out);
            assert_eq!(
                flags.usage(),
                "usage: t [--names N] [--scales 1,4,16] [--workers 1,2,8] [--legacy] [--out PATH]"
            );
            let got = flags.parse(argv.iter().map(|a| a.to_string()));
            assert_eq!(got, want, "{argv:?}");
            if got.is_ok() {
                assert_eq!(
                    (names, scales, workers, legacy, out),
                    (5, vec![2, 8], vec![1, 64], true, None)
                );
            }
        }
    }

    #[test]
    fn report_json_leads_with_the_envelope() {
        #[derive(Serialize)]
        struct Report {
            runs: Vec<f64>,
            ok: bool,
        }
        let envelope = Envelope {
            nproc: 2,
            git_rev: None,
            rustc: Some("rustc 1.0".to_string()),
            argv: vec!["bench".to_string(), "--x".to_string()],
        };
        let report = Report {
            runs: vec![1.5],
            ok: true,
        };
        assert_eq!(
            report_json(&report, &envelope),
            "{\n  \"envelope\": {\n    \"nproc\": 2,\n    \"git_rev\": null,\n    \
             \"rustc\": \"rustc 1.0\",\n    \"argv\": [\n      \"bench\",\n      \"--x\"\n    \
             ]\n  },\n  \"runs\": [\n    1.5\n  ],\n  \"ok\": true\n}\n"
        );
    }
}
