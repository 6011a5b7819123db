//! Closed-loop HTTP/1.1 load generator for the `serve` workload.
//!
//! ```text
//! perfbench-loadgen --addr 127.0.0.1:PORT --targets FILE --seconds S
//!     [--start 0] --out RECORDS --samples SAMPLES
//! ```
//!
//! [`CONNECTIONS`] client threads each send one request, read the whole
//! reply, and only then send the next, until `--seconds` have passed. They
//! take request indices from one shared counter starting at `--start`;
//! request `i` asks for line `i mod n` of `--targets`. A connection is
//! reused only when the reply does not carry `Connection: close`, so the
//! client opens a new connection exactly when the server asks it to.
//!
//! Latency runs from just before connecting (or writing, on a reused
//! connection) to the last byte of the reply body.
//!
//! `--out` receives one 20-byte little-endian record per request, in
//! request order: status `u16` (0 = transport error), new-connection flag
//! `u16`, latency in ns `u32`, body length `u32`, FNV-1a of the body `u64`.
//! Bodies of requests whose index is a multiple of [`SAMPLE_EVERY`] go to
//! `--samples` as index `u64`, status `u16`, length `u32`, then the bytes.
//! A one-line JSON summary goes to stdout.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop clients, one connection each: the load is sized for two cores.
const CONNECTIONS: usize = 2;

/// The reference's sampling step, `perfbench_reference::SAMPLE_EVERY`. The
/// load generator links no repository crate, so the value is repeated here
/// and a test keeps the two equal.
const SAMPLE_EVERY: usize = 1000;

struct Args {
    addr: SocketAddr,
    targets: String,
    seconds: f64,
    start: usize,
    out: String,
    samples: String,
}

fn parse_args() -> Result<Args, String> {
    let mut addr = None;
    let mut targets = None;
    let mut seconds = None;
    let mut start = 0;
    let mut out = None;
    let mut samples = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--addr" => addr = Some(value.parse().map_err(|_| bad())?),
            "--targets" => targets = Some(value),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--start" => start = value.parse().map_err(|_| bad())?,
            "--out" => out = Some(value),
            "--samples" => samples = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        addr: addr.ok_or("--addr is required")?,
        targets: targets.ok_or("--targets is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        start,
        out: out.ok_or("--out is required")?,
        samples: samples.ok_or("--samples is required")?,
    })
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One completed request; only sampled requests keep their body.
struct Record {
    index: usize,
    status: u16,
    new_connection: bool,
    latency_ns: u32,
    len: u32,
    hash: u64,
    sample: Option<Vec<u8>>,
}

/// Reads one response: status line, headers, then exactly `Content-Length`
/// body bytes (or up to EOF when the header is absent). Returns the status,
/// the body, and whether the server asked to close the connection.
fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<(u16, Vec<u8>, bool)> {
    let invalid = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(invalid("connection closed before the status line"));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| invalid("malformed status line"))?;
    let mut length = None;
    let mut close = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(invalid("connection closed inside the headers"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(value.parse::<usize>().map_err(|_| invalid("bad Content-Length"))?);
            } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
                close = true;
            }
        }
    }
    let mut body = Vec::new();
    match length {
        Some(n) => {
            body.resize(n, 0);
            reader.read_exact(&mut body)?;
        }
        None => {
            reader.read_to_end(&mut body)?;
            close = true;
        }
    }
    Ok((status, body, close))
}

/// Sends `target` on `conn` (connecting first if there is none) and reads
/// the reply; leaves `conn` empty when the connection must not be reused.
fn exchange(
    conn: &mut Option<BufReader<TcpStream>>,
    addr: SocketAddr,
    request: &[u8],
) -> std::io::Result<(u16, Vec<u8>)> {
    if conn.is_none() {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        *conn = Some(BufReader::new(stream));
    }
    let reader = conn.as_mut().expect("connection was just opened");
    let result = reader
        .get_mut()
        .write_all(request)
        .and_then(|()| read_response(reader));
    match result {
        Ok((status, body, close)) => {
            if close {
                *conn = None;
            }
            Ok((status, body))
        }
        Err(e) => {
            *conn = None;
            Err(e)
        }
    }
}

fn client(
    addr: SocketAddr,
    targets: &[String],
    next: &AtomicUsize,
    deadline: Instant,
) -> (Vec<Record>, usize) {
    let mut records = Vec::new();
    let mut opened = 0;
    let mut conn: Option<BufReader<TcpStream>> = None;
    while Instant::now() < deadline {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let target = &targets[index % targets.len()];
        let request = format!("GET {target} HTTP/1.1\r\nHost: {addr}\r\n\r\n");
        let new_connection = conn.is_none();
        opened += new_connection as usize;
        let t0 = Instant::now();
        let reply = exchange(&mut conn, addr, request.as_bytes());
        let latency_ns = u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX);
        let (status, body) = reply.unwrap_or((0, Vec::new()));
        records.push(Record {
            index,
            status,
            new_connection,
            latency_ns,
            len: body.len() as u32,
            hash: fnv1a(&body),
            sample: (index % SAMPLE_EVERY == 0).then_some(body),
        });
    }
    (records, opened)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-loadgen: {e}");
            return ExitCode::from(2);
        }
    };
    let targets: Vec<String> = match std::fs::read_to_string(&args.targets) {
        Ok(text) => text.lines().map(str::to_string).collect(),
        Err(e) => {
            eprintln!("perfbench-loadgen: cannot read {}: {e}", args.targets);
            return ExitCode::FAILURE;
        }
    };
    if targets.is_empty() {
        eprintln!("perfbench-loadgen: {} holds no targets", args.targets);
        return ExitCode::FAILURE;
    }
    let next = AtomicUsize::new(args.start);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(args.seconds);
    let (mut records, opened) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|_| scope.spawn(|| client(args.addr, &targets, &next, deadline)))
            .collect();
        let mut records = Vec::new();
        let mut opened = 0;
        for c in clients {
            let (r, o) = c.join().expect("client thread panicked");
            records.extend(r);
            opened += o;
        }
        (records, opened)
    });
    let seconds = t0.elapsed().as_secs_f64();
    records.sort_by_key(|r| r.index);

    let mut out = Vec::with_capacity(records.len() * 20);
    let mut samples = Vec::new();
    for r in &records {
        out.extend_from_slice(&r.status.to_le_bytes());
        out.extend_from_slice(&(r.new_connection as u16).to_le_bytes());
        out.extend_from_slice(&r.latency_ns.to_le_bytes());
        out.extend_from_slice(&r.len.to_le_bytes());
        out.extend_from_slice(&r.hash.to_le_bytes());
        if let Some(body) = &r.sample {
            samples.extend_from_slice(&(r.index as u64).to_le_bytes());
            samples.extend_from_slice(&r.status.to_le_bytes());
            samples.extend_from_slice(&r.len.to_le_bytes());
            samples.extend_from_slice(body);
        }
    }
    for (path, bytes) in [(&args.out, &out), (&args.samples, &samples)] {
        if let Err(e) = std::fs::write(path, bytes) {
            eprintln!("perfbench-loadgen: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{{\"start\": {}, \"count\": {}, \"seconds\": {seconds:.6}, \"connections_opened\": {opened}}}",
        args.start,
        records.len()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    #[test]
    fn samples_the_requests_the_reference_keeps() {
        assert_eq!(super::SAMPLE_EVERY, perfbench_reference::SAMPLE_EVERY);
    }

    #[test]
    fn hashes_replies_as_the_reference_does() {
        for body in [&b""[..], b"a", b"{\"ok\": true}"] {
            assert_eq!(super::fnv1a(body), perfbench_reference::fnv1a(body));
        }
    }
}
