//! The daemon's headline guarantees, exercised end to end over real
//! sockets: every reply is byte-identical at any worker count (and equal
//! to the in-process reference), graceful shutdown completes in-flight
//! requests before closing the listener, and adversarial inputs come
//! back as typed error replies — never a panic, never a hung worker.
//!
//! The dataset under test is chaos-degraded (collected with the `mixed`
//! fault profile riding a `degrade` policy), so the equivalence gate
//! also covers the gap-bearing shapes a real resumed crawl produces.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use ens_dropcatch::{CrawlConfig, Dataset, FailurePolicy, QueryError};
use ens_serve::http::Server;
use ens_serve::{Request, ServeHandle, ServeState};
use ens_subgraph::SubgraphConfig;
use ens_types::FaultProfile;
use workload::WorldConfig;

/// A chaos-degraded dataset: gaps and lost items included.
fn degraded_dataset() -> Dataset {
    let world = WorldConfig::small().with_names(300).with_seed(77).build();
    let sg = world.subgraph(SubgraphConfig::default());
    let scan = world.etherscan();
    let config = CrawlConfig {
        chaos: Some(FaultProfile::named("mixed", 4242).expect("mixed is a named profile")),
        failure: FailurePolicy::degrade(),
        subgraph_page_size: 32,
        txlist_page_size: 16,
        market_page_size: 8,
        ..CrawlConfig::with_threads(2)
    };
    let (ds, _) = Dataset::try_collect_with(
        &sg,
        &scan,
        world.opensea(),
        world.observation_end(),
        &config,
    )
    .expect("degrade policy completes under chaos");
    ds
}

fn shared_state() -> Arc<ServeState> {
    static STATE: OnceLock<Arc<ServeState>> = OnceLock::new();
    Arc::clone(STATE.get_or_init(|| Arc::new(ServeState::build(degraded_dataset(), 2))))
}

/// A request mix touching every endpoint, both hit and miss paths.
fn request_targets(state: &ServeState) -> Vec<String> {
    let mut targets = Vec::new();
    let names: Vec<String> = state
        .dataset
        .domains
        .iter()
        .filter_map(|d| d.name.as_ref().map(|n| n.to_full()))
        .take(40)
        .collect();
    for name in &names {
        targets.push(format!("/name-risk?name={name}"));
    }
    let end = state.dataset.observation_end.0;
    for (i, addr) in state.dataset.transactions.keys().take(40).enumerate() {
        let hex = addr.to_hex();
        match i % 3 {
            0 => targets.push(format!("/address-forensics?address={hex}")),
            1 => targets.push(format!(
                "/address-forensics?address={hex}&from=0&to={}",
                end / 2
            )),
            _ => targets.push(format!("/address-forensics?address={hex}&from={}", end / 2)),
        }
        targets.push(format!("/loss-findings?victim={hex}"));
    }
    for r in state.index.reregistrations().iter().take(20) {
        targets.push(format!("/loss-findings?victim={}", r.prev_wallet.to_hex()));
    }
    for section in ens_dropcatch::REPORT_SECTIONS {
        targets.push(format!("/report-slice?section={section}"));
    }
    // Error paths are replies too — the gate covers their bytes as well.
    targets.push("/name-risk?name=definitely-not-crawled".to_string());
    targets.push("/name-risk?name=bad!name".to_string());
    targets.push("/address-forensics?address=0x1234".to_string());
    targets.push("/address-forensics?address=0xdeadbeef&from=9&to=5".to_string());
    targets.push("/report-slice?section=appendix-z".to_string());
    targets.push("/healthz".to_string());
    targets
}

/// Minimal HTTP client: one GET, returns (status, body).
fn http_get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: test\r\n\r\n").expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    parse_response(&raw)
}

fn parse_response(raw: &str) -> (u16, String) {
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .expect("header/body split");
    (status, body)
}

/// The in-process reference: what any transport must reproduce.
fn reference_replies(handle: &ServeHandle, targets: &[String]) -> Vec<(u16, String)> {
    targets
        .iter()
        .map(|t| {
            if t == "/healthz" {
                return (200, "{\"ok\": true}".to_string());
            }
            match Request::from_target(t).and_then(|req| handle.query(&req)) {
                Ok(body) => (200, body),
                Err(e) => {
                    let status = if e.is_not_found() { 404 } else { 400 };
                    (status, ServeHandle::error_body(&e))
                }
            }
        })
        .collect()
}

#[test]
fn replies_are_byte_identical_across_worker_counts() {
    let state = shared_state();
    let handle = ServeHandle::new(Arc::clone(&state));
    let targets = request_targets(&state);
    assert!(targets.len() > 100, "mix covers every endpoint");
    let reference = reference_replies(&handle, &targets);

    for workers in [1, 2, 8] {
        let server = Server::start(handle.clone(), "127.0.0.1:0", workers).expect("bind");
        let addr = server.local_addr();
        // Hit the server from several client threads at once so the
        // worker pool actually interleaves under the multi-worker runs.
        let replies: Vec<(usize, u16, String)> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (chunk_start, chunk) in targets.chunks(27).enumerate().map(|(i, c)| (i * 27, c)) {
                handles.push(scope.spawn(move || {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(j, t)| {
                            let (status, body) = http_get(addr, t);
                            (chunk_start + j, status, body)
                        })
                        .collect::<Vec<_>>()
                }));
            }
            let mut all: Vec<(usize, u16, String)> = handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            all.sort_by_key(|(i, _, _)| *i);
            all
        });
        for (i, status, body) in replies {
            assert_eq!(
                (status, body.as_str()),
                (reference[i].0, reference[i].1.as_str()),
                "reply for {} diverges at {workers} workers",
                targets[i]
            );
        }
        server.shutdown();
    }
}

#[test]
fn graceful_shutdown_completes_in_flight_requests_then_closes() {
    let state = shared_state();
    let handle = ServeHandle::new(Arc::clone(&state));
    let server = Server::start(handle.clone(), "127.0.0.1:0", 2).expect("bind");
    let addr = server.local_addr();

    // Park a request mid-flight: the worker has accepted the connection
    // and is blocked reading the (still unterminated) head.
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET /report-slice?section=crawl HTTP/1.1\r\nHost: t\r\n"
    )
    .expect("send head");
    std::thread::sleep(std::time::Duration::from_millis(100));

    // Shutdown from another thread — it must wait for the in-flight
    // request rather than killing it.
    let shutdown = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(std::time::Duration::from_millis(100));
    assert!(
        !shutdown.is_finished(),
        "shutdown waits for the in-flight request"
    );

    // Finish the request: the reply must come back complete and correct.
    write!(stream, "\r\n").expect("finish head");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read reply");
    let (status, body) = parse_response(&raw);
    assert_eq!(status, 200);
    assert_eq!(
        body,
        handle
            .query(&Request::ReportSlice {
                section: "crawl".into()
            })
            .expect("crawl slice")
    );

    shutdown.join().expect("shutdown completes");
    // The listener is gone: new connections are refused (or reset
    // before a reply on platforms that complete the TCP handshake).
    let refused = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(mut s) => {
            let _ = write!(s, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
            let mut out = String::new();
            matches!(s.read_to_string(&mut out), Ok(0)) || out.is_empty()
        }
    };
    assert!(refused, "listener closed after shutdown");
}

#[test]
fn an_unterminated_request_head_is_cut_off_at_16_kib() {
    // A client that never sends a newline must get its 400 once the head
    // passes the cap, not once the read timeout fires. Exactly cap + 1
    // bytes are sent, so the server reads everything it was sent and its
    // close cannot reset the reply; the socket stays open meanwhile.
    let ds = Dataset {
        observation_end: ens_types::Timestamp(1_000_000),
        ..Dataset::default()
    };
    let handle = ServeHandle::new(Arc::new(ServeState::build(ds, 1)));
    let server = Server::start(handle, "127.0.0.1:0", 1).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set read timeout");
    let start = Instant::now();
    stream.write_all(&[b'a'; 16 * 1024 + 1]).expect("send");
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .expect("a reply before the client's read timeout");
    let elapsed = start.elapsed();
    let (status, body) = parse_response(&raw);
    assert_eq!(status, 400);
    assert!(body.contains("request head exceeds 16 KiB"), "{body}");
    assert!(
        elapsed < Duration::from_secs(2),
        "answered after {elapsed:?}"
    );
    server.shutdown();
}

#[test]
fn empty_dataset_serves_typed_errors_not_panics() {
    // An empty dataset: no domains, no transactions, no catches. Every
    // query must still answer.
    let ds = Dataset {
        observation_end: ens_types::Timestamp(1_000_000),
        ..Dataset::default()
    };
    let handle = ServeHandle::new(Arc::new(ServeState::build(ds, 1)));

    assert!(matches!(
        handle.query(&Request::NameRisk {
            name: "gold.eth".into()
        }),
        Err(QueryError::UnknownName(_))
    ));
    let zero_addr = ens_types::Address::derive(b"nobody");
    let forensics = handle
        .query(&Request::AddressForensics {
            address: zero_addr.to_hex(),
            from: None,
            to: None,
        })
        .expect("no-history forensics succeeds");
    assert!(forensics.contains("\"transfers\": 0"));
    let losses = handle
        .query(&Request::LossFindings {
            victim: zero_addr.to_hex(),
        })
        .expect("no-loss victim succeeds");
    assert!(losses.contains("\"findings\": []"));
    for section in ens_dropcatch::REPORT_SECTIONS {
        handle
            .query(&Request::ReportSlice {
                section: section.to_string(),
            })
            .unwrap_or_else(|e| panic!("empty-dataset {section} slice fails: {e}"));
    }
}

mod fuzz {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary query parameters never panic a worker: every
        /// outcome is a reply body or a typed [`QueryError`].
        #[test]
        fn adversarial_queries_return_typed_results(
            name in junk(40),
            address in junk(48),
            victim in proptest::string::string_regex("[0x]{0,2}[0-9a-fA-F]{0,44}").unwrap(),
            section in proptest::string::string_regex("[a-z-]{0,20}").unwrap(),
            raw_from in any::<u64>(),
            raw_to in any::<u64>(),
            use_from in any::<bool>(),
            use_to in any::<bool>(),
        ) {
            let from = use_from.then_some(raw_from);
            let to = use_to.then_some(raw_to);
            let handle = ServeHandle::new(shared_state());
            let requests = [
                Request::NameRisk { name },
                Request::AddressForensics { address, from, to },
                Request::LossFindings { victim },
                Request::ReportSlice { section },
            ];
            for req in requests {
                // The assertion is completion itself (no panic, no
                // hang); errors must be typed.
                if let Err(e) = handle.query(&req) {
                    prop_assert!(!e.kind().is_empty());
                }
            }
        }

        /// Arbitrary request targets (the raw HTTP surface) parse or
        /// fail as typed bad requests — never a panic.
        #[test]
        fn adversarial_targets_never_panic(target in junk(80)) {
            let _ = Request::from_target(&target);
        }
    }

    /// Adversarial strings: ASCII junk (separators, escapes, percent
    /// signs) mixed with a few non-ASCII code points.
    fn junk(max: usize) -> impl Strategy<Value = String> {
        let pattern = format!("[a-zA-Z0-9 .?&=%+/\\\\\\-_#@!~\\{{\\}}\"'éλ✓\u{7f}]{{0,{max}}}");
        proptest::string::string_regex(&pattern).expect("junk pattern parses")
    }
}
