//! The `serve` workload's request mix and its in-process reference answers.
//!
//! The mix is `serve_bench`'s: about 50% name-risk, 25% address-forensics
//! (a quarter of them with an inverted window, a typed 400), 15%
//! loss-findings and 10% report-slice, each pool drawn Zipf(s = 1) by
//! position, with about 2% unknown names and addresses, 10% no-loss
//! victims and one unknown report section in seven. Everything derives
//! from the seed, so the same seed gives the same targets.

use ens_dropcatch::REPORT_SECTIONS;
use ens_serve::{Request, ServeHandle, ServeState};

/// Every `SAMPLE_EVERY`-th request keeps its reply verbatim for an exact
/// comparison on top of the per-request hash.
pub const SAMPLE_EVERY: usize = 1000;

/// The four query types, in the order the mix draws them.
pub const QUERY_TYPES: [&str; 4] = [
    "name-risk",
    "address-forensics",
    "loss-findings",
    "report-slice",
];

/// FNV-1a, the hash replies are compared by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The status and body the HTTP transport sends for a `GET target`: the
/// same parse and query the daemon runs, with its status mapping.
pub fn answer(handle: &ServeHandle, target: &str) -> (u16, String) {
    match Request::from_target(target).and_then(|request| handle.query(&request)) {
        Ok(body) => (200, body),
        Err(e) => (
            if e.is_not_found() { 404 } else { 400 },
            ServeHandle::error_body(&e),
        ),
    }
}

/// The query type of a target, as an index into [`QUERY_TYPES`].
pub fn query_type(target: &str) -> Option<usize> {
    let path = target.split('?').next()?.trim_start_matches('/');
    QUERY_TYPES.iter().position(|t| *t == path)
}

/// splitmix64: a small seeded generator, so the mix depends on nothing
/// but the seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// Zipf(s = 1) over `n` positions: rank `r` has weight `1 / (r + 1)`.
struct Zipf(Vec<f64>);

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut total = 0.0;
        Zipf(
            (0..n)
                .map(|rank| {
                    total += 1.0 / (rank + 1) as f64;
                    total
                })
                .collect(),
        )
    }

    /// `None` over an empty pool.
    fn sample(&self, rng: &mut SplitMix) -> Option<usize> {
        let total = *self.0.last()?;
        let u = rng.unit() * total;
        Some(self.0.partition_point(|&c| c <= u).min(self.0.len() - 1))
    }
}

/// Percent-encodes everything but RFC 3986 unreserved characters.
fn encode(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for &b in value.as_bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

const UNKNOWN_ADDRESS: &str = "0x00000000000000000000000000000000000000aa";
const NO_LOSS_VICTIM: &str = "0x00000000000000000000000000000000000000bb";

/// `count` request targets over the resident state's names, crawled
/// addresses and loss victims.
pub fn mix(state: &ServeState, seed: u64, count: usize) -> Vec<String> {
    let names: Vec<String> = state
        .dataset
        .domains
        .iter()
        .filter_map(|d| d.name.as_ref().map(|n| n.to_full()))
        .collect();
    let addrs: Vec<String> = state.dataset.transactions.keys().map(|a| a.to_hex()).collect();
    let victims: Vec<String> = state
        .index
        .reregistrations()
        .iter()
        .map(|r| r.prev_wallet.to_hex())
        .collect();
    let end = state.dataset.observation_end.0;
    let mid = end / 2;
    let (name_zipf, addr_zipf) = (Zipf::new(names.len()), Zipf::new(addrs.len()));
    let mut rng = SplitMix(seed ^ 0x5e7e_be4c);
    (0..count)
        .map(|_| {
            let roll = rng.unit();
            if roll < 0.50 {
                let name = match name_zipf.sample(&mut rng) {
                    Some(i) if rng.unit() >= 0.02 => encode(&names[i]),
                    _ => format!("never-crawled-{}.eth", rng.below(1000)),
                };
                format!("/name-risk?name={name}")
            } else if roll < 0.75 {
                let address = match addr_zipf.sample(&mut rng) {
                    Some(i) if rng.unit() >= 0.02 => addrs[i].as_str(),
                    _ => UNKNOWN_ADDRESS,
                };
                let window = match rng.below(4) {
                    0 => String::new(),
                    1 => format!("&from=0&to={mid}"),
                    2 => format!("&from={mid}&to={end}"),
                    _ => format!("&from={end}&to={mid}"),
                };
                format!("/address-forensics?address={address}{window}")
            } else if roll < 0.90 {
                let victim = if victims.is_empty() || rng.unit() < 0.10 {
                    NO_LOSS_VICTIM
                } else {
                    victims[rng.below(victims.len())].as_str()
                };
                format!("/loss-findings?victim={victim}")
            } else {
                let section = REPORT_SECTIONS.get(rng.below(7)).copied().unwrap_or("appendix-z");
                format!("/report-slice?section={section}")
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(100);
        let mut rng = SplitMix(7);
        let draws: Vec<usize> = (0..10_000).map(|_| zipf.sample(&mut rng).unwrap()).collect();
        assert!(draws.iter().all(|&d| d < 100));
        let first = draws.iter().filter(|&&d| d == 0).count();
        let last = draws.iter().filter(|&&d| d == 99).count();
        assert!(first > 10 * last, "rank 0 drawn {first}x, rank 99 {last}x");
        assert_eq!(Zipf::new(0).sample(&mut rng), None);
    }

    #[test]
    fn targets_are_typed_and_encoded() {
        assert_eq!(query_type("/loss-findings?victim=0x1"), Some(2));
        assert_eq!(query_type("/healthz"), None);
        assert_eq!(encode("gold eth/ü"), "gold%20eth%2F%C3%BC");
    }
}
