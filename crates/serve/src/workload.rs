//! Seeded open-loop traffic generation: merged Poisson arrivals,
//! zipfian key popularity, and a read/write mix.
//!
//! Everything here is built on the workspace's only PRNG
//! ([`SimRng`], xoshiro256** — hermetic, no external crates) and is
//! deterministic per seed: the determinism locks assert two
//! same-seed streams are byte-identical and distinct seeds diverge.
//!
//! The "thousands of simulated clients" are not simulated one by one.
//! The superposition of `k` independent Poisson processes of rate `λ`
//! is itself a Poisson process of rate `k·λ`, so the generator draws
//! from the *merged* stream directly — per-arrival cost is O(1)
//! regardless of the client population.

use std::sync::{Arc, Mutex, PoisonError};

use unr_simnet::SimRng;

/// SplitMix64 finalizer — used to decorrelate per-rank seeds and to
/// spread zipf key ids over the placement space.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Exponential inter-arrival gaps of a merged Poisson process.
pub struct PoissonGaps {
    rng: SimRng,
    mean_ns: f64,
}

impl PoissonGaps {
    /// A gap stream with the given mean inter-arrival time (ns).
    pub fn new(seed: u64, mean_ns: f64) -> PoissonGaps {
        assert!(mean_ns > 0.0, "mean inter-arrival must be positive");
        PoissonGaps {
            rng: SimRng::seed_from_u64(seed),
            mean_ns,
        }
    }

    /// Next inter-arrival gap in ns (>= 1: merged arrival streams never
    /// produce two requests at the same instant, which keeps virtual
    /// timestamps strictly ordered).
    pub fn next_gap(&mut self) -> u64 {
        let u = self.rng.gen_f64();
        // Inverse-CDF sample of Exp(1/mean): -ln(1-u) * mean, u in [0,1).
        let gap = -(1.0 - u).ln() * self.mean_ns;
        (gap as u64).max(1)
    }
}

/// Zipfian key sampler over `0..keys` with exponent `s`.
///
/// Implemented as an inverse-CDF table (one `f64` per key) with binary
/// search per draw — exact, allocation-free after construction, and
/// deterministic. Key id 0 is the most popular.
///
/// The table depends on `(keys, s)` alone, so it is built once per
/// process and shared: a one-slot memo keyed by `(keys, s.to_bits())`
/// hands every sampler of the same shape the same [`Arc`] — every rank
/// of every world in the process — and a different shape replaces it.
/// The memo holds at most one table, `8 × keys` bytes (128 KiB at the
/// default 16 384 keys), for the life of the process.
pub struct ZipfKeys {
    rng: SimRng,
    cdf: Arc<[f64]>,
}

/// A table's key: `(keys, s.to_bits())`.
type Shape = (u64, u64);

/// The last table built in this process, with the shape it was built
/// for.
static CDF_MEMO: Mutex<Option<(Shape, Arc<[f64]>)>> = Mutex::new(None);

/// The normalized cumulative distribution of zipf(`s`) over `0..keys`,
/// from [`CDF_MEMO`] when the last table built was for this shape.
fn zipf_cdf(keys: u64, s: f64) -> Arc<[f64]> {
    let shape = (keys, s.to_bits());
    // Nothing under the lock can panic half-way through an update.
    let mut memo = CDF_MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((at, cdf)) = &*memo {
        if *at == shape {
            return Arc::clone(cdf);
        }
    }
    let mut acc = 0.0f64;
    // One allocation: a `Range` is exactly sized, so this collects in
    // place, and the table is still unshared for the normalizing pass.
    let mut cdf: Arc<[f64]> = (0..keys)
        .map(|i| {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            acc
        })
        .collect();
    let fresh = Arc::get_mut(&mut cdf).expect("a table nobody else holds yet");
    for c in fresh.iter_mut() {
        *c /= acc;
    }
    *memo = Some((shape, Arc::clone(&cdf)));
    cdf
}

impl ZipfKeys {
    /// A key stream over `0..keys` with skew `s` (`0.0` = uniform).
    pub fn new(seed: u64, keys: u64, s: f64) -> ZipfKeys {
        assert!(keys > 0, "keyspace must be non-empty");
        ZipfKeys {
            rng: SimRng::seed_from_u64(seed),
            cdf: zipf_cdf(keys, s),
        }
    }

    /// The cumulative probability table: entry `k` is the probability
    /// of a key id `<= k`. Samplers of one `(keys, s)` share it.
    pub fn cdf(&self) -> &Arc<[f64]> {
        &self.cdf
    }

    /// Next key id.
    pub fn next_key(&mut self) -> u64 {
        let u = self.rng.gen_f64();
        // First index whose cumulative probability covers u.
        self.cdf.partition_point(|&c| c < u) as u64
    }

    /// The theoretical probability of key id `k`.
    pub fn prob(&self, k: u64) -> f64 {
        let k = k as usize;
        let lo = if k == 0 { 0.0 } else { self.cdf[k - 1] };
        self.cdf[k] - lo
    }
}

/// What a client asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Read one key.
    Get,
    /// Replicated write of one key.
    Put,
}

/// One open-loop arrival: *when* the request hits the frontend (an
/// absolute offset from the run start — the latency clock starts here,
/// so queueing delay under overload is measured, not hidden) and what
/// it asks for.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Scheduled arrival time, ns from run start.
    pub at_ns: u64,
    /// Request kind.
    pub kind: OpKind,
    /// Key id in `0..keys`.
    pub key: u64,
}

/// The merged client population of one rank: Poisson arrivals, zipf
/// keys, and the read/write coin, each on an independent substream so
/// the marginals stay clean.
pub struct ClientGen {
    gaps: PoissonGaps,
    keys: ZipfKeys,
    mix: SimRng,
    read_frac: f64,
    clock_ns: u64,
}

impl ClientGen {
    /// A generator for `clients` simulated clients with mean per-client
    /// think time `mean_think_ns`, keyspace `keys` at skew `zipf_s`,
    /// and `read_frac` GETs.
    pub fn new(
        seed: u64,
        clients: usize,
        mean_think_ns: u64,
        keys: u64,
        zipf_s: f64,
        read_frac: f64,
    ) -> ClientGen {
        assert!(clients > 0, "need at least one client");
        let merged_mean = mean_think_ns as f64 / clients as f64;
        ClientGen {
            gaps: PoissonGaps::new(mix64(seed ^ 0xA111), merged_mean),
            keys: ZipfKeys::new(mix64(seed ^ 0xB222), keys, zipf_s),
            mix: SimRng::seed_from_u64(mix64(seed ^ 0xC333)),
            read_frac,
            clock_ns: 0,
        }
    }

    /// The key sampler, whose table is shared (see [`ZipfKeys`]).
    pub fn zipf(&self) -> &ZipfKeys {
        &self.keys
    }

    /// Next arrival (times are strictly increasing).
    pub fn next_arrival(&mut self) -> Arrival {
        self.clock_ns += self.gaps.next_gap();
        let kind = if self.mix.gen_f64() < self.read_frac {
            OpKind::Get
        } else {
            OpKind::Put
        };
        Arrival {
            at_ns: self.clock_ns,
            kind,
            key: self.keys.next_key(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, n: usize) -> Vec<(u64, u64, bool)> {
        let mut g = ClientGen::new(seed, 100, 1_000_000, 1024, 0.99, 0.8);
        (0..n)
            .map(|_| {
                let a = g.next_arrival();
                (a.at_ns, a.key, a.kind == OpKind::Get)
            })
            .collect()
    }

    /// Determinism lock: two same-seed streams are byte-identical and
    /// distinct seeds diverge (the satellite's exact contract).
    #[test]
    fn seeded_streams_are_reproducible_and_seed_sensitive() {
        for seed in [0u64, 7, 0x5eed] {
            assert_eq!(stream(seed, 2048), stream(seed, 2048), "seed {seed}");
        }
        assert_ne!(stream(1, 2048), stream(2, 2048), "seeds must matter");
    }

    #[test]
    fn poisson_gaps_match_the_configured_mean() {
        let mut p = PoissonGaps::new(42, 20_000.0);
        let n = 50_000usize;
        let total: u64 = (0..n).map(|_| p.next_gap()).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - 20_000.0).abs() < 600.0,
            "empirical mean {mean} vs 20000"
        );
    }

    #[test]
    fn poisson_gap_distribution_is_actually_exponential() {
        // The coefficient of variation of an exponential is 1; a
        // degenerate (constant-gap) stream would have ~0.
        let mut p = PoissonGaps::new(9, 10_000.0);
        let gaps: Vec<f64> = (0..20_000).map(|_| p.next_gap() as f64).collect();
        let n = gaps.len() as f64;
        let mean = gaps.iter().sum::<f64>() / n;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / n;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "cv {cv} should be ~1");
    }

    /// Empirical zipf skew within tolerance of the analytic law.
    #[test]
    fn zipf_skew_matches_theory() {
        let mut z = ZipfKeys::new(77, 1000, 0.99);
        let n = 200_000usize;
        let mut counts = vec![0u64; 1000];
        for _ in 0..n {
            counts[z.next_key() as usize] += 1;
        }
        // Head keys: empirical frequency within 10% of theoretical.
        for k in 0..5u64 {
            let emp = counts[k as usize] as f64 / n as f64;
            let theory = z.prob(k);
            assert!(
                (emp - theory).abs() / theory < 0.10,
                "key {k}: empirical {emp:.5} vs theory {theory:.5}"
            );
        }
        // And it is genuinely skewed: the top key beats key 100 by ~the
        // analytic ratio (100^0.99 ~ 95.5).
        let ratio = counts[0] as f64 / counts[100].max(1) as f64;
        assert!(ratio > 50.0, "zipf head/tail ratio {ratio} too flat");
    }

    #[test]
    fn uniform_zipf_is_flat() {
        let mut z = ZipfKeys::new(5, 64, 0.0);
        let mut counts = vec![0u64; 64];
        for _ in 0..64_000 {
            counts[z.next_key() as usize] += 1;
        }
        let (lo, hi) = (
            *counts.iter().min().unwrap() as f64,
            *counts.iter().max().unwrap() as f64,
        );
        assert!(hi / lo < 1.35, "uniform draw spread too wide ({lo}..{hi})");
    }

    /// FNV-1a over little-endian words: a stream hash that needs no
    /// crate and no process-seeded hasher.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            w.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
        })
    }

    /// Golden lock on the default serve shape: the first 4 096 arrivals
    /// of seed 7 and every bit of the zipf CDF. A change to how the
    /// table is built or shared must keep both, and with them every
    /// drawn key and every simulated latency.
    #[test]
    fn the_default_shape_stream_and_cdf_are_unchanged() {
        let cfg = crate::ServeConfig::default();
        let mut g = ClientGen::new(
            7,
            cfg.clients,
            cfg.mean_think_ns,
            cfg.keys,
            cfg.zipf_s,
            cfg.read_frac,
        );
        let cdf = fnv(g.keys.cdf.iter().map(|c| c.to_bits()));
        let arrivals: Vec<Arrival> = (0..4096).map(|_| g.next_arrival()).collect();
        let head: Vec<(u64, OpKind, u64)> = arrivals[..3]
            .iter()
            .map(|a| (a.at_ns, a.kind, a.key))
            .collect();
        let stream = fnv(arrivals
            .iter()
            .flat_map(|a| [a.at_ns, (a.kind == OpKind::Get) as u64, a.key]));
        assert_eq!(g.keys.cdf.len(), cfg.keys as usize);
        assert_eq!(cdf, 0x71a4_6e78_50e2_a7b9, "zipf CDF bits");
        assert_eq!(
            head,
            [
                (2743, OpKind::Get, 14218),
                (3129, OpKind::Get, 3),
                (58305, OpKind::Get, 0)
            ],
            "first arrivals"
        );
        assert_eq!(stream, 0xf80a_980b_94a3_dfe9, "first 4 096 arrivals");
    }

    #[test]
    fn read_mix_is_respected() {
        let mut g = ClientGen::new(3, 10, 1_000_000, 128, 0.5, 0.9);
        let n = 20_000;
        let gets = (0..n)
            .filter(|_| g.next_arrival().kind == OpKind::Get)
            .count();
        let frac = gets as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.02, "read fraction {frac} vs 0.9");
    }
}
