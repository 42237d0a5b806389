//! Deterministic named random-number streams.
//!
//! Every stochastic component of a simulation (each arrival process, the
//! non-protocol workload, tie-breaking in policies, …) draws from its own
//! named substream derived from a single master seed. This gives:
//!
//! * **Reproducibility** — a run is a pure function of (config, seed).
//! * **Common random numbers** — comparing two policies under the same
//!   seed reuses the identical arrival sample paths, which slashes the
//!   variance of *differences* (the quantity the paper's figures plot).
//! * **Independence** — adding a new consumer does not perturb the streams
//!   other consumers see (no shared global sequence).
//!
//! Substream seeds are derived with SplitMix64 over the FNV-1a hash of the
//! stream name mixed with the master seed; SplitMix64 is the standard
//! seeding recommendation for PRNG families.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 output function: a strong 64-bit mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Factory for named, mutually independent random streams.
#[derive(Debug, Clone, Copy)]
pub struct RngFactory {
    master_seed: u64,
}

impl RngFactory {
    /// Create a factory from a master seed.
    pub fn new(master_seed: u64) -> Self {
        RngFactory { master_seed }
    }

    /// Derive the substream seed for `name`.
    pub fn seed_for(&self, name: &str) -> u64 {
        splitmix64(self.master_seed ^ fnv1a(name.as_bytes()))
    }

    /// A ready-to-use RNG for `name`.
    pub fn stream(&self, name: &str) -> StdRng {
        StdRng::seed_from_u64(self.seed_for(name))
    }

    /// The indexed family of streams named `name`, e.g. one stream per
    /// connection: `family("arrivals").stream(k)`. The name is hashed
    /// once, here, however many members are drawn.
    pub fn family(&self, name: &str) -> RngFamily {
        RngFamily {
            seed: self.seed_for(name),
        }
    }
}

/// An indexed family of independent streams under one name (see
/// [`RngFactory::family`]).
#[derive(Debug, Clone, Copy)]
pub struct RngFamily {
    seed: u64,
}

impl RngFamily {
    /// Derive the substream seed for member `index`.
    fn seed_for(&self, index: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(index.wrapping_add(1)))
    }

    /// A ready-to-use RNG for member `index`.
    pub fn stream(&self, index: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed_for(index))
    }
}

/// Convenience: a uniform draw in `[0, 1)` from any RNG, used by the
/// distribution samplers.
#[inline]
pub fn unit_uniform<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    rng.gen::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn same_name_same_stream() {
        let f = RngFactory::new(42);
        let mut a = f.stream("arrivals");
        let mut b = f.stream("arrivals");
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_names_differ() {
        let f = RngFactory::new(42);
        assert_ne!(f.seed_for("arrivals"), f.seed_for("service"));
        let mut a = f.stream("arrivals");
        let mut b = f.stream("service");
        // Overwhelmingly unlikely to collide on the first draw.
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn different_master_seeds_differ() {
        let f1 = RngFactory::new(1);
        let f2 = RngFactory::new(2);
        assert_ne!(f1.seed_for("x"), f2.seed_for("x"));
    }

    #[test]
    fn indexed_family_members_are_distinct() {
        let family = RngFactory::new(7).family("s");
        let seeds: Vec<u64> = (0..100).map(|i| family.seed_for(i)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len(), "collision in indexed seeds");
    }

    #[test]
    fn index_zero_differs_from_base() {
        let f = RngFactory::new(7);
        assert_ne!(f.seed_for("s"), f.family("s").seed_for(0));
    }

    /// A family member draws what the per-member derivation the family
    /// replaced drew: the name hashed again for every index.
    #[test]
    fn family_streams_draw_what_per_member_hashing_drew() {
        fn stream_indexed(f: &RngFactory, name: &str, index: u64) -> StdRng {
            let seed = splitmix64(f.seed_for(name) ^ splitmix64(index.wrapping_add(1)));
            StdRng::seed_from_u64(seed)
        }
        let f = RngFactory::new(0x5eed);
        for name in ["arrivals", "sizes", "policy"] {
            let family = f.family(name);
            for i in 0..10_000 {
                let (mut a, mut b) = (family.stream(i), stream_indexed(&f, name, i));
                assert_eq!(
                    [a.next_u64(), a.next_u64()],
                    [b.next_u64(), b.next_u64()],
                    "{name}[{i}]"
                );
            }
        }
    }

    #[test]
    fn unit_uniform_in_range() {
        let f = RngFactory::new(9);
        let mut r = f.stream("u");
        for _ in 0..1000 {
            let u = unit_uniform(&mut r);
            assert!((0.0..1.0).contains(&u));
        }
    }
}
