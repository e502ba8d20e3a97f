//! The benchmark's own input generator and shadow model.
//!
//! Everything a workload feeds the product is derived from `--seed` here:
//! which keys are prefilled, every operation's kind and key. The product
//! sees only the generated operations.
//!
//! Values are always `key * VALUE_MULT`. Each thread *updates* only the
//! keys it owns (`key % threads == thread`) and reads any key, so a
//! per-thread bitmap knows exactly which owned keys are present: every
//! insert/remove return value and every owned-key get is checked exactly,
//! and a foreign-key hit must still carry the right value.

/// Every stored value is its key times this.
pub const VALUE_MULT: u64 = 3;

/// splitmix64 finalizer: decorrelates structured inputs (seed, thread,
/// trial) into stream seeds.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seed of one (workload, thread, trial) operation stream.
pub fn stream_seed(seed: u64, workload: u64, thread: u64, trial: u64) -> u64 {
    mix64(mix64(mix64(seed ^ workload.rotate_left(48)) ^ thread.rotate_left(32)) ^ trial)
}

/// xorshift64*: seeded, dependency-free, a few cycles per draw.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed` (any value; the all-zero fixed point is avoided).
    pub fn new(seed: u64) -> Rng {
        Rng(mix64(seed).max(1))
    }

    /// Next 64 bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (multiply-shift; bias below 2^-32 for n < 2^32).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        (((self.next_u64() >> 32) * n) >> 32).min(n.saturating_sub(1))
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// The YCSB zipfian rank generator (Gray et al.): `P(rank i) ∝ 1/(i+1)^θ`.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// Generator over ranks `0..n` with skew `theta` in `[0, 1)`.
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n > 0 && (0.0..1.0).contains(&theta));
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2.min(n)) / zetan);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    /// Rank for a uniform draw `u` in `[0, 1)`; 0 is the hottest.
    #[inline]
    pub fn rank(&self, u: f64) -> u64 {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1.min(self.n - 1);
        }
        ((self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64).min(self.n - 1)
    }
}

/// Key popularity.
#[derive(Debug, Clone)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipfian ranks scattered over the key space by an odd multiplier (a
    /// bijection modulo a power of two), so hot keys are not neighbours.
    Zipfian(Zipf),
}

/// Operation mix in per-mille; removes take the remainder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Gets per 1000 operations.
    pub get: u32,
    /// Inserts per 1000 operations.
    pub insert: u32,
}

impl Mix {
    /// Read-only.
    pub const C: Mix = Mix {
        get: 1000,
        insert: 0,
    };
    /// 50 % get / 25 % insert / 25 % remove.
    pub const A: Mix = Mix {
        get: 500,
        insert: 250,
    };
    /// 95 % get / 2.5 % insert / 2.5 % remove.
    pub const B: Mix = Mix {
        get: 950,
        insert: 25,
    };
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Look up any key.
    Get(u64),
    /// Insert an owned key with value `key * VALUE_MULT`.
    Insert(u64),
    /// Remove an owned key.
    Remove(u64),
}

/// One thread's operation stream over a power-of-two key space.
#[derive(Debug, Clone)]
pub struct OpGen {
    rng: Rng,
    dist: KeyDist,
    mask: u64,
    mix: Mix,
    thread: u64,
    own_mask: u64,
}

impl OpGen {
    /// Stream over keys `0..2^key_bits` for `thread` of `threads` (a power
    /// of two, so ownership is a bit mask).
    pub fn new(
        seed: u64,
        key_bits: u32,
        dist: KeyDist,
        mix: Mix,
        thread: u64,
        threads: u64,
    ) -> OpGen {
        assert!(threads.is_power_of_two() && (1u64 << key_bits) >= threads);
        OpGen {
            rng: Rng::new(seed),
            dist,
            mask: (1 << key_bits) - 1,
            mix,
            thread,
            own_mask: threads - 1,
        }
    }

    /// Next operation. Updates land on the owned key nearest the drawn one.
    #[inline]
    pub fn next_op(&mut self) -> Op {
        let r = self.rng.next_u64();
        let key = match &self.dist {
            KeyDist::Uniform => r & self.mask,
            KeyDist::Zipfian(z) => {
                let u = (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                z.rank(u).wrapping_mul(0x9E37_79B1) & self.mask
            }
        };
        let kind = (((r >> 32) * 1000) >> 32) as u32;
        if kind < self.mix.get {
            return Op::Get(key);
        }
        let owned = (key & !self.own_mask) | self.thread;
        if kind < self.mix.get + self.mix.insert {
            Op::Insert(owned)
        } else {
            Op::Remove(owned)
        }
    }
}

/// One thread's model of which of its owned keys are present.
#[derive(Debug, Clone)]
pub struct Shadow {
    bits: Vec<u64>,
    thread: u64,
    own_mask: u64,
    /// What a hit's value must be a multiple of; the self-test sets a
    /// wrong one to prove the verifier can fail.
    value_mult: u64,
}

impl Shadow {
    /// Empty model over keys `0..2^key_bits`.
    pub fn new(key_bits: u32, thread: u64, threads: u64) -> Shadow {
        Shadow {
            bits: vec![0; (1usize << key_bits).div_ceil(64)],
            thread,
            own_mask: threads - 1,
            value_mult: VALUE_MULT,
        }
    }

    /// Same model, expecting `key * mult` (the self-test's wrong oracle).
    pub fn expecting_mult(mut self, mult: u64) -> Shadow {
        self.value_mult = mult;
        self
    }

    /// Whether this thread owns `key`.
    #[inline]
    pub fn owns(&self, key: u64) -> bool {
        key & self.own_mask == self.thread
    }

    /// Whether the model holds `key`.
    #[inline]
    pub fn present(&self, key: u64) -> bool {
        self.bits[(key / 64) as usize] >> (key % 64) & 1 == 1
    }

    /// Records `key` as present or absent.
    #[inline]
    pub fn set(&mut self, key: u64, present: bool) {
        let (word, bit) = ((key / 64) as usize, 1u64 << (key % 64));
        if present {
            self.bits[word] |= bit;
        } else {
            self.bits[word] &= !bit;
        }
    }

    /// Number of keys the model holds.
    pub fn len(&self) -> u64 {
        self.bits.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Whether a get's reply is right: exact for an owned key, value-only
    /// for a foreign one (its owner may be changing it concurrently).
    #[inline]
    pub fn check_get(&self, key: u64, got: Option<u64>) -> bool {
        let value_ok = got.is_none_or(|v| v == key.wrapping_mul(self.value_mult));
        value_ok && (!self.owns(key) || got.is_some() == self.present(key))
    }

    /// Whether an insert's reply is right (applied iff the key was
    /// absent); the key is present afterwards either way.
    #[inline]
    pub fn check_insert(&mut self, key: u64, applied: bool) -> bool {
        let ok = applied != self.present(key);
        self.set(key, true);
        ok
    }

    /// Whether a remove's reply is right (applied iff the key was
    /// present); the key is absent afterwards either way.
    #[inline]
    pub fn check_remove(&mut self, key: u64, applied: bool) -> bool {
        let ok = applied == self.present(key);
        self.set(key, false);
        ok
    }
}

/// The keys `thread` prefills: a seeded random half of the keys it owns,
/// in shuffled order. Exactly half, so every seed starts equally full.
pub fn prefill_keys(seed: u64, key_bits: u32, thread: u64, threads: u64) -> Vec<u64> {
    let mut owned: Vec<u64> = (0..1u64 << key_bits)
        .filter(|k| k % threads == thread)
        .collect();
    Rng::new(stream_seed(seed, 0x5EED, thread, 0)).shuffle(&mut owned);
    owned.truncate(owned.len() / 2);
    owned
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_updates_stay_owned() {
        let make = |seed| OpGen::new(seed, 10, KeyDist::Uniform, Mix::A, 1, 2);
        let (mut a, mut b, mut c) = (make(7), make(7), make(8));
        let (mut same, mut differ, mut kinds) = (true, false, [0u32; 3]);
        for _ in 0..20_000 {
            let (x, y, z) = (a.next_op(), b.next_op(), c.next_op());
            same &= x == y;
            differ |= x != z;
            match x {
                Op::Get(k) => {
                    assert!(k < 1024);
                    kinds[0] += 1
                }
                Op::Insert(k) => {
                    assert!(k < 1024 && k % 2 == 1);
                    kinds[1] += 1
                }
                Op::Remove(k) => {
                    assert!(k < 1024 && k % 2 == 1);
                    kinds[2] += 1
                }
            }
        }
        assert!(same && differ);
        assert!((9_500..10_500).contains(&kinds[0]), "{kinds:?}");
        assert!(
            (4_500..5_500).contains(&kinds[1]) && (4_500..5_500).contains(&kinds[2]),
            "{kinds:?}"
        );
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let z = Zipf::new(4096, 0.99);
        let mut rng = Rng::new(1);
        let mut top = 0;
        for _ in 0..100_000 {
            let r = z.rank((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64);
            assert!(r < 4096);
            top += u32::from(r == 0);
        }
        // 1/zeta(4096, 0.99) ≈ 0.112.
        assert!(
            (9_000..14_000).contains(&top),
            "hottest rank drew {top} of 100000"
        );
    }

    #[test]
    fn shadow_checks_replies_exactly() {
        let mut s = Shadow::new(8, 0, 2);
        assert!(s.check_insert(4, true));
        assert!(
            !s.check_insert(4, true),
            "second insert must report not-applied"
        );
        assert!(s.check_get(4, Some(12)));
        assert!(!s.check_get(4, None), "owned present key must hit");
        assert!(!s.check_get(4, Some(13)), "wrong value");
        assert!(
            s.check_get(5, None) && s.check_get(5, Some(15)),
            "foreign key: either is fine"
        );
        assert!(
            !s.check_get(5, Some(16)),
            "foreign hit still needs the right value"
        );
        assert!(s.check_remove(4, true));
        assert!(!s.check_remove(4, true));
        assert_eq!(s.len(), 0);
        assert!(!Shadow::new(8, 0, 2).expecting_mult(5).check_get(2, Some(6)));
    }

    #[test]
    fn prefill_is_exactly_half_of_the_owned_keys() {
        let (a, b) = (prefill_keys(3, 10, 0, 2), prefill_keys(3, 10, 1, 2));
        assert_eq!((a.len(), b.len()), (256, 256));
        assert!(a.iter().all(|k| k % 2 == 0) && b.iter().all(|k| k % 2 == 1));
        assert_ne!(a, prefill_keys(4, 10, 0, 2));
    }
}
