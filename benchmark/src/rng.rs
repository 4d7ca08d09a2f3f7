//! Seeded randomness: every input order and request stream of a run
//! derives from the one `--seed`, so the same seed gives the same inputs.

/// splitmix64: tiny, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream `stream` of the generator seeded by `seed`
    /// (pass 0's input order, pass 1's, the Zipf stream, ...).
    pub fn derive(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }
}

/// The visiting order of `n` inputs in pass `pass`.
pub fn pass_order(seed: u64, pass: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::derive(seed, 1 + pass).shuffle(&mut order);
    order
}

/// `len` draws from a Zipf(`s`) distribution over `n` keys, from
/// stream `stream` of `seed`. Rank `r` (0 = hottest) is mapped to a key
/// by a seeded permutation, so the seed chooses both which keys are hot
/// and the order of the draws.
pub fn zipf_stream(seed: u64, stream: u64, n: usize, s: f64, len: usize) -> Vec<usize> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for rank in 1..=n {
        acc += (rank as f64).powf(-s);
        cdf.push(acc);
    }
    let mut key_of_rank: Vec<usize> = (0..n).collect();
    let mut rng = Rng::derive(seed, stream);
    rng.shuffle(&mut key_of_rank);
    (0..len)
        .map(|_| {
            let u = rng.unit() * acc;
            let rank = cdf.partition_point(|&c| c <= u).min(n - 1);
            key_of_rank[rank]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_stream_is_a_function_of_the_seed() {
        let a = zipf_stream(7, 0, 524, 1.1, 3000);
        assert_eq!(a, zipf_stream(7, 0, 524, 1.1, 3000));
        assert_ne!(a, zipf_stream(8, 0, 524, 1.1, 3000));
        assert_ne!(a, zipf_stream(7, 1, 524, 1.1, 3000));
        assert!(a.iter().all(|&k| k < 524));
    }

    #[test]
    fn zipf_stream_is_skewed() {
        let stream = zipf_stream(1, 0, 524, 1.1, 3000);
        let mut counts = vec![0usize; 524];
        for &k in &stream {
            counts[k] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // The hottest key draws far more than a uniform share (≈6), and
        // many keys are never drawn at all.
        assert!(counts[0] > 300, "hottest key drew {}", counts[0]);
        assert!(counts.iter().filter(|&&c| c == 0).count() > 50);
    }

    #[test]
    fn pass_orders_are_permutations_that_differ_per_pass() {
        let a = pass_order(3, 0, 100);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_eq!(a, pass_order(3, 0, 100));
        assert_ne!(a, pass_order(3, 1, 100));
    }
}
