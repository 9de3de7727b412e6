//! Latency samples with exact nanosecond resolution below 65.5 us and
//! 1/1024 relative resolution above, in a fixed table, so percentiles are
//! read as measured rather than rounded to a coarse bucket edge.

const EXACT: usize = 1 << 16;
const SUB_BITS: u32 = 10;
const SUBS: usize = 1 << SUB_BITS;
const BUCKETS: usize = EXACT + (64 - 16) * SUBS;

pub struct Hist {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            // Zeroed allocation: untouched pages never become resident.
            buckets: vec![0; BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }
}

fn index(ns: u64) -> usize {
    if (ns as usize) < EXACT {
        return ns as usize;
    }
    let msb = 63 - ns.leading_zeros();
    EXACT + (msb as usize - 16) * SUBS + ((ns >> (msb - SUB_BITS)) as usize & (SUBS - 1))
}

/// The midpoint of bucket `i`, in nanoseconds.
fn value(i: usize) -> f64 {
    if i < EXACT {
        return i as f64;
    }
    let msb = 16 + ((i - EXACT) / SUBS) as u32;
    let sub = ((i - EXACT) % SUBS) as u64;
    let width = 1u64 << (msb - SUB_BITS);
    ((SUBS as u64 + sub) * width) as f64 + width as f64 / 2.0
}

impl Hist {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[index(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// The `q`-quantile in nanoseconds (nearest rank), 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return value(i);
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_the_split_and_close_above() {
        let mut h = Hist::default();
        for ns in [10, 20, 30, 40] {
            h.record(ns);
        }
        assert_eq!(h.quantile_ns(0.5), 20.0);
        assert_eq!(h.quantile_ns(1.0), 40.0);
        let mut big = Hist::default();
        big.record(1_000_000);
        let got = big.quantile_ns(0.5);
        assert!((got - 1e6).abs() / 1e6 < 1.0 / 1024.0, "{got}");
    }
}
