//! Percentiles with their sample counts, and process CPU time.

/// A nearest-rank percentile and the samples it rests on.
#[derive(Debug, Clone, Copy)]
pub struct Pct {
    /// The value (0 when there are no samples).
    pub value: u64,
    /// Samples in the set.
    pub n: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Exact latency record: one-ns buckets below [`FINE_NS`], raw samples
/// above, so memory stays bounded however many fast ops a run makes.
#[derive(Default)]
pub struct Hist {
    fine: Vec<u32>,
    over: Vec<u64>,
    n: usize,
}

/// Latencies below this many ns are counted in one-ns buckets.
pub const FINE_NS: u64 = 1 << 16;

impl Hist {
    /// Records one latency.
    pub fn record(&mut self, ns: u64) {
        if ns < FINE_NS {
            if self.fine.is_empty() {
                self.fine = vec![0; FINE_NS as usize];
            }
            self.fine[ns as usize] += 1;
        } else {
            self.over.push(ns);
        }
        self.n += 1;
    }

    /// Adds `other`'s samples.
    pub fn merge(&mut self, other: &Hist) {
        if !other.fine.is_empty() {
            if self.fine.is_empty() {
                self.fine = vec![0; FINE_NS as usize];
            }
            for (a, b) in self.fine.iter_mut().zip(&other.fine) {
                *a += b;
            }
        }
        self.over.extend_from_slice(&other.over);
        self.n += other.n;
    }

    /// Samples recorded.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Nearest-rank `q`-quantile.
    pub fn pct(&mut self, q: f64) -> Pct {
        let n = self.n;
        if n == 0 {
            return Pct {
                value: 0,
                n,
                beyond: 0,
            };
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let mut seen = 0usize;
        for (ns, &c) in self.fine.iter().enumerate() {
            seen += c as usize;
            if seen >= rank {
                return Pct {
                    value: ns as u64,
                    n,
                    beyond: n - rank,
                };
            }
        }
        self.over.sort_unstable();
        Pct {
            value: self.over[rank - seen - 1],
            n,
            beyond: n - rank,
        }
    }
}

/// Median of `values` (0 when empty); sorts `values` in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Hands the allocator's free memory back to the kernel (glibc
/// `malloc_trim(0)`), as a fresh process has none: a set-up that follows
/// then faults its heap pages in anew, as the first one does, instead of
/// reusing whatever the previous one happened to leave mapped.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only returns free pages of glibc's
        // allocator, which is the one this program allocates with.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// User + system CPU time of this process in µs, from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks of 1/100 s).
pub fn process_cpu_us() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 * 10_000.0)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    // `rest` starts at field 3 (state): utime is field 14, stime 15.
    Ok(tick(11)? + tick(12)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        assert_eq!(Hist::default().pct(0.5).n, 0);
        let mut h = Hist::default();
        for ns in (1..=1000).map(|i| i * 100) {
            h.record(ns);
        }
        let p = h.pct(0.99);
        assert_eq!((p.value, p.n, p.beyond), (99_000, 1000, 10));
        assert_eq!(h.pct(0.5).value, 50_000);
        // Ranks that fall in the fine buckets and in the raw samples.
        h.record(7);
        h.record(FINE_NS + 5);
        assert_eq!(h.pct(0.0).value, 7);
        assert_eq!(h.pct(1.0).value, 100_000);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
