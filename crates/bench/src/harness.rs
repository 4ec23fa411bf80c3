//! A minimal criterion-style microbenchmark harness on std only.
//!
//! Offline builds cannot fetch the `criterion` crate, so the `benches/`
//! targets (built with `harness = false`) run through this module instead.
//! The API mirrors the subset of criterion the benches use — groups,
//! `bench_function`, `Bencher::iter`, `black_box` — and the measurement
//! loop is the classic warm-up + timed-batch scheme: each sample runs the
//! closure in a batch sized to last ~1 ms, and the reported figure is the
//! median per-iteration time across samples (robust to scheduler noise).

pub use std::hint::black_box;
use raptor_core::Json;
use std::time::Instant;

/// Per-benchmark measurement driver handed to the closure.
pub struct Bencher {
    samples: usize,
    /// Median ns/iter, filled by [`Bencher::iter`].
    result_ns: f64,
}

impl Bencher {
    /// Measure a closure: warm up, then take timed batches and record the
    /// median per-iteration time.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        // Warm-up + batch sizing: grow the batch until it lasts >= 1 ms.
        let mut batch: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let dt = t0.elapsed();
            if dt.as_secs_f64() >= 1e-3 || batch >= 1 << 24 {
                break;
            }
            batch *= 8;
        }
        let mut per_iter: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            per_iter.push(t0.elapsed().as_secs_f64() * 1e9 / batch as f64);
        }
        per_iter.sort_by(|a, b| a.partial_cmp(b).unwrap());
        self.result_ns = per_iter[per_iter.len() / 2];
    }
}

/// One measured benchmark.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// `group/name` label.
    pub label: String,
    /// Median nanoseconds per iteration.
    pub ns_per_iter: f64,
}

/// A named group of benchmarks (criterion's `benchmark_group` analog).
pub struct Group<'a> {
    name: String,
    samples: usize,
    results: &'a mut Vec<BenchResult>,
}

impl Group<'_> {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(3);
        self
    }

    /// Measure one benchmark.
    pub fn bench_function(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        let mut b = Bencher { samples: self.samples, result_ns: f64::NAN };
        f(&mut b);
        let label = format!("{}/{}", self.name, name);
        println!("{label:<44} {:>12.1} ns/iter", b.result_ns);
        self.results.push(BenchResult { label, ns_per_iter: b.result_ns });
        self
    }

    /// Measure one benchmark whose closure processes `n` elements per
    /// iteration, reporting *per-element* time (`ns/iter / n`). Lets
    /// slice-kernel rows sit in the same table as scalar per-op rows.
    pub fn bench_per_element(
        &mut self,
        name: &str,
        n: usize,
        f: impl FnOnce(&mut Bencher),
    ) -> &mut Self {
        let mut b = Bencher { samples: self.samples, result_ns: f64::NAN };
        f(&mut b);
        let per_elem = b.result_ns / n as f64;
        let label = format!("{}/{}", self.name, name);
        println!("{label:<44} {per_elem:>12.2} ns/elem");
        self.results.push(BenchResult { label, ns_per_iter: per_elem });
        self
    }

    /// No-op terminator for criterion-API parity.
    pub fn finish(&mut self) {}
}

/// The top-level harness (criterion's `Criterion` analog).
#[derive(Default)]
pub struct Harness {
    results: Vec<BenchResult>,
}

impl Harness {
    /// Fresh harness.
    pub fn new() -> Harness {
        Harness::default()
    }

    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> Group<'_> {
        Group { name: name.to_string(), samples: 15, results: &mut self.results }
    }

    /// All results measured so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Results as a JSON object `{label: ns_per_iter, ...}` through the
    /// shared [`raptor_core::json`] serializer (one writer for campaign
    /// summaries, reports, and the `RAPTOR_BENCH_JSON` output).
    pub fn to_json(&self) -> String {
        let mut doc = Json::obj();
        for r in &self.results {
            // Two-decimal ns keeps the files diff-friendly.
            doc = doc.set(&r.label, (r.ns_per_iter * 100.0).round() / 100.0);
        }
        doc.render()
    }

    /// Write the JSON results to a file if `path` is Some.
    pub fn write_json(&self, path: Option<&str>) {
        if let Some(p) = path {
            std::fs::write(p, self.to_json() + "\n").expect("write bench json");
            println!("wrote {p}");
        }
    }
}
