//! Quickstart: profile a numerical kernel at several precisions.
//!
//! ```sh
//! cargo run --release -p raptor-examples --bin quickstart
//! ```
//!
//! Mirrors the paper's basic workflow (§3.2): write the kernel once, pick
//! a target format, run, inspect errors and op counts.

use bigfloat::Format;
use raptor_core::{region, Arith, Config, Real, Session, Tracked};

/// A little iterative kernel: Newton's method for the cube root.
fn cbrt_newton<R: Real>(a: R, iters: usize) -> R {
    let _r = region("Demo/cbrt");
    let third = R::from_f64(1.0 / 3.0);
    let mut x = a;
    for _ in 0..iters {
        // x <- (2x + a/x^2) / 3
        x = (R::two() * x + a / (x * x)) * third;
    }
    x
}

fn main() {
    let a = 12.7;
    let exact = a.powf(1.0 / 3.0);
    let reference = cbrt_newton(a, 30);
    println!("RAPTOR quickstart: Newton cube root of {a}");
    println!("  f64 reference:      {reference:.17} (true {exact:.17})");
    println!();
    println!("  {:>13} {:>22} {:>12} {:>10}", "format", "result", "rel err", "trunc ops");
    for (e, m) in [(11u32, 32u32), (11, 16), (8, 23), (5, 10), (11, 6), (5, 2)] {
        let fmt = Format::new(e, m);
        let sess = Session::new(Config::op_functions(fmt, ["Demo/cbrt"]).with_counting())
            .expect("valid config");
        let guard = sess.install();
        let got = cbrt_newton(Tracked::from_f64(a), 30).to_f64();
        drop(guard);
        let c = sess.counters();
        println!(
            "  {:>13} {:>22.17} {:>12.2e} {:>10}",
            format!("{fmt}"),
            got,
            ((got - exact) / exact).abs(),
            c.trunc.total()
        );
    }
    println!();
    println!("Observe: the error tracks 2^-mantissa until the format can no longer");
    println!("represent the iterate at all (fp8 stalls far from the root).");
}
