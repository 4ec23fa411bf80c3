//! Domain scenario 2: mem-mode numerical debugging (§6.3 in miniature).
//!
//! A kernel with a hidden catastrophic cancellation is truncated; the
//! mem-mode shadow table flags the offending source line, the scientist
//! fences it off, and the error collapses.
//!
//! ```sh
//! cargo run --release -p raptor-examples --bin mem_debug
//! ```

use bigfloat::Format;
use raptor_core::{region, Arith, Config, Real, Session, Tracked};

/// Numerically naive quadratic-root kernel: the textbook cancellation.
fn smaller_root<R: Real>(a: R, b: R, c: R) -> R {
    let _r = region("Quad/naive");
    let disc = (b * b - R::from_f64(4.0) * a * c).sqrt();
    // Cancels catastrophically when b > 0 and 4ac << b^2.
    (-b + disc) / (R::two() * a)
}

/// A numerically benign companion kernel: evaluates the residual.
fn residual<R: Real>(a: R, b: R, c: R, x: R) -> R {
    let _r = region("Quad/residual");
    (a * x + b) * x + c
}

fn main() {
    let (a, b, c) = (1.0, 1e4, 1.0);
    let exact = {
        // Stable formula for the small root.
        let disc = (b * b - 4.0 * a * c).sqrt();
        2.0 * c / (-b - disc)
    };
    println!("mem-mode debugging demo: smaller root of x^2 + 1e4 x + 1 = 0");
    println!("  exact (stable formula): {exact:.17e}");

    // Step 1: truncate the whole Quad module, watch the flags.
    let fmt = Format::new(11, 30);
    let sess = Session::new(Config::mem_functions(fmt, ["Quad"], 1e-7)).unwrap();
    let guard = sess.install();
    let x = smaller_root(
        Tracked::from_f64(a),
        Tracked::from_f64(b),
        Tracked::from_f64(c),
    );
    let res = residual(Tracked::from_f64(a), Tracked::from_f64(b), Tracked::from_f64(c), x);
    let got = x.to_f64();
    let _ = res.to_f64();
    drop(guard);
    println!("  truncated (30-bit mantissa everywhere): {got:.17e}  rel err {:.2e}",
        ((got - exact) / exact).abs());
    println!("  mem-mode deviation heatmap:");
    for f in sess.mem_flags().iter().take(4) {
        println!(
            "    {}  ops {:>4}  flags {:>4}  max dev {:.2e}",
            f.loc, f.stats.ops, f.stats.flags, f.stats.max_dev
        );
    }
    println!("  -> two suspects: the residual line (largest deviation) and the");
    println!("     cancellation line. As in the paper (6.3), a flagged location can");
    println!("     either be fragile itself or merely AMPLIFY an error introduced");
    println!("     upstream - here the residual amplifies the root's error, and the");
    println!("     true culprit is the cancellation in Quad/naive.");

    // Step 2: fence the flagged module off (run it at full precision).
    let cfg = Config::mem_functions(fmt, ["Quad"], 1e-7).with_exclude(["Quad/naive"]);
    let sess2 = Session::new(cfg).unwrap();
    let guard2 = sess2.install();
    let x2 = smaller_root(
        Tracked::from_f64(a),
        Tracked::from_f64(b),
        Tracked::from_f64(c),
    );
    let got2 = x2.to_f64();
    drop(guard2);
    println!();
    println!(
        "  excluding Quad/naive: {got2:.17e}  rel err {:.2e}",
        ((got2 - exact) / exact).abs()
    );
    println!("  -> working backwards from the flags restored the accuracy, without");
    println!("     guessing which of the two modules was numerically fragile.");
}
