//! Seeded violations for the tracked-escape and annotation rules. This
//! fixture names itself `hydro` so it lands in the linter's kernel-crate
//! set.

#![forbid(unsafe_code)]

pub fn escaped(a: f64, b: f64) -> f64 {
    a * b
}

pub fn annotated(a: f64, b: f64) -> f64 {
    a * b // lint: allow(native-float, seeded suppression for the fixture test)
}

pub fn missing_reason(a: f64) -> f64 {
    a + 1.0 // lint: allow(native-float)
}

pub fn unknown_rule(a: f64) -> f64 {
    a - 1.0 // lint: allow(no-such-rule, the rule name is wrong on purpose)
}

/// A `*_batch` name earns no exemption: its raw `/` is an escape too.
pub fn scaled_batch(xs: &[f64], out: &mut [f64]) {
    for (o, x) in out.iter_mut().zip(xs) {
        *o = *x / 2.0;
    }
}
