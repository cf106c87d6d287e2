//! Anchor library for the `dsmc-examples` package; the content lives in
//! the `[[example]]` targets next to this file (run with
//! `cargo run --release -p dsmc-examples --example quickstart`).

/// Positional scale argument `n`: `default` when absent; anything but a
/// positive number prints `usage` and exits 1 rather than silently
/// running the default.
pub fn scale_arg(n: usize, default: f64, usage: &str) -> f64 {
    match std::env::args().nth(n) {
        None => default,
        Some(s) => match s.parse::<f64>() {
            Ok(v) if v > 0.0 && v.is_finite() => v,
            _ => {
                eprintln!("not a scale: {s:?}\nusage: {usage}");
                std::process::exit(1);
            }
        },
    }
}
