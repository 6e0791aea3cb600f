//! Monitoring distributed-ML training with user-defined window signals
//! (the paper's Exp#3 case study).
//!
//! The training application embeds its iteration number in every packet;
//! the switch's user-defined signal engine segments the stream into
//! per-iteration windows and measures each worker's iteration time —
//! no end-host instrumentation needed. Gradient compression doubles
//! every 16 iterations, so the measured times form a falling staircase.
//!
//! Run with: `cargo run --release --example dml_monitoring`

use omniwindow::experiments::exp3_dml;
use ow_trace::dml::{compression_ratio, DmlConfig};

fn main() {
    let cfg = DmlConfig {
        workers: 3,
        iterations: 96,
        ..DmlConfig::default()
    };
    println!(
        "parameter-server training: {} workers, {} iterations, compression 2→2048",
        cfg.workers, cfg.iterations
    );

    let result = exp3_dml::run(&cfg);

    println!(
        "\n{:>9} {:>7} {:>16}",
        "iteration", "ratio", "mean time (µs)"
    );
    let mut prev_mean = f64::INFINITY;
    for it in (8..=cfg.iterations).step_by(16) {
        let mean = result.mean_time(it);
        let ratio = compression_ratio(it - 1);
        let bar = "#".repeat((mean / 8.0).min(60.0) as usize);
        println!("{it:>9} {ratio:>7} {mean:>16.0}  {bar}");
        assert!(
            mean <= prev_mean,
            "iteration times must fall as compression rises"
        );
        prev_mean = mean;
    }
    println!("\nthe staircase mirrors the doubling compression schedule ✓");
}
