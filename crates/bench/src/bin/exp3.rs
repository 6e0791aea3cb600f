//! Exp#3 (Figure 9): per-iteration training time via user-defined
//! window signals.

use omniwindow::experiments::exp3_dml;
use ow_bench::Cli;
use ow_trace::dml::{compression_ratio, DmlConfig, DOUBLE_EVERY};

fn main() {
    let cli = Cli::parse();
    let cfg = DmlConfig::default();
    eprintln!(
        "running Exp#3 (DML case study): {} workers × {} iterations…",
        cfg.workers, cfg.iterations
    );
    let result = exp3_dml::run(&cfg);

    println!("Exp#3: distributed-ML iteration times (Figure 9)");
    println!("compression doubles every {DOUBLE_EVERY} iterations\n");
    println!(
        "{:>9} {:>6} {:>14} {:>12}",
        "iteration", "ratio", "mean time (µs)", "per worker"
    );
    for it in (1..=cfg.iterations).step_by(4) {
        let ratio = compression_ratio(it - 1);
        let per_worker: Vec<String> = (0..cfg.workers)
            .map(|w| {
                result
                    .times
                    .iter()
                    .find(|t| t.iteration == it && t.worker == w)
                    .map(|t| format!("{:.0}", t.micros))
                    .unwrap_or_else(|| "-".into())
            })
            .collect();
        println!(
            "{:>9} {:>6} {:>14.0} {:>12}",
            it,
            ratio,
            result.mean_time(it),
            per_worker.join("/")
        );
    }
    cli.dump(&result);
}
