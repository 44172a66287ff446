//! Times the bench registry and prints one median line per id:
//!
//! ```console
//! $ cargo bench -p gact-bench                          # every registered id
//! $ cargo bench -p gact-bench -- chr_growth act_solver # ids with these prefixes
//! ```
//!
//! Positional arguments are id prefixes. Arguments starting with `-` are
//! ignored (cargo passes `--bench` to harness-less targets).

fn main() {
    let prefixes: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let workloads = gact_bench::select(&prefixes);
    if workloads.is_empty() {
        eprintln!("no registered bench id starts with any of {prefixes:?}");
        std::process::exit(2);
    }
    for workload in &workloads {
        workload.run();
    }
}
