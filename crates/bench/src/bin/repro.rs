//! `repro`: regenerates one experiment of the registry — or `all` of
//! them, in registry order — and writes its artifacts.
//!
//! ```text
//! repro <experiment|all> [--scale smoke|quick|full] [--seed <u64>] [--resume] [--threads <n>]
//! ```
//!
//! A malformed command line prints the usage message and exits 2 before
//! any work starts; a failing experiment prints `Error: ...` and exits 1.

use membit_bench::{parse_args, usage, write_artifacts};

fn main() -> membit_bench::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (entries, opts) = parse_args(&args).unwrap_or_else(|msg| {
        eprintln!("error: {msg}\n{}", usage());
        std::process::exit(2);
    });
    for entry in entries {
        println!(
            "=== {} (--scale {} --seed {}) ===",
            entry.name,
            opts.scale.tag(),
            opts.seed
        );
        let artifacts = entry.execute(&opts)?;
        write_artifacts(opts.scale, &artifacts)?;
    }
    Ok(())
}
