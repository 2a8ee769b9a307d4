//! `ffr-benchmark`: see `benchmark/README.md` (run it through `run.sh`).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(ffr_benchmark::cli::main_with_args(&args));
}
