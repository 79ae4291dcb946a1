//! The one bench executable; see `bench::cli` for the command line.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(bench::cli::main(&args));
}
