//! Thin shim over the `isax-cli` library.

#![forbid(unsafe_code)]

fn main() {
    // A malformed configuration variable is reported before any work
    // (the library would panic on it).
    if let Err(e) = isax::RunConfig::from_env() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match isax_cli::parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    // ISAX_TRACE=1 prints a stage summary to stderr; ISAX_TRACE=path
    // additionally writes a Chrome trace there. `--trace-out` (handled
    // inside `execute`) takes precedence when both are given.
    let env_trace = isax_trace::init_from_env();
    let mut stdout = std::io::stdout();
    let result = isax_cli::execute(&cmd, &mut stdout);
    if let Some(t) = env_trace {
        t.finish();
    }
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
