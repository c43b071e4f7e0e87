//! `titand` — the long-lived titanc compile server.
//!
//! ```text
//! titand [--socket PATH | --stdio] [--cache-dir DIR] [-j N] [--quiet]
//!
//!   --socket PATH       serve newline-delimited JSON compile requests
//!                       on a Unix domain socket (the default transport
//!                       for `titanc --server PATH`)
//!   --stdio             serve the same protocol on stdin/stdout
//!   --cache-dir DIR     write-through backing directory for the
//!                       resident cache; one-shot `titanc --cache-dir`
//!                       runs interoperate with the daemon on it
//!   -j N | --jobs N     request worker pool size (default: available
//!                       parallelism)
//!   --quiet             suppress the per-request accounting log lines
//! ```
//!
//! The daemon keeps the content-addressed IL cache resident in memory as
//! the bytes of its files, and loads them exactly as one-shot `titanc
//! --cache-dir` loads the files themselves: every entry is decoded and
//! verified on every read. The first compile of a program pays the full
//! pipeline, every subsequent compile parses every file and replays
//! unchanged procedures from their entries, and warm repeats skip the
//! pipeline outright. Each of the `-j` lanes (the main thread is one)
//! reads the next request line, or accepts the next connection, only once
//! it is free; responses stream back as they finish, tagged by request
//! id. Responses are byte-identical to one-shot `titanc` on the same
//! inputs (modulo the `titanc: cache:` accounting line, which reflects
//! cache state).
//!
//! A fully warm repeat of a request it has answered is one lookup in the
//! reply memo. Everything resident lives under fixed byte budgets, and no
//! line takes the daemon down: one over 16 MiB or not UTF-8 is answered
//! `exit: 2` unbuffered, a request whose execution panics `exit: 3`.
//!
//! `{"shutdown": true}` stops the daemon; the acknowledgement and the
//! final `titand: totals:` stderr line carry the aggregate accounting.

use std::path::PathBuf;
use std::process::ExitCode;
use titanc::server::{Server, ServerConfig};

struct Args {
    socket: Option<PathBuf>,
    stdio: bool,
    cache_dir: Option<PathBuf>,
    jobs: usize,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: titand [--socket PATH | --stdio] [--cache-dir DIR] [-j N|--jobs N] [--quiet]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut out = Args {
        socket: None,
        stdio: false,
        cache_dir: None,
        jobs: 0,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => out.socket = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--stdio" => out.stdio = true,
            "--cache-dir" => {
                out.cache_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())));
            }
            "-j" | "--jobs" => {
                let v = args.next().unwrap_or_else(|| usage());
                out.jobs = v.parse().unwrap_or_else(|_| usage());
            }
            "--quiet" => out.quiet = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if out.stdio == out.socket.is_some() {
        // exactly one transport
        usage();
    }
    out
}

fn main() -> ExitCode {
    let args = parse_args();
    let config = ServerConfig {
        cache_dir: args.cache_dir.clone(),
        workers: args.jobs,
    };
    let mut server = Server::new(&config);
    if args.quiet {
        server = server.quiet();
    }

    let served = if args.stdio {
        eprintln!("titand: serving stdio");
        server.serve_stdio()
    } else {
        let path = args.socket.expect("parse_args guarantees a transport");
        serve_socket(&server, &path)
    };
    if let Err(e) = served {
        eprintln!("titand: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("titand: totals: {}", server.totals());
    ExitCode::SUCCESS
}

#[cfg(unix)]
fn serve_socket(server: &Server, path: &std::path::Path) -> std::io::Result<()> {
    let listener = titanc::server::bind_unix(path)?;
    // the ready line goes out *after* bind succeeds, so a supervisor can
    // wait for it before launching clients
    eprintln!("titand: listening on {}", path.display());
    server.serve_listener(listener, path);
    Ok(())
}

#[cfg(not(unix))]
fn serve_socket(_server: &Server, _path: &std::path::Path) -> std::io::Result<()> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "--socket needs Unix domain sockets on this platform; use --stdio",
    ))
}
