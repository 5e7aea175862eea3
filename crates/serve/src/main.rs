//! The `ape-serve` daemon binary.
//!
//! ```text
//! ape-serve [--addr HOST:PORT] [--queue N]
//!           [--max-connections N] [--inflight N] [--deadline-ms N]
//!           [--tech 1p2um|0p5um] [--no-remote-shutdown] [--stdio]
//! ```
//!
//! `--stdio` speaks the same NDJSON protocol over stdin/stdout (one
//! process per client) — handy for tests and for driving the daemon from
//! a subprocess without networking.

use ape_netlist::Technology;
use ape_serve::{serve_stream, standalone_state, Server, ServerConfig};
use std::time::Duration;

fn main() {
    let mut addr = "127.0.0.1:4199".to_string();
    let mut config = ServerConfig::default();
    let mut tech_name = "1p2um".to_string();
    let mut stdio = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("ape-serve: {arg} needs {what}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => addr = take("HOST:PORT"),
            "--queue" => config.queue_capacity = parse_num(&take("N")),
            "--max-connections" => config.max_connections = parse_num(&take("N")),
            "--inflight" => config.inflight_per_conn = parse_num(&take("N")),
            "--deadline-ms" => {
                config.default_deadline = Some(Duration::from_millis(parse_num(&take("N")) as u64));
            }
            "--tech" => tech_name = take("1p2um|0p5um"),
            "--no-remote-shutdown" => config.allow_remote_shutdown = false,
            "--stdio" => stdio = true,
            "--help" | "-h" => {
                println!(
                    "ape-serve: persistent estimation daemon (NDJSON over TCP)\n\
                     options: --addr HOST:PORT  --queue N\n\
                     \x20        --max-connections N  --inflight N  --deadline-ms N\n\
                     \x20        --tech 1p2um|0p5um  --no-remote-shutdown  --stdio"
                );
                return;
            }
            other => {
                eprintln!("ape-serve: unknown option `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }

    let tech = match tech_name.as_str() {
        "1p2um" => Technology::default_1p2um(),
        "0p5um" => Technology::default_0p5um(),
        other => {
            eprintln!("ape-serve: unknown technology `{other}` (want 1p2um or 0p5um)");
            std::process::exit(2);
        }
    };

    if std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) <= 1 {
        eprintln!(
            "ape-serve: WARNING: detected parallelism is 1, so concurrent requests \
             serialize; throughput numbers from this box do not demonstrate scaling"
        );
    }

    if stdio {
        let state = standalone_state(tech, config);
        serve_stream(&state, std::io::stdin(), std::io::stdout());
        return;
    }

    let server = match Server::bind(&addr, tech, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ape-serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "ape-serve: listening on {} (NDJSON; GET /metrics for Prometheus)",
        server.local_addr()
    );
    if let Err(e) = server.run() {
        eprintln!("ape-serve: accept loop failed: {e}");
        std::process::exit(1);
    }
}

fn parse_num(text: &str) -> usize {
    text.parse().unwrap_or_else(|_| {
        eprintln!("ape-serve: `{text}` is not a number");
        std::process::exit(2);
    })
}
