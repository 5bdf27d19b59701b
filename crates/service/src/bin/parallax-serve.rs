//! The compile server daemon.
//!
//! ```text
//! parallax-serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache BYTES]
//!                [--enqueue-timeout-ms N]
//! ```
//!
//! Binds the address (default `127.0.0.1:7878`), prints the resolved
//! address, and serves until a client sends `{"cmd":"shutdown"}` —
//! accepted jobs are drained before the process exits.

use parallax_service::{start, ServerConfig};

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: parallax-serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache BYTES] \
         [--enqueue-timeout-ms N]"
    );
    std::process::exit(2)
}

fn main() {
    let mut config = ServerConfig { addr: "127.0.0.1:7878".to_string(), ..ServerConfig::default() };
    fn num(value: Option<&String>, name: &str) -> usize {
        value.and_then(|v| v.parse().ok()).unwrap_or_else(|| die(&format!("bad {name}")))
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                config.addr = it.next().cloned().unwrap_or_else(|| die("--addr expects HOST:PORT"))
            }
            "--workers" => config.workers = num(it.next(), "--workers"),
            "--queue" => config.queue_capacity = num(it.next(), "--queue").max(1),
            "--cache" => config.cache_capacity = num(it.next(), "--cache"),
            "--enqueue-timeout-ms" => {
                config.enqueue_timeout_ms = num(it.next(), "--enqueue-timeout-ms") as u64
            }
            other => die(&format!("unknown argument '{other}'")),
        }
    }

    let mut server = match start(config.clone()) {
        Ok(s) => s,
        Err(e) => die(&format!("cannot start on {}: {e}", config.addr)),
    };
    println!(
        "parallax-serve listening on {} ({} workers, queue {}, cache {} bytes)",
        server.addr(),
        parallax_service::worker::effective_workers(config.workers),
        config.queue_capacity,
        config.cache_capacity
    );
    // Block until a client drives the shutdown command, then finish the
    // drain (the handle's Drop would also drain if we exited otherwise).
    server.wait_until_drained();
    println!("parallax-serve drained; bye");
}
