//! Fabric end-to-end tests with **real processes**: `parallax-serve`
//! shards and the `parallax-route` front end launched as child processes
//! and exercised over TCP.
//!
//! Three contracts are pinned here:
//! 1. **Equivalence** — a router fronting two shards serves byte-identical
//!    payloads to direct in-process compilation, under 8 concurrent
//!    clients.
//! 2. **Restart pickup** — a shard killed and relaunched at the same
//!    address is redialed by the router on the same client connection,
//!    with no shard error and a cold, byte-identical answer.
//! 3. **Admin fan-out** — flush, resize and `SHUTDOWN` sent to the router
//!    reach every shard; a flushed repeat recompiles.

use parallax_service::{compile_payload, Json, ServiceClient, SubmitRequest, SubmitSource};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A child daemon plus the address it printed on startup. Holds the
/// stdout pipe open for the child's lifetime so its shutdown banner
/// doesn't die on a broken pipe.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    stdout: Option<BufReader<std::process::ChildStdout>>,
}

impl Daemon {
    /// Launch `bin` with `args`, parse the `... listening on HOST:PORT ...`
    /// line it prints once bound.
    fn launch(bin: &str, args: &[&str]) -> Daemon {
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn daemon");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut reader = BufReader::new(stdout);
        let mut first_line = String::new();
        reader.read_line(&mut first_line).expect("read startup line");
        let addr = first_line
            .split_whitespace()
            .skip_while(|w| *w != "on")
            .nth(1)
            .and_then(|w| w.parse().ok())
            .unwrap_or_else(|| panic!("no address in startup line: {first_line:?}"));
        Daemon { child, addr, stdout: Some(reader) }
    }

    fn serve(extra: &[&str]) -> Daemon {
        let mut args = vec!["--addr", "127.0.0.1:0", "--workers", "2", "--queue", "16"];
        args.extend_from_slice(extra);
        Self::launch(env!("CARGO_BIN_EXE_parallax-serve"), &args)
    }

    fn route(shards: &[SocketAddr]) -> Daemon {
        let shard_args: Vec<String> = shards.iter().map(|a| a.to_string()).collect();
        let mut args = vec!["--addr".to_string(), "127.0.0.1:0".to_string()];
        for s in &shard_args {
            args.push("--shard".to_string());
            args.push(s.clone());
        }
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        Self::launch(env!("CARGO_BIN_EXE_parallax-route"), &args)
    }

    /// Wait (bounded) for the process to exit after a client-driven
    /// shutdown.
    fn wait(mut self) {
        // Drain the rest of the child's stdout on the side so it can
        // never block on a full pipe while exiting.
        if let Some(mut reader) = self.stdout.take() {
            std::thread::spawn(move || {
                let mut rest = String::new();
                let _ = reader.read_to_string(&mut rest);
            });
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(status.success(), "daemon exited with {status}");
                    return;
                }
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    panic!("daemon did not exit within the deadline");
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Belt and braces: if a test panicked before the clean shutdown,
        // don't leak the child process.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn submit_for(workload: &str, seed: u64) -> SubmitRequest {
    SubmitRequest {
        source: SubmitSource::Workload(workload.to_string()),
        seed,
        quick: true,
        ..Default::default()
    }
}

fn direct_payload(req: &SubmitRequest) -> String {
    let compiler = req.build_compiler().expect("valid machine");
    let circuit = req.resolve_circuit().expect("valid workload");
    compile_payload(&compiler.compile(&circuit)).encode()
}

#[test]
fn router_with_two_shard_processes_matches_direct_compilation() {
    let shard_a = Daemon::serve(&[]);
    let shard_b = Daemon::serve(&[]);
    let router = Daemon::route(&[shard_a.addr, shard_b.addr]);

    // 8 distinct jobs, compiled directly first for the expected bytes.
    let jobs: Vec<(SubmitRequest, String)> = ["ADD", "MLT", "QAOA", "HLF"]
        .iter()
        .flat_map(|w| (0..2u64).map(move |s| submit_for(w, s)))
        .map(|req| {
            let want = direct_payload(&req);
            (req, want)
        })
        .collect();

    // 8 concurrent clients, each two passes over every job (offset start
    // per client so shards see interleaved repeat traffic).
    let addr = router.addr;
    let clients: Vec<_> = (0..8)
        .map(|c| {
            let jobs = jobs.clone();
            std::thread::spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("connect to router");
                for pass in 0..2 {
                    for i in 0..jobs.len() {
                        let (req, want) = &jobs[(i + c) % jobs.len()];
                        let id = (c * 1000 + pass * 100 + i) as u64;
                        let reply = client
                            .submit(SubmitRequest { id: Some(id), ..req.clone() })
                            .expect("routed submit succeeds");
                        assert_eq!(reply.id, Some(id), "responses must be index-stable");
                        assert_eq!(
                            reply.result.encode(),
                            *want,
                            "routed result must be byte-identical to direct compilation"
                        );
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    // Both shards took forwards (the keyspace actually sharded), and the
    // fabric topology reports both reachable.
    let mut control = ServiceClient::connect(addr).expect("connect");
    let stats = control.stats().expect("router stats");
    assert_eq!(stats.get("role").and_then(Json::as_str), Some("router"));
    let forwarded: Vec<u64> = match stats.get("forwarded") {
        Some(Json::Arr(a)) => a.iter().filter_map(Json::as_u64).collect(),
        other => panic!("missing forwarded counters: {other:?}"),
    };
    assert_eq!(forwarded.len(), 2);
    assert_eq!(forwarded.iter().sum::<u64>(), 8 * 2 * 8, "every submit was forwarded");
    assert!(forwarded.iter().all(|&n| n > 0), "one shard owns the whole ring: {forwarded:?}");

    let topo = control.shards().expect("topology");
    let shards = match topo.get("shards") {
        Some(Json::Arr(a)) => a.clone(),
        other => panic!("missing shards: {other:?}"),
    };
    assert_eq!(shards.len(), 2);
    for s in &shards {
        assert_eq!(s.get("reachable").and_then(Json::as_bool), Some(true), "{topo:?}");
    }

    // One SHUTDOWN through the router drains the whole fabric; all three
    // processes exit cleanly.
    let drained = control.shutdown().expect("fabric shutdown");
    assert_eq!(drained.get("drained").and_then(Json::as_bool), Some(true));
    assert_eq!(drained.get("shards_ok").and_then(Json::as_u64), Some(2));
    drop(control);
    router.wait();
    shard_a.wait();
    shard_b.wait();
}

#[test]
fn router_picks_up_a_restarted_shard() {
    let shard = Daemon::serve(&[]);
    let old_addr = shard.addr.to_string();
    let router = Daemon::route(&[shard.addr]);
    let mut client = ServiceClient::connect(router.addr).expect("connect");
    let req = submit_for("ADD", 90_001);
    let want = direct_payload(&req);
    let first = client.submit(req.clone()).expect("submit before the restart");
    assert_eq!(first.result.encode(), want);

    // Kill the shard without a drain, leaving the router's pooled link to
    // it dead, and relaunch it at the same address (the last `--addr`
    // wins; the listener binds with SO_REUSEADDR).
    drop(shard);
    let shard = Daemon::serve(&["--addr", &old_addr]);
    assert_eq!(shard.addr.to_string(), old_addr);

    // The same client connection: the router must redial, not fail.
    let revived = client.submit(req).expect("the router must redial the restarted shard");
    assert!(!revived.cached, "a restarted shard starts with an empty result cache");
    assert_eq!(revived.result.encode(), want, "and recompiles byte-identically");
    let stats = client.stats().expect("router stats");
    let errors: Vec<u64> = match stats.get("shard_errors") {
        Some(Json::Arr(a)) => a.iter().filter_map(Json::as_u64).collect(),
        other => panic!("missing shard_errors counters: {other:?}"),
    };
    assert_eq!(errors, [0], "the retry must absorb the dead link: {stats:?}");

    let drained = client.shutdown().expect("fabric shutdown");
    assert_eq!(drained.get("shards_ok").and_then(Json::as_u64), Some(1));
    drop(client);
    router.wait();
    shard.wait();
}

#[test]
fn router_admin_plane_flushes_and_resizes_across_shards() {
    let shard_a = Daemon::serve(&[]);
    let shard_b = Daemon::serve(&[]);
    let router = Daemon::route(&[shard_a.addr, shard_b.addr]);
    let mut client = ServiceClient::connect(router.addr).expect("connect");

    // Compile a handful of jobs through the router, then flush every
    // shard through the single admin endpoint.
    for seed in 0..4u64 {
        let reply = client.submit(submit_for("HLF", seed)).expect("submit");
        assert!(!reply.cached);
    }
    let flushed = client.cache_flush().expect("fabric-wide flush");
    assert_eq!(flushed.get("shards_ok").and_then(Json::as_u64), Some(2), "{flushed:?}");

    // The flush reached whichever shard owns the key: the repeat
    // recompiles, byte-identically.
    let req = submit_for("HLF", 0);
    let repeat = client.submit(req.clone()).expect("repeat after flush");
    assert!(!repeat.cached, "a flushed shard must recompile the repeat");
    assert_eq!(repeat.result.encode(), direct_payload(&req));

    // Resize fans out too; 0 disables every result cache.
    let resized = client.cache_resize(0).expect("fabric-wide resize");
    assert_eq!(resized.get("shards_ok").and_then(Json::as_u64), Some(2));

    let drained = client.shutdown().expect("fabric shutdown");
    assert_eq!(drained.get("drained").and_then(Json::as_bool), Some(true));
    drop(client);
    router.wait();
    shard_a.wait();
    shard_b.wait();
}
