//! Idle-CPU regression test: an `nf serve` process with open-but-idle
//! connections must consume (approximately) zero CPU. The PR-7 server
//! busy-polled — the accept loop and every reader thread woke every
//! 2 ms — so an idle server burned a measurable fraction of a core.
//! The replicated server blocks in `accept(2)`, `read(2)`, and condvar
//! waits, so its utime+stime must stay flat while idle.
//!
//! Linux-only: CPU time is sampled from `/proc/<pid>/stat` (fields 14
//! and 15, in USER_HZ ticks), which is exactly what the assertion is
//! about — observed scheduler ticks, not instrumented counters.
#![cfg(target_os = "linux")]
#![expect(
    clippy::disallowed_methods,
    reason = "the test times a real server process: its deadlines and idle windows are wall time"
)]

use nf_cli::proto::{self, Request, Response};
use nf_cli::{run_train, RunConfig, TrainOptions};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kills the child on panic so a failing assertion never leaks a
/// listening `nf serve` process.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// utime + stime of `pid` in USER_HZ ticks (typically 100/s). The comm
/// field can contain spaces, so parse after the closing paren.
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap();
    let after_comm = &stat[stat.rfind(')').unwrap() + 2..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // fields[0] is stat field 3 (state); utime/stime are fields 14/15.
    let utime: u64 = fields[11].parse().unwrap();
    let stime: u64 = fields[12].parse().unwrap();
    utime + stime
}

#[test]
fn idle_server_consumes_no_cpu() {
    let dir = std::env::temp_dir().join(format!("nf_serve_idle_{}", std::process::id()));
    let doc = format!(
        r#"
[run]
name = "idletest"
seed = 29
out_dir = "{}"

[model]
preset = "tiny"
channels = [4, 8]

[dataset]
preset = "quick"
classes = 3
image_hw = 8
train = 80

[train]
budget_mb = 16
batch_limit = 8
epochs_per_block = 1

[serve]
addr = "127.0.0.1:0"
replicas = 2
allow_shutdown = true
"#,
        dir.display()
    );
    let cfg = RunConfig::from_value(&nf_value::toml::parse(&doc).unwrap()).unwrap();
    let mut opts = TrainOptions::default();
    (opts.quiet, opts.force) = (true, true);
    let run_dir = run_train(&cfg, &opts).unwrap().run_dir;

    let mut guard = ChildGuard(
        Command::new(env!("CARGO_BIN_EXE_nf"))
            .arg("serve")
            .arg(run_dir.root())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    let pid = guard.0.id();

    // The child restores the run, then prints "serving on <addr> — ..."
    // once the listener is bound.
    // Keep the stdout pipe open for the child's whole life: dropping it
    // early would turn the child's next `println!` into an EPIPE panic.
    let mut reader = BufReader::new(guard.0.stdout.take().unwrap());
    let addr = {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            assert!(Instant::now() < deadline, "server never announced itself");
            let mut line = String::new();
            assert!(
                reader.read_line(&mut line).unwrap() > 0,
                "child stdout closed before announcing an address"
            );
            if let Some(rest) = line.strip_prefix("serving on ") {
                break rest
                    .split_whitespace()
                    .next()
                    .expect("address after 'serving on'")
                    .to_string();
            }
        }
    };

    // Hold open idle connections (their reader threads must block, not
    // poll). A ping proves the server is live before we start timing.
    let mut probe = TcpStream::connect(&addr).unwrap();
    proto::write_frame(&mut probe, &proto::encode_request(&Request::Ping { id: 1 })).unwrap();
    let payload = proto::read_frame(&mut probe).unwrap().unwrap();
    assert!(matches!(
        proto::decode_response(&payload).unwrap(),
        Response::Pong { id: 1 }
    ));
    let _idle_conns: Vec<TcpStream> = (0..3).map(|_| TcpStream::connect(&addr).unwrap()).collect();

    // Let post-startup work settle, then measure CPU over 2 s of idle.
    std::thread::sleep(Duration::from_millis(300));
    let before = cpu_ticks(pid);
    std::thread::sleep(Duration::from_secs(2));
    let ticks = cpu_ticks(pid) - before;
    // 2 ms busy-polling across accept + 4 reader threads burned ~50+
    // ticks here; a blocking server stays at 0. Allow 5 (50 ms) of
    // scheduler noise.
    assert!(
        ticks <= 5,
        "idle server burned {ticks} CPU ticks in 2 s — something is polling"
    );

    // Graceful remote shutdown; the process must exit on its own.
    proto::write_frame(&mut probe, &proto::encode_request(&Request::Shutdown)).unwrap();
    let payload = proto::read_frame(&mut probe).unwrap().unwrap();
    assert!(matches!(
        proto::decode_response(&payload).unwrap(),
        Response::ShutdownAck
    ));
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        if guard.0.try_wait().unwrap().is_some() {
            break;
        }
        assert!(Instant::now() < deadline, "server did not exit after ack");
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(reader);
    let _ = std::fs::remove_dir_all(&dir);
}
