//! Two-process attestation over a real Unix-domain socket.
//!
//! Terminal 1 — the verifier:
//! ```text
//! cargo run --release --example attested_link -- serve --sock /tmp/sage-link.sock --rounds 3
//! ```
//!
//! Terminal 2 — a device (repeat with different `--index` for a fleet):
//! ```text
//! cargo run --release --example attested_link -- device --sock /tmp/sage-link.sock --index 0
//! ```
//!
//! The device enrolls (calibration + SAKE) over the socket, then answers
//! re-attestation rounds until the verifier has seen `--rounds` passes
//! and exits. Kill the device mid-run and restart it: it resumes its
//! session with a `Hello`/`HelloAck` MAC handshake — no re-enrollment —
//! and the verifier's evidence chain carries on unbroken.
//!
//! Devices are modeled (replay-engine checksums, synthesized timing), so
//! the demo runs anywhere; the verifier installs an identical local twin
//! per device to replay checksums against.

use std::path::PathBuf;
use std::time::Duration;

use sage_repro::core::multi::FleetMember;
use sage_repro::crypto::{test_entropy, DhGroup};
use sage_repro::service::{
    AttestationService, Bind, ClockDriver, DeviceLink, DeviceLinkConfig, DeviceState, LinkConfig,
    Pump, ServiceConfig, TcpTransport,
};
use sage_repro::sgx::SgxPlatform;

fn modeled_member(index: usize) -> FleetMember {
    let seed = (index as u8).wrapping_mul(3).wrapping_add(11) | 1;
    FleetMember::modeled(format!("gpu-{index:05}"), seed)
}

fn serve(sock: PathBuf, rounds: u64) {
    let net = TcpTransport::bind(Bind::Uds(sock.clone()), LinkConfig::default())
        .expect("bind verifier socket");
    let mut svc = AttestationService::new(
        ServiceConfig {
            reattest_interval: 20_000,
            backoff_jitter: 500,
            ..ServiceConfig::default()
        },
        DhGroup::test_group(),
        net,
    );
    let platform = SgxPlatform::new([7u8; 16]);
    let mut driver = ClockDriver::new(100_000);
    println!("verifier listening on {}", sock.display());
    let mut last_line = String::new();
    loop {
        // Idle between bursts of work: with no device connected the
        // virtual clock would otherwise jump ahead in a hot loop.
        svc.transport().wait_activity(Duration::from_millis(200));
        let target = svc.now() + 10_000;
        match driver.run_until(&mut svc, target) {
            Pump::Enrolls => {
                while let Some((name, stream)) = svc.transport_mut().take_pending_enroll() {
                    let index: usize = match name.strip_prefix("gpu-").and_then(|s| s.parse().ok())
                    {
                        Some(i) => i,
                        None => {
                            eprintln!("rejecting unknown device name {name:?}");
                            continue;
                        }
                    };
                    println!("enrolling {name} ...");
                    let enclave = platform.launch(b"link-verifier", &mut test_entropy(23));
                    svc.join_remote(modeled_member(index), enclave, stream);
                    println!("  -> {:?}", svc.state_of(&name).unwrap());
                }
            }
            Pump::Target => {}
        }
        let statuses = svc.statuses();
        let mut line = String::new();
        for s in &statuses {
            line.push_str(&format!(
                "  {} {:?} rounds={} resumes_seen={}\n",
                s.name,
                s.state,
                s.rounds_passed,
                svc.transport().stats().reconnects,
            ));
        }
        if line != last_line {
            print!("{line}");
            last_line = line;
        }
        let done = !statuses.is_empty()
            && statuses
                .iter()
                .all(|s| s.state == DeviceState::Trusted && s.rounds_passed >= rounds);
        if done {
            let st = svc.transport().stats();
            println!(
                "all devices Trusted with >= {rounds} rounds; {} resumes, {} frames shed, {} heartbeat misses",
                st.reconnects, st.frames_shed, st.heartbeat_misses
            );
            return;
        }
    }
}

fn device(sock: PathBuf, index: usize, seconds: u64) {
    let link = DeviceLink::spawn(
        modeled_member(index),
        DhGroup::test_group(),
        DeviceLinkConfig {
            connect: Bind::Uds(sock),
            ..DeviceLinkConfig::default()
        },
    );
    println!(
        "device {} dialing (runs {seconds}s; ctrl-c to kill)",
        link.name()
    );
    std::thread::sleep(Duration::from_secs(seconds));
    let report = link.stop();
    println!(
        "device report: enrolled={} enrollments={} resumes={} rounds_answered={} cached_replays={} disconnects={}",
        report.enrolled,
        report.enrollments,
        report.resumes,
        report.rounds_answered,
        report.cached_replays,
        report.disconnects
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mode = args.next().unwrap_or_default();
    let mut sock = PathBuf::from("/tmp/sage-link.sock");
    let mut rounds = 3u64;
    let mut index = 0usize;
    let mut seconds = 30u64;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--sock" => sock = PathBuf::from(args.next().expect("--sock PATH")),
            "--rounds" => {
                rounds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--rounds N")
            }
            "--index" => index = args.next().and_then(|v| v.parse().ok()).expect("--index N"),
            "--seconds" => {
                seconds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seconds N")
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    match mode.as_str() {
        "serve" => serve(sock, rounds),
        "device" => device(sock, index, seconds),
        _ => {
            eprintln!(
                "usage: attested_link serve --sock PATH [--rounds N]\n       attested_link device --sock PATH [--index N] [--seconds N]"
            );
            std::process::exit(2);
        }
    }
}
