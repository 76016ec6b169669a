//! Real-socket transport benchmark: attestation sessions per second,
//! round-trip latency percentiles, and resume behaviour under chaos.
//!
//! A fleet of modeled devices dials the verifier over Unix-domain
//! sockets — optionally through the in-path [`ChaosProxy`] — enrolls
//! (calibration + SAKE crossing real frames), then re-attests until
//! every honest device has passed `--rounds` rounds. One device turns
//! cheater after its first round and must be quarantined: the run
//! **asserts zero false accepts** in every regime, gated or not.
//!
//! Regimes (`--regime`):
//! * `clean` — direct relay, no faults: the throughput baseline.
//! * `torn` — every frame torn into 1–7 byte pieces with random
//!   sub-millisecond delays: framing-layer stress.
//! * `severing` — torn, plus every live connection severed after each
//!   of the first two fleet round milestones: devices must resume
//!   their SAKE sessions (never re-enroll) to finish the run.
//!
//! Reported, to `BENCH_net.json`: sessions/sec, challenge→response RTT
//! p50/p99 (microseconds, from the transport's in-band samples), resume
//! and shed counters, and the shared `host` stanza. `--gate` turns the
//! run into a CI assertion: a core-scaled sessions/sec floor, a ≥99%
//! resume success rate, and zero false accepts.
//!
//! Usage:
//!   netperf [--devices N] [--rounds N] [--seed N]
//!           [--regime clean|torn|severing] [--gate] [--out PATH]

use std::time::{Duration, Instant};

use sage::multi::FleetMember;
use sage_bench::UsageError;
use sage_crypto::{test_entropy, DhGroup};
use sage_service::{
    AttestationService, Bind, ChaosProfile, ChaosProxy, ClockDriver, DeviceLink, DeviceLinkConfig,
    DeviceState, LinkConfig, Pump, ServiceConfig, TcpTransport,
};
use sage_sgx_sim::SgxPlatform;

/// The core-scaled throughput floor: a real-socket fleet must sustain
/// 200 sessions/sec on 8 cores and up, linearly less on smaller hosts.
/// (Each session is a full challenge→checksum→verdict round over the
/// wire; the figure is bounded by socket RTT, not checksum replay.)
fn required_sessions_per_sec(cores: usize) -> f64 {
    200.0 * (cores as f64 / 8.0).min(1.0)
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    sorted[idx]
}

fn main() {
    let cores = sage_bench::cores();
    let mut honest = 7usize;
    let mut rounds = 5u64;
    let mut seed = 7u64;
    let mut regime = String::from("clean");
    let mut gate = false;
    let mut out_path = String::from("BENCH_net.json");
    sage_bench::parse_args(
        "netperf [--devices N] [--rounds N] [--seed N] [--regime clean|torn|severing] [--gate] [--out PATH]",
        |flag, a| {
            match flag {
                "--devices" => honest = a.value(flag)?,
                "--rounds" => rounds = a.value(flag)?,
                "--seed" => seed = a.value(flag)?,
                "--regime" => regime = a.value(flag)?,
                "--gate" => gate = true,
                "--out" => out_path = a.value(flag)?,
                _ => return Err(UsageError::unknown(flag)),
            }
            Ok(())
        },
    );
    assert!(honest > 0 && rounds > 0);
    let devices = honest + 1; // +1 mid-life cheater
    let cheater = format!("gpu-{:05}", devices - 1);
    // The device side and the verifier side each build the same member.
    let member = |i: usize| {
        let agent_seed = (seed as u8).wrapping_add(i as u8).wrapping_mul(3) | 1;
        FleetMember::modeled(format!("gpu-{i:05}"), agent_seed)
    };

    let dir = std::env::temp_dir().join(format!("sage-netperf-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    let sock = dir.join("verifier.sock");
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

    let (proxy, severs_wanted) = match regime.as_str() {
        "clean" => (None, 0u64),
        "torn" => (
            Some(
                ChaosProxy::spawn(
                    Bind::Uds(dir.join("proxy.sock")),
                    Bind::Uds(sock.clone()),
                    ChaosProfile::torn(seed ^ 0x000C_4A05),
                )
                .expect("spawn proxy"),
            ),
            0,
        ),
        "severing" => (
            Some(
                ChaosProxy::spawn(
                    Bind::Uds(dir.join("proxy.sock")),
                    Bind::Uds(sock.clone()),
                    ChaosProfile::torn(seed ^ 0x000C_4A05),
                )
                .expect("spawn proxy"),
            ),
            2,
        ),
        other => {
            eprintln!("unknown regime {other} (clean|torn|severing)");
            std::process::exit(2);
        }
    };
    let dial = match &proxy {
        Some(p) => p.local_bind(),
        None => Bind::Uds(sock.clone()),
    };

    eprintln!("netperf: {devices} devices ({honest} honest + 1 cheater), {rounds} rounds, regime {regime}, {cores} cores");
    let links: Vec<DeviceLink> = (0..devices)
        .map(|i| {
            DeviceLink::spawn(
                member(i),
                DhGroup::test_group(),
                DeviceLinkConfig {
                    connect: dial.clone(),
                    compromise_after: (i == devices - 1).then_some(1),
                    ..DeviceLinkConfig::default()
                },
            )
        })
        .collect();

    // Enroll the whole fleet at virtual tick 0, in name order.
    let t0 = Instant::now();
    let wall_deadline = t0 + Duration::from_secs(120);
    while svc.transport().pending_enrolls() < devices {
        assert!(Instant::now() < wall_deadline, "fleet never connected");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut pending = Vec::new();
    while let Some(p) = svc.transport_mut().take_pending_enroll() {
        pending.push(p);
    }
    pending.sort_by(|a, b| a.0.cmp(&b.0));
    let platform = SgxPlatform::new([7u8; 16]);
    for (name, stream) in pending {
        let index: usize = name[4..].parse().expect("gpu-NNNNN");
        let enclave = platform.launch(b"net-verifier", &mut test_entropy((seed as u8) | 1));
        svc.join_remote(member(index), enclave, stream);
    }
    let enroll_wall = t0.elapsed().as_secs_f64();
    svc.transport().take_rtt_samples(); // discard calibration-era samples

    let honest_floor = |svc: &AttestationService<TcpTransport>| {
        svc.statuses()
            .iter()
            .filter(|s| s.name != cheater)
            .map(|s| s.rounds_passed)
            .min()
            .unwrap_or(0)
    };
    let mut driver = ClockDriver::new(200_000);
    let mut severs_done = 0u64;
    let t1 = Instant::now();
    let mut iters = 0u32;
    loop {
        iters += 1;
        assert!(iters < 2_000, "fleet failed to converge");
        let target = svc.now() + 10_000;
        match driver.run_until(&mut svc, target) {
            Pump::Target => {}
            Pump::Enrolls => panic!("re-enrollment attempted; resume must suffice"),
        }
        if let Some(p) = &proxy {
            if severs_done < severs_wanted && honest_floor(&svc) > severs_done {
                p.sever_all();
                severs_done += 1;
            }
        }
        let done = honest_floor(&svc) >= rounds
            && svc.state_of(&cheater) == Some(DeviceState::Quarantined)
            && severs_done >= severs_wanted;
        if done {
            break;
        }
    }
    let steady_wall = t1.elapsed().as_secs_f64();

    // ---- verdicts and counters ------------------------------------------
    let statuses = svc.statuses();
    let mut false_accepts = 0u64;
    for s in &statuses {
        if s.name == cheater {
            // The cheater passed exactly its one honest round; anything
            // beyond that is a false accept, as is any non-quarantined
            // terminal state.
            false_accepts += s.rounds_passed.saturating_sub(1);
            if s.state != DeviceState::Quarantined {
                false_accepts += 1;
            }
        }
    }
    assert_eq!(
        false_accepts,
        0,
        "FALSE ACCEPT: cheater ended {:?} with {} rounds passed",
        svc.state_of(&cheater),
        statuses
            .iter()
            .find(|s| s.name == cheater)
            .map(|s| s.rounds_passed)
            .unwrap_or(0)
    );
    for s in statuses.iter().filter(|s| s.name != cheater) {
        assert_eq!(s.state, DeviceState::Trusted, "{} not Trusted", s.name);
    }

    let sessions_total: u64 = svc.log().counters().rounds_passed;
    let sessions_per_sec = sessions_total as f64 / steady_wall.max(1e-9);
    let mut rtt: Vec<u64> = svc.transport().take_rtt_samples();
    rtt.sort_unstable();
    let rtt_p50_us = percentile(&rtt, 0.50) as f64 / 1_000.0;
    let rtt_p99_us = percentile(&rtt, 0.99) as f64 / 1_000.0;
    let stats = svc.transport().stats();
    let link_downs = svc.log().counters().link_downs;
    let mut resumes_total = 0u64;
    let mut enrollments_total = 0u64;
    for link in links {
        let r = link.stop();
        resumes_total += r.resumes;
        enrollments_total += r.enrollments;
    }
    assert_eq!(
        enrollments_total, devices as u64,
        "re-enrollment observed: {} enrollments for {} devices",
        enrollments_total, devices
    );
    let resume_attempts = stats.reconnects + stats.handshake_rejects;
    let resume_success_rate = if resume_attempts == 0 {
        1.0
    } else {
        stats.reconnects as f64 / resume_attempts as f64
    };
    let required = required_sessions_per_sec(cores);
    let throughput_pass = sessions_per_sec >= required;
    let resume_pass = resume_success_rate >= 0.99
        && (severs_wanted == 0 || stats.reconnects >= severs_wanted * devices as u64);
    let pass = throughput_pass && resume_pass;
    let rss = sage_bench::peak_rss_bytes();

    let mut out = String::from("{\n");
    out.push_str(&format!("  \"host\": {},\n", sage_bench::host_stanza()));
    out.push_str(&format!(
        "  \"regime\": \"{regime}\",\n  \"devices\": {devices},\n  \"target_rounds\": {rounds},\n  \"seed\": {seed},\n"
    ));
    out.push_str(&format!(
        "  \"enroll_wall_seconds\": {enroll_wall:.6},\n  \"steady_wall_seconds\": {steady_wall:.6},\n"
    ));
    out.push_str(&format!(
        "  \"sessions_total\": {sessions_total},\n  \"sessions_per_sec\": {sessions_per_sec:.1},\n"
    ));
    out.push_str(&format!(
        "  \"rtt_us\": {{\"samples\": {}, \"p50\": {rtt_p50_us:.1}, \"p99\": {rtt_p99_us:.1}}},\n",
        rtt.len()
    ));
    out.push_str(&format!(
        "  \"severs\": {severs_done}, \"resumes\": {resumes_total}, \"reconnects\": {}, \"handshake_rejects\": {}, \"link_downs\": {link_downs},\n",
        stats.reconnects, stats.handshake_rejects
    ));
    out.push_str(&format!(
        "  \"frames_shed\": {}, \"heartbeat_misses\": {}, \"codec_disconnects\": {},\n",
        stats.frames_shed, stats.heartbeat_misses, stats.codec_disconnects
    ));
    out.push_str(&format!(
        "  \"false_accepts\": {false_accepts},\n  \"resume_success_rate\": {resume_success_rate:.4},\n  \"peak_rss_bytes\": {rss},\n"
    ));
    out.push_str(&format!(
        "  \"gate\": {{\"required_sessions_per_sec\": {required:.1}, \"resume_rate_required\": 0.99, \"pass\": {pass}}}\n"
    ));
    out.push_str("}\n");
    std::fs::write(&out_path, out).expect("write BENCH_net.json");

    println!(
        "{sessions_total} sessions in {steady_wall:.3}s ({sessions_per_sec:.1}/s; gate {required:.0} on {cores} cores); rtt p50 {rtt_p50_us:.0}us p99 {rtt_p99_us:.0}us"
    );
    println!(
        "regime {regime}: {severs_done} fleet severs, {resumes_total} device resumes, {} server reconnects, resume rate {resume_success_rate:.3}, 0 false accepts",
        stats.reconnects
    );
    println!("wrote {out_path}");
    let _ = std::fs::remove_dir_all(&dir);
    if gate && !pass {
        eprintln!(
            "NET GATE FAILED: {sessions_per_sec:.1} sessions/sec (floor {required:.1}) resume rate {resume_success_rate:.3} (floor 0.99)"
        );
        std::process::exit(1);
    }
}
