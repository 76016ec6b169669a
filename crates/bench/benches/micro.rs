//! Criterion micro-benchmarks of the building blocks: crypto primitives,
//! instruction encode/decode, checksum replay throughput, and a small
//! end-to-end device run. These complement the table harnesses (which
//! regenerate the paper's evaluation) with regression-grade numbers.

// Gated: `criterion` is not vendored in this dependency-free tree. Build
// with `--features criterion` after re-adding the dev-dependency locally.
#[cfg(not(feature = "criterion"))]
fn main() {
    eprintln!("micro benches require the `criterion` feature (and the criterion crate)");
}

#[cfg(feature = "criterion")]
mod gated {
    use criterion::{criterion_group, Criterion, Throughput};

    use sage_crypto::{cmac_aes128, sha256, test_entropy, AesCtr, BigUint, DhGroup};
    use sage_gpu_sim::{Device, DeviceConfig};
    use sage_isa::{encode, Instruction, Opcode, Operand, Program, Reg};
    use sage_vf::{build_vf, expected_checksum, VfParams};

    fn bench_crypto(c: &mut Criterion) {
        let mut g = c.benchmark_group("crypto");
        let data = vec![0xA5u8; 4096];
        g.throughput(Throughput::Bytes(data.len() as u64));
        g.bench_function("sha256/4KiB", |b| b.iter(|| sha256(&data)));
        g.bench_function("aes-ctr/4KiB", |b| {
            b.iter(|| {
                let mut ctr = AesCtr::new(&[7u8; 16], &[9u8; 16]);
                let mut buf = data.clone();
                ctr.apply(&mut buf);
                buf
            })
        });
        g.bench_function("cmac/4KiB", |b| b.iter(|| cmac_aes128(&[7u8; 16], &data)));
        g.finish();

        c.bench_function("dh/test-group-exchange", |b| {
            let group = DhGroup::test_group();
            let mut e = test_entropy(7);
            let alice = group.generate(&mut e);
            let bob = group.generate(&mut e);
            b.iter(|| group.shared_secret(&alice, &bob.public))
        });

        c.bench_function("bignum/modpow-256bit", |b| {
            let base = BigUint::from_bytes_be(&[0xABu8; 32]);
            let exp = BigUint::from_bytes_be(&[0xCDu8; 32]);
            let mut modulus_bytes = [0xFFu8; 32];
            modulus_bytes[31] = 0x61;
            let m = BigUint::from_bytes_be(&modulus_bytes);
            b.iter(|| base.modpow(&exp, &m))
        });
    }

    fn bench_isa(c: &mut Criterion) {
        let mut insn = Instruction::new(Opcode::Imad);
        insn.dst = Reg(4);
        insn.srcs = [Reg(4).into(), Operand::Imm(0x11), Reg(5).into()];

        c.bench_function("isa/encode", |b| b.iter(|| encode::encode(&insn)));
        let word = encode::encode(&insn);
        c.bench_function("isa/decode", |b| b.iter(|| encode::decode(word).unwrap()));

        let src = "IMAD R4, R4, 0x11, R5 ;\n".repeat(64);
        c.bench_function("isa/assemble-64", |b| {
            b.iter(|| Program::assemble(&src).unwrap())
        });
    }

    fn bench_vf(c: &mut Criterion) {
        let params = VfParams::test_tiny();
        c.bench_function("vf/build", |b| {
            b.iter(|| build_vf(&params, 0x1000, 7).unwrap())
        });

        let build = build_vf(&params, 0x1000, 7).unwrap();
        let ch: Vec<[u8; 16]> = (0..params.grid_blocks).map(|b| [b as u8; 16]).collect();
        let steps = params.total_steps() * params.total_threads();
        let mut g = c.benchmark_group("vf");
        g.throughput(Throughput::Elements(steps));
        g.bench_function("replay", |b| b.iter(|| expected_checksum(&build, &ch)));
        g.finish();
    }

    fn bench_device(c: &mut Criterion) {
        let params = VfParams::test_tiny();
        c.bench_function("device/checksum-run", |b| {
            b.iter(|| {
                let dev = Device::new(DeviceConfig::sim_tiny());
                let mut session = sage::GpuSession::install(dev, &params, 7).unwrap();
                let ch: Vec<[u8; 16]> = (0..params.grid_blocks).map(|b| [b as u8; 16]).collect();
                session.run_checksum(&ch).unwrap()
            })
        });
    }

    criterion_group! {
        name = benches;
        config = Criterion::default().sample_size(20);
        targets = bench_crypto, bench_isa, bench_vf, bench_device
    }
}

#[cfg(feature = "criterion")]
fn main() {
    gated::benches();
}
