//! Property-based tests spanning crate boundaries: random topologies and
//! coding parameters exercise invariants that no single crate can check on
//! its own.

use omnc::net_topo::deploy::Deployment;
use omnc::net_topo::graph::{Link, NodeId, Topology};
use omnc::net_topo::phy::Phy;
use omnc::net_topo::select::{count_paths, select_forwarders};
use omnc::omnc_opt::{lp, SUnicast};
use omnc::rlnc::{
    Absorption, BatchDecoder, CodedPacket, Decoder, Encoder, Generation, GenerationConfig,
    GenerationId, Kernel, Recoder,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any generation survives an arbitrary lossy relay chain: as long as
    /// packets keep flowing, the destination decodes the exact source bytes.
    #[test]
    fn rlnc_survives_arbitrary_relay_chains(
        blocks in 2usize..12,
        block_size in 1usize..64,
        relays in 1usize..4,
        loss in 0.05f64..0.6,
        seed in any::<u64>(),
    ) {
        let cfg = GenerationConfig::new(blocks, block_size).expect("positive dims");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..cfg.payload_len()).map(|i| (i as u8) ^ 0x3c).collect();
        let generation = Generation::from_bytes(GenerationId::new(0), cfg, &data).expect("sized");
        let encoder = Encoder::new(&generation);
        let mut chain: Vec<Recoder> =
            (0..relays).map(|_| Recoder::new(GenerationId::new(0), cfg)).collect();
        let mut dst = Decoder::new(GenerationId::new(0), cfg);

        let mut guard = 0;
        while !dst.is_complete() {
            guard += 1;
            prop_assert!(guard < 100_000, "decode did not finish");
            // Source feeds the first relay; each relay feeds the next.
            let p = encoder.emit(&mut rng);
            if rng.gen_bool(1.0 - loss) {
                let _ = chain[0].absorb(&p);
            }
            for i in 0..relays {
                if chain[i].rank() == 0 {
                    continue;
                }
                let out = chain[i].emit(&mut rng).expect("rank > 0");
                if rng.gen_bool(1.0 - loss) {
                    if i + 1 < relays {
                        let _ = chain[i + 1].absorb(&out);
                    } else {
                        let _ = dst.absorb(&out);
                    }
                }
            }
        }
        prop_assert_eq!(dst.recover().expect("complete"), data);
    }

    #[test]
    fn progressive_decoding_agrees_with_the_batch_oracle(
        blocks in 2usize..10,
        block_size in 1usize..32,
        seed in any::<u64>(),
    ) {
        progressive_agrees_with_batch(blocks, block_size, seed);
    }

    #[test]
    fn selection_yields_solvable_instances(seed in 0u64..500) {
        selection_is_solvable(seed);
    }

    #[test]
    fn degrading_links_cannot_raise_the_optimum(
        seed in 0u64..200,
        factor in 0.3f64..0.95,
    ) {
        degrading_cannot_raise_the_optimum(seed, factor);
    }
}

/// Rows long enough for the accelerated kernel's vector body, which the
/// small random shapes never reach: the paper's generation shape, the
/// coefficient-only shape of the figure sweeps (40-byte coefficient rows,
/// 32 + 8 bytes of vector work; 41-byte packed rows), and one shape per
/// tail block of the vector body (48 x 9: rows of 32 + 16 and
/// 32 + 16 + 8 + 1 bytes; 56 x 3: 32 + 16 + 8 and 32 + 16 + 8 + 3).
#[test]
fn progressive_decoding_agrees_with_the_batch_oracle_on_long_rows() {
    for (blocks, block_size) in [(40, 1024), (40, 1), (48, 9), (56, 3)] {
        progressive_agrees_with_batch(blocks, block_size, 2008);
    }
}

/// The store-then-solve [`BatchDecoder`], on the lookup-table kernel, is the
/// progressive decoder's oracle: fed the same stream — fresh, duplicated,
/// linearly dependent and zero-coefficient packets — both hold the same rank
/// after every packet and recover the same bytes.
fn progressive_agrees_with_batch(blocks: usize, block_size: usize, seed: u64) {
    let cfg = GenerationConfig::new(blocks, block_size).expect("positive dims");
    let id = GenerationId::new(3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut data = vec![0u8; cfg.payload_len()];
    rng.fill(&mut data[..]);
    let generation = Generation::from_bytes(id, cfg, &data).expect("sized");
    let encoder = Encoder::new(&generation);
    let mut batch = BatchDecoder::with_kernel(id, cfg, Kernel::Table);
    let mut progressive = Decoder::new(id, cfg);
    let mut sent: Vec<CodedPacket> = Vec::new();
    let xor = |a: &[u8], b: &[u8]| a.iter().zip(b).map(|(x, y)| x ^ y).collect();
    while !progressive.is_complete() {
        assert!(sent.len() < 10_000, "decode did not finish");
        let packet = match rng.gen_range(0..4) {
            0 if !sent.is_empty() => sent[rng.gen_range(0..sent.len())].clone(),
            // The GF(2^8) sum of two earlier packets (zero if they coincide).
            1 if !sent.is_empty() => {
                let (a, b) = (&sent[rng.gen_range(0..sent.len())], &sent[sent.len() - 1]);
                let coefficients = xor(a.coefficients(), b.coefficients());
                CodedPacket::new(id, coefficients, xor(a.payload(), b.payload()))
                    .expect("non-empty")
            }
            2 => CodedPacket::new(id, vec![0; blocks], vec![0; block_size]).expect("non-empty"),
            _ => encoder.emit(&mut rng),
        };
        batch.push(packet.clone()).expect("well-formed");
        progressive.absorb(&packet).expect("well-formed");
        assert_eq!(
            progressive.rank(),
            batch.rank(),
            "after {} packets",
            sent.len() + 1
        );
        sent.push(packet);
    }
    assert_eq!(batch.solve(), progressive.recover());
    assert_eq!(progressive.recover().expect("complete"), data);
    // A full decoder keeps hearing packets (relays do, until the next
    // generation): every one is redundant and changes nothing.
    for _ in 0..4 {
        let packet = encoder.emit(&mut rng);
        assert_eq!(
            progressive.absorb(&packet).expect("well-formed"),
            Absorption::Redundant
        );
        assert_eq!(progressive.rank(), blocks);
    }
    assert_eq!(progressive.recover().expect("complete"), data);
}

/// Inputs proptest once shrank a failure of the two properties below to,
/// re-run on every build.
#[test]
fn past_failures_stay_fixed() {
    selection_is_solvable(25);
    degrading_cannot_raise_the_optimum(44, 0.8689852849051888);
    degrading_cannot_raise_the_optimum(41, 0.3);
}

/// Node selection on the random deployment `seed` yields an acyclic
/// subgraph whose sUnicast LP is solvable with positive throughput.
fn selection_is_solvable(seed: u64) {
    let phy = Phy::paper_lossy();
    let topo = Deployment::random(25, 6.0, &phy, seed).into_topology();
    let (s, d) = topo.farthest_pair();
    let sel = select_forwarders(&topo, s, d);
    assert!(sel.contains(s) && sel.contains(d), "seed {seed}");
    assert!(sel.path_count() >= 1, "seed {seed}");
    let problem = SUnicast::from_selection(&topo, &sel, 1.0);
    let exact = lp::solve_exact(&problem).expect("selection instances are solvable");
    assert!(exact.gamma > 0.0, "seed {seed}");
    // One broadcast transmission can be usefully received by several
    // forwarders at once (the coupling constraint is per-link), so the
    // true capacity bound is C * sum of the source's out-link delivery
    // probabilities, not C itself.
    let broadcast_gain: f64 = problem
        .out_links(problem.src())
        .iter()
        .map(|&e| problem.link(e).p)
        .sum();
    assert!(
        exact.gamma <= broadcast_gain + 1e-6,
        "seed {seed}: throughput cannot exceed the source's broadcast capacity: {} > {}",
        exact.gamma,
        broadcast_gain
    );
    assert_eq!(
        problem.feasibility_violation(&exact.b, &exact.x, exact.gamma, 1e-6),
        None,
        "seed {seed}"
    );
}

/// On the random deployment `seed`, the optimum does not improve when
/// every link's delivery probability is scaled by `factor` < 1.
fn degrading_cannot_raise_the_optimum(seed: u64, factor: f64) {
    let phy = Phy::paper_lossy();
    let topo = Deployment::random(20, 6.0, &phy, seed).into_topology();
    let (s, d) = topo.farthest_pair();
    let sel = select_forwarders(&topo, s, d);
    let base = lp::solve_exact(&SUnicast::from_selection(&topo, &sel, 1.0))
        .expect("solvable")
        .gamma;

    let degraded_links: Vec<Link> = topo
        .links()
        .map(|l| Link {
            p: (l.p * factor).max(1e-3),
            ..l
        })
        .collect();
    let degraded = Topology::from_links(topo.len(), degraded_links).expect("valid");
    let sel2 = select_forwarders(&degraded, s, d);
    let worse = lp::solve_exact(&SUnicast::from_selection(&degraded, &sel2, 1.0))
        .expect("solvable")
        .gamma;
    assert!(
        worse <= base + 1e-6,
        "seed {seed}, factor {factor}: worse links improved γ: {worse} > {base}"
    );
}

/// Non-proptest cross-crate check: DAG path counting is consistent between
/// the selection and an independent enumeration on a small instance.
#[test]
fn path_count_matches_exhaustive_enumeration() {
    let mut links = Vec::new();
    // A 2x2 grid-of-diamonds: s → {a, b} → m → {c, d} → t.
    let ids: Vec<NodeId> = (0..6).map(NodeId::new).collect();
    let (s, a, b, m, c, t) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
    for (u, v) in [(s, a), (s, b), (a, m), (b, m), (m, c), (m, t)] {
        links.push(Link {
            from: u,
            to: v,
            p: 0.5,
        });
    }
    // c must be strictly closer to t than m is, or node selection drops the
    // m → c link (distances must strictly decrease along selected links).
    links.push(Link {
        from: c,
        to: t,
        p: 0.9,
    });
    let topo = Topology::from_links(6, links).expect("valid");
    // Paths s→t: s{a|b}m then (mt | mct) = 2 × 2 = 4.
    let pairs = topo.links().map(|l| (l.from.index(), l.to.index()));
    assert_eq!(count_paths(topo.len(), pairs, s.index(), t.index()), 4);
    let sel = select_forwarders(&topo, s, t);
    assert_eq!(sel.path_count(), 4);
}

/// The RLNC wire format survives a trip through serialization even after
/// relay re-encoding (cross-crate: rlnc × serde layout).
#[test]
fn recoded_packets_roundtrip_the_wire_format() {
    let cfg = GenerationConfig::new(6, 32).expect("valid");
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let data = vec![7u8; cfg.payload_len()];
    let generation = Generation::from_bytes(GenerationId::new(9), cfg, &data).expect("sized");
    let encoder = Encoder::new(&generation);
    let mut relay = Recoder::new(GenerationId::new(9), cfg);
    for _ in 0..4 {
        relay.absorb(&encoder.emit(&mut rng)).expect("well-formed");
    }
    let packet = relay.emit(&mut rng).expect("rank > 0");
    let bytes = packet.to_bytes();
    let parsed = omnc::rlnc::CodedPacket::from_bytes(&bytes).expect("roundtrip");
    assert_eq!(parsed, packet);
}
