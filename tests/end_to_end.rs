//! End-to-end integration: full-payload OMNC sessions over random lossy
//! meshes, exercising every crate in the workspace at once — deployment,
//! PHY, node selection, rate control, Drift, and the RLNC codec with
//! payload verification.

use omnc::multi::run_multi_session;
use omnc::net_topo::etx;
use omnc::net_topo::graph::{Link, NodeId, Topology};
use omnc::net_topo::select::select_forwarders;
use omnc::runner::{run_session, Protocol, RunOptions};
use omnc::scenario::Scenario;
use omnc::session::SessionConfig;

#[test]
fn omnc_delivers_verified_data_over_a_random_mesh() {
    let scenario = Scenario::small_test();
    let (topology, src, dst) = scenario.build_session(0);
    assert_eq!(
        scenario.session.payload_block_size, scenario.session.wire_block_size,
        "small_test must run the full coding pipeline"
    );
    let out = run_session(&topology, src, dst, Protocol::Omnc, &scenario.session, 17);
    assert!(out.generations_decoded >= 1, "no generation decoded");
    assert_eq!(out.verification_failures, 0, "payload corruption detected");
    assert!(out.throughput > 0.0);
}

#[test]
fn every_protocol_completes_on_every_session_of_the_scenario() {
    let scenario = Scenario::small_test();
    for k in 0..scenario.sessions as u64 {
        let (topology, src, dst) = scenario.build_session(k);
        for protocol in Protocol::ALL {
            let out = run_session(&topology, src, dst, protocol, &scenario.session, k);
            assert!(
                out.throughput >= 0.0 && out.throughput.is_finite(),
                "{} on session {k}",
                protocol.name()
            );
            assert_eq!(out.verification_failures, 0);
        }
    }
}

#[test]
fn coefficient_only_mode_matches_full_mode_behaviour() {
    // Large benches carry 1-byte payloads while charging full wire bytes;
    // the protocol dynamics (decoded generations, throughput) must be the
    // same as with real payloads since only charged bytes drive the MAC.
    let scenario = Scenario::small_test();
    let (topology, src, dst) = scenario.build_session(1);
    let full = scenario.session;
    let light = SessionConfig {
        payload_block_size: 1,
        ..full
    };
    let a = run_session(&topology, src, dst, Protocol::Omnc, &full, 23);
    let b = run_session(&topology, src, dst, Protocol::Omnc, &light, 23);
    assert_eq!(a.generations_decoded, b.generations_decoded);
    assert_eq!(a.throughput, b.throughput);
    assert_eq!(a.packet_counts, b.packet_counts);
}

#[test]
fn longer_sessions_decode_more_generations() {
    let scenario = Scenario::small_test();
    let (topology, src, dst) = scenario.build_session(2);
    let short = SessionConfig {
        duration: 30.0,
        ..scenario.session
    };
    let long = SessionConfig {
        duration: 120.0,
        ..scenario.session
    };
    let a = run_session(&topology, src, dst, Protocol::Omnc, &short, 29);
    let b = run_session(&topology, src, dst, Protocol::Omnc, &long, 29);
    assert!(
        b.generations_decoded >= a.generations_decoded,
        "long {} < short {}",
        b.generations_decoded,
        a.generations_decoded
    );
    assert!(b.generations_decoded > 0);
}

#[test]
fn high_quality_links_speed_up_every_protocol() {
    use omnc::scenario::Quality;
    let mut lossy = Scenario::small_test();
    lossy.nodes = 60;
    let mut high = lossy.clone();
    high.quality = Quality::High;

    let (tl, s, d) = lossy.build_session(4);
    let th = high.build_topology();
    for protocol in [Protocol::Omnc, Protocol::EtxRouting] {
        let out_l = run_session(&tl, s, d, protocol, &lossy.session, 31);
        let out_h = run_session(&th, s, d, protocol, &high.session, 31);
        assert!(
            out_h.throughput >= out_l.throughput * 0.8,
            "{}: high-quality {} should not collapse below lossy {}",
            protocol.name(),
            out_h.throughput,
            out_l.throughput
        );
    }
}

#[test]
fn one_coupled_session_on_the_induced_topology_equals_the_single_session_run() {
    // `run_session` simulates the sub-topology induced by the session's
    // participants; `run_multi_session` simulates whatever mesh it is given.
    // Handing it that induced sub-topology must reproduce the single run
    // bit for bit, or the two projections of the runner have drifted apart.
    // (OMNC is covered in-crate: its rate source is not reachable from here.)
    let scenario = Scenario::small_test();
    for k in 0..scenario.sessions as u64 {
        let (topology, src, dst) = scenario.build_session(k);
        for protocol in [Protocol::More, Protocol::OldMore, Protocol::EtxRouting] {
            let participants: Vec<NodeId> = if protocol == Protocol::EtxRouting {
                etx::best_path(&topology, src, dst).expect("sessions are connected")
            } else {
                select_forwarders(&topology, src, dst).nodes().to_vec()
            };
            let local = |v: NodeId| participants.iter().position(|&p| p == v).map(NodeId::new);
            let links: Vec<Link> = topology
                .links()
                .filter_map(|l| {
                    Some(Link {
                        from: local(l.from)?,
                        to: local(l.to)?,
                        p: l.p,
                    })
                })
                .collect();
            let induced = Topology::from_links(participants.len(), links).unwrap();
            let endpoints = [(local(src).unwrap(), local(dst).unwrap())];

            let single = run_session(&topology, src, dst, protocol, &scenario.session, k);
            let (coupled, _) = run_multi_session(
                &induced,
                &endpoints,
                protocol,
                &scenario.session,
                k,
                &RunOptions::default(),
            );
            let name = protocol.name();
            let summary = &coupled.sessions[0];
            assert!(single.throughput > 0.0, "{name} session {k}");
            assert_eq!(
                summary.throughput.to_bits(),
                single.throughput.to_bits(),
                "{name} session {k}"
            );
            assert_eq!(summary.generations_decoded, single.generations_decoded);
            if protocol != Protocol::EtxRouting {
                assert_eq!(summary.packet_counts, single.packet_counts, "{name}");
            }
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&coupled.queue_averages),
                bits(&single.queue_averages),
                "{name} session {k}"
            );
        }
    }
}
