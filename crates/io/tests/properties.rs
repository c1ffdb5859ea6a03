//! Seeded randomized tests of the I/O subsystem's pure logic.

use pard_icn::DsId;
use pard_io::{mac_to_u64, u64_to_mac, ApicRoutes};
use pard_sim::check::{bytes, cases, vec_of, DEFAULT_CASES};
use pard_sim::rng::Rng;
use pard_sim::ComponentId;

/// MAC packing round-trips for any address.
#[test]
fn mac_codec_round_trips() {
    cases("io.mac_codec_round_trips", DEFAULT_CASES, |rng| {
        let mac = bytes::<6, _>(rng);
        assert_eq!(u64_to_mac(mac_to_u64(mac)), mac);
    });
}

/// Packed MACs stay within 48 bits and are injective on random pairs.
#[test]
fn mac_packing_is_48_bit_and_injective() {
    cases(
        "io.mac_packing_is_48_bit_and_injective",
        DEFAULT_CASES,
        |rng| {
            let a = bytes::<6, _>(rng);
            let b = bytes::<6, _>(rng);
            let pa = mac_to_u64(a);
            let pb = mac_to_u64(b);
            assert!(pa < (1u64 << 48));
            assert_eq!(pa == pb, a == b);
        },
    );
}

/// APIC route tables behave like a map keyed by DS-id, for any
/// interleaving of set/clear operations.
#[test]
fn apic_routes_are_a_map() {
    cases("io.apic_routes_are_a_map", DEFAULT_CASES, |rng| {
        let ops = vec_of(rng, 1..100, |r| {
            (r.gen_range(0u16..16), r.gen_range(0u32..8), r.gen_bool(0.5))
        });
        let routes = ApicRoutes::new(16);
        let mut model = std::collections::HashMap::new();
        for &(ds, core, clear) in &ops {
            if clear {
                routes.clear(DsId::new(ds));
                model.remove(&ds);
            } else {
                routes.set(DsId::new(ds), ComponentId::from_raw(core));
                model.insert(ds, core);
            }
            for d in 0..16u16 {
                let expected = model.get(&d).map(|&c| ComponentId::from_raw(c));
                assert_eq!(routes.get(DsId::new(d)), expected);
            }
        }
    });
}
