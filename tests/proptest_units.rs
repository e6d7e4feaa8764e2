//! Property-based tests on the unit model: parser round-trips, the
//! Pre-parser cache equivalence, and graph invariants, over arbitrary
//! generated unit sets.

use proptest::prelude::*;

use std::sync::Arc;

use booting_booster::bb::{with_supervision, PreParser};
use booting_booster::init::{
    decode_units, encode_units, parse_unit, EdgeKind, IoSchedulingClass, RestartPolicy,
    ServiceType, Unit, UnitGraph, UnitName, INTEGRITY_OVERHEAD,
};
use booting_booster::workloads::{profiles, tv_scenario, tv_scenario_with, TizenParams};

/// Strategy: a valid unit name over a closed universe (so references
/// can resolve).
fn name_strategy() -> impl Strategy<Value = UnitName> {
    (
        0usize..12,
        prop_oneof![
            Just("service"),
            Just("mount"),
            Just("socket"),
            Just("target")
        ],
    )
        .prop_map(|(i, suffix)| UnitName::new(format!("u{i:02}.{suffix}")))
}

fn service_type_strategy() -> impl Strategy<Value = ServiceType> {
    prop_oneof![
        Just(ServiceType::Simple),
        Just(ServiceType::Forking),
        Just(ServiceType::Oneshot),
        Just(ServiceType::Notify),
    ]
}

/// Strategy: one unit with arbitrary (possibly weird) fields.
fn unit_strategy() -> impl Strategy<Value = Unit> {
    (
        name_strategy(),
        "[a-zA-Z0-9 _.-]{0,40}",
        prop::collection::vec(name_strategy(), 0..4),
        prop::collection::vec(name_strategy(), 0..4),
        prop::collection::vec(name_strategy(), 0..3),
        prop::collection::vec(name_strategy(), 0..3),
        service_type_strategy(),
        prop::option::of("[a-z/:-]{1,24}"),
        -20i8..=19,
        0u64..10_000,
        any::<bool>(),
    )
        .prop_map(
            |(name, desc, after, before, requires, wants, st, exec, nice, timeout, defdeps)| {
                let mut u = Unit::new(name);
                u.description = desc.trim().to_owned();
                u.after = after;
                u.before = before;
                u.requires = requires;
                u.wants = wants;
                u.exec.service_type = st;
                u.exec.exec_start = exec;
                u.exec.nice = nice;
                u.exec.timeout_ms = timeout;
                u.exec.io_class = if nice < 0 {
                    IoSchedulingClass::Realtime
                } else {
                    IoSchedulingClass::BestEffort
                };
                u.default_dependencies = defdeps;
                u
            },
        )
}

/// Strategy: a set of units with unique names.
fn unit_set_strategy() -> impl Strategy<Value = Vec<Unit>> {
    prop::collection::vec(unit_strategy(), 1..14).prop_map(|mut units| {
        let mut seen = std::collections::BTreeSet::new();
        units.retain(|u| seen.insert(u.name.clone()));
        units
    })
}

/// The Pre-parser's sizes as the renderers produce them: the summed
/// unit-file text and the cache blob without its integrity envelope.
/// `PreParser::build` counts these without rendering; this is its
/// oracle.
fn rendered_sizes(units: &[Unit]) -> (u64, u64) {
    let text: usize = units.iter().map(|u| u.to_unit_file().len()).sum();
    let blob = encode_units(units).len() - INTEGRITY_OVERHEAD;
    (text as u64, blob as u64)
}

fn counted_sizes(units: &[Unit]) -> (u64, u64) {
    let pre = PreParser::build(units);
    (pre.text_bytes, pre.blob_bytes)
}

#[test]
fn preparser_counts_equal_rendered_lengths_on_scenarios() {
    let tv = tv_scenario();
    let large = tv_scenario_with(
        profiles::ue48h6200(),
        TizenParams {
            services: 4000,
            ..TizenParams::default()
        },
    );
    // Supervision sets the codec's flag bytes and tail fields; one
    // `OnFailure=` list covers the other flag.
    let mut supervised = with_supervision(&tv, RestartPolicy::OnFailure, 250, 3);
    let units = Arc::make_mut(&mut supervised.units);
    let first_service = units
        .iter_mut()
        .find(|u| u.exec.exec_start.is_some())
        .expect("the TV scenario has services");
    first_service
        .on_failure
        .push(UnitName::new("rescue.service"));
    for s in [&tv, &large, &supervised] {
        assert_eq!(
            counted_sizes(&s.units),
            rendered_sizes(&s.units),
            "{}",
            s.name
        );
    }
}

proptest! {
    /// `PreParser::build` counts exactly the bytes the unit-file
    /// renderer and the cache encoder write.
    #[test]
    fn preparser_counts_equal_rendered_lengths(units in unit_set_strategy()) {
        prop_assert_eq!(counted_sizes(&units), rendered_sizes(&units));
    }

    /// Rendering a unit to file syntax and parsing it back reproduces
    /// the unit exactly.
    #[test]
    fn unit_file_roundtrip(unit in unit_strategy()) {
        let text = unit.to_unit_file();
        let parsed = parse_unit(unit.name.as_str(), &text)
            .expect("rendered unit files always parse");
        prop_assert_eq!(parsed.unit, unit);
        prop_assert!(parsed.warnings.is_empty());
    }

    /// The Pre-parser cache is lossless: decode(encode(units)) == units.
    #[test]
    fn preparse_cache_roundtrip(units in unit_set_strategy()) {
        let blob = encode_units(&units);
        let back = decode_units(&blob).expect("cache decodes");
        prop_assert_eq!(back, units);
    }

    /// The cache equals the parse result of the rendered text: the two
    /// load paths (text parse vs cache decode) agree byte-for-byte at
    /// the unit level — the correctness contract of the Pre-parser.
    #[test]
    fn preparse_equals_text_parse(units in unit_set_strategy()) {
        let reparsed: Vec<Unit> = units
            .iter()
            .map(|u| parse_unit(u.name.as_str(), &u.to_unit_file()).expect("parses").unit)
            .collect();
        let decoded = decode_units(&encode_units(&units)).expect("decodes");
        prop_assert_eq!(reparsed, decoded);
    }

    /// Corrupting any single byte of a cache blob never panics — and
    /// with the trailing CRC, any single-byte change is *detected*: the
    /// decode errs rather than returning silently wrong units.
    #[test]
    fn corrupted_cache_never_panics(units in unit_set_strategy(), pos in any::<prop::sample::Index>(), delta in 1u8..255) {
        let mut blob = encode_units(&units);
        let idx = pos.index(blob.len());
        blob[idx] = blob[idx].wrapping_add(delta);
        prop_assert!(
            decode_units(&blob).is_err(),
            "single-byte damage at {idx} decoded silently"
        );
    }

    /// Arbitrary bytes never panic the cache decoder: garbage in,
    /// `Err` (or a valid decode, for the empty-ish prefixes) out.
    #[test]
    fn decode_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..1024),
    ) {
        let _ = decode_units(&bytes);
    }

    /// A seeded [`CorruptionPlan`] applied to a valid blob never panics
    /// the decoder, and if it changed any byte the decode MUST fail —
    /// the boot-time recovery chain depends on damage being detected.
    #[test]
    fn corruption_plans_are_always_detected(units in unit_set_strategy(), seed in any::<u64>()) {
        use booting_booster::sim::CorruptionPlan;

        let pristine = encode_units(&units);
        let mut damaged = pristine.clone();
        CorruptionPlan::seeded(seed).apply(&mut damaged);
        if damaged == pristine {
            prop_assert!(decode_units(&damaged).is_ok());
        } else {
            prop_assert!(
                decode_units(&damaged).is_err(),
                "corruption plan {seed} decoded silently"
            );
        }
    }

    /// Graph construction + topological order: when the ordering graph
    /// is acyclic, every ordering edge is respected by the topo order.
    #[test]
    fn topo_order_respects_edges(units in unit_set_strategy()) {
        let graph = UnitGraph::build(units).expect("unique names");
        if let Ok(order) = graph.topo_order() {
            let pos: std::collections::HashMap<usize, usize> =
                order.iter().enumerate().map(|(p, &i)| (i, p)).collect();
            for e in graph.edges() {
                if e.kind == EdgeKind::Ordering {
                    prop_assert!(pos[&e.src] < pos[&e.dst]);
                }
            }
        } else {
            // Cyclic: the SCC detector must agree.
            prop_assert!(!graph.ordering_cycles().is_empty());
        }
    }

    /// The BB Group closure is sound: it contains its seeds and is
    /// closed under strong requirements and self-declared orderings.
    #[test]
    fn strong_closure_is_closed(units in unit_set_strategy(), seed in any::<prop::sample::Index>()) {
        let graph = UnitGraph::build(units).expect("unique names");
        let seed = seed.index(graph.len());
        let group = graph.strong_closure([seed]);
        prop_assert!(group.contains(&seed));
        for &member in &group {
            for e in graph.requirement_edges(member) {
                if e.kind == EdgeKind::RequiresStrong {
                    prop_assert!(group.contains(&e.src), "missing strong dep");
                }
            }
            for e in graph.ordering_in_edges(member) {
                if e.declared_by == member {
                    prop_assert!(group.contains(&e.src), "missing self-declared After");
                }
            }
        }
    }

    /// SCC members are mutually reachable (verified by brute force on
    /// these small graphs).
    #[test]
    fn sccs_are_mutually_reachable(units in unit_set_strategy()) {
        let graph = UnitGraph::build(units).expect("unique names");
        let reach = |from: usize, to: usize| -> bool {
            let mut seen = vec![false; graph.len()];
            let mut stack = vec![from];
            while let Some(v) = stack.pop() {
                if v == to { return true; }
                if std::mem::replace(&mut seen[v], true) { continue; }
                for e in graph.edges() {
                    if e.kind == EdgeKind::Ordering && e.src == v {
                        stack.push(e.dst);
                    }
                }
            }
            false
        };
        for comp in graph.sccs() {
            if comp.len() > 1 {
                for &a in &comp {
                    for &b in &comp {
                        if a != b {
                            prop_assert!(reach(a, b), "{a} cannot reach {b}");
                        }
                    }
                }
            }
        }
    }
}
