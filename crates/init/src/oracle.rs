//! Test-only oracle: the original quadratic transaction builder,
//! execution order and Tarjan SCC, kept verbatim so property tests can
//! check that the linear versions return exactly the same jobs, drops,
//! errors, orders and components.

use std::collections::{BTreeSet, HashMap};

use crate::graph::{EdgeKind, UnitGraph};
use crate::transaction::{Transaction, TransactionError};
use crate::unit::UnitName;

/// Tarjan SCC that asks for a node's successors again on every resume.
pub(crate) fn tarjan_scc(n: usize, succ: impl Fn(usize) -> Vec<usize>) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    enum Frame {
        Enter(usize),
        Resume(usize, usize),
    }
    let mut index: Vec<Option<u32>> = vec![None; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0u32;
    let mut out: Vec<Vec<usize>> = Vec::new();

    for root in 0..n {
        if index[root].is_some() {
            continue;
        }
        let mut frames = vec![Frame::Enter(root)];
        while let Some(f) = frames.pop() {
            match f {
                Frame::Enter(v) => {
                    index[v] = Some(next);
                    low[v] = next;
                    next += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    frames.push(Frame::Resume(v, 0));
                }
                Frame::Resume(v, start) => {
                    let succs = succ(v);
                    let mut descended = false;
                    let mut ei = start;
                    while ei < succs.len() {
                        let w = succs[ei];
                        ei += 1;
                        match index[w] {
                            None => {
                                frames.push(Frame::Resume(v, ei));
                                frames.push(Frame::Enter(w));
                                descended = true;
                                break;
                            }
                            Some(wi) => {
                                if on_stack[w] {
                                    low[v] = low[v].min(wi);
                                }
                            }
                        }
                    }
                    if descended {
                        continue;
                    }
                    if Some(low[v]) == index[v] {
                        let mut comp = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        out.push(comp);
                    }
                    if let Some(Frame::Resume(p, _)) = frames.last().copied() {
                        low[p] = low[p].min(low[v]);
                    }
                }
            }
        }
    }
    out
}

/// `Transaction::build`, rescanning every edge per SCC resume.
pub(crate) fn build(graph: &UnitGraph, target_name: &str) -> Result<Transaction, TransactionError> {
    let target_name = UnitName::new(target_name);
    let target = graph
        .idx(&target_name)
        .ok_or(TransactionError::UnknownTarget(target_name))?;

    let mut jobs = graph.requirement_closure([target], true);
    let required = graph.requirement_closure([target], false);

    for e in graph.edges() {
        if e.kind == EdgeKind::Conflict && jobs.contains(&e.src) && jobs.contains(&e.dst) {
            return Err(TransactionError::ConflictingJobs(
                graph.unit(e.src).name.clone(),
                graph.unit(e.dst).name.clone(),
            ));
        }
    }

    let mut dropped_jobs = Vec::new();
    loop {
        let cycles = job_cycles(graph, &jobs);
        if cycles.is_empty() {
            break;
        }
        let mut progressed = false;
        for cycle in &cycles {
            if let Some(&victim) = cycle.iter().rev().find(|m| !required.contains(m)) {
                jobs.remove(&victim);
                dropped_jobs.push(victim);
                progressed = true;
                break;
            }
        }
        if !progressed {
            let members = cycles[0]
                .iter()
                .map(|&i| graph.unit(i).name.clone())
                .collect();
            return Err(TransactionError::OrderingCycle(members));
        }
    }

    Ok(Transaction {
        target,
        jobs,
        dropped_jobs,
    })
}

/// `Transaction::execution_order`, rescanning every edge per dequeued job.
pub(crate) fn execution_order(tx: &Transaction, graph: &UnitGraph) -> Vec<usize> {
    let jobs = &tx.jobs;
    let mut indeg: HashMap<usize, usize> = jobs.iter().map(|&j| (j, 0)).collect();
    for e in graph.edges() {
        if e.kind == EdgeKind::Ordering && jobs.contains(&e.src) && jobs.contains(&e.dst) {
            *indeg.get_mut(&e.dst).expect("dst in jobs") += 1;
        }
    }
    let mut frontier: std::collections::BTreeMap<&UnitName, usize> = indeg
        .iter()
        .filter(|&(_, &d)| d == 0)
        .map(|(&j, _)| (&graph.unit(j).name, j))
        .collect();
    let mut out = Vec::with_capacity(jobs.len());
    while let Some((_, j)) = frontier.pop_first() {
        out.push(j);
        for e in graph.edges() {
            if e.kind == EdgeKind::Ordering && e.src == j && jobs.contains(&e.dst) {
                let d = indeg.get_mut(&e.dst).expect("dst in jobs");
                *d -= 1;
                if *d == 0 {
                    frontier.insert(&graph.unit(e.dst).name, e.dst);
                }
            }
        }
    }
    out
}

fn job_cycles(graph: &UnitGraph, jobs: &BTreeSet<usize>) -> Vec<Vec<usize>> {
    let idx_list: Vec<usize> = jobs.iter().copied().collect();
    let pos: HashMap<usize, usize> = idx_list.iter().enumerate().map(|(p, &j)| (j, p)).collect();
    let succ = |p: usize| -> Vec<usize> {
        let j = idx_list[p];
        graph
            .edges()
            .iter()
            .filter(|e| e.kind == EdgeKind::Ordering && e.src == j)
            .filter_map(|e| pos.get(&e.dst).copied())
            .collect()
    };
    let self_loops: BTreeSet<usize> = graph
        .edges()
        .iter()
        .filter(|e| e.kind == EdgeKind::Ordering && e.src == e.dst && jobs.contains(&e.src))
        .map(|e| e.src)
        .collect();
    tarjan_scc(idx_list.len(), succ)
        .into_iter()
        .map(|comp| comp.into_iter().map(|p| idx_list[p]).collect::<Vec<_>>())
        .filter(|comp: &Vec<usize>| comp.len() > 1 || comp.iter().any(|v| self_loops.contains(v)))
        .collect()
}

mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::unit::Unit;

    const TARGET: &str = "boot.target";

    /// Random unit sets mixing `After=`, `Before=`, `Requires=`,
    /// `Wants=` and (rarely) `Conflicts=` over a small universe, so
    /// self-loops and weak and required ordering cycles are common. One
    /// hub unit is ordered before a random prefix of the set. Name
    /// prefixes are random, so name order (the tie-break) differs from
    /// index order (the victim choice).
    fn unit_set() -> impl Strategy<Value = Vec<Unit>> {
        (2usize..28).prop_flat_map(|n| {
            let refs = move || prop::collection::vec(0..n, 0..2);
            let unit = (
                0u8..26,
                (refs(), refs(), refs(), refs()),
                0u8..40,
                prop::collection::vec(0..n, 1..3),
            );
            (
                prop::collection::vec(unit, n),
                (0..n, 0..=n),
                prop::collection::vec(0..n, 0..4),
                prop::collection::vec(0..n, 0..n),
            )
                .prop_map(move |(specs, (hub, hub_degree), requires, wants)| {
                    let names: Vec<String> = specs
                        .iter()
                        .enumerate()
                        .map(|(i, s)| format!("{}{i:02}.service", (b'a' + s.0) as char))
                        .collect();
                    let mut units: Vec<Unit> = specs
                        .iter()
                        .enumerate()
                        .map(|(i, (_, (after, before, req, want), roll, conflicts))| {
                            let mut u = Unit::new(UnitName::new(&names[i]));
                            u.after = after.iter().map(|&d| UnitName::new(&names[d])).collect();
                            u.before = before.iter().map(|&d| UnitName::new(&names[d])).collect();
                            u.requires = req.iter().map(|&d| UnitName::new(&names[d])).collect();
                            u.wants = want.iter().map(|&d| UnitName::new(&names[d])).collect();
                            if *roll == 0 {
                                u.conflicts = conflicts
                                    .iter()
                                    .map(|&d| UnitName::new(&names[d]))
                                    .collect();
                            }
                            u
                        })
                        .collect();
                    units[hub]
                        .before
                        .extend(names[..hub_degree].iter().map(UnitName::new));
                    let mut target = Unit::new(UnitName::new(TARGET));
                    target.requires = requires.iter().map(|&d| UnitName::new(&names[d])).collect();
                    target.wants = wants.iter().map(|&d| UnitName::new(&names[d])).collect();
                    units.push(target);
                    units
                })
        })
    }

    type Outcome = Result<(usize, BTreeSet<usize>, Vec<usize>, Vec<usize>), TransactionError>;

    fn linear(g: &UnitGraph) -> Outcome {
        Transaction::build(g, TARGET).map(|t| {
            (
                t.target,
                t.jobs.clone(),
                t.dropped_jobs.clone(),
                t.execution_order(g),
            )
        })
    }

    fn quadratic(g: &UnitGraph) -> Outcome {
        build(g, TARGET).map(|t| {
            let order = execution_order(&t, g);
            (t.target, t.jobs, t.dropped_jobs, order)
        })
    }

    fn ordering_succ(g: &UnitGraph) -> impl Fn(usize) -> Vec<usize> + '_ {
        |v| {
            g.edges()
                .iter()
                .filter(|e| e.kind == EdgeKind::Ordering && e.src == v)
                .map(|e| e.dst)
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn linear_plan_compile_matches_oracle(units in unit_set()) {
            let g = UnitGraph::build(units).unwrap();
            prop_assert_eq!(linear(&g), quadratic(&g));
            let oracle_sccs = tarjan_scc(g.len(), ordering_succ(&g));
            prop_assert_eq!(crate::algo::tarjan_scc(g.len(), ordering_succ(&g)), oracle_sccs.clone());
            prop_assert_eq!(g.sccs(), oracle_sccs);
        }
    }

    #[test]
    fn unit_sets_cover_every_outcome() {
        // The equivalence property is only as strong as its inputs: the
        // generator must reach weak-cycle drops, fatal cycles, conflicts
        // and clean plans.
        let strategy = unit_set();
        let (mut drops, mut cycles, mut conflicts, mut clean) = (0, 0, 0, 0);
        for case in 0..512 {
            let mut rng = proptest::test_runner::TestRng::for_case("coverage", case);
            let g = UnitGraph::build(strategy.generate(&mut rng)).unwrap();
            match Transaction::build(&g, TARGET) {
                Ok(t) if !t.dropped_jobs.is_empty() => drops += 1,
                Ok(_) => clean += 1,
                Err(TransactionError::OrderingCycle(_)) => cycles += 1,
                Err(TransactionError::ConflictingJobs(..)) => conflicts += 1,
                Err(TransactionError::UnknownTarget(_)) => unreachable!(),
            }
        }
        for (what, count) in [
            ("drops", drops),
            ("cycles", cycles),
            ("conflicts", conflicts),
            ("clean", clean),
        ] {
            assert!(count >= 50, "{what}: only {count} of 512 cases");
        }
    }
}
