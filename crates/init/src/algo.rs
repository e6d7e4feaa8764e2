//! Graph algorithms shared by the dependency graph and the transaction
//! builder: an iterative Tarjan SCC over an abstract adjacency function.

/// Strongly connected components of the directed graph with `n` nodes
/// and successor function `succ`. Components are returned in reverse
/// topological order, members sorted ascending.
///
/// `succ` is called exactly once per node, when the search first enters
/// it; the successors are appended to one flat buffer and the node's
/// frames resume from an offset into it. A hub ordered before thousands
/// of units is therefore listed once, not once per descent, and the
/// whole search is O(V + E). Iterative (no recursion), so deep service
/// chains cannot overflow the stack.
pub fn tarjan_scc<I>(n: usize, mut succ: impl FnMut(usize) -> I) -> Vec<Vec<usize>>
where
    I: IntoIterator<Item = usize>,
{
    #[derive(Clone, Copy)]
    enum Frame {
        Enter(usize),
        /// Node and the next offset into `targets` to scan.
        Resume(usize, usize),
    }
    let mut index: Vec<Option<u32>> = vec![None; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    // Successors of every entered node, concatenated; node `v`'s list
    // ends at `end[v]` and its frames carry the offset to resume from.
    let mut targets: Vec<usize> = Vec::new();
    let mut end = vec![0usize; n];
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
                    let first = targets.len();
                    targets.extend(succ(v));
                    end[v] = targets.len();
                    frames.push(Frame::Resume(v, first));
                }
                Frame::Resume(v, start) => {
                    let mut descended = false;
                    let mut ei = start;
                    while ei < end[v] {
                        let w = targets[ei];
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

#[cfg(test)]
mod tests {
    use super::*;

    fn adj(edges: &[(usize, usize)]) -> impl Fn(usize) -> Vec<usize> + '_ {
        move |v| {
            edges
                .iter()
                .filter(|(s, _)| *s == v)
                .map(|(_, d)| *d)
                .collect()
        }
    }

    #[test]
    fn acyclic_graph_gives_singletons() {
        let edges = [(0, 1), (1, 2), (0, 2)];
        let sccs = tarjan_scc(3, adj(&edges));
        assert_eq!(sccs.len(), 3);
        assert!(sccs.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn two_cycles_found() {
        // 0↔1, 2→3→4→2, 5 isolated.
        let edges = [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)];
        let mut sizes: Vec<usize> = tarjan_scc(6, adj(&edges)).iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 3]);
    }

    #[test]
    fn reverse_topological_order() {
        // 0 → 1 → 2: component containing 2 must come first.
        let edges = [(0, 1), (1, 2)];
        let sccs = tarjan_scc(3, adj(&edges));
        assert_eq!(sccs, vec![vec![2], vec![1], vec![0]]);
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        let n = 200_000;
        let succ = |v: usize| if v + 1 < n { vec![v + 1] } else { vec![] };
        let sccs = tarjan_scc(n, succ);
        assert_eq!(sccs.len(), n);
    }

    #[test]
    fn successors_are_listed_once_per_node() {
        // A hub before every other node: the hub is resumed after each
        // of its n - 1 descents, and each resume must reuse the list
        // rather than ask for it again.
        let n = 2_000;
        let mut lookups = vec![0u32; n];
        let sccs = tarjan_scc(n, |v| {
            lookups[v] += 1;
            if v == 0 {
                (1..n).collect()
            } else {
                vec![]
            }
        });
        assert_eq!(sccs.len(), n);
        assert!(lookups.iter().all(|&c| c == 1), "{lookups:?}");
    }

    #[test]
    fn whole_graph_one_cycle() {
        let n = 1000;
        let succ = |v: usize| vec![(v + 1) % n];
        let sccs = tarjan_scc(n, succ);
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0].len(), n);
    }
}
