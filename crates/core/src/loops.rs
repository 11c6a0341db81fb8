//! Composition checks [`DesignBuilder::build`](crate::DesignBuilder::build)
//! runs on every design: declared zero-delay couplings must name real
//! input/output port pairs, and no zero-delay cycle may exist.
//!
//! Nodes are *ports*; edges are the couplings each module declares
//! ([`Module::combinational_deps`](crate::Module::combinational_deps)) plus the connectors, directed from
//! the driving endpoint to the receiving one. A strongly connected
//! component that contains at least one coupling is a zero-delay cycle:
//! an event on any of its ports re-triggers itself in the same simulated
//! instant, and a scheduler would spin until its event budget ran out. A
//! connector's two directions alone (two bidirectional ports) are not a
//! loop: the value crosses no module. Tarjan's algorithm finds every
//! component in one linear pass.

use std::collections::VecDeque;

use crate::design::{Design, DesignError};

/// Refuses a design whose couplings are malformed or close a zero-delay
/// cycle.
pub(crate) fn check(design: &Design) -> Result<(), DesignError> {
    let flat = FlatGraph::build(design)?;
    let Some(cycle) = find_cycle(&flat) else {
        return Ok(());
    };
    let path = cycle
        .into_iter()
        .map(|n| {
            let (m, p) = flat.ports[n];
            let id = crate::ModuleId::from_index(m);
            format!(
                "{}.{}",
                design.instance_name(id),
                design.module(id).ports()[p].name()
            )
        })
        .collect();
    Err(DesignError::CombinationalLoop { path })
}

/// One zero-delay cycle of `flat` as a closed node path, or `None` when
/// no component holds a coupling.
fn find_cycle(flat: &FlatGraph) -> Option<Vec<usize>> {
    let mut component = vec![0usize; flat.ports.len()];
    for (c, scc) in tarjan(flat).iter().enumerate() {
        for &n in scc {
            component[n] = c;
        }
    }
    let &(from, to) = flat
        .couplings
        .iter()
        .find(|&&(u, v)| component[u] == component[v])?;
    Some(cycle_path(flat, &component, from, to))
}

/// The port-level graph in adjacency-list form.
struct FlatGraph {
    /// Node index -> `(module, port)` endpoint.
    ports: Vec<(usize, usize)>,
    /// Adjacency lists.
    edges: Vec<Vec<usize>>,
    /// The module-internal edges, in module and declaration order.
    couplings: Vec<(usize, usize)>,
}

impl FlatGraph {
    fn build(design: &Design) -> Result<FlatGraph, DesignError> {
        let mut ports = Vec::new();
        let mut offsets = Vec::with_capacity(design.module_count());
        for (id, module) in design.modules() {
            offsets.push(ports.len());
            ports.extend((0..module.ports().len()).map(|p| (id.index(), p)));
        }
        let mut edges = vec![Vec::new(); ports.len()];
        let mut couplings = Vec::new();
        for (id, module) in design.modules() {
            let specs = module.ports();
            for (i, o) in module.combinational_deps() {
                let ok = matches!(
                    (specs.get(i), specs.get(o)),
                    (Some(pi), Some(po))
                        if pi.direction().accepts_input() && po.direction().produces_output()
                );
                if !ok {
                    return Err(DesignError::BadDependency {
                        module: design.instance_name(id).to_owned(),
                        input: i,
                        output: o,
                    });
                }
                let (u, v) = (offsets[id.index()] + i, offsets[id.index()] + o);
                edges[u].push(v);
                couplings.push((u, v));
            }
        }
        let spec = |at: crate::PortRef| &design.module(at.module).ports()[at.port];
        for (a, b) in design.connector_endpoints() {
            let node = |at: crate::PortRef| offsets[at.module.index()] + at.port;
            // A connector propagates from any endpoint that can drive to
            // any endpoint that can receive; bidi pairs get both edges.
            if spec(a).direction().produces_output() && spec(b).direction().accepts_input() {
                edges[node(a)].push(node(b));
            }
            if spec(b).direction().produces_output() && spec(a).direction().accepts_input() {
                edges[node(b)].push(node(a));
            }
        }
        Ok(FlatGraph {
            ports,
            edges,
            couplings,
        })
    }
}

/// Iterative Tarjan SCC (the recursion is a design input, so stack depth
/// must not bound design size).
fn tarjan(g: &FlatGraph) -> Vec<Vec<usize>> {
    let n = g.ports.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next_index = 0usize;
    let mut sccs = Vec::new();
    // Explicit DFS frames: (node, next child position).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        frames.push((root, 0));
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = g.edges[v].get(*child) {
                *child += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

/// One concrete cycle through the coupling `from -> to`, for the error:
/// the coupling, then the shortest path back to `from` inside their
/// component (one exists because both ends share the component). The
/// first node is repeated at the end.
fn cycle_path(g: &FlatGraph, component: &[usize], from: usize, to: usize) -> Vec<usize> {
    let mut parent = vec![usize::MAX; g.ports.len()];
    parent[to] = to;
    let mut queue = VecDeque::from([to]);
    while let Some(v) = queue.pop_front() {
        if v == from {
            break;
        }
        for &w in &g.edges[v] {
            if component[w] == component[from] && parent[w] == usize::MAX {
                parent[w] = v;
                queue.push_back(w);
            }
        }
    }
    let mut back = vec![from];
    let mut at = from;
    while at != to {
        at = parent[at];
        back.push(at);
    }
    back.push(from);
    back.reverse();
    back
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A graph of two-port modules (`a` in, `y` out): module `m` owns
    /// nodes `2m` (`a`) and `2m + 1` (`y`). `comb` lists whether each
    /// module couples `a` to `y` in the same instant; `wires` are
    /// `(driver, receiver)` module pairs, each a connector from the
    /// driver's `y` to the receiver's `a`.
    fn graph(comb: &[bool], wires: &[(usize, usize)]) -> FlatGraph {
        let ports = (0..comb.len()).flat_map(|m| [(m, 0), (m, 1)]).collect();
        let mut edges = vec![Vec::new(); 2 * comb.len()];
        let mut couplings = Vec::new();
        for (m, _) in comb.iter().enumerate().filter(|&(_, &c)| c) {
            edges[2 * m].push(2 * m + 1);
            couplings.push((2 * m, 2 * m + 1));
        }
        for &(d, r) in wires {
            edges[2 * d + 1].push(2 * r);
        }
        FlatGraph {
            ports,
            edges,
            couplings,
        }
    }

    #[test]
    fn two_comb_modules_in_a_ring_is_one_loop() {
        // A and B in a ring, C hanging off B: the cycle names the ring's
        // four ports once each, and nothing of C.
        let g = graph(&[true, true, true], &[(0, 1), (1, 0), (1, 2)]);
        assert_eq!(find_cycle(&g), Some(vec![0, 1, 2, 3, 0]));
        let sccs = tarjan(&g);
        assert_eq!(sccs.iter().filter(|scc| scc.len() > 1).count(), 1);
    }

    #[test]
    fn register_breaks_the_ring() {
        // The same ring with B sequential: the modules still form a
        // ring, but B declares no coupling, so no port-level cycle exists.
        let g = graph(&[true, false], &[(0, 1), (1, 0)]);
        assert_eq!(find_cycle(&g), None);
    }

    #[test]
    fn chain_is_clean() {
        let g = graph(&[true, true, true], &[(0, 1), (1, 2)]);
        assert_eq!(find_cycle(&g), None);
        assert_eq!(tarjan(&g).len(), 6, "every port is its own component");
    }
}
