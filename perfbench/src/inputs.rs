//! Seeded inputs: program texts from `afp_bench::gen`, and the key
//! samplers the clients draw from. Only the generated text reaches the
//! program.

use std::collections::HashSet;

use afp_bench::gen::{node_name, Graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An independent stream for one purpose of one seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A sparse Erdős–Rényi digraph with mean out-degree `degree`.
pub fn sparse_graph(nodes: usize, degree: f64, seed: u64) -> Graph {
    Graph::random(nodes, degree / nodes as f64, seed)
}

pub fn move_fact(u: u32, v: u32) -> String {
    format!("move({}, {}).", node_name(u), node_name(v))
}

/// The win–move game over `g` as source text.
pub fn win_move_src(g: &Graph) -> String {
    let mut src = String::from("wins(X) :- move(X, Y), not wins(Y).\n");
    for &(u, v) in &g.edges {
        src.push_str(&move_fact(u, v));
        src.push('\n');
    }
    src
}

/// The nodes of the largest strongly connected component of `g`
/// (Kosaraju, iterative).
pub fn largest_scc(g: &Graph) -> Vec<u32> {
    let mut fwd = vec![Vec::new(); g.n];
    let mut rev = vec![Vec::new(); g.n];
    for &(u, v) in &g.edges {
        fwd[u as usize].push(v);
        rev[v as usize].push(u);
    }
    // Pass 1: nodes in order of DFS finish time.
    let mut order = Vec::with_capacity(g.n);
    let mut seen = vec![false; g.n];
    for root in 0..g.n {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        let mut stack = vec![(root, 0usize)];
        while let Some((node, next)) = stack.last_mut() {
            match fwd[*node].get(*next) {
                Some(&succ) => {
                    *next += 1;
                    if !seen[succ as usize] {
                        seen[succ as usize] = true;
                        stack.push((succ as usize, 0));
                    }
                }
                None => {
                    order.push(*node);
                    stack.pop();
                }
            }
        }
    }
    // Pass 2: components of the reversed graph in reverse finish order.
    let mut comp = vec![usize::MAX; g.n];
    let mut best: Vec<u32> = Vec::new();
    for &root in order.iter().rev() {
        if comp[root] != usize::MAX {
            continue;
        }
        comp[root] = root;
        let mut members = vec![root as u32];
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            for &pred in &rev[node] {
                if comp[pred as usize] == usize::MAX {
                    comp[pred as usize] = root;
                    members.push(pred);
                    stack.push(pred as usize);
                }
            }
        }
        if members.len() > best.len() {
            best = members;
        }
    }
    best.sort_unstable();
    best
}

/// `count` distinct edges absent from `g` between two nodes of its
/// largest SCC: every toggle re-solves the giant component, and never
/// changes the active domain.
pub fn absent_edges(g: &Graph, count: usize, rng: &mut StdRng) -> Vec<(u32, u32)> {
    let present: HashSet<(u32, u32)> = g.edges.iter().copied().collect();
    let giant = largest_scc(g);
    assert!(giant.len() > 2, "the graph has no giant component");
    let mut out = Vec::new();
    while out.len() < count {
        let u = giant[rng.gen_range(0..giant.len())];
        let v = giant[rng.gen_range(0..giant.len())];
        if u != v && !present.contains(&(u, v)) && !out.contains(&(u, v)) {
            out.push((u, v));
        }
    }
    out
}

/// `count` distinct edges absent from `g` from a node nothing moves to
/// (and that has a move) to another node with a move: toggling one
/// changes only its source's verdict, and never the active domain.
pub fn source_edges(g: &Graph, count: usize, rng: &mut StdRng) -> Vec<(u32, u32)> {
    let present: HashSet<(u32, u32)> = g.edges.iter().copied().collect();
    let targets: HashSet<u32> = g.edges.iter().map(|e| e.1).collect();
    let mut movers: Vec<u32> = g.edges.iter().map(|e| e.0).collect();
    movers.dedup();
    let sources: Vec<u32> = movers
        .iter()
        .copied()
        .filter(|u| !targets.contains(u))
        .collect();
    assert!(
        !sources.is_empty(),
        "every node with a move is a move target"
    );
    let mut out = Vec::new();
    while out.len() < count {
        let u = sources[rng.gen_range(0..sources.len())];
        let v = movers[rng.gen_range(0..movers.len())];
        if u != v && !present.contains(&(u, v)) && !out.contains(&(u, v)) {
            out.push((u, v));
        }
    }
    out
}

/// Assert-then-retract pairs over `edges`, cycled to `pairs` pairs.
pub fn toggle_pairs(edges: &[(u32, u32)], pairs: usize) -> Vec<String> {
    edges
        .iter()
        .cycle()
        .take(pairs)
        .flat_map(|&(u, v)| {
            let fact = move_fact(u, v);
            [
                format!("assert-facts {fact}"),
                format!("retract-facts {fact}"),
            ]
        })
        .collect()
}

/// Zipf(s) over `0..n`, hot keys scattered by a seeded permutation.
pub struct Zipf {
    cdf: Vec<f64>,
    keys: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rng: &mut StdRng) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut keys: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            keys.swap(i, rng.gen_range(0..=i));
        }
        Zipf { cdf, keys }
    }

    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        let u = (rng.gen_range(0..1u64 << 53) as f64) / (1u64 << 53) as f64;
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.keys.len() - 1);
        self.keys[rank]
    }
}
