//! The four interprocedural rules over the workspace call graph.
//!
//! Unlike the lexical rules (one file at a time), these see the whole
//! workspace: reachability replaces per-file allowlists. All four are
//! conservative over-approximations — method calls dispatch by name within
//! the caller's dependency closure, and lock spans are assumed to extend to
//! the end of the acquiring function — so a finding is "possible by the
//! graph", not "proven at runtime". The escape-hatch comment (see the
//! crate docs) and the CI baseline absorb deliberate exceptions.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{crate_of, Graph};
use crate::items::FileItems;
use crate::rules::Violation;

/// Runs every semantic rule; returns unsorted violations (the caller merges
/// and sorts with the lexical findings).
pub fn check(files: &[FileItems], graph: &Graph) -> Vec<Violation> {
    let mut out = Vec::new();
    transitive_wall_clock(files, graph, &mut out);
    panic_surface(files, graph, &mut out);
    lock_order(files, graph, &mut out);
    dead_public(files, &mut out);
    out
}

// ------------------------------------------------- transitive-wall-clock

/// Result entry points: pub fns of the two crates whose outputs are the
/// reproduced science.
fn is_clock_entry(path: &str) -> bool {
    path.starts_with("crates/easyc/src/") || path.starts_with("crates/analysis/src/")
}

/// Files allowed to hold clock sinks (mirrors the lexical `wall-clock`
/// exemptions): timing tooling and test/bench/example code.
fn is_timing_exempt(path: &str) -> bool {
    path.starts_with("crates/bench/")
        || path.starts_with("crates/criterion/")
        || path.starts_with("tests/")
        || path.contains("/tests/")
        || path.starts_with("benches/")
        || path.contains("/benches/")
        || path.contains("/examples/")
}

fn transitive_wall_clock(files: &[FileItems], graph: &Graph, out: &mut Vec<Violation>) {
    let entries: Vec<usize> = (0..graph.nodes.len())
        .filter(|&i| graph.nodes[i].is_pub && is_clock_entry(&graph.nodes[i].path))
        .collect();
    if entries.is_empty() {
        return;
    }
    let parent = graph.reachable_from(&entries);
    for (i, node) in graph.nodes.iter().enumerate() {
        if parent[i].is_none() || is_timing_exempt(&node.path) {
            continue;
        }
        let f = &files[node.file_idx].fns[node.fn_idx];
        for clock in &f.clocks {
            out.push(Violation {
                path: node.path.clone(),
                line: clock.line,
                rule: "transitive-wall-clock",
                message: format!(
                    "`{}` is reachable from a result entry point ({}) — wall-clock/entropy must not feed result paths",
                    clock.what,
                    graph.render_path(&parent, i),
                ),
            });
        }
    }
}

// --------------------------------------------------------- panic-surface

/// The request-lifecycle / hot-path files whose reachable panics must be
/// justified or refactored to structured errors.
fn is_panic_scope(path: &str) -> bool {
    const EASYC_HOT: &[&str] = &[
        "crates/easyc/src/session.rs",
        "crates/easyc/src/stream.rs",
        "crates/easyc/src/state.rs",
        "crates/easyc/src/partial.rs",
        "crates/easyc/src/columns.rs",
        "crates/easyc/src/engine.rs",
    ];
    path.starts_with("crates/serve/src/") || EASYC_HOT.contains(&path)
}

fn panic_surface(files: &[FileItems], graph: &Graph, out: &mut Vec<Violation>) {
    let entries: Vec<usize> = (0..graph.nodes.len())
        .filter(|&i| graph.nodes[i].is_pub && is_panic_scope(&graph.nodes[i].path))
        .collect();
    if entries.is_empty() {
        return;
    }
    let parent = graph.reachable_from(&entries);
    for (i, node) in graph.nodes.iter().enumerate() {
        if parent[i].is_none() || !is_panic_scope(&node.path) {
            continue;
        }
        let f = &files[node.file_idx].fns[node.fn_idx];
        for p in &f.panics {
            out.push(Violation {
                path: node.path.clone(),
                line: p.line,
                rule: "panic-surface",
                message: format!(
                    "{} in `{}` on the request/assessment path — return a structured error or justify with `// audit: allow(panic-surface) — reason`",
                    p.what, node.id,
                ),
            });
        }
    }
}

// ------------------------------------------------------------ lock-order

/// Crates whose sync sites participate in the acquisition-order DAG.
fn is_lock_scope(crate_name: &str) -> bool {
    crate_name == "serve" || crate_name == "parallel"
}

fn lock_order(files: &[FileItems], graph: &Graph, out: &mut Vec<Violation>) {
    // Declared sync sites, crate-qualified: `serve:releases`.
    let mut declared: BTreeSet<(String, String)> = BTreeSet::new();
    for file in files {
        let c = crate_of(&file.path);
        if is_lock_scope(&c) {
            for name in &file.sync_decls {
                declared.insert((c.clone(), name.clone()));
            }
        }
    }
    if declared.is_empty() {
        return;
    }

    // Per-node list of declared sites it acquires directly:
    // (crate, receiver, op, line, order).
    type AcquireSite = (String, String, String, usize, usize);
    let n = graph.nodes.len();
    let direct: Vec<Vec<AcquireSite>> = (0..n)
        .map(|i| {
            let node = &graph.nodes[i];
            if !is_lock_scope(&node.crate_name) {
                return Vec::new();
            }
            let f = &files[node.file_idx].fns[node.fn_idx];
            f.acquires
                .iter()
                .filter(|a| declared.contains(&(node.crate_name.clone(), a.receiver.clone())))
                .map(|a| {
                    (
                        node.crate_name.clone(),
                        a.receiver.clone(),
                        a.op.clone(),
                        a.line,
                        a.order,
                    )
                })
                .collect()
        })
        .collect();

    // Transitive closure of acquired sites per node (fixpoint over call
    // edges restricted to in-scope crates).
    let mut closure: Vec<BTreeSet<(String, String)>> = direct
        .iter()
        .map(|v| {
            v.iter()
                .map(|(c, r, _, _, _)| (c.clone(), r.clone()))
                .collect()
        })
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for u in 0..n {
            if !is_lock_scope(&graph.nodes[u].crate_name) {
                continue;
            }
            for &v in &graph.edges[u] {
                if closure[v].is_empty() {
                    continue;
                }
                let add: Vec<_> = closure[v].difference(&closure[u]).cloned().collect();
                if !add.is_empty() {
                    closure[u].extend(add);
                    changed = true;
                }
            }
        }
    }

    // Order edges: site A held (acquired earlier in the body) when site B
    // is acquired — directly, or anywhere inside a later callee. Only
    // guard-producing ops (`lock`/`read`/`write`) count as *held*: a
    // channel `recv`/`send` completes and releases before the next event,
    // so it can be the blocked target of an edge but never the source.
    type Key = (String, String);
    let is_held_op = |op: &str| matches!(op, "lock" | "read" | "write");
    let mut order: BTreeMap<(Key, Key), (String, usize)> = BTreeMap::new();
    let mut add_edge = |a: &Key, b: &Key, witness: (String, usize)| {
        if a == b {
            return; // re-acquisition after drop (e.g. hold/release) is fine
        }
        let slot = order
            .entry((a.clone(), b.clone()))
            .or_insert(witness.clone());
        if witness < *slot {
            *slot = witness;
        }
    };
    for (u, direct_u) in direct.iter().enumerate() {
        let node = &graph.nodes[u];
        if !is_lock_scope(&node.crate_name) {
            continue;
        }
        let f = &files[node.file_idx].fns[node.fn_idx];
        for (ac, ar, aop, aline, aorder) in direct_u {
            if !is_held_op(aop) {
                continue;
            }
            let a: Key = (ac.clone(), ar.clone());
            let witness = (node.path.clone(), *aline);
            for (bc, br, _, _, border) in direct_u {
                if border > aorder {
                    add_edge(&a, &(bc.clone(), br.clone()), witness.clone());
                }
            }
            for call in &f.calls {
                if call.order <= *aorder {
                    continue;
                }
                // Resolve through the prebuilt edges: every callee of u
                // whose own acquisition closure is non-empty.
                for &v in &graph.edges[u] {
                    if graph.nodes[v].name != *call.path.last().unwrap_or(&String::new()) {
                        continue;
                    }
                    for b in &closure[v] {
                        add_edge(&a, b, witness.clone());
                    }
                }
            }
        }
    }

    // Cycle detection on the site graph (self-edges already excluded).
    let keys: Vec<Key> = declared.iter().cloned().collect();
    let idx: BTreeMap<&Key, usize> = keys.iter().enumerate().map(|(i, k)| (k, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); keys.len()];
    for (a, b) in order.keys() {
        if let (Some(&ia), Some(&ib)) = (idx.get(a), idx.get(b)) {
            adj[ia].push(ib);
        }
    }
    for scc in sccs(&adj) {
        if scc.len() < 2 {
            continue;
        }
        let members: Vec<&Key> = scc.iter().map(|&i| &keys[i]).collect();
        // Anchor the finding at the smallest witness among in-cycle edges.
        let in_cycle: BTreeSet<usize> = scc.iter().copied().collect();
        let witness = order
            .iter()
            .filter(|((a, b), _)| {
                matches!((idx.get(a), idx.get(b)), (Some(ia), Some(ib))
                    if in_cycle.contains(ia) && in_cycle.contains(ib))
            })
            .map(|(_, w)| w.clone())
            .min();
        let Some((path, line)) = witness else {
            continue;
        };
        let names: Vec<String> = members.iter().map(|(c, r)| format!("{c}:{r}")).collect();
        out.push(Violation {
            path,
            line,
            rule: "lock-order",
            message: format!(
                "acquisition-order cycle between sync sites {{{}}} — a consistent global order is required to rule out deadlock",
                names.join(", "),
            ),
        });
    }
}

/// Tarjan strongly-connected components, iterative, deterministic order.
fn sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next = 0usize;
    let mut out = Vec::new();
    // Explicit DFS stack: (node, child cursor).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut work = vec![(root, 0usize)];
        while let Some(&mut (v, ref mut cursor)) = work.last_mut() {
            if *cursor == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(*cursor) {
                *cursor += 1;
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
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
                work.pop();
                if let Some(&(u, _)) = work.last() {
                    low[u] = low[u].min(low[v]);
                }
            }
        }
    }
    out.sort();
    out
}

// ----------------------------------------------------------- dead-public

/// Crates whose pub API must be referenced somewhere else in the workspace.
fn is_dead_public_scope(path: &str) -> bool {
    (path.starts_with("crates/frame/src/")
        || path.starts_with("crates/parallel/src/")
        || path.starts_with("crates/top500/src/")
        || path.starts_with("crates/hwdb/src/")
        || path.starts_with("crates/easyc/src/")
        || path.starts_with("crates/ghg/src/")
        || path.starts_with("crates/analysis/src/"))
        && !path.ends_with("/main.rs")
}

fn dead_public(files: &[FileItems], out: &mut Vec<Violation>) {
    for file in files {
        if !is_dead_public_scope(&file.path) {
            continue;
        }
        // Referenced = mentioned by any other workspace file, or by this
        // file's own `#[cfg(test)]` code (an in-file test is a test-target
        // consumer).
        let referenced = |name: &str| {
            file.test_idents.contains(name)
                || files
                    .iter()
                    .any(|other| other.path != file.path && other.idents.contains(name))
        };
        for f in &file.fns {
            if f.is_pub && !f.in_test && !referenced(&f.name) {
                out.push(Violation {
                    path: file.path.clone(),
                    line: f.start_line,
                    rule: "dead-public",
                    message: format!(
                        "pub fn `{}` is not referenced by any other workspace file — demote to pub(crate) or delete",
                        f.name,
                    ),
                });
            }
        }
        for p in &file.pub_items {
            // Types are excluded: a struct returned by a referenced fn
            // flows through inference without its name ever appearing at
            // the use site, so name-reference is only a sound proxy for
            // items that must be written to be used (consts, statics,
            // traits).
            if matches!(p.kind, "struct" | "enum" | "union" | "type") {
                continue;
            }
            if !p.in_test && !referenced(&p.name) {
                out.push(Violation {
                    path: file.path.clone(),
                    line: p.line,
                    rule: "dead-public",
                    message: format!(
                        "pub {} `{}` is not referenced by any other workspace file — demote to pub(crate) or delete",
                        p.kind, p.name,
                    ),
                });
            }
        }
    }
}
