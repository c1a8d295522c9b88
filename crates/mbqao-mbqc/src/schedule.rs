//! Just-in-time scheduling (the qubit-reuse compilation of \[51\]).
//!
//! A pattern is usually built "resource state first": all preparations,
//! then all entanglers, then measurements — which means the whole `N_Q`
//! register is alive at once. On hardware with mid-circuit measurement and
//! reset (and in our simulator), qubits can be *reused*: a qubit only
//! needs to exist from its first entangler to its measurement. This pass
//! reorders commands so each qubit is prepared as late as possible and the
//! live register stays minimal, without changing the pattern's semantics:
//!
//! * every `E` involving a qubit still precedes that qubit's `M`,
//! * measurements keep their relative order (so signal causality is
//!   untouched),
//! * corrections stay at their original positions relative to
//!   measurements.
//!
//! Because [`just_in_time`] keeps the measurement order it is given, the
//! width of a gflow-synthesized pattern is fixed by the order its
//! measurements are emitted in. [`width_aware_order`] picks that order.

use crate::command::Command;
use crate::gflow::GFlow;
use crate::opengraph::OpenGraph;
use crate::pattern::Pattern;
use mbqao_sim::QubitId;
use std::collections::{HashMap, HashSet};

/// A measurement order for the measured nodes of `og` that respects the
/// partial order certified by `flow` and keeps the just-in-time live
/// register small.
///
/// Node `w` becomes measurable once every `u` with
/// `w ∈ (g(u) ∪ Odd(g(u))) ∖ {u}` has been measured: those are exactly
/// the nodes owing `w` a byproduct, so signal folding over this order
/// sees every byproduct before it measures `w`. Among measurable nodes
/// the greedy picks the one whose measurement opens the fewest qubits of
/// `{u} ∪ N(u)` not yet prepared (all of them must be live when `u` is
/// measured), then the one with the fewest unmeasured neighbours, then
/// the lowest index — so the order is deterministic.
///
/// Measuring a whole gflow layer at a time instead opens almost every
/// neighbour of the layer before any of them is measured; on ZX-extracted
/// QAOA patterns this order brings the width back down to the directly
/// compiled pattern's (petersen `p = 2`: 22 → 11 live qubits).
///
/// # Panics
/// Panics when `flow` is not acyclic over the measured nodes (it cannot
/// be for a flow that passes [`crate::gflow::verify_gflow`]).
pub fn width_aware_order(og: &OpenGraph, flow: &GFlow) -> Vec<usize> {
    let n = og.n();
    let nbrs: Vec<Vec<usize>> = (0..n)
        .map(|v| og.neighbors(v).iter_ones().collect())
        .collect();
    // Successors in the gflow partial order and the number of
    // still-unmeasured predecessors per node.
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut blockers = vec![0usize; n];
    for (&u, k) in &flow.g {
        let odd = og.odd_neighborhood(k);
        for w in (0..n).filter(|&w| k.get(w) || odd.get(w)) {
            if w != u && flow.g.contains_key(&w) {
                succ[u].push(w);
                blockers[w] += 1;
            }
        }
    }
    let mut ready: Vec<usize> = flow
        .g
        .keys()
        .copied()
        .filter(|&u| blockers[u] == 0)
        .collect();
    let mut opened = vec![false; n];
    let mut measured = vec![false; n];
    let mut order = Vec::with_capacity(flow.g.len());
    while !ready.is_empty() {
        let (pos, _) = ready
            .iter()
            .enumerate()
            .map(|(i, &u)| {
                let opens =
                    usize::from(!opened[u]) + nbrs[u].iter().filter(|&&v| !opened[v]).count();
                let unmeasured = nbrs[u].iter().filter(|&&v| !measured[v]).count();
                (i, (opens, unmeasured, u))
            })
            .min_by_key(|&(_, key)| key)
            .expect("ready is non-empty");
        let u = ready.swap_remove(pos);
        opened[u] = true;
        for &v in &nbrs[u] {
            opened[v] = true;
        }
        measured[u] = true;
        order.push(u);
        for &w in &succ[u] {
            blockers[w] -= 1;
            if blockers[w] == 0 {
                ready.push(w);
            }
        }
    }
    assert_eq!(order.len(), flow.g.len(), "gflow partial order has a cycle");
    order
}

/// Reorders `pattern`'s commands into a just-in-time schedule and returns
/// the new pattern. The result validates iff the input did.
///
/// Runs in `O(commands + adjacency)`: `Prep` and `Entangle` commands are
/// indexed by qubit once up front, so each emission is a constant-time
/// lookup instead of a rescan of the whole command list (the engine
/// JIT-schedules every compiled pattern, so this is on the compile path
/// of every `PatternBackend`).
pub fn just_in_time(pattern: &Pattern) -> Pattern {
    let cmds = pattern.commands();
    let mut emitted: Vec<bool> = vec![false; cmds.len()];
    let mut live: HashSet<QubitId> = pattern.inputs().iter().copied().collect();
    let mut out = Pattern::new(pattern.inputs().to_vec(), pattern.n_params());

    // Index the deferred commands by qubit: the next unemitted Prep per
    // qubit (FIFO over duplicates), and every Entangle touching a qubit.
    let mut preps: HashMap<QubitId, Vec<usize>> = HashMap::new();
    let mut entangles: HashMap<QubitId, Vec<usize>> = HashMap::new();
    for (i, c) in cmds.iter().enumerate() {
        match c {
            Command::Prep { q, .. } => preps.entry(*q).or_default().push(i),
            Command::Entangle { a, b } => {
                entangles.entry(*a).or_default().push(i);
                entangles.entry(*b).or_default().push(i);
            }
            _ => {}
        }
    }
    // Reverse so emission can pop the earliest pending index in O(1).
    for v in preps.values_mut() {
        v.reverse();
    }
    // Cursor per qubit into its (ordered) entangler list.
    let mut entangle_cursor: HashMap<QubitId, usize> = HashMap::new();

    let emit_prep = |q: QubitId,
                     out: &mut Pattern,
                     emitted: &mut Vec<bool>,
                     live: &mut HashSet<QubitId>,
                     preps: &mut HashMap<QubitId, Vec<usize>>| {
        if live.contains(&q) {
            return;
        }
        let i = preps
            .get_mut(&q)
            .and_then(Vec::pop)
            .unwrap_or_else(|| panic!("no preparation found for {q}"));
        emitted[i] = true;
        live.insert(q);
        out.push(cmds[i].clone());
    };

    // Emits every still-pending entangler listed before position `i` that
    // touches `q`, prepping operands on demand. Deferred CZs commute with
    // each other and with already-emitted CZs, and act on qubits that have
    // seen no other emitted operation, so late emission is sound.
    let mut emit_pending_entangles =
        |q: QubitId,
         i: usize,
         out: &mut Pattern,
         emitted: &mut Vec<bool>,
         live: &mut HashSet<QubitId>,
         preps: &mut HashMap<QubitId, Vec<usize>>| {
            let Some(list) = entangles.get(&q) else {
                return;
            };
            let cursor = entangle_cursor.entry(q).or_insert(0);
            while *cursor < list.len() && list[*cursor] < i {
                let j = list[*cursor];
                *cursor += 1;
                if emitted[j] {
                    continue;
                }
                let Command::Entangle { a, b } = &cmds[j] else {
                    unreachable!()
                };
                emit_prep(*a, out, emitted, live, preps);
                emit_prep(*b, out, emitted, live, preps);
                emitted[j] = true;
                out.push(cmds[j].clone());
            }
        };

    for (i, c) in cmds.iter().enumerate() {
        if emitted[i] {
            continue;
        }
        match c {
            // Preps and entangles are deferred until a measurement or
            // correction forces them.
            Command::Prep { .. } | Command::Entangle { .. } => continue,
            Command::Measure { q, .. } => {
                emit_pending_entangles(*q, i, &mut out, &mut emitted, &mut live, &mut preps);
                emit_prep(*q, &mut out, &mut emitted, &mut live, &mut preps);
                emitted[i] = true;
                live.remove(q);
                out.push(c.clone());
            }
            Command::Correct { q, .. } => {
                emit_pending_entangles(*q, i, &mut out, &mut emitted, &mut live, &mut preps);
                emit_prep(*q, &mut out, &mut emitted, &mut live, &mut preps);
                emitted[i] = true;
                out.push(c.clone());
            }
        }
    }
    // Any never-touched preparations (isolated outputs) go last.
    for (i, c) in cmds.iter().enumerate() {
        if !emitted[i] {
            out.push(c.clone());
        }
    }
    out.set_outputs(pattern.outputs().to_vec());
    out
}

/// The inverse presentation: all preparations first, then all entanglers
/// — the "algorithm-independent resource state" view of Sec. II-B, where
/// the whole graph state exists before any measurement. Measurements,
/// corrections and their relative order are untouched. Sound because CZs
/// commute with each other and with operations on disjoint qubits; any
/// correction that precedes the first measurement (initial-state X
/// flips) is kept ahead of the entanglers that touch its qubit.
pub fn resource_state_first(pattern: &Pattern) -> Pattern {
    let cmds = pattern.commands();
    let first_meas = cmds
        .iter()
        .position(|c| matches!(c, Command::Measure { .. }))
        .unwrap_or(cmds.len());
    let mut out = Pattern::new(pattern.inputs().to_vec(), pattern.n_params());
    // 1. preparations, in original order
    for c in cmds {
        if matches!(c, Command::Prep { .. }) {
            out.push(c.clone());
        }
    }
    // 2. pre-measurement corrections (initial basis-state flips)
    for c in &cmds[..first_meas] {
        if matches!(c, Command::Correct { .. }) {
            out.push(c.clone());
        }
    }
    // 3. all entanglers — the resource-state edges
    for c in cmds {
        if matches!(c, Command::Entangle { .. }) {
            out.push(c.clone());
        }
    }
    // 4. measurements and remaining corrections in original order
    for (i, c) in cmds.iter().enumerate() {
        match c {
            Command::Measure { .. } => out.push(c.clone()),
            Command::Correct { .. } if i >= first_meas => out.push(c.clone()),
            _ => {}
        }
    }
    out.set_outputs(pattern.outputs().to_vec());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{Angle, Pauli};
    use crate::determinism::check_determinism;
    use crate::plane::Plane;
    use crate::resources;
    use crate::signal::Signal;
    use mbqao_sim::State;

    fn q(i: u64) -> QubitId {
        QubitId::new(i)
    }

    /// Builds a "resource-state-first" teleport chain of `len` J-steps:
    /// all preps, then all CZs, then measurements left to right.
    fn bulk_chain(len: usize) -> Pattern {
        let mut p = Pattern::new(vec![q(0)], 0);
        for i in 1..=len {
            p.prep_plus(q(i as u64));
        }
        for i in 0..len {
            p.entangle(q(i as u64), q(i as u64 + 1));
        }
        let mut prev: Option<crate::signal::OutcomeId> = None;
        let mut prev_prev: Option<crate::signal::OutcomeId> = None;
        for i in 0..len {
            let s = prev.map(Signal::var).unwrap_or_default();
            let t = prev_prev.map(Signal::var).unwrap_or_default();
            let m = p.measure(
                q(i as u64),
                Plane::XY,
                Angle::constant(0.2 * i as f64),
                s,
                t,
            );
            prev_prev = prev;
            prev = Some(m);
        }
        if let Some(m) = prev {
            p.correct(q(len as u64), Pauli::X, Signal::var(m));
        }
        if let Some(m) = prev_prev {
            p.correct(q(len as u64), Pauli::Z, Signal::var(m));
        }
        p.set_outputs(vec![q(len as u64)]);
        p.validate().expect("chain valid");
        p
    }

    #[test]
    fn jit_reduces_max_live() {
        let p = bulk_chain(6);
        let before = resources::stats(&p);
        let jit = just_in_time(&p);
        jit.validate().expect("jit output valid");
        let after = resources::stats(&jit);
        assert_eq!(before.total_qubits, after.total_qubits);
        assert_eq!(before.entangling, after.entangling);
        assert_eq!(before.max_live, 7, "bulk schedule keeps everything alive");
        assert_eq!(after.max_live, 2, "JIT chain needs only 2 live qubits");
    }

    #[test]
    fn jit_preserves_semantics() {
        let p = bulk_chain(4);
        let jit = just_in_time(&p);
        let mut input = State::zeros(&[q(0)]);
        input.apply_rx(q(0), 0.9);
        // Determinism check compares all branches against branch 0; to
        // check *semantic* equality of the two schedules we compare their
        // branch-0 outputs.
        use crate::simulate::{run_with_input, Branch};
        use rand::SeedableRng;
        let bits = vec![0u8; 4];
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let a = run_with_input(&p, input.clone(), &[], Branch::Forced(&bits), &mut rng);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let b = run_with_input(&jit, input.clone(), &[], Branch::Forced(&bits), &mut rng);
        let fid = a.state.fidelity(&b.state, &[q(4)]);
        assert!((fid - 1.0).abs() < 1e-9);
        // And the JIT pattern stays deterministic.
        let report = check_determinism(&jit, &input, &[], 1e-9);
        assert!(report.deterministic, "{report:?}");
    }

    #[test]
    fn resource_first_maximizes_live_and_preserves_semantics() {
        let p = bulk_chain(4);
        let jit = just_in_time(&p);
        let bulk = resource_state_first(&jit);
        bulk.validate().expect("bulk output valid");
        assert_eq!(
            resources::stats(&bulk).max_live,
            resources::stats(&bulk).total_qubits,
            "resource-state-first keeps the whole register live"
        );
        // Semantics: same branch-0 output as the JIT pattern.
        use crate::simulate::{run_with_input, Branch};
        use rand::SeedableRng;
        let mut input = State::zeros(&[q(0)]);
        input.apply_rx(q(0), 0.5);
        let bits = vec![0u8; 4];
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let a = run_with_input(&jit, input.clone(), &[], Branch::Forced(&bits), &mut rng);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let b = run_with_input(&bulk, input.clone(), &[], Branch::Forced(&bits), &mut rng);
        assert!((a.state.fidelity(&b.state, &[q(4)]) - 1.0).abs() < 1e-9);
        let report = check_determinism(&bulk, &input, &[], 1e-9);
        assert!(report.deterministic, "{report:?}");
    }
}
