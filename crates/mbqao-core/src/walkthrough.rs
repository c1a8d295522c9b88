//! The documented derivation pipeline, as a reproducible artifact.
//!
//! [`triangle_pipeline_walkthrough`] replays the full compile → ZX →
//! simplify → pivot/LC → gflow → deterministic-pattern derivation on the
//! smallest dense instance (triangle MaxCut, `p = 1`) and renders every
//! stage as text — rule counts, Graphviz diagrams, the gflow layers, the
//! width-aware measurement order and the final corrected pattern. The
//! output is embedded verbatim in `docs/PIPELINE.md` (between the
//! `BEGIN GENERATED` / `END GENERATED` markers) and a repository test
//! regenerates it on every run, so the documentation cannot drift from
//! the code.
//!
//! `examples/zx_derivation.rs` prints the same walkthrough.

use crate::cache;
use crate::compiler::CompileOptions;
use crate::zx_bridge::{pattern_to_symbolic_diagram, SYM_BASE};
use mbqao_mbqc::gflow::find_gflow;
use mbqao_mbqc::schedule::width_aware_order;
use mbqao_problems::{generators, maxcut};
use mbqao_zx::extract::to_graph_like;
use mbqao_zx::simplify::{clifford_simp, simplify};
use mbqao_zx::{dot, Diagram};
use std::fmt::Write as _;

/// Renames the exporter's synthetic symbols (`s1000000`, …) to the
/// compact `a0`, `a1`, … used by the walkthrough's atom legend.
fn rename_atoms(text: &str, n_atoms: usize) -> String {
    let mut out = text.to_string();
    for i in (0..n_atoms).rev() {
        out = out.replace(&format!("s{}", SYM_BASE + i as u32), &format!("a{i}"));
    }
    out
}

/// Internal node / live edge counts as a compact string.
fn counts(d: &Diagram) -> String {
    format!(
        "{} internal nodes, {} edges",
        d.internal_node_count(),
        d.edge_ids().len()
    )
}

/// Replays the full derivation pipeline on triangle MaxCut at `p = 1`
/// and renders it as deterministic text (same bytes on every run — a
/// repository test diffs it against `docs/PIPELINE.md`).
pub fn triangle_pipeline_walkthrough() -> String {
    let mut s = String::new();
    let w = &mut s;

    let g = generators::triangle();
    let cost = maxcut::maxcut_zpoly(&g);
    let p = 1;

    let _ = writeln!(w, "== Stage 0: the problem ==");
    let _ = writeln!(
        w,
        "triangle MaxCut, n = {}, edges = {:?}, cost terms = {:?} (p = {p})",
        g.n(),
        g.edges(),
        cost.terms(),
    );

    // Stage 1: compile to a measurement pattern (Sec. III-A).
    let compiled = cache::compile_qaoa_cached(&cost, p, &CompileOptions::default());
    let _ = writeln!(
        w,
        "\n== Stage 1: compiled measurement pattern (Sec. III-A) =="
    );
    let _ = writeln!(
        w,
        "parameters: p0 = γ1, p1 = β1 (bound only at execution time)"
    );
    let _ = write!(w, "{}", compiled.pattern);

    // Stage 2: symbolic ZX export.
    let sym = pattern_to_symbolic_diagram(&compiled.pattern);
    let mut d = sym.diagram.clone();
    let _ = writeln!(
        w,
        "\n== Stage 2: symbolic ZX export (Sec. II-A conventions) =="
    );
    let _ = writeln!(w, "exported diagram: {}", counts(&d));
    let _ = writeln!(w, "angle atoms (aᵢ = affine forms in γ/β):");
    for (i, a) in sym.atoms.iter().enumerate() {
        let _ = writeln!(w, "  a{i} = {a}");
    }

    // Stage 3: Fig.-1 fixpoint simplification.
    let st = simplify(&mut d);
    let _ = writeln!(w, "\n== Stage 3: fuse/id/Hopf fixpoint (Fig. 1 rules) ==");
    let _ = writeln!(
        w,
        "{} fusions, {} identity removals, {} self-loops, {} Hopf, {} parallel-H \
         ({} passes) → {}",
        st.fusions,
        st.identities,
        st.self_loops,
        st.hopf,
        st.parallel_h,
        st.passes,
        counts(&d)
    );

    // Stage 4: graph-like normal form.
    let gl = to_graph_like(&mut d);
    let _ = writeln!(w, "\n== Stage 4: graph-like normal form (Sec. II-B) ==");
    let _ = writeln!(
        w,
        "{} colour changes + {} interleaved rule applications → {}",
        gl.color_changes,
        gl.simplify.total(),
        counts(&d)
    );
    let _ = writeln!(
        w,
        "{}",
        rename_atoms(&dot::to_dot(&d, "graph_like"), sym.atoms.len())
    );

    // Stage 5: Clifford-complete pass.
    let cl = clifford_simp(&mut d);
    let _ = writeln!(
        w,
        "== Stage 5: pivot + local complementation to fixpoint =="
    );
    let _ = writeln!(
        w,
        "{} pivots, {} local complementations, {} boundary pivots, {} Pauli-leaf \
         copies ({} rounds) → {}",
        cl.pivots,
        cl.local_complements,
        cl.boundary_pivots,
        cl.pauli_leaf_copies,
        cl.rounds,
        counts(&d)
    );
    let _ = writeln!(
        w,
        "the XY(0) mixer wire spiders and the phase-gadget hubs are gone:"
    );
    let _ = writeln!(
        w,
        "{}",
        rename_atoms(&dot::to_dot(&d, "clifford_simplified"), sym.atoms.len())
    );

    // Stage 6: extraction spec + gflow.
    let ext = crate::zx_bridge::diagram_to_pattern(&d, &sym.atoms, compiled.pattern.n_params());
    let _ = writeln!(w, "== Stage 6: re-extracted open graph + gflow ==");
    let _ = writeln!(
        w,
        "spec: {} vertices, {} graph-state edges, {} measured ({} absorbed as YZ), outputs {:?}",
        ext.spec.nodes,
        ext.spec.edges.len(),
        ext.spec.measures.len(),
        ext.absorbed_leaves,
        ext.spec.outputs
    );
    for m in &ext.spec.measures {
        let _ = writeln!(w, "  M_{}^{{{}, {}}}", m.node, m.plane, m.angle);
    }
    let og = ext.spec.open_graph();
    let flow = find_gflow(&og).expect("triangle extraction has gflow");
    let _ = writeln!(
        w,
        "gflow found: {} layers (measured earliest → latest):",
        flow.depth()
    );
    for (k, layer) in flow.layers.iter().rev().enumerate() {
        let mut sorted = layer.clone();
        sorted.sort_unstable();
        let _ = writeln!(w, "  layer {k}: {sorted:?}");
    }
    let _ = writeln!(
        w,
        "measurement order (width-aware, within the gflow partial order): {:?}",
        width_aware_order(&og, &flow)
    );

    // Stage 7: the deterministic pattern.
    let _ = writeln!(w, "\n== Stage 7: gflow-corrected deterministic pattern ==");
    let _ = writeln!(
        w,
        "deterministic: {} (runs on random outcome branches, no postselection)",
        ext.deterministic
    );
    let _ = write!(w, "{}", ext.pattern);
    let pattern_stats = mbqao_mbqc::resources::stats(&compiled.pattern);
    let zx_stats = mbqao_mbqc::resources::stats(&ext.pattern);
    let _ = writeln!(
        w,
        "resources: compiled N_Q = {}, ZX-extracted N_Q = {} ({} qubits saved on \
         this dense instance — PR 2's fuse/id/Hopf set saved zero)",
        pattern_stats.total_qubits,
        zx_stats.total_qubits,
        pattern_stats.total_qubits as isize - zx_stats.total_qubits as isize
    );
    let _ = writeln!(
        w,
        "cost: compiled N_E = {}, ZX-extracted N_E = {}; width: compiled max_live = {}, \
         ZX-extracted max_live = {}",
        pattern_stats.entangling, zx_stats.entangling, pattern_stats.max_live, zx_stats.max_live
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walkthrough_is_deterministic_and_complete() {
        let a = triangle_pipeline_walkthrough();
        let b = triangle_pipeline_walkthrough();
        assert_eq!(a, b, "walkthrough must be byte-stable");
        for needle in [
            "Stage 0",
            "Stage 7",
            "gflow found",
            "pivots",
            "deterministic: true",
            "graph graph_like",
            "graph clifford_simplified",
        ] {
            assert!(a.contains(needle), "walkthrough must mention {needle:?}");
        }
    }
}
