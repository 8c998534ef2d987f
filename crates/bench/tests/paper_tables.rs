//! Pins the paper's reproduced tables and figures.
//!
//! The rendered Table 1 (10/50/100 frames), Figure 20 (10 frames, buffers
//! 1–100) and Table 2 at `PfcParams::default()`, Figure 7 (divider
//! k = 2, 3, 5, 8, 13) and the heuristic ablation are diffed byte for byte
//! against the golden files in `tests/golden/`, so any change to the
//! executors, the cost models, the code-size model or the search that moves
//! a number shows up here. The shape claims of the paper are asserted on the
//! data as well, so a golden refresh cannot silently give them up:
//!
//! * the single task is at least 4× cheaper than the four processes at
//!   every frame count and profile (Table 1: 4.5–6.3×);
//! * the four processes are at least 7× larger in code under every
//!   profile (Table 2: 7.5–8.5×);
//! * the four-task cycles never increase as the channel buffers grow
//!   (Figure 20);
//! * for every k ≥ 3 the fixed place bound 2 finds no schedule while the
//!   irrelevance criterion does, the smallest working bound is exactly k,
//!   and the irrelevance search grows with k (Figure 7);
//! * the heuristics never grow the search tree, and on the divider nets
//!   they leave the schedule size unchanged (ablation).
//!
//! The goldens are the output of the `table1 100`, `figure20 10`, `table2`,
//! `figure7` and `ablation` binaries of this crate.

use qss_bench::{
    ablation, figure20, figure7, pfc_setup, render_ablation, render_figure20, render_figure7,
    render_table1, render_table2, table1, table2, PfcSetup,
};
use qss_sim::PfcParams;
use std::path::PathBuf;
use std::sync::OnceLock;

fn setup() -> &'static PfcSetup {
    static SETUP: OnceLock<PfcSetup> = OnceLock::new();
    SETUP.get_or_init(|| pfc_setup(PfcParams::default()))
}

fn assert_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(actual, golden, "{name} drifted from its golden file");
}

#[test]
fn table1_matches_golden_and_single_task_wins_4x() {
    let rows = table1(setup(), &[10, 50, 100]);
    assert_golden("table1.txt", &render_table1(&rows));
    for row in &rows {
        for (single, multi, ratio) in row.per_profile {
            assert!(
                ratio >= 4.0,
                "{} frames: 4 processes only {ratio:.2}× the single task ({multi} vs {single} kcycles)",
                row.frames
            );
        }
    }
}

#[test]
fn figure20_matches_golden_and_is_monotone_in_buffer_size() {
    let data = figure20(setup(), 10, &[1, 2, 5, 10, 20, 50, 100]);
    assert_golden("figure20.txt", &render_figure20(&data));
    for pair in data.rows.windows(2) {
        for profile in 0..3 {
            assert!(
                pair[1].multitask_cycles[profile] <= pair[0].multitask_cycles[profile],
                "four-task cycles rose from buffer {} to {} (profile {profile})",
                pair[0].buffer_size,
                pair[1].buffer_size
            );
        }
    }
}

#[test]
fn table2_matches_golden_and_code_ratio_is_at_least_7() {
    let data = table2(setup());
    assert_golden("table2.txt", &render_table2(&data));
    for report in &data.reports {
        assert!(
            report.ratio >= 7.0,
            "{}: code-size ratio {:.2} below 7",
            report.profile,
            report.ratio
        );
    }
}

#[test]
fn figure7_matches_golden_and_irrelevance_beats_every_fixed_bound() {
    let rows = figure7(&[2, 3, 5, 8, 13]);
    assert_golden("figure7.txt", &render_figure7(&rows));
    for row in &rows {
        assert_eq!(
            row.minimal_working_bound,
            Some(row.k),
            "k={}: smallest working place bound",
            row.k
        );
        assert!(row.irrelevance.is_some(), "k={}: irrelevance failed", row.k);
        if row.k >= 3 {
            assert_eq!(
                row.fixed_bound, None,
                "k={}: fixed bound 2 found a schedule",
                row.k
            );
        }
    }
    for pair in rows.windows(2) {
        assert!(
            pair[1].irrelevance > pair[0].irrelevance,
            "irrelevance nodes did not grow from k={} to k={}",
            pair[0].k,
            pair[1].k
        );
    }
}

#[test]
fn ablation_matches_golden_and_heuristics_never_grow_the_tree() {
    let rows = ablation();
    assert_golden("ablation.txt", &render_ablation(&rows));
    for row in &rows {
        assert!(
            row.with_heuristics.0 <= row.without_heuristics.0,
            "{}: {} tree nodes with heuristics, {} without",
            row.name,
            row.with_heuristics.0,
            row.without_heuristics.0
        );
        if row.name.starts_with("divider") {
            assert_eq!(
                row.with_heuristics.1, row.without_heuristics.1,
                "{}: schedule size changed with the heuristics",
                row.name
            );
        }
    }
}
