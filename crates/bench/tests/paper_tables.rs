//! Pins the paper's reproduced tables at `PfcParams::default()`.
//!
//! The rendered Table 1 (10/50/100 frames), Figure 20 (10 frames, buffers
//! 1–100) and Table 2 are diffed byte for byte against the golden files in
//! `tests/golden/`, so any change to the executors, the cost models or the
//! code-size model that moves a number shows up here. The shape claims of
//! the paper are asserted on the data as well, so a golden refresh cannot
//! silently give them up:
//!
//! * the single task is at least 4× cheaper than the four processes at
//!   every frame count and profile (Table 1: 4.5–6.3×);
//! * the four processes are at least 7× larger in code under every
//!   profile (Table 2: 7.5–8.5×);
//! * the four-task cycles never increase as the channel buffers grow
//!   (Figure 20).
//!
//! The goldens are the output of the `table1 100`, `figure20 10` and
//! `table2` binaries of this crate.

use qss_bench::{
    figure20, pfc_setup, render_figure20, render_table1, render_table2, table1, table2, PfcSetup,
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
