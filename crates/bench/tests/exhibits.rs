//! Smoke tests for the exhibit binaries: the cheap ones run for real (their
//! built-in shape assertions are the test), and the plot-script generator is
//! exercised against a synthetic results directory.

use std::process::Command;

#[test]
fn fig1_toy_asserts_both_path_phenomena() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig1_toy")).output().expect("runs");
    assert!(out.status.success(), "fig1_toy failed:\n{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("stream true, series true"), "{text}");
    assert!(text.contains("stream true, series false"), "{text}");
}

#[test]
fn make_plots_generates_a_script() {
    let dir = std::env::temp_dir().join(format!("saturn-exhibit-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("fig5_demo_mk_proximity.dat"), "# delta y\n1 0.1\n2 0.3\n")
        .unwrap();
    std::fs::write(dir.join("fig8_left_lost.dat"), "# delta y\n1 0.0\n2 1.0\n").unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_make_plots"))
        .env("SATURN_OUT", &dir)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "make_plots failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let script = std::fs::read_to_string(dir.join("plot_all.gp")).unwrap();
    assert!(script.contains("fig5_demo_mk_proximity.dat"), "{script}");
    assert!(script.contains("set output 'fig8_validation.png'"), "{script}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs an exhibit binary in fast mode (its built-in paper-fidelity
/// assertions are the test) and returns its stdout.
fn run_fast(bin: &str, name: &str) -> String {
    let out = Command::new(bin)
        .env("SATURN_FAST", "1")
        .env(
            "SATURN_OUT",
            std::env::temp_dir().join(format!("saturn-{name}-test-{}", std::process::id())),
        )
        .output()
        .expect("runs");
    assert!(out.status.success(), "{name} failed:\n{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn fast_mode_fig3_concentrates_at_the_extremes() {
    let text = run_fast(env!("CARGO_BIN_EXE_fig3_icd_proximity"), "fig3");
    assert!(text.contains("γ = "), "{text}");
}

#[test]
fn fast_mode_fig4_occupancy_rises_to_one() {
    let text = run_fast(env!("CARGO_BIN_EXE_fig4_icd_others"), "fig4");
    assert!(text.contains("manufacturing: mean occupancy"), "{text}");
}

#[test]
fn fast_mode_fig5_finds_gamma_on_every_stand_in() {
    let text = run_fast(env!("CARGO_BIN_EXE_fig5_proximity_others"), "fig5");
    assert!(text.contains("γ(manufacturing) = "), "{text}");
}

#[test]
fn fast_mode_fig6_gamma_favors_the_high_activity_mode() {
    let text = run_fast(env!("CARGO_BIN_EXE_fig6_synthetic"), "fig6");
    assert!(text.contains("mid-range stays within the high-activity regime (true)"), "{text}");
}

#[test]
fn fast_mode_fig7_selection_methods_agree() {
    let text = run_fast(env!("CARGO_BIN_EXE_fig7_selection"), "fig7");
    assert!(text.contains("M-K ≈ std-dev ≈ Shannon(10) ≈ CRE: true"), "{text}");
}

#[test]
fn fast_mode_fig8_validation_curves_hold() {
    let text = run_fast(env!("CARGO_BIN_EXE_fig8_validation"), "fig8");
    assert!(text.contains("loss at γ = "), "{text}");
}

#[test]
fn fast_mode_table_gamma_anti_correlates_with_activity() {
    let text = run_fast(env!("CARGO_BIN_EXE_table_gamma"), "table_gamma");
    let line = text
        .lines()
        .find(|l| l.starts_with("activity/γ anti-correlation"))
        .unwrap_or_else(|| panic!("no anti-correlation verdict:\n{text}"));
    assert!(line.ends_with(": true"), "{line}");
}

#[test]
fn fast_mode_fig2_runs_with_assertions() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig2_classic"))
        .env("SATURN_FAST", "1")
        .env(
            "SATURN_OUT",
            std::env::temp_dir().join(format!("saturn-fig2-test-{}", std::process::id())),
        )
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "fig2_classic failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("monotone drifts confirmed"));
}
