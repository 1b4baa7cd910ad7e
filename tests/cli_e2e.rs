//! End-to-end checks of `bp`'s command-line contract: output to a
//! closed pipe ends a command cleanly, a zero instruction budget is
//! rejected with an error that names the flag or count, an instruction
//! count given with a trace file is rejected, and an out-of-range
//! config field is a typed error, never a panic.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn bp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bp"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bp-cli-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `bp args` with its stdout connected to a pipe whose read end is
/// already closed, so the first write fails with `BrokenPipe`.
fn run_into_closed_pipe(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    bp().args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn bp")
}

#[test]
fn closed_stdout_pipe_is_a_clean_exit() {
    for args in [
        &["list", "predictors"][..],
        &["list", "benchmarks"][..],
        &[
            "grid",
            "paper",
            "--predictors",
            "bimodal",
            "--instr",
            "20000",
            "--json",
        ][..],
    ] {
        let out = run_into_closed_pipe(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !stderr.contains("panicked") && !stderr.contains("Broken pipe"),
            "bp {args:?} panicked on a closed stdout: {stderr}"
        );
        assert!(
            out.status.success(),
            "bp {args:?} exited {:?}: {stderr}",
            out.status
        );
    }
}

#[test]
fn closed_stdout_pipe_keeps_a_failing_exit_code() {
    // An empty workspace has no committed unsafe inventory, so `bp lint`
    // prints one violation and fails; losing the output must not turn
    // that failure into success.
    let dir = scratch_dir("lint-pipe");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("manifest");
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = bp()
        .arg("lint")
        .current_dir(&dir)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn bp");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "bp lint panicked: {stderr}");
    assert!(
        !out.status.success() && stderr.contains("lint violation"),
        "bp lint exited {:?} on a closed stdout: {stderr}",
        out.status
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_instruction_budget_is_rejected_by_every_sweep_command() {
    let dir = scratch_dir("instr0");
    let out_dir = dir.to_str().expect("utf-8 path");
    for (args, names) in [
        (&["grid", "paper", "--instr", "0", "--json"][..], "--instr"),
        (
            &["report", "paper", "--instr", "0", "--out-dir", out_dir][..],
            "--instr",
        ),
        (
            &["sweep", "paper", "--instr", "0", "--out-dir", out_dir][..],
            "--instr",
        ),
        // The positional instruction count follows the same rule.
        (
            &["simulate", "bimodal", "SPEC2K6-04", "0"][..],
            "instruction count",
        ),
        (
            &["profile", "bimodal", "SPEC2K6-04", "0"][..],
            "instruction count",
        ),
        (&["compare", "SPEC2K6-04", "0"][..], "instruction count"),
    ] {
        let out = bp().args(args).output().expect("spawn bp");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "bp {args:?} accepted a zero budget");
        assert!(
            stderr.contains(names) && stderr.contains("got 0"),
            "bp {args:?}: the error must name {names}: {stderr}"
        );
        assert!(
            !stderr.contains("warmup"),
            "bp {args:?}: misleading error: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "bp {args:?} printed a result for a zero budget"
        );
    }
    let written: Vec<_> = std::fs::read_dir(&dir).expect("scratch dir").collect();
    assert!(written.is_empty(), "a rejected run must write no artifact");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn instruction_count_with_a_trace_file_is_a_typed_error() {
    // A trace file is read whole, so a count given with one could only
    // be ignored while the output looked as if it were honoured.
    let dir = scratch_dir("file-count");
    let trace = dir.join("t.bptr");
    let trace = trace.to_str().expect("utf-8 path");
    let generated = bp()
        .args(["generate", "SPEC2K6-04", "20000", trace])
        .output()
        .expect("spawn bp");
    assert!(generated.status.success());
    let whole = bp()
        .args(["simulate", "bimodal", trace])
        .output()
        .expect("spawn bp");
    assert!(whole.status.success(), "a file without a count still runs");
    assert!(String::from_utf8_lossy(&whole.stdout).contains("MPKI"));
    for (count, error) in [("1000", "applies only to a benchmark name"), ("0", "got 0")] {
        let out = bp()
            .args(["simulate", "bimodal", trace, count])
            .output()
            .expect("spawn bp");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "count {count}: {stderr}");
        assert!(out.stdout.is_empty(), "count {count}: printed a result");
        assert!(stderr.contains(error), "count {count}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_of_range_path_bits_is_a_typed_config_error_for_every_family() {
    // A path register is 1..=64 bits wide; before the configs checked
    // it, `bp grid --config` panicked in a worker thread (exit 101).
    let tage = r#"{"name": "T", "tage": {"base_log_entries": 8, "tagged_log_entries": 5, "tag_bits": [8, 9, 10], "min_history": 4, "max_history": 64, "counter_bits": 3, "useful_bits": 2, "path_bits": 65, "reset_period": 262144}, "sc": {"bias_entries": 64, "table_entries": 64, "counter_bits": 6, "global_lengths": [3, 33], "tage_weight": 5, "imli_in_global_indices": false, "threshold_init": 6, "threshold_max": 255}}"#;
    let gehl = r#"{"name": "G", "log_entries": 8, "counter_bits": 4, "num_tables": 8, "min_history": 2, "max_history": 600, "path_bits": 0, "threshold_init": 20, "threshold_max": 511}"#;
    let perceptron = r#"{"name": "P", "log_entries": 8, "weight_bits": 4, "segments": [0, 4, 8, 16], "path_bits": 0, "threshold_init": 14, "threshold_max": 255}"#;
    let dir = scratch_dir("path-bits");
    for (kind, config) in [
        ("tage-sc", tage),
        ("gehl", gehl),
        ("perceptron", perceptron),
    ] {
        let file = dir.join(format!("{kind}.json"));
        std::fs::write(
            &file,
            format!(
                r#"{{"predictors": [{{"name": "bad", "paper_ref": "test", "config": {{"kind": "{kind}", "config": {config}}}}}]}}"#
            ),
        )
        .expect("write config");
        let out = bp()
            .args(["grid", "paper", "--instr", "20000", "--json", "--config"])
            .arg(&file)
            .output()
            .expect("spawn bp");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{kind}: {stderr}");
        assert!(
            stderr.contains("path_bits"),
            "{kind}: the error must name path_bits: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{kind}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
