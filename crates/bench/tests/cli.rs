//! The `cardbench` command line as a user meets it.

use std::process::{Command, Output};

/// A wrong command line exits 2 and prints the table the binary
/// dispatches from: every sub-command and every target it would accept.
#[test]
fn unknown_sub_commands_exit_2_with_the_dispatch_table() {
    for argv in [
        &["frobnicate"][..],
        &["report", "table9"],
        &["smoke"],
        &["sweep", "executor", "--sessions", "4"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cardbench"))
            .args(argv)
            .output()
            .expect("cardbench runs");
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        assert!(out.stdout.is_empty(), "{argv:?}: usage goes to stderr");
        let usage = String::from_utf8(out.stderr).expect("utf-8 usage");
        for listed in [
            "report <table1|",
            "table1",
            "figure3",
            "all",
            "observations",
            "workload-shift",
            "smoke <chaos|serve|chaos-serve|adaptive|sketch>",
            "chaos-serve",
            "sketch",
            "sweep <executor|serve|chaos>",
            "executor",
            "dump-dataset",
            "validate-trace",
            "--trace PATH",
        ] {
            assert!(
                usage.contains(listed),
                "{argv:?}: `{listed}` missing in\n{usage}"
            );
        }
    }
}

/// `report observations` reads back the per-query runs `report all`
/// wrote instead of evaluating again, and the file always parses. Its
/// exit code may be 1: the tiny tier does not reproduce every
/// observation.
#[test]
fn observations_read_back_what_report_all_wrote() {
    let dir = std::env::temp_dir().join(format!("cardbench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let report = |target: &str| -> Output {
        Command::new(env!("CARGO_BIN_EXE_cardbench"))
            .args(["report", target])
            .current_dir(&dir)
            .env("CARDBENCH_FAST", "1")
            .env_remove("CARDBENCH_SCALE")
            .output()
            .expect("cardbench runs")
    };
    let all = report("all");
    let stderr = String::from_utf8_lossy(&all.stderr);
    assert_eq!(all.status.code(), Some(0), "{stderr}");
    assert!(dir.join("cardbench_results.json").is_file(), "{stderr}");

    let obs = report("observations");
    let stdout = String::from_utf8_lossy(&obs.stdout);
    let stderr = String::from_utf8_lossy(&obs.stderr);
    assert!(!stderr.contains("running the full evaluation"), "{stderr}");
    assert!(!stderr.contains("FAIL: cardbench_results.json"), "{stderr}");
    assert!(matches!(obs.status.code(), Some(0 | 1)), "{stderr}");
    assert!(
        stdout
            .lines()
            .any(|l| l.ends_with(" checks pass") && l.contains('/')),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
