//! The `cardbench` command line as a user meets it.

use std::process::Command;

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
