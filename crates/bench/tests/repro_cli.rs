//! The `repro` binary's error paths: user input never panics.  Bad flags
//! exit 2 with a named message; run and output failures exit 1.

use std::process::{Command, Output};

fn repro(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut command = Command::new(env!("CARGO_BIN_EXE_repro"));
    command
        .args(args)
        .env_remove("KCENTER_KERNEL")
        .env_remove("KCENTER_ASSIGN");
    for (key, value) in env {
        command.env(key, value);
    }
    command.output().expect("repro starts")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn non_finite_or_non_positive_scales_are_usage_errors() {
    for scale in ["nan", "inf", "-inf", "0", "-1", "abc"] {
        let out = repro(&["table2", "--scale", scale], &[]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--scale {scale}: {}",
            stderr(&out)
        );
        assert!(
            stderr(&out).contains("is not a positive number"),
            "--scale {scale}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn an_unwritable_out_path_is_a_named_error() {
    let out = repro(&["table1", "--out", "/nonexistent/dir/x.md"], &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("cannot write \"/nonexistent/dir/x.md\""),
        "{}",
        stderr(&out)
    );
}

#[test]
fn bad_dispatch_environment_values_are_named_errors() {
    for (key, value) in [("KCENTER_KERNEL", "warp9"), ("KCENTER_ASSIGN", "bogus")] {
        let out = repro(&["table3", "--scale", "0.001"], &[(key, value)]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{key}={value}: {}",
            stderr(&out)
        );
        assert!(
            stderr(&out).contains(&format!("invalid {key} \"{value}\"")),
            "{key}={value}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn table1_renders_to_the_out_file() {
    let path = std::env::temp_dir().join(format!("repro-table1-{}.md", std::process::id()));
    let out = repro(&["table1", "--out", path.to_str().unwrap()], &[]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(
        text.contains("| row | alpha | rounds | predicted ops |"),
        "{text}"
    );
}
