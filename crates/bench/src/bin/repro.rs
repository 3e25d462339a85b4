//! `repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! repro list
//! repro table2 [--scale 0.05] [--machines 50] [--repeats 2] [--seed 1]
//! repro all    [--scale 0.02] ...
//! repro all --out EXPERIMENTS_RAW.md
//! ```
//!
//! `--scale 1.0` reproduces the paper's workload sizes (up to a million
//! points); smaller scales shrink every `n` proportionally so the full suite
//! finishes quickly while keeping the qualitative shape.  `--repeats R`
//! averages every cell over seeds `S..S+R`, regenerating the data for each.
//! Every cell runs through the scenario runner; `KCENTER_KERNEL` and
//! `KCENTER_ASSIGN` pick the kernel backend and assignment arm.
//!
//! Exit status: 0 on success, 1 on a run or output error, 2 on a usage
//! error.

use kcenter_bench::experiments::{
    all_experiments, find_experiment, run_experiment, Experiment, RunOptions,
};
use kcenter_bench::report::render_all;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        print_usage();
        return ExitCode::from(2);
    };
    if command == "list" {
        for e in all_experiments() {
            println!("{:10}  {}", e.id, e.title);
        }
        return ExitCode::SUCCESS;
    }
    if command == "--help" || command == "-h" || command == "help" {
        print_usage();
        return ExitCode::SUCCESS;
    }

    let (options, out_path) = match parse_options(&args[1..]) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("error: {msg}");
            print_usage();
            return ExitCode::from(2);
        }
    };
    let experiments = if command == "all" {
        all_experiments()
    } else {
        match find_experiment(command) {
            Some(e) => vec![e],
            None => {
                eprintln!("error: unknown experiment {command:?}; use `repro list`");
                return ExitCode::from(2);
            }
        }
    };

    match run(&experiments, options, out_path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}

/// Runs the experiments and prints the rendered tables, or writes them to
/// `out_path`.
fn run(
    experiments: &[Experiment],
    options: RunOptions,
    out_path: Option<String>,
) -> Result<(), String> {
    let mut results = Vec::with_capacity(experiments.len());
    for e in experiments {
        eprintln!("running {} ...", e.id);
        results.push(run_experiment(e, options).map_err(|err| format!("{}: {err}", e.id))?);
    }
    let output = render_all(&results);
    match out_path {
        Some(path) => {
            std::fs::write(&path, output).map_err(|e| format!("cannot write {path:?}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{output}"),
    }
    Ok(())
}

fn parse_options(args: &[String]) -> Result<(RunOptions, Option<String>), String> {
    let mut options = RunOptions::default();
    let mut out = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--scale" => {
                options.scale = value
                    .parse::<f64>()
                    .ok()
                    .filter(|f| f.is_finite() && *f > 0.0)
                    .ok_or_else(|| format!("--scale {value:?} is not a positive number"))?
            }
            "--machines" => {
                options.machines = value
                    .parse()
                    .map_err(|_| format!("bad --machines {value:?}"))?
            }
            "--repeats" => {
                options.repeats = value
                    .parse()
                    .map_err(|_| format!("bad --repeats {value:?}"))?
            }
            "--seed" => {
                options.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?
            }
            "--out" => out = Some(value.clone()),
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    if options.machines == 0 || options.repeats == 0 {
        return Err("--machines and --repeats must be at least 1".to_string());
    }
    Ok((options, out))
}

fn print_usage() {
    eprintln!(
        "usage: repro <experiment-id | all | list> [--scale F] [--machines M] [--repeats R] [--seed S] [--out FILE]\n\
         experiment ids: table1..table7, figure1, figure2a, figure2b, figure3a, figure3b, figure4a, figure4b"
    );
}
