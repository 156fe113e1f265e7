//! Command-line plumbing shared by the `bench` and `repro` binaries: one
//! flag parser and one serial-versus-parallel identity check.

use aiacc_simnet::par;
use std::time::Instant;

/// The flags both binaries understand. Each binary passes the subset it
/// accepts to [`Cli::parse`]; anything else is an error.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cli {
    /// Arguments that are not flags (scenario or experiment names).
    pub words: Vec<String>,
    /// `--quick`: the reduced sweep.
    pub quick: bool,
    /// `--jobs N`: sweep worker count, a positive integer.
    pub jobs: Option<usize>,
    /// `--out PATH`: where to write the output.
    pub out: Option<String>,
    /// `--wall-budget S`: a positive number of seconds.
    pub wall_budget: Option<f64>,
}

impl Cli {
    /// Parses `args` (without the program name), accepting only the flags
    /// named in `accepted`.
    ///
    /// # Errors
    /// A message for an unknown or unaccepted flag, a flag given twice, or
    /// a missing or invalid value. A value may not start with `--`, so
    /// `--out --quick` is a missing value, not a file named `--quick`.
    pub fn parse(args: &[String], accepted: &[&str]) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                cli.words.push(arg.clone());
                continue;
            }
            if !accepted.contains(&arg.as_str()) {
                return Err(format!("unknown flag {arg}"));
            }
            let mut value = || match it.next() {
                Some(v) if !v.starts_with("--") => Ok(v.clone()),
                _ => Err(format!("{arg} needs a value")),
            };
            let repeated = match arg.as_str() {
                "--quick" => std::mem::replace(&mut cli.quick, true),
                "--jobs" => {
                    let v = value()?;
                    let n = v.parse().ok().filter(|&n| n > 0);
                    let n = n.ok_or(format!("--jobs needs a positive integer, got {v}"))?;
                    cli.jobs.replace(n).is_some()
                }
                "--out" => cli.out.replace(value()?).is_some(),
                "--wall-budget" => {
                    let v = value()?;
                    let s = v.parse().ok().filter(|&s: &f64| s > 0.0);
                    let s = s.ok_or(format!("--wall-budget needs positive seconds, got {v}"))?;
                    cli.wall_budget.replace(s).is_some()
                }
                _ => unreachable!("accepted flag {arg} has no parser"),
            };
            if repeated {
                return Err(format!("{arg} given twice"));
            }
        }
        Ok(cli)
    }
}

/// Prints `msg` and `usage` to stderr and exits with status 2.
pub fn usage_error(msg: &str, usage: &str) -> ! {
    eprintln!("error: {msg}\n\n{usage}");
    std::process::exit(2)
}

/// One scenario run at `--jobs 1` and again at `--jobs N`.
#[derive(Debug, Clone)]
pub struct JobsCheck<T> {
    /// The `--jobs N` result.
    pub value: T,
    /// Whether the two runs agreed.
    pub identical: bool,
    /// Wall-clock seconds of the `--jobs 1` run.
    pub serial_s: f64,
    /// Wall-clock seconds of the `--jobs N` run.
    pub parallel_s: f64,
}

/// Runs `run` with one sweep worker, then with `jobs`, compares the two
/// results with `same`, and leaves the worker count at 1.
pub fn check_jobs<T>(
    label: &str,
    jobs: usize,
    same: impl Fn(&T, &T) -> bool,
    run: impl Fn() -> T,
) -> JobsCheck<T> {
    let timed = |n: usize| {
        eprintln!("[bench] {label}, --jobs {n}...");
        par::set_jobs(n);
        let t0 = Instant::now();
        let v = run();
        (v, t0.elapsed().as_secs_f64())
    };
    let (serial, serial_s) = timed(1);
    let (value, parallel_s) = timed(jobs);
    par::set_jobs(1);
    JobsCheck { identical: same(&serial, &value), value, serial_s, parallel_s }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: &[&str] = &["--quick", "--jobs", "--out", "--wall-budget"];

    fn parse(args: &[&str], accepted: &[&str]) -> Result<Cli, String> {
        Cli::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>(), accepted)
    }

    #[test]
    fn parses_words_and_flags() {
        let cli = parse(&["a", "--quick", "--jobs", "3", "b", "--out", "x.json"], ALL).unwrap();
        assert_eq!(cli.words, ["a", "b"]);
        assert!(cli.quick);
        assert_eq!(cli.jobs, Some(3));
        assert_eq!(cli.out.as_deref(), Some("x.json"));
        assert_eq!(parse(&["--wall-budget", "1.5"], ALL).unwrap().wall_budget, Some(1.5));
    }

    #[test]
    fn rejects_flag_like_values_and_repeats() {
        // Unknown flags and bad values are driven through both binaries in
        // tests/cli.rs; these are the cases only the parser sees.
        for (args, msg) in [
            (&["--out", "--quick"][..], "--out needs a value"),
            (&["--wall-budget", "-1"], "--wall-budget needs positive seconds, got -1"),
            (&["--quick", "--quick"], "--quick given twice"),
        ] {
            assert_eq!(parse(args, ALL).unwrap_err(), msg, "{args:?}");
        }
    }

    #[test]
    fn check_jobs_compares_both_runs() {
        let c = check_jobs("t", 2, |a: &usize, b| a == b, par::jobs);
        assert_eq!((c.value, c.identical), (2, false));
        assert_eq!(par::jobs(), 1);
    }
}
