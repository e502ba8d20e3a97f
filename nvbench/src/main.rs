//! `nvbench` — the repository's one benchmark.
//!
//! Six named workloads, nine end-to-end metrics and a traced mode that
//! prices every layer from outside, all through the product's public
//! functions. See `README.md` beside this package.
//!
//! ```text
//! nvbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--dir <path>]
//! nvbench run [--seed <n>] [--seconds <s>] [--trace] [--smoke] [--dir <path>] [--out <file>]
//! nvbench selftest [--dir <path>]
//! nvbench compare <A.json> <B.json>
//! ```
//!
//! The first form runs one workload in this process and ends its standard
//! output with a detail line and the result line. `run` executes that
//! form once per workload, each in a fresh child process — thread-local
//! state, leaked metric sets and the peak-memory watermark cannot bleed
//! between workloads — and assembles one JSON document.

mod compare;
mod drive;
mod gen;
mod host;
mod json;
mod spec;
mod stats;
mod trace;
mod workloads;

use host::Scratch;
use json::{num, quote};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Outcome, RunCfg};

/// `run_seconds` of `BENCHMARK.json`: what `run` passes as `--seconds`.
const RUN_SECONDS: f64 = 10.0;
/// `--smoke` divides every operation count by this…
const SMOKE_SHRINK: u64 = 100;
/// …and measures for this long unless told otherwise.
const SMOKE_SECONDS: f64 = 0.2;

/// Command-line options shared by the forms above.
#[derive(Debug, Default)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    dir: Option<PathBuf>,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        seed: 42,
        ..Opts::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => o.workload = Some(value("a workload name")?),
            "--seed" => {
                o.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                o.seconds = Some(s);
            }
            // The driver passes `--trace 0|1`; `run --trace` is a bare flag.
            "--trace" => match it.clone().next().map(String::as_str) {
                Some("0") => {
                    it.next();
                }
                Some("1") => {
                    it.next();
                    o.trace = true;
                }
                _ => o.trace = true,
            },
            "--smoke" => o.smoke = true,
            "--dir" => o.dir = Some(value("a directory")?.into()),
            "--out" => o.out = Some(value("a file")?.into()),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(arg.clone()),
        }
    }
    Ok(o)
}

impl Opts {
    fn cfg(&self) -> RunCfg {
        RunCfg {
            seed: self.seed,
            seconds: self.seconds.unwrap_or(if self.smoke {
                SMOKE_SECONDS
            } else {
                RUN_SECONDS
            }),
            trace: self.trace,
            shrink: if self.smoke { SMOKE_SHRINK } else { 1 },
            wrong_oracle: false,
        }
    }
}

fn metrics_json(out: &Outcome) -> String {
    let members: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(m.name),
                num(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(","))
}

fn spread_json(out: &Outcome) -> String {
    let members: Vec<String> = out
        .metrics
        .iter()
        .filter_map(|m| {
            let s = m.spread?;
            Some(format!(
                "{}:{{\"n\":{},\"min\":{},\"q1\":{},\"median\":{},\"q3\":{},\"max\":{}}}",
                quote(m.name),
                s.n,
                num(s.min),
                num(s.q1),
                num(s.median),
                num(s.q3),
                num(s.max)
            ))
        })
        .collect();
    format!("{{{}}}", members.join(","))
}

/// Runs one workload in this process and prints its metrics, the detail
/// line and the result line. A run with a failed operation still prints
/// everything, then exits non-zero.
fn run_one(name: &str, opts: &Opts) -> Result<ExitCode, String> {
    let w = spec::workload(name).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; known: {}",
            spec::WORKLOADS.map(|w| w.name).join(", ")
        )
    })?;
    let cfg = opts.cfg();
    let scratch =
        Scratch::create(opts.dir.as_deref()).map_err(|e| format!("scratch directory: {e}"))?;
    println!(
        "nvbench {} seed={} seconds={} trace={} smoke={} dir={}\n  ({})",
        w.name,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        opts.smoke,
        scratch.path().display(),
        w.why
    );
    let out = workloads::run(w, &cfg, &scratch).map_err(|e| format!("{}: {e}", w.name))?;
    for m in &out.metrics {
        match m.spread {
            Some(s) if s.n > 1 => println!(
                "  {:<40} {:>16.4} {:<6} (n={} min={:.4} q1={:.4} q3={:.4} max={:.4})",
                m.name, m.value, m.unit, s.n, s.min, s.q1, s.q3, s.max
            ),
            _ => println!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit),
        }
    }
    println!(
        "  ops_attempted {}  ops_failed {}",
        out.attempted, out.failed
    );
    let correct = out.failed == 0;
    let extra: String = out
        .detail
        .iter()
        .map(|(k, v)| format!(",{}:{}", quote(k), v))
        .collect();
    println!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"host\":{},\"frozen\":{},\"spread\":{}{}}}",
        quote(w.name),
        cfg.seed,
        num(cfg.seconds),
        u8::from(cfg.trace),
        opts.smoke,
        host::stamp_json(scratch.path()),
        spec::frozen_json(cfg.shrink),
        spread_json(&out),
        extra
    );
    drop(scratch);
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.attempted.max(1),
        out.failed,
        metrics_json(&out)
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every workload, each in a fresh child process, and prints one
/// JSON document (also written to `--out`).
fn run_all(opts: &Opts) -> Result<ExitCode, String> {
    let cfg = opts.cfg();
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut entries, mut stamp, mut all_correct) = (Vec::new(), None, true);
    for w in &spec::WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args([
            "--workload",
            w.name,
            "--seed",
            &cfg.seed.to_string(),
            "--seconds",
            &cfg.seconds.to_string(),
        ]);
        cmd.args(["--trace", if cfg.trace { "1" } else { "0" }]);
        if opts.smoke {
            cmd.arg("--smoke");
        }
        if let Some(dir) = &opts.dir {
            cmd.arg("--dir").arg(dir);
        }
        let child = cmd
            .stdin(std::process::Stdio::null())
            .stderr(std::process::Stdio::inherit())
            .output();
        let child = child.map_err(|e| format!("{}: {e}", w.name))?;
        let text = String::from_utf8_lossy(&child.stdout);
        let lines: Vec<&str> = text.lines().collect();
        let [human @ .., detail, result] = lines.as_slice() else {
            return Err(format!(
                "{}: child printed no result (exit {:?})",
                w.name,
                child.status.code()
            ));
        };
        human.iter().for_each(|l| println!("{l}"));
        let (detail, result) = match (json::parse(detail), json::parse(result)) {
            (Ok(d), Ok(r)) => (d, r),
            _ => {
                return Err(format!(
                    "{}: child's last lines are not JSON (exit {:?})",
                    w.name,
                    child.status.code()
                ))
            }
        };
        all_correct &=
            child.status.success() && result.get("correct") == Some(&json::Value::Bool(true));
        let member =
            |v: &json::Value, key: &str| v.get(key).map_or("null".into(), json::Value::to_string);
        stamp.get_or_insert_with(|| (member(&detail, "host"), member(&detail, "frozen")));
        entries.push(format!(
            "{{\"name\":{},\"trace\":{},\"correct\":{},\"ops_attempted\":{},\"ops_failed\":{},\"metrics\":{},\"spread\":{},\"tail\":{},\"trials\":{}}}",
            quote(w.name),
            u8::from(cfg.trace),
            member(&result, "correct"),
            member(&result, "attempted"),
            member(&result, "failed"),
            member(&result, "metrics"),
            member(&detail, "spread"),
            member(&detail, "tail"),
            member(&detail, "trials"),
        ));
    }
    let (host, frozen) = stamp.expect("six workloads ran");
    let doc = format!(
        "{{\"nvbench\":1,\"smoke\":{},\"seed\":{},\"seconds\":{},\"host\":{host},\"frozen\":{frozen},\"workloads\":[\n{}\n],\"claim\":null}}",
        opts.smoke,
        cfg.seed,
        num(cfg.seconds),
        entries.join(",\n")
    );
    json::parse(&doc).map_err(|e| format!("assembled document is not JSON: {e}"))?;
    if let Some(path) = &opts.out {
        std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{doc}");
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Proves the correctness gate can fail: a tiny run with the right
/// expectation must report no failed operation, and the same run with a
/// deliberately wrong one must report some — for the shadow model of the
/// steady-state workloads and for the post-reopen key check alike.
fn selftest(opts: &Opts) -> Result<ExitCode, String> {
    let scratch =
        Scratch::create(opts.dir.as_deref()).map_err(|e| format!("scratch directory: {e}"))?;
    for name in ["lib-hash-a", "wire-batch64", "recover-reopen"] {
        let w = spec::workload(name).expect("named in spec");
        for wrong_oracle in [false, true] {
            let cfg = RunCfg {
                seed: 7,
                seconds: 0.05,
                trace: false,
                shrink: SMOKE_SHRINK,
                wrong_oracle,
            };
            let out = workloads::run(w, &cfg, &scratch).map_err(|e| format!("{name}: {e}"))?;
            println!(
                "selftest {name} wrong_oracle={wrong_oracle}: attempted {} failed {}",
                out.attempted, out.failed
            );
            if out.attempted == 0 || (out.failed > 0) != wrong_oracle {
                return Err(format!(
                    "{name}: the verifier {}",
                    if wrong_oracle {
                        "accepted replies that contradict its expectation"
                    } else {
                        "rejected a correct run"
                    }
                ));
            }
        }
    }
    println!("selftest ok: the verifier passes correct runs and fails wrong ones");
    Ok(ExitCode::SUCCESS)
}

fn number<T: std::str::FromStr>(args: &[String], i: usize, what: &str) -> Result<T, String> {
    args.get(i)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("expected {what} as argument {i}"))
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    if cfg!(debug_assertions) {
        return Err(
            "nvbench measures optimized builds only: run it with `cargo run --release`".into(),
        );
    }
    host::cores(); // recorded now, before any workload pins anything
    let command = args.first().map(String::as_str);
    // The one place NVT_OBS=off is legitimate: the ladder rung that prices it.
    if command == Some("rung-pooled") {
        return trace::pooled_rung_child(Path::new(&args[1]), number(args, 2, "a seed")?)
            .map(|()| ExitCode::SUCCESS)
            .map_err(|e| e.to_string());
    }
    if !nvtraverse_obs::enabled() {
        return Err(
            "NVT_OBS is off: flushes_per_op and fences_per_op need the counters; unset it".into(),
        );
    }
    match command {
        Some("crash-fill") => workloads::crash_fill(
            Path::new(args.get(1).ok_or("crash-fill needs a directory")?),
            number(args, 2, "a seed")?,
            number(args, 3, "an insert count")?,
            number(args, 4, "a remove count")?,
            number(args, 5, "a pool size")?,
        )
        .map(|()| ExitCode::SUCCESS)
        .map_err(|e| e.to_string()),
        Some("run") => run_all(&parse_opts(&args[1..])?),
        Some("selftest") => selftest(&parse_opts(&args[1..])?),
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a, b).map(|ok| {
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }),
            _ => Err("usage: nvbench compare <A.json> <B.json>".into()),
        },
        _ => {
            let opts = parse_opts(args)?;
            match (&opts.workload, opts.positional.is_empty()) {
                (Some(name), true) => run_one(name, &opts),
                _ => Err("usage: nvbench --workload <name> --seed <n> --seconds <s> --trace <0|1> | run | selftest | compare A B".into()),
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|e| {
        eprintln!("nvbench: {e}");
        ExitCode::from(2)
    })
}
