//! `gpnm-bench`: run one workload, all of them, or compare two result
//! sets. See `gpnm-bench/README.md`.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use gpnm_bench_of_record::json::Json;
use gpnm_bench_of_record::report::{self, ChildRun};
use gpnm_bench_of_record::spec::{self, Spec, WORKLOADS};
use gpnm_bench_of_record::stats::{samples_beyond, MIN_SAMPLES_BEYOND};
use gpnm_bench_of_record::{compare, run_workload, RunOpts, DEFAULT_SEED};

const USAGE: &str = "usage:
  gpnm-bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] [--smoke]
      one run: end-to-end metrics (--trace 0, the default) or the per-layer split (--trace 1)
  gpnm-bench all [--seed N] [--seconds S] [--out FILE] [--smoke]
      every workload: ten end-to-end runs (seeds N, N+1, ...) and one traced run, each in a
      fresh child process
  gpnm-bench compare <A.json> <B.json> [--manifest BENCHMARK.json]
  gpnm-bench manifest
      print BENCHMARK.json as the code defines it";

/// End-to-end runs per workload in `all`, each with another seed: what the
/// quartile spread of a result set is taken over.
const REPEATS: u64 = 10;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<PathBuf>,
    smoke: bool,
    out: Option<PathBuf>,
    manifest: PathBuf,
    positional: Vec<String>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(report::RUN_SECONDS),
        traced: false,
        trace_out: None,
        smoke: false,
        out: None,
        manifest: PathBuf::from("BENCHMARK.json"),
        positional: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: '{text}' is not a valid number"))
        }
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = number(arg, value("a number")?)?,
            "--seconds" => {
                let s: f64 = number(arg, value("a number")?)?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must not be negative".to_owned());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--trace-out" => args.trace_out = Some(value("a file")?.into()),
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value("a file")?.into()),
            "--manifest" => args.manifest = value("a file")?.into(),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(arg.clone()),
        }
    }
    Ok(args)
}

fn find_spec(name: &str, smoke: bool) -> Result<Spec, String> {
    let spec = spec::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
        format!("unknown workload '{name}' (one of: {})", names.join(", "))
    })?;
    Ok(if smoke { spec.smoke() } else { spec.clone() })
}

/// Numbers from an unoptimised build describe a different program.
fn refuse_debug_build(smoke: bool) -> Result<(), String> {
    if cfg!(debug_assertions) && !smoke {
        return Err(
            "refusing to report numbers from a debug build; build with --release".to_owned(),
        );
    }
    Ok(())
}

/// The paged backend spills to the OS temp directory; keep that inside
/// the build directory so a run touches nothing outside its checkout.
fn confine_temp_files() -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("gpnm-bench-tmp");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    // No other thread exists yet, so changing the environment is safe.
    std::env::set_var("TMPDIR", &dir);
    Ok(())
}

fn run_one(args: &Args, name: &str) -> Result<bool, String> {
    refuse_debug_build(args.smoke)?;
    let spec = find_spec(name, args.smoke)?;
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        trace_out: args.trace_out.clone(),
    };
    let out = run_workload(&spec, &opts, args.traced)?;
    if !args.smoke && samples_beyond(out.samples, 90.0) < MIN_SAMPLES_BEYOND {
        return Err(format!(
            "{name}: {} timing samples leave fewer than {MIN_SAMPLES_BEYOND} beyond p90",
            out.samples
        ));
    }
    print!("{}", report::human_table(&spec, &out, args.traced));
    println!("{}", report::detail_line(&out));
    // Failed checks are part of the result (`correct: false`), not a
    // failure to produce one, so the exit code stays 0.
    println!("{}", report::result_line(&out, args.traced));
    Ok(true)
}

/// Run one workload in a fresh child process (so its peak RSS is its own)
/// and parse what it printed.
fn child_run(args: &Args, name: &str, seed: u64, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    cmd.args(["--seconds", &args.seconds.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{name} (seed {seed}, trace {}) exited with {}: {}",
            u8::from(traced),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    report::parse_child_output(&stdout).map_err(|e| format!("{name}: {e}"))
}

fn run_all(args: &Args) -> Result<bool, String> {
    refuse_debug_build(args.smoke)?;
    let mut entries = Vec::new();
    let mut ok = true;
    for spec in &WORKLOADS {
        // Repeats differ in seed, as the acceptance runs do, so a metric's
        // recorded spread includes what the inputs contribute.
        let e2e = (0..REPEATS)
            .map(|r| child_run(args, spec.name, args.seed + r, false))
            .collect::<Result<Vec<_>, _>>()?;
        let traced = child_run(args, spec.name, args.seed, true)?;
        ok &= e2e
            .iter()
            .chain([&traced])
            .all(|r| r.result.get("correct") == Some(&Json::Bool(true)));
        let spec = if args.smoke {
            spec.smoke()
        } else {
            spec.clone()
        };
        entries.push((spec.name, report::workload_entry(&spec, &e2e, &traced)));
    }
    let set = Json::obj([
        ("schema", Json::str(report::SCHEMA)),
        (
            "environment",
            report::environment(args.seed, args.seconds, REPEATS),
        ),
        ("workloads", Json::obj(entries)),
    ]);
    if let Some(path) = &args.out {
        std::fs::write(path, set.render_pretty())
            .map_err(|e| format!("cannot write --out {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    println!(
        "{}",
        if ok {
            "all checks passed"
        } else {
            "SOME CHECKS FAILED"
        }
    );
    Ok(ok)
}

fn run_compare(args: &Args) -> Result<bool, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err(USAGE.to_owned());
    };
    let load = |path: &std::path::Path| {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (table, ok) = compare::compare(
        &load(a.as_ref())?,
        &load(b.as_ref())?,
        &load(&args.manifest)?,
    )?;
    print!("{table}");
    Ok(ok)
}

fn dispatch(argv: &[String]) -> Result<bool, String> {
    let args = parse(argv)?;
    confine_temp_files()?;
    let positional = args.positional.clone();
    match positional
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        [] => match args.workload.clone() {
            Some(name) => run_one(&args, &name),
            None => Err(USAGE.to_owned()),
        },
        ["all"] => run_all(&args),
        ["manifest"] => {
            print!("{}", report::manifest().render_pretty());
            Ok(true)
        }
        ["compare", _, _] => run_compare(&args),
        _ => Err(USAGE.to_owned()),
    }
}

/// Start this process again with glibc's mmap threshold pinned, unless it
/// already is; returns the child's exit code.
///
/// glibc raises the threshold the first time a large block is freed, and
/// from then on the same program keeps or returns memory depending on the
/// order in which its inputs make it free things: `paper_squery`'s peak RSS
/// came out at 20.3 or 23.8 MiB depending on the seed. With the threshold
/// pinned at its initial value it is 18.5 MiB on every seed. The allocator
/// reads the variable once, at start-up, hence the restart.
fn with_pinned_allocator(argv: &[String]) -> Option<ExitCode> {
    const VAR: &str = "MALLOC_MMAP_THRESHOLD_";
    if std::env::var_os(VAR).is_some() {
        return None;
    }
    let status = std::env::current_exe()
        .and_then(|exe| Command::new(exe).args(argv).env(VAR, "131072").status());
    Some(match status {
        Ok(status) => ExitCode::from(status.code().map_or(1, |code| code as u8)),
        Err(e) => {
            eprintln!("error: cannot restart with {VAR} set: {e}");
            ExitCode::from(2)
        }
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(code) = with_pinned_allocator(&argv) {
        return code;
    }
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
