//! `vardep` — command-line front end to the variable-distance loop
//! parallelizer.
//!
//! ```text
//! vardep analyze  [-p N=16]... (<file> | -e "<loop>")   PDM analysis
//! vardep plan     [-p N=16]... (<file> | -e "<loop>")   transformed code
//! vardep run      [-p N=16]... (<file> | -e "<loop>")   execute + verify + time
//! vardep isdg     [-p N=16]... (<file> | -e "<loop>")   dependence graph (2-D: grid)
//! vardep shootout [-p N=16]... (<file> | -e "<loop>")   all Table-1 methods
//! ```
//!
//! Example:
//!
//! ```sh
//! vardep plan -e "for i = 0..=20 { A[3*i + 9] = A[3*i] + 1; }"
//! ```

use pdm_baselines::report::Parallelizer;
use std::process::ExitCode;
use vardep_loops::prelude::*;

fn usage() -> ExitCode {
    eprintln!(
        "usage: vardep <analyze|plan|run|isdg|shootout> [-p NAME=VALUE]... (<file> | -e \"<loop>\")"
    );
    ExitCode::from(2)
}

struct Args {
    command: String,
    params: Vec<(String, i64)>,
    source: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command")?;
    let mut params = Vec::new();
    let mut source: Option<String> = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-p" | "--param" => {
                let kv = it.next().ok_or("-p needs NAME=VALUE")?;
                let (k, v) = kv.split_once('=').ok_or("-p needs NAME=VALUE")?;
                let v: i64 = v.parse().map_err(|_| format!("bad value in '{kv}'"))?;
                params.push((k.to_string(), v));
            }
            "-e" | "--expr" => {
                source = Some(it.next().ok_or("-e needs a loop string")?);
            }
            path => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                source = Some(text);
            }
        }
    }
    Ok(Args {
        command,
        params,
        source: source.ok_or("no loop source given (file or -e)")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let params: Vec<(&str, i64)> = args.params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    // One session for the whole invocation: every command that plans
    // does so through the session's template cache, and all pipeline
    // failures surface as one PdmError.
    let session = Session::new();
    let nest = match session.parse_with(&args.source, &params) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("parse error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let outcome = match args.command.as_str() {
        "analyze" => cmd_analyze(&session, &nest),
        "plan" => cmd_plan(&session, &nest),
        "run" => cmd_run(&session, &nest),
        "isdg" => cmd_isdg(&nest),
        "shootout" => cmd_shootout(&nest),
        _ => {
            return usage();
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type AnyError = Box<dyn std::error::Error>;

fn cmd_analyze(session: &Session, nest: &LoopNest) -> Result<(), AnyError> {
    println!("{}", vardep_loops::loopir::pretty::render(nest));
    let analysis = session.analyze(nest)?;
    println!(
        "pseudo distance matrix ({} x {}):",
        analysis.rank(),
        analysis.depth()
    );
    print!("{}", analysis.pdm());
    println!(
        "\nrank {} / depth {}   uniform: {}   dependences: {}",
        analysis.rank(),
        analysis.depth(),
        analysis.is_uniform(),
        analysis.has_dependences()
    );
    let zeros = analysis.zero_cols();
    if !zeros.is_empty() {
        println!(
            "zero columns (parallel loops by Lemma 1): {:?}",
            zeros.iter().map(|k| k + 1).collect::<Vec<_>>()
        );
    }
    if let Some(idx) = analysis.lattice()?.index() {
        println!("lattice index det(H) = {idx} (partition parallelism)");
    }
    println!("\nreference pairs:");
    for (k, p) in analysis.pairs().iter().enumerate() {
        let status = if p.lattice.solvable {
            format!(
                "d0 = {:?}, hom rank {}",
                p.lattice.particular.as_ref().map(|d| d.as_slice().to_vec()),
                p.lattice.hom_rank
            )
        } else {
            "no dependence (exact test)".to_string()
        };
        println!(
            "  #{k} stmts ({},{}) array {}: {status}",
            p.stmt_a, p.stmt_b, p.array.0
        );
    }
    let prec = vardep_loops::core::deptest::compare_tests(nest)?;
    println!(
        "\ndependence tests: {} pairs — gcd disproves {}, banerjee {}, exact {}",
        prec.pairs, prec.gcd_independent, prec.banerjee_independent, prec.exact_independent
    );
    Ok(())
}

fn cmd_plan(session: &Session, nest: &LoopNest) -> Result<(), AnyError> {
    let plan = session.parallelize(nest)?;
    println!("{}", render_plan(nest, &plan)?);
    Ok(())
}

fn cmd_run(session: &Session, nest: &LoopNest) -> Result<(), AnyError> {
    let plan = session.parallelize(nest)?;
    // Allocate, initialize, and compile up front so every timer below
    // covers execution only — the speedup stays comparable.
    let mut m_seq = Memory::for_nest(nest)?;
    let mut m_cmp = Memory::for_nest(nest)?;
    m_seq.init_deterministic(0);
    m_cmp.init_deterministic(0);
    let compiled = vardep_loops::runtime::CompiledPlan::compile(nest, &plan, &m_cmp)?;

    let t0 = std::time::Instant::now();
    let iters = run_sequential(nest, &m_seq)?;
    let t_seq = t0.elapsed();

    let t1 = std::time::Instant::now();
    compiled.run_parallel(&m_cmp)?;
    let t_cmp = t1.elapsed();

    let equal = m_seq.snapshot() == m_cmp.snapshot();
    println!(
        "{iters} iterations | doall {} | partitions {} | groups {}",
        plan.doall_count(),
        plan.partition_count(),
        vardep_loops::runtime::exec::group_count(&plan)?
    );
    println!(
        "interp seq {:.3} ms | compiled par {:.3} ms (x{:.2}) | identical: {equal}",
        t_seq.as_secs_f64() * 1e3,
        t_cmp.as_secs_f64() * 1e3,
        t_seq.as_secs_f64() / t_cmp.as_secs_f64().max(1e-12),
    );
    if !equal {
        return Err("compiled result diverged".into());
    }
    Ok(())
}

fn cmd_isdg(nest: &LoopNest) -> Result<(), AnyError> {
    let g = vardep_loops::isdg::build(nest)?;
    if nest.depth() == 2 {
        println!("{}", vardep_loops::isdg::render::ascii_grid(&g));
    }
    let m = vardep_loops::isdg::metrics::metrics(&g);
    println!(
        "iterations {} | dependent {} | edges {} | chains {} | critical path {} | avg parallelism {:.2}",
        m.iterations, m.dependent, m.edges, m.components, m.critical_path, m.avg_parallelism
    );
    println!("\ntop distances:");
    for (d, c) in vardep_loops::isdg::render::distance_histogram(&g)
        .into_iter()
        .take(8)
    {
        println!("  {d:?} x{c}");
    }
    Ok(())
}

fn cmd_shootout(nest: &LoopNest) -> Result<(), AnyError> {
    let methods: Vec<Box<dyn Parallelizer>> = vec![
        Box::new(pdm_baselines::banerjee::Banerjee),
        Box::new(pdm_baselines::dhollander::DHollander),
        Box::new(pdm_baselines::wolf_lam::WolfLam),
        Box::new(pdm_baselines::shang::ShangBdv),
        Box::new(pdm_baselines::pdm_method::PdmMethod),
    ];
    for m in &methods {
        match m.analyze(nest) {
            Ok(r) => println!("{}", r.summary()),
            Err(e) => println!("{:<12} error: {e}", m.name()),
        }
    }
    Ok(())
}
