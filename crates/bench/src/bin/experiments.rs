//! One-shot runner for every experiment row of EXPERIMENTS.md.
//!
//! Prints a compact paper-claim vs measured summary for FIG2–FIG5, TAB1
//! and the quantitative EXTRA experiments (speedup, analysis scaling,
//! partition counts).

use pdm_baselines::report::Parallelizer;
use pdm_bench::{claim, measure_speedup, measure_warm, paper41, paper42};
use pdm_isdg::metrics::metrics;

fn main() {
    println!("==================================================================");
    println!(" Experiment summary — Yu & D'Hollander, ICPP 2000 reproduction");
    println!("==================================================================\n");

    // ---------------- FIG2 / EQ41 ----------------
    println!("[FIG2/EQ41] Section 4.1 analysis");
    let nest41 = paper41(-10, 10);
    let a41 = pdm_core::analyze(&nest41).unwrap();
    claim(
        "PDM of the 4.1 loop",
        "[[2,2]] (rank 1, variable distances)",
        format!("{:?} rows, uniform={}", a41.pdm().rows(), a41.is_uniform()),
        a41.pdm() == &pdm_matrix::IMat::from_rows(&[vec![2, 2]]).unwrap(),
    );
    let g41 = pdm_isdg::build(&nest41).unwrap();
    let m41 = metrics(&g41);
    claim(
        "ISDG has long variable-stride chains",
        "chains over N=10 grid",
        format!(
            "{} components, critical path {}",
            m41.components, m41.critical_path
        ),
        m41.components > 1 && m41.critical_path > 2,
    );

    // ---------------- FIG3 ----------------
    println!("\n[FIG3] Section 4.1 transformed");
    let plan41 = pdm_core::parallelize(&nest41).unwrap();
    claim(
        "doall loops",
        1,
        plan41.doall_count(),
        plan41.doall_count() == 1,
    );
    claim(
        "partitions",
        2,
        plan41.partition_count(),
        plan41.partition_count() == 2,
    );
    let perp = g41.edges().iter().all(|e| {
        let dy = plan41
            .transformed_index(&e.to)
            .unwrap()
            .sub(&plan41.transformed_index(&e.from).unwrap())
            .unwrap();
        dy[0] == 0
    });
    claim("arrows perpendicular to parallel axis", "yes", perp, perp);
    let rep = pdm_runtime::equivalence::compare(&nest41, &plan41, 3).unwrap();
    claim(
        "transformed execution equivalent",
        "yes",
        format!("{} groups", rep.groups),
        rep.equal,
    );

    // ---------------- FIG4 / EQ42 ----------------
    println!("\n[FIG4/EQ42] Section 4.2 analysis");
    let nest42 = paper42(-10, 10);
    let a42 = pdm_core::analyze(&nest42).unwrap();
    claim(
        "PDM equals eq. (4.12) [[2,1],[0,2]]",
        "yes",
        format!("{}", a42.pdm()).replace('\n', " "),
        a42.pdm() == &pdm_matrix::IMat::from_rows(&[vec![2, 1], vec![0, 2]]).unwrap(),
    );
    let g42 = pdm_isdg::build(&nest42).unwrap();
    let strided = g42
        .distances()
        .iter()
        .all(|d| d.iter().any(|&x| x.abs() > 1));
    claim("all arrows stride > 1 somewhere", "yes", strided, strided);

    // ---------------- FIG5 ----------------
    println!("\n[FIG5] Section 4.2 partitioned");
    let plan42 = pdm_core::parallelize(&nest42).unwrap();
    claim(
        "det(H) = 4 partitions",
        4,
        plan42.partition_count(),
        plan42.partition_count() == 4,
    );
    let crossing = g42
        .edges()
        .iter()
        .filter(|e| plan42.group_of(&e.from).unwrap() != plan42.group_of(&e.to).unwrap())
        .count();
    claim("cross-partition dependences", 0, crossing, crossing == 0);
    let rep42 = pdm_runtime::equivalence::compare(&nest42, &plan42, 3).unwrap();
    claim("execution equivalent", "yes", rep42.equal, rep42.equal);

    // ---------------- TAB1 ----------------
    println!("\n[TAB1] method comparison (see `--bin table1` for the full matrix)");
    let ban = pdm_baselines::banerjee::Banerjee.analyze(&nest41).unwrap();
    claim(
        "Banerjee/D'Hollander inapplicable on variable distances",
        "yes",
        !ban.applicable,
        !ban.applicable,
    );
    let wl = pdm_baselines::wolf_lam::WolfLam.analyze(&nest41).unwrap();
    let pm = pdm_baselines::pdm_method::PdmMethod
        .analyze(&nest41)
        .unwrap();
    claim(
        "PDM strictly dominates direction vectors on §4.1",
        "doall 1 + 2 partitions vs none",
        format!(
            "pdm=({},{}) wolf-lam=({},{})",
            pm.outer_doall, pm.partitions, wl.outer_doall, wl.partitions
        ),
        pm.outer_doall > wl.outer_doall && pm.partitions > wl.partitions,
    );

    // ---------------- EXTRA-SPEEDUP ----------------
    println!("\n[EXTRA-SPEEDUP] rayon execution of the generated schedules");
    for (name, nest) in [("4.1", paper41(0, 299)), ("4.2", paper42(0, 299))] {
        let plan = pdm_core::parallelize(&nest).unwrap();
        let (s, p, sp) = measure_speedup(&nest, &plan, 3);
        claim(
            &format!("loop {name} (300x300) parallel speedup"),
            "> 1 on multicore",
            format!("seq {:.1} ms, par {:.1} ms, x{sp:.2}", s * 1e3, p * 1e3),
            sp > 1.0,
        );
        // What the row means on this host: warm calls on reused memory,
        // and the planned walk's own cost against the original order on
        // one thread. Reported, not judged.
        let (ws, wp, wp1) = measure_warm(&nest, &plan, 5);
        println!(
            "    loop {name} warm (best of 5, reused memory): seq {:.2} ms, par {:.2} ms, \
             x{:.2}; one thread: planned {:.2} ms = x{:.2} the original order",
            ws * 1e3,
            wp * 1e3,
            ws / wp,
            wp1 * 1e3,
            wp1 / ws
        );
    }

    // ---------------- EXTRA-PARTS ----------------
    println!("\n[EXTRA-PARTS] partition count equals det(H) (Theorem 2)");
    let mut all_ok = true;
    for (name, nest) in pdm_baselines::suite::all(12) {
        let plan = pdm_core::parallelize(&nest).unwrap();
        if let Some(p) = plan.partition() {
            let groups: std::collections::HashSet<_> = nest
                .iterations()
                .unwrap()
                .iter()
                .map(|i| plan.group_of(i).unwrap())
                .collect();
            let per_prefix = groups.len() as i64;
            // Partition offsets realized must divide evenly into groups.
            let ok = per_prefix % p.count() == 0;
            all_ok &= ok;
            println!("    {name}: det = {}, groups = {}", p.count(), groups.len());
        }
    }
    claim("group counts consistent with det(H)", "yes", all_ok, all_ok);

    println!("\ndone.");
}
