//! Domain scenario 4: hardware co-design advisory (§7.2) — a thin
//! wrapper over a `raptor-lab` enumerative campaign: sweep the default
//! format × cutoff lattice, gate on fidelity, rank the survivors by the
//! roofline-resolved predicted speedup. The sweep shards across ranks
//! of the task pool (`--ranks N`), restarts warm from an outcome cache
//! (`--resume <dir>` — a sharded cache directory that any number of
//! concurrent processes append to), and can restrict itself to the
//! GPU-native fp32/fp64 lattice (`--native`). `--study`
//! runs the paper's headline artifact instead: every registry scenario
//! (or a `--scenarios a,b,c` subset) swept over the same lattice, the
//! `(scenario, candidate)` pairs distributed with the work-stealing
//! scheduler, and the results merged into one Table-1-style markdown
//! ranking.
//!
//! ```sh
//! cargo run --release -p raptor-examples --bin codesign_advisor
//! cargo run --release -p raptor-examples --bin codesign_advisor -- --tiny
//! cargo run --release -p raptor-examples --bin codesign_advisor -- eos/cellular
//! cargo run --release -p raptor-examples --bin codesign_advisor -- --tiny --ranks 4 --resume sweep-cache
//! cargo run --release -p raptor-examples --bin codesign_advisor -- --tiny --native
//! # the full-registry study, work-stolen across 4 ranks, resumable
//! cargo run --release -p raptor-examples --bin codesign_advisor -- --study --ranks 4 --resume study-cache
//! cargo run --release -p raptor-examples --bin codesign_advisor -- --tiny --study --scenarios ir/horner,eos/cellular
//! # resume-drill maintenance: drop every other cached row
//! cargo run --release -p raptor-examples --bin codesign_advisor -- --cache-evict-half sweep-cache
//! # render the scheduler-stats trend recorded inside a cache dir
//! cargo run --release -p raptor-examples --bin codesign_advisor -- --stats-history sweep-cache/stats_history.jsonl
//! ```

use raptor_examples::{campaign, parse_lab_args};
use raptor_lab::{
    load_stats_history, native_candidates, render_stats_history, run_study_distributed_resumable,
    run_study_resumed, study_scenarios, CampaignSpec, OutcomeCache,
};

fn main() {
    // Maintenance mode for the CI resume drill: evict half the cache and
    // exit, so a re-run demonstrably recomputes only the evicted half.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = raw.iter().position(|a| a == "--cache-evict-half") {
        let path = raw.get(i + 1).unwrap_or_else(|| {
            eprintln!("--cache-evict-half wants a cache path");
            std::process::exit(2);
        });
        let mut cache = OutcomeCache::load(path).expect("load cache");
        let before = cache.len();
        cache.evict_half();
        cache.save().expect("save cache");
        println!("cache-evict: {before} -> {} entries", cache.len());
        return;
    }
    // Reporting mode: render the scheduler-stats trend that resumed runs
    // append next to their cache, so scheduler changes stay measurable
    // against the recorded baseline.
    if let Some(i) = raw.iter().position(|a| a == "--stats-history") {
        let path = raw.get(i + 1).unwrap_or_else(|| {
            eprintln!("--stats-history wants a stats_history.jsonl path");
            std::process::exit(2);
        });
        let records = load_stats_history(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        print!("{}", render_stats_history(&records));
        return;
    }

    let args = parse_lab_args("hydro/sod");
    let mut spec = CampaignSpec::sweep(args.params);
    if args.native {
        spec.candidates = native_candidates();
    }

    if args.study {
        // The full-registry study: every scenario (or the --scenarios
        // subset) over one lattice, pairs work-stolen across ranks,
        // merged into the cross-scenario codesign ranking. A positional
        // scenario name is honored as a one-scenario subset rather than
        // silently ignored; combining it with --scenarios is ambiguous.
        let subset = match (args.named, args.scenarios.as_deref()) {
            (true, Some(_)) => {
                eprintln!(
                    "give either a scenario name or --scenarios a,b,c with --study, not both"
                );
                std::process::exit(2);
            }
            (true, None) => Some(args.scenario.name().to_string()),
            (false, subset) => subset.map(str::to_string),
        };
        let scenarios = study_scenarios(subset.as_deref()).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        println!(
            "codesign study: {} scenario(s) x {} candidates across {} rank(s), fidelity floor {}",
            scenarios.len(),
            spec.candidates.len(),
            args.ranks,
            spec.fidelity_floor
        );
        let (study, stats) = match &args.resume {
            Some(path) => run_study_resumed(&scenarios, &spec, args.ranks, path)
                .expect("resume cache"),
            None => run_study_distributed_resumable(&scenarios, &spec, args.ranks, None),
        };
        println!(
            "resume: cached={} computed={} pairs_by_rank={:?} stealers={} queue_wait={:.3}s wall={:.3}s",
            stats.cached,
            stats.computed,
            stats.pairs_by_rank,
            stats.stealers,
            stats.queue_wait_s,
            stats.wall_s
        );
        if let Some(path) = &args.resume {
            // The append itself is best-effort (a failure is warned on
            // stderr by the library); this line is a pointer, not a
            // receipt.
            println!(
                "stats history: {}",
                raptor_lab::stats_history_path(path).display()
            );
        }
        println!();
        print!("{}", study.render_markdown());
        println!();
        println!("{}", study.to_json().render());
        return;
    }
    // A scenario subset only means something for a study; dropping it
    // silently would sweep the wrong workload.
    if args.scenarios.is_some() {
        eprintln!("--scenarios requires --study (single-scenario sweeps take a positional name)");
        std::process::exit(2);
    }
    println!(
        "co-design advisor: {} — sweeping {} candidates across {} rank(s), fidelity floor {}{}",
        args.scenario.name(),
        spec.candidates.len(),
        args.ranks,
        spec.fidelity_floor,
        if args.native { " (GPU-native lattice)" } else { "" }
    );

    let (report, stats) =
        campaign(args.scenario.as_ref(), &spec, args.ranks, args.resume.as_deref())
            .expect("resume cache");
    println!("resume: cached={} computed={}", stats.cached, stats.computed);
    if let Some(path) = &args.resume {
        // Best-effort append (failures are warned on stderr); this line
        // is a pointer, not a receipt.
        println!(
            "stats history: {}",
            raptor_lab::stats_history_path(path).display()
        );
    }
    if report.outcomes.len() < spec.candidates.len() {
        println!(
            "({} cutoff duplicates dropped: scenario has no refinement hierarchy)",
            spec.candidates.len() - report.outcomes.len()
        );
    }
    println!();
    print!("{}", report.render_table());
    println!();
    match report.best() {
        Some(best) => println!(
            "advice: {} — predicted {:.2}x at fidelity {:.6}",
            best.spec.label(),
            best.predicted_speedup,
            best.fidelity
        ),
        None => println!("advice: no candidate cleared the fidelity floor; stay at FP64"),
    }
    if args.native {
        match report.best() {
            Some(best) if best.spec.format != bigfloat::Format::FP64 => println!(
                "GPU verdict: a native port tolerates {} on this workload",
                best.spec.label()
            ),
            _ => println!("GPU verdict: only fp64 survives — port at full precision"),
        }
    }
    println!();
    println!("'Collaborating with scientists for gathering data on the numerical");
    println!("behavior of software can become a powerful way to enable supercomputing");
    println!("centers to make informed decisions about future procurements.' (§7.2)");
    println!();
    println!("{}", report.to_json().render());
}
