//! Domain scenario 1: hunt for the minimum safe precision of the Sedov
//! blast's hydro solver using AMR-level-selective truncation — the §6.1
//! methodology, now a thin wrapper over the `raptor-lab` campaign
//! engine's greedy precision search. `--ranks N` steals the individual
//! bisection *probes* across the ranks of the shared work-stealing task
//! pool (per-cutoff chain state stays in the pool's task source, so rows
//! are identical at any rank count);
//! `--native` answers the §3.6 GPU question instead (a fp32/fp64-only
//! campaign — bisecting mantissa widths makes no sense when only
//! hardware formats are on the table); `--resume DIR` hunts against a
//! sharded probe cache, so interrupted hunts restart warm and a
//! completed hunt replays with zero scenario runs.
//!
//! ```sh
//! cargo run --release -p raptor-examples --bin sedov_precision_hunt
//! cargo run --release -p raptor-examples --bin sedov_precision_hunt -- --tiny
//! cargo run --release -p raptor-examples --bin sedov_precision_hunt -- hydro/sod --ranks 3
//! cargo run --release -p raptor-examples --bin sedov_precision_hunt -- --tiny --native
//! cargo run --release -p raptor-examples --bin sedov_precision_hunt -- --tiny --resume cache-dir
//! ```
//!
//! `--tiny` switches to the mini scale (coarse grid, few steps) for CI
//! smoke runs; an optional scenario name hunts any registry entry.

use raptor_examples::{campaign, parse_lab_args};
use raptor_lab::{
    native_candidates, precision_search, run_resumed, search_to_json, study_scenarios,
    CampaignSpec, Scenario, SearchSpec,
};

fn main() {
    let args = parse_lab_args("hydro/sedov");
    let floor = 0.999;

    if args.study {
        eprintln!("--study is a campaign sweep (use codesign_advisor --study)");
        std::process::exit(2);
    }
    // --scenarios a,b,c hunts a registry subset back to back; otherwise
    // hunt the single named (or default) scenario. Combining an explicit
    // positional name with --scenarios is ambiguous — refuse rather than
    // silently preferring one.
    if args.named && args.scenarios.is_some() {
        eprintln!("give either a scenario name or --scenarios a,b,c, not both");
        std::process::exit(2);
    }
    let scenarios: Vec<Box<dyn Scenario>> = match args.scenarios.as_deref() {
        Some(subset) => study_scenarios(Some(subset)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        }),
        None => vec![args.scenario],
    };

    if args.native {
        // The GPU-native hunt: no mantissa ladder to bisect — sweep the
        // fp32/fp64 hardware lattice and report the narrowest survivor.
        let mut spec = CampaignSpec::sweep(args.params);
        spec.candidates = native_candidates();
        spec.fidelity_floor = floor;
        for scenario in &scenarios {
            println!(
                "native precision hunt: {} (scale {}, fidelity floor {floor}, {} rank(s))",
                scenario.name(),
                args.params.scale,
                args.ranks
            );
            let (report, stats) =
                campaign(scenario.as_ref(), &spec, args.ranks, args.resume.as_deref())
                    .expect("resume cache");
            if args.resume.is_some() {
                println!("resume: cached={} computed={}", stats.cached, stats.computed);
            }
            println!();
            print!("{}", report.render_table());
            println!();
            match report.best() {
                Some(best) if best.spec.format != bigfloat::Format::FP64 => println!(
                    "a GPU port tolerates {} at fidelity {:.6}",
                    best.spec.label(),
                    best.fidelity
                ),
                _ => println!("only fp64 clears the floor — a GPU port must stay double"),
            }
            println!();
            println!("{}", report.to_json().render());
        }
        return;
    }

    let spec = SearchSpec::new(args.params, floor);
    for scenario in &scenarios {
        println!(
            "precision hunt: {} (scale {}, fidelity floor {floor}, cutoffs M-0..M-{}, {} rank(s))",
            scenario.name(),
            args.params.scale,
            spec.cutoffs.last().unwrap(),
            args.ranks
        );

        // `--resume DIR` hunts against the sharded probe cache: every
        // bisection probe is a deterministic (scenario, scale, cutoff, m)
        // point, so a warm re-hunt replays the chains with zero scenario
        // runs — and any number of concurrent hunts share the cache.
        let label = format!("hunt:{}", scenario.name());
        let (rows, stats) = run_resumed(args.resume.as_deref(), &label, args.ranks, |cache| {
            precision_search(scenario.as_ref(), &spec, args.ranks, cache)
        })
        .expect("resume cache");
        println!(
            "steal: probes cached={} computed={} probes_by_rank={:?} stealers={} queue_wait={:.3}s",
            stats.cached, stats.computed, stats.pairs_by_rank, stats.stealers, stats.queue_wait_s
        );

        println!();
        println!(
            "{:>8} {:>12} {:>12} {:>9} {:>8}",
            "cutoff", "minimal m", "fidelity", "trunc %", "probes"
        );
        for row in &rows {
            println!(
                "{:>8} {:>12} {:>12.6} {:>8.1}% {:>8}",
                format!("M-{}", row.cutoff),
                row.minimal_m.map_or("none".to_string(), |m| m.to_string()),
                row.fidelity,
                100.0 * row.truncated_fraction,
                row.probes.len()
            );
        }
        println!();
        println!("{}", search_to_json(scenario.name(), &rows).render());
        println!();
    }
    println!("Reading the rows like the paper reads Fig. 7a: sparing the finest AMR");
    println!("level (M-1) admits a narrower mantissa at a modest cost in truncated-");
    println!("operation share.");
}
