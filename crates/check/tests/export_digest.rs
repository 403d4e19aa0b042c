//! Golden digests of seeded metrics exports, pinned across commits.
//!
//! Replay tests elsewhere check determinism run to run; these constants
//! check it commit to commit. A refactor that rewires the world (actor
//! names, order, metric scopes) or perturbs any protocol step moves a
//! digest here even when every oracle still passes. Covered: two
//! explorer seeds × both tie-breaks × {one group of 5, two groups of 3}.
//!
//! A deliberate behaviour change updates the constants; the commit that
//! does so must say why.

use todr_check::{generate_schedule_with, run_case, CaseSpec, RunOptions};
use todr_sim::{checksum64, SimRng};

/// `(explorer seed, perturbation, shards, checksum64 of metrics_json)`.
const GOLDEN: [(u64, u64, u32, u64); 8] = [
    (0, 0, 1, 0x5501_3122_11dc_a004),
    (0, 1, 1, 0xdb96_44f1_8170_7c92),
    (1, 0, 1, 0x6872_cc04_30b5_930b),
    (1, 1, 1, 0xb04d_dfc0_4f0d_755a),
    (0, 0, 2, 0xd1ee_af1d_096b_be69),
    (0, 1, 2, 0xfd38_2928_7c30_aa80),
    (1, 0, 2, 0xfdac_93b2_5472_6753),
    (1, 1, 2, 0x8965_b21d_ca8d_9ff0),
];

/// The metrics-export digest of one explorer-drawn case: world seed and
/// schedule drawn exactly as the explorer draws them.
fn digest(explorer_seed: u64, perturbation: u64, shards: u32) -> u64 {
    let mut rng = SimRng::new(explorer_seed);
    let seed = rng.gen_range(1_000_000);
    let options = RunOptions {
        n_servers: if shards == 1 { 5 } else { 6 },
        shards,
        ..RunOptions::default()
    };
    let schedule = generate_schedule_with(&mut rng, options.n_servers, false);
    let spec = CaseSpec {
        seed,
        perturbation,
        schedule,
    };
    let pass = run_case(&spec, &options).unwrap_or_else(|f| {
        panic!("seed {explorer_seed} pert {perturbation} shards {shards}: {f}")
    });
    checksum64(pass.metrics_json.as_bytes())
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn seeded_export_digests_match_the_golden_constants() {
    let mut mismatches = Vec::new();
    for (explorer_seed, perturbation, shards, want) in GOLDEN {
        let got = digest(explorer_seed, perturbation, shards);
        eprintln!("({explorer_seed}, {perturbation}, {shards}, {got:#018x}),");
        if got != want {
            mismatches.push(format!(
                "seed {explorer_seed} pert {perturbation} shards {shards}: \
                 {got:#018x} != golden {want:#018x}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
