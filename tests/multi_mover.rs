//! Umbrella suite for the multi-mover scheduling ablation (ROADMAP
//! item 3): the default path is pinned byte-for-byte against pre-ablation
//! golden digests, and every multi-mover schedule is proven safe three
//! independent ways — replayed through the hardware constraint checker,
//! checked pairwise against the all-pairs corridor oracle, and
//! statevector-diffed against the single-mover compile of the same
//! circuit.
//!
//! The oracle-backed replays live in a `#[cfg(debug_assertions)]` module
//! because `moves_conflict_naive` is only compiled into debug builds of
//! `parallax-core` (the `docs/DATA_LAYOUT.md` oracle convention);
//! digests, hardware-checker replays, and simulator equivalence run in
//! every profile.

use parallax_circuit::{Circuit, DependencyDag, SlackTable};
use parallax_core::scheduler::Schedule;
use parallax_core::{
    discretize, schedule_gates, select_aod_qubits, CompilerConfig, ParallaxCompiler,
};
use parallax_graphine::GraphineLayout;
use parallax_hardware::{AodMove, MachineSpec, Point};
use parallax_service::schedule_digest;
use parallax_sim::parallax_schedule_fidelity;
use parallax_testkit::{arb_hcz_circuit, large_machine, lcg_circuit};
use proptest::prelude::*;

/// Pre-PR golden digests of default-mode compiles: (bench, machine,
/// config seed) -> `schedule_digest`. Captured at commit `ab79a41`, the
/// commit *before* the multi-mover ablation landed; the default path
/// must keep reproducing them byte-for-byte (the digest covers home
/// positions, AOD selection, and every layer's gates and moves).
const GOLDEN: &[(&str, &str, u64, u64)] = &[
    ("GCM", "quera-256", 0, 0x24732dab815cee19),
    ("GCM", "quera-256", 1, 0x17c104ee1374b4bc),
    ("GCM", "quera-256", 2, 0x470e823253f01f93),
    ("QAOA", "quera-256", 0, 0x999e477f05dbcde9),
    ("QAOA", "quera-256", 1, 0x735c0bcd9c8024f6),
    ("QAOA", "quera-256", 2, 0x9d2533dadf19bcc5),
    ("SECA", "quera-256", 0, 0xa41d050d53e794ab),
    ("SECA", "quera-256", 1, 0x458fb2f1a4275316),
    ("SECA", "quera-256", 2, 0xde5cd8c4f09f867a),
    ("GCM", "atom-1225", 0, 0x5e80af6ddc1a4a30),
    ("GCM", "atom-1225", 1, 0x8133ca6d7c6ee6d1),
    ("GCM", "atom-1225", 2, 0xaff13c970a7344e6),
    ("QAOA", "atom-1225", 0, 0xa53eaa21ac224e78),
    ("QAOA", "atom-1225", 1, 0x95935f130af3a68f),
    ("QAOA", "atom-1225", 2, 0x947b8bca0abd0944),
    ("SECA", "atom-1225", 0, 0xd99b4012425ad6ea),
    ("SECA", "atom-1225", 1, 0x167d81f093d3442b),
    ("SECA", "atom-1225", 2, 0x4c2b438d1b37c84f),
];

fn machine(label: &str) -> MachineSpec {
    match label {
        "quera-256" => MachineSpec::quera_aquila_256(),
        "atom-1225" => MachineSpec::atom_1225(),
        other => panic!("unknown machine label {other}"),
    }
}

fn bench_circuit(name: &str, seed: u64) -> Circuit {
    parallax_workloads::benchmark(name).expect("Table III benchmark").circuit(seed)
}

/// The tentpole's "off by default" contract: with the ablation flag off,
/// the compiler reproduces the pre-PR schedules bit for bit, on both
/// Table II machines, across seeds.
#[test]
fn default_mode_matches_pre_pr_golden_digests() {
    for &(bench, label, seed, want) in GOLDEN {
        let c = bench_circuit(bench, seed);
        let r = ParallaxCompiler::new(machine(label), CompilerConfig::quick(seed)).compile(&c);
        assert_eq!(
            schedule_digest(&r),
            want,
            "{bench} on {label} at seed {seed} no longer matches the pre-PR schedule"
        );
        assert!(!r.schedule.stats.multi_mover.enabled, "default compile ran the ablation path");
    }
}

/// Golden multi-mover compiles: (bench, machine, config seed) ->
/// (`schedule_digest`, [`mover_plans_hash`], movers-per-layer histogram,
/// layers saved, conflict rejections). Captured at commit `816da65`, the
/// last commit with separate single-mover and multi-mover scheduler
/// loops; the merged loop must reproduce every row byte-for-byte.
type MultiGolden = (&'static str, &'static str, u64, u64, u64, [usize; 8], usize, usize);
#[rustfmt::skip]
const MULTI_GOLDEN: &[MultiGolden] = &[
    ("GCM", "quera-256", 0, 0x1e0a6982373cc9e4, 0x313a0ded40710081, [483, 1, 0, 0, 0, 0, 0, 0], 1, 776),
    ("GCM", "quera-256", 1, 0xb646994fd3009e91, 0x4ae49bf97d4eaa46, [404, 80, 0, 0, 0, 0, 0, 0], 80, 855),
    ("GCM", "quera-256", 2, 0x0ed1aa0d49aa6642, 0x99b0e7371b86a6a2, [434, 0, 0, 0, 0, 0, 0, 0], 0, 452),
    ("GCM", "atom-1225", 0, 0x56f16947395bc4dd, 0x313a0ded40710081, [483, 1, 0, 0, 0, 0, 0, 0], 1, 776),
    ("GCM", "atom-1225", 1, 0x4f2fa43cd4714620, 0x4ae49bf97d4eaa46, [404, 80, 0, 0, 0, 0, 0, 0], 80, 855),
    ("GCM", "atom-1225", 2, 0xb9b71040c09a3f4b, 0x99b0e7371b86a6a2, [434, 0, 0, 0, 0, 0, 0, 0], 0, 452),
    ("QAOA", "quera-256", 0, 0x1660c2c08291f51b, 0xb2b9b6de87eced07, [46, 0, 0, 0, 0, 0, 0, 0], 0, 3),
    ("QAOA", "quera-256", 1, 0x2cbcca0207a34da7, 0x680690c6cba574a5, [39, 0, 0, 0, 0, 0, 0, 0], 0, 0),
    ("QAOA", "quera-256", 2, 0x55b8aa8817410fb3, 0x89f6800f9a314385, [42, 0, 0, 0, 0, 0, 0, 0], 0, 6),
    ("QAOA", "atom-1225", 0, 0xb72fb50f2dcd3a6a, 0xb2b9b6de87eced07, [46, 0, 0, 0, 0, 0, 0, 0], 0, 3),
    ("QAOA", "atom-1225", 1, 0x3654faef014bc7d6, 0x680690c6cba574a5, [39, 0, 0, 0, 0, 0, 0, 0], 0, 0),
    ("QAOA", "atom-1225", 2, 0x8cececf646f83512, 0x89f6800f9a314385, [42, 0, 0, 0, 0, 0, 0, 0], 0, 6),
    ("SECA", "quera-256", 0, 0xa949efbdf0b45195, 0xa3d015f6f22b4587, [19, 0, 0, 0, 0, 0, 0, 0], 0, 3),
    ("SECA", "quera-256", 1, 0x6fa8ea9a6dd41992, 0xf2f2c99eb060e443, [36, 0, 0, 0, 0, 0, 0, 0], 0, 18),
    ("SECA", "quera-256", 2, 0x8483e50070711634, 0x1111ce8d93180825, [41, 0, 0, 0, 0, 0, 0, 0], 0, 42),
    ("SECA", "atom-1225", 0, 0xa0241a00a8cfa8f4, 0xa3d015f6f22b4587, [19, 0, 0, 0, 0, 0, 0, 0], 0, 3),
    ("SECA", "atom-1225", 1, 0xaf8783350497d4b3, 0xf2f2c99eb060e443, [36, 0, 0, 0, 0, 0, 0, 0], 0, 18),
    ("SECA", "atom-1225", 2, 0xcf1f6e421fa448a5, 0x1111ce8d93180825, [41, 0, 0, 0, 0, 0, 0, 0], 0, 42),
    ("QV", "quera-256", 0, 0xfafde54db9fcfae9, 0x7a10ca6a16c8f261, [810, 28, 0, 0, 0, 0, 0, 0], 28, 796),
    ("QV", "quera-256", 1, 0xd0ae12807a533cf6, 0x6f0de5663586da21, [812, 47, 0, 0, 0, 0, 0, 0], 47, 944),
    ("QV", "quera-256", 2, 0x7e5705d2b247ea19, 0xcbafbae7947b924a, [416, 13, 0, 0, 0, 0, 0, 0], 13, 249),
    ("QV", "atom-1225", 0, 0xc23260b8c627cee0, 0x7a10ca6a16c8f261, [810, 28, 0, 0, 0, 0, 0, 0], 28, 796),
    ("QV", "atom-1225", 1, 0x65a4647caefbb8a3, 0x6f0de5663586da21, [812, 47, 0, 0, 0, 0, 0, 0], 47, 944),
    ("QV", "atom-1225", 2, 0xf03aaa24c265935c, 0xcbafbae7947b924a, [416, 13, 0, 0, 0, 0, 0, 0], 13, 249),
];

/// FNV-1a over every layer's `mover_plans` (length-prefixed per layer),
/// so a plan boundary moving between layers or within one changes it.
fn mover_plans_hash(s: &Schedule) -> u64 {
    let mut h = parallax_hardware::StableHasher::new();
    for layer in &s.layers {
        h.write_usize(layer.mover_plans.len());
        for &k in &layer.mover_plans {
            h.write_u64(u64::from(k));
        }
    }
    h.finish()
}

/// The multi-mover arm pinned the same way as the default one: digest,
/// per-layer plan boundaries and the ablation counters on both Table II
/// machines, across seeds.
#[test]
fn multi_mover_mode_matches_golden_digests() {
    let mut got = Vec::new();
    for bench in ["GCM", "QAOA", "SECA", "QV"] {
        for label in ["quera-256", "atom-1225"] {
            for seed in 0..3u64 {
                let c = bench_circuit(bench, seed);
                let cfg = CompilerConfig::quick(seed).with_multi_mover();
                let r = ParallaxCompiler::new(machine(label), cfg).compile(&c);
                let mm = &r.schedule.stats.multi_mover;
                assert!(mm.enabled, "multi-mover compile ran the default path");
                got.push((
                    bench,
                    label,
                    seed,
                    schedule_digest(&r),
                    mover_plans_hash(&r.schedule),
                    mm.movers_per_layer,
                    mm.layers_saved,
                    mm.conflict_rejections,
                ));
            }
        }
    }
    assert_eq!(got.len(), MULTI_GOLDEN.len());
    for (row, want) in got.iter().zip(MULTI_GOLDEN) {
        assert_eq!(row, want, "multi-mover compile no longer matches the golden row");
    }
}

/// Compile `c` both ways through the public pipeline (shared placement
/// and discretization, so the modes differ only in the scheduler),
/// returning the schedules plus a copy of the layer-start array state
/// for replay.
fn compile_both(
    c: &Circuit,
    spec: MachineSpec,
    single_cfg: CompilerConfig,
) -> (Schedule, Schedule, parallax_core::DiscretizedLayout) {
    let multi_cfg = single_cfg.clone().with_multi_mover();
    let layout = GraphineLayout::generate(c, &single_cfg.placement);
    let mut d_single = discretize(c, &layout, spec);
    let mut d_multi = d_single.clone();
    let sel_single = select_aod_qubits(c, &mut d_single, &single_cfg);
    let sel_multi = select_aod_qubits(c, &mut d_multi, &multi_cfg);
    let replay = d_multi.clone();
    let s_single = schedule_gates(c, &mut d_single, &sel_single, &single_cfg);
    let s_multi = schedule_gates(c, &mut d_multi, &sel_multi, &multi_cfg);
    (s_single, s_multi, replay)
}

/// Replay a multi-mover schedule layer by layer against the hardware
/// constraint checker: every layer's concatenated move batch must pass
/// `check_aod_moves` from the layer-start configuration (committed plans
/// touch disjoint qubits, so the batch is exactly what the hardware
/// executes), and the home-return batch must replay cleanly too.
fn replay_through_hardware_checks(s: &Schedule, replay: &mut parallax_core::DiscretizedLayout) {
    let n = replay.array.spec().num_sites();
    let mut homes: Vec<Option<Point>> = vec![None; n];
    for (i, layer) in s.layers.iter().enumerate() {
        assert_eq!(
            layer.mover_plans.iter().map(|&k| k as usize).sum::<usize>(),
            layer.moves.len(),
            "layer {i}: mover_plans boundaries must partition the move list"
        );
        assert!(
            replay.array.check_aod_moves(&layer.moves).is_empty(),
            "layer {i}: committed move batch violates hardware constraints on replay"
        );
        for m in &layer.moves {
            if homes[m.q as usize].is_none() {
                homes[m.q as usize] = Some(replay.array.position(m.q));
            }
        }
        replay.array.apply_aod_moves(&layer.moves).unwrap();
        let returns: Vec<AodMove> = layer
            .moves
            .iter()
            .filter_map(|m| {
                let home = homes[m.q as usize].unwrap();
                (replay.array.position(m.q).distance(&home) > 1e-9).then_some(AodMove {
                    q: m.q,
                    x: home.x,
                    y: home.y,
                })
            })
            .collect();
        assert!(replay.array.check_aod_moves(&returns).is_empty(), "layer {i}: home return");
        replay.array.apply_aod_moves(&returns).unwrap();
    }
}

/// The benchmark-harness config for `bench` at `seed` — the exact arm
/// the `experiments multi-mover` table compiles, so the layer-count
/// comparison below pins the table's improvements, not a different
/// placement's.
fn experiments_config(bench: &str, seed: u64) -> CompilerConfig {
    let qubits = parallax_workloads::benchmark(bench).unwrap().qubits;
    CompilerConfig {
        seed,
        placement: parallax_bench::placement_for(qubits, seed),
        ..Default::default()
    }
}

/// Simulable Table III workloads (≤ 24 qubits, within the statevector
/// cap) through the full safety battery: the multi-mover schedule
/// executes every gate once, replays through the hardware checker, takes
/// no more layers than the default under the benchmark-harness config
/// (these workloads are the `experiments multi-mover` improvements:
/// GCM −14.3%, SECA −12.5% at seed 0), and is statevector-equivalent to
/// the single-mover compile of the same circuit.
#[test]
fn multi_mover_schedules_are_statevector_equivalent_to_default() {
    for bench in ["ADV", "SECA", "GCM"] {
        for seed in 0u64..3 {
            let c = bench_circuit(bench, seed);
            let cfg = experiments_config(bench, seed);
            let (s_single, s_multi, mut replay) =
                compile_both(&c, MachineSpec::quera_aquila_256(), cfg.clone());
            assert!(s_multi.stats.multi_mover.enabled);
            let mut order = s_multi.gate_order();
            order.sort_unstable();
            assert_eq!(order, (0..c.len()).collect::<Vec<_>>(), "{bench}/{seed}: gate coverage");
            assert!(
                s_multi.stats.layer_count <= s_single.stats.layer_count,
                "{bench}/{seed}: multi {} > single {}",
                s_multi.stats.layer_count,
                s_single.stats.layer_count
            );
            replay_through_hardware_checks(&s_multi, &mut replay);
            // Equivalence through the simulator: both orders implement the
            // circuit exactly (the compiler preserves unitaries, so the
            // fidelity tolerance is numerical-roundoff-only).
            let spec = MachineSpec::quera_aquila_256();
            let compile = |cfg: CompilerConfig| ParallaxCompiler::new(spec, cfg).compile(&c);
            let single = compile(cfg.clone());
            let multi = compile(cfg.with_multi_mover());
            for (what, r) in [("single", &single), ("multi", &multi)] {
                let f = parallax_schedule_fidelity(&c, r, seed ^ 0x5eed);
                assert!((f - 1.0).abs() < 1e-7, "{bench}/{seed} {what}: fidelity {f}");
            }
        }
    }
}

/// The home-return epoch-skip fix, pinned: on the fully CZ-serialized
/// TFIM-128 compile (5121 layers), the batched return pass drops 94,532
/// already-home entries via the position-epoch check. The count is
/// deterministic (seeded placement, seeded schedule); a change means the
/// skip condition — not just its bookkeeping — changed.
#[test]
fn home_return_epoch_skips_are_pinned_on_tfim_128() {
    let c = bench_circuit("TFIM", 0);
    let r = ParallaxCompiler::new(MachineSpec::quera_aquila_256(), CompilerConfig::quick(0))
        .compile(&c);
    assert_eq!(r.schedule.stats.layer_count, 5121);
    assert_eq!(r.schedule.stats.home_return_skips, 94_532);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Slack-table invariants on random dependency DAGs: ASAP never
    /// exceeds ALAP, slack is exactly their gap, criticality is exactly
    /// zero slack, and the zero-slack gates form a critical path — every
    /// ASAP level of the DAG contains at least one critical gate.
    #[test]
    fn slack_table_invariants(c in arb_hcz_circuit(8, 1, 60)) {
        let dag = DependencyDag::build(&c);
        let slack = SlackTable::compute(&dag);
        prop_assert_eq!(slack.len(), c.len());
        let depth = slack.depth();
        let mut level_has_critical = vec![false; depth as usize];
        for g in 0..c.len() {
            prop_assert!(slack.asap(g) <= slack.alap(g), "gate {}: asap > alap", g);
            prop_assert_eq!(slack.slack(g), slack.alap(g) - slack.asap(g));
            prop_assert_eq!(slack.is_critical(g), slack.slack(g) == 0);
            prop_assert!(slack.alap(g) < depth, "gate {}: alap beyond depth", g);
            if slack.is_critical(g) {
                level_has_critical[slack.asap(g) as usize] = true;
            }
        }
        prop_assert!(
            level_has_critical.iter().all(|&b| b),
            "some ASAP level has no zero-slack gate: no critical path through it"
        );
    }

    /// Random circuits over the large-machine strategies (synthetic grids
    /// up to 4096 sites and Atom-1225): the multi-mover schedule executes
    /// every gate exactly once, its committed batches replay through the
    /// hardware checker, and the layer count never *materially* exceeds
    /// the default's. Strict `multi <= single` is not a theorem — the two
    /// modes order blockade contention differently (ALAP deadlines vs
    /// shuffled ejection), and the `experiments multi-mover` table shows
    /// QEC drifting +2.6% at one seed — so the bound here is a gross-
    /// regression tripwire, not a monotonicity claim.
    #[test]
    fn multi_mover_layer_count_stays_near_single(
        (spec, qubits) in large_machine(),
        seed in 0u64..1 << 12,
    ) {
        let c = lcg_circuit(qubits as u32, 40, seed);
        let (s_single, s_multi, mut replay) =
            compile_both(&c, spec, CompilerConfig::quick(seed));
        let mut order = s_multi.gate_order();
        order.sort_unstable();
        prop_assert_eq!(order, (0..c.len()).collect::<Vec<_>>());
        let (single, multi) = (s_single.stats.layer_count, s_multi.stats.layer_count);
        prop_assert!(
            multi <= single + single / 10 + 2,
            "multi {} far exceeds single {}",
            multi,
            single
        );
        replay_through_hardware_checks(&s_multi, &mut replay);
    }
}

/// Oracle-backed replays: only debug builds of `parallax-core` compile
/// `moves_conflict_naive`, so these diffs are debug-only (like the
/// scheduler-oracle comparisons in `tests/differential.rs`).
#[cfg(debug_assertions)]
mod oracle {
    use super::*;
    use parallax_core::{moves_conflict_naive, Corridor};

    /// Reconstruct each layer's per-plan corridor sets from the
    /// layer-start configuration and assert pairwise disjointness with
    /// the all-pairs oracle at the machine's transit clearance.
    fn assert_plans_pairwise_disjoint(
        s: &Schedule,
        replay: &mut parallax_core::DiscretizedLayout,
    ) -> usize {
        let clearance = replay.array.spec().min_separation_um;
        let n = replay.array.spec().num_sites();
        let mut homes: Vec<Option<Point>> = vec![None; n];
        let mut batched = 0usize;
        for layer in &s.layers {
            let mut plans: Vec<Vec<Corridor>> = Vec::new();
            let mut offset = 0usize;
            for &k in &layer.mover_plans {
                plans.push(
                    layer.moves[offset..offset + k as usize]
                        .iter()
                        .map(|m| Corridor {
                            q: m.q,
                            from: replay.array.position(m.q),
                            to: Point::new(m.x, m.y),
                        })
                        .collect(),
                );
                offset += k as usize;
            }
            for i in 0..plans.len() {
                for j in i + 1..plans.len() {
                    assert!(
                        !moves_conflict_naive(&plans[i], &plans[j], clearance),
                        "plans {i} and {j} of a layer interfere per the all-pairs oracle"
                    );
                }
            }
            if plans.len() > 1 {
                batched += 1;
            }
            for m in &layer.moves {
                if homes[m.q as usize].is_none() {
                    homes[m.q as usize] = Some(replay.array.position(m.q));
                }
            }
            replay.array.apply_aod_moves(&layer.moves).unwrap();
            let returns: Vec<AodMove> = layer
                .moves
                .iter()
                .filter_map(|m| {
                    let home = homes[m.q as usize].unwrap();
                    (replay.array.position(m.q).distance(&home) > 1e-9).then_some(AodMove {
                        q: m.q,
                        x: home.x,
                        y: home.y,
                    })
                })
                .collect();
            replay.array.apply_aod_moves(&returns).unwrap();
        }
        batched
    }

    /// Table III workloads that batch at seed 0 (GCM posts −14.3% layers,
    /// QV −21.5%): every committed layer's plan set is pairwise
    /// non-conflicting per the naive oracle, and at least one layer
    /// actually batches, so the sweep proves more than vacuous truth.
    #[test]
    fn committed_plans_survive_the_all_pairs_oracle() {
        let mut batched = 0usize;
        for bench in ["GCM", "QV"] {
            let c = super::bench_circuit(bench, 0);
            let cfg = super::experiments_config(bench, 0);
            let (_, s_multi, mut replay) = compile_both(&c, MachineSpec::quera_aquila_256(), cfg);
            batched += assert_plans_pairwise_disjoint(&s_multi, &mut replay);
        }
        assert!(batched > 0, "no workload batched two plans in any layer");
    }
}
