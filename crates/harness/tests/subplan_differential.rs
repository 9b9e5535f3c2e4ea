//! Differential tests for the amortized sub-plan pipeline.
//!
//! Two contracts, both bit-level:
//!
//! - `CardEst::estimate_batch` over a query's whole sub-plan set must be
//!   bit-identical to calling `estimate` per sub-plan, for every
//!   registered estimator kind — including under injected chaos value
//!   faults (NaN/±inf/negative/zero propagate unchanged through the
//!   batch path);
//! - the engine's one-pass true-cardinality enumerator
//!   ([`subplan_true_cards`]) must be bit-identical to per-mask
//!   [`exact_cardinality`] on real STATS-schema queries.

use std::hash::Hasher;
use std::sync::OnceLock;

use cardbench_engine::{exact_cardinality, subplan_true_cards, Database, TrueCardService};
use cardbench_estimators::chaos::{ChaosConfig, ChaosEst, FaultClass};
use cardbench_estimators::{CardEst, EstimatorKind};
use cardbench_harness::{build_estimator, Bench, BenchConfig};
use cardbench_query::{connected_subsets, JoinQuery, SubPlanQuery};
use cardbench_support::hash::FnvHasher;
use cardbench_support::proptest::prelude::*;
use cardbench_workload::{stats_ceb, WorkloadConfig};

/// One shared tier-1 benchmark for the whole test binary.
fn bench() -> &'static Bench {
    static B: OnceLock<Bench> = OnceLock::new();
    B.get_or_init(|| Bench::build(BenchConfig::fast(9)))
}

/// Every estimator kind, built once on the shared STATS database.
fn estimators() -> &'static Vec<(EstimatorKind, Box<dyn CardEst>)> {
    static E: OnceLock<Vec<(EstimatorKind, Box<dyn CardEst>)>> = OnceLock::new();
    E.get_or_init(|| {
        let b = bench();
        EstimatorKind::ALL
            .into_iter()
            .map(|kind| {
                let built = build_estimator(kind, &b.stats_db, &b.stats_train, &b.config.settings);
                (kind, built.est)
            })
            .collect()
    })
}

/// Random acyclic 2–5-table queries on the STATS schema, derived from a
/// proptest-chosen generator seed.
fn random_queries(seed: u64) -> Vec<JoinQuery> {
    let b = bench();
    let cfg = WorkloadConfig {
        seed,
        templates: 6,
        queries: 3,
        max_tables: 5,
        max_predicates: 4,
        retries: 10,
        max_subplan_card: 1e6,
    };
    stats_ceb(&b.stats_db, &cfg)
        .queries
        .into_iter()
        .map(|wq| wq.query)
        .collect()
}

/// Projects a query's full connected sub-plan space.
fn subplans(q: &JoinQuery) -> Vec<SubPlanQuery> {
    connected_subsets(q)
        .into_iter()
        .map(|m| SubPlanQuery::project(q, m))
        .collect()
}

/// Asserts `estimate_batch` == per-sub `estimate`, bit for bit (NaN
/// compares by bit pattern too).
fn assert_batch_matches(name: &str, est: &dyn CardEst, subs: &[SubPlanQuery]) {
    let db = &bench().stats_db;
    let batched = est.estimate_batch(db, subs);
    assert_eq!(batched.len(), subs.len(), "{name}: batch arity");
    for (sub, b) in subs.iter().zip(&batched) {
        let s = est.estimate(db, sub);
        assert_eq!(
            s.to_bits(),
            b.to_bits(),
            "{name} mask {:?}: sequential {s} vs batched {b}",
            sub.mask
        );
    }
}

/// A built estimator lent to a wrapper that takes ownership.
struct Borrowed(&'static dyn CardEst);

impl CardEst for Borrowed {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64 {
        self.0.estimate(db, sub)
    }
    fn estimate_batch(&self, db: &Database, subs: &[SubPlanQuery]) -> Vec<f64> {
        self.0.estimate_batch(db, subs)
    }
    fn batch_leverage(&self) -> bool {
        self.0.batch_leverage()
    }
}

/// Every sub-plan set of the STATS-CEB analog of [`bench`].
fn ceb_subplan_sets() -> Vec<Vec<SubPlanQuery>> {
    bench()
        .stats_wl
        .queries
        .iter()
        .map(|wq| subplans(&wq.query))
        .collect()
}

/// `estimate_batch` bits over every sub-plan of the workload, in order.
fn ceb_estimate_bits(est: &dyn CardEst) -> Vec<u64> {
    let db = &bench().stats_db;
    ceb_subplan_sets()
        .iter()
        .flat_map(|subs| est.estimate_batch(db, subs))
        .map(f64::to_bits)
        .collect()
}

/// FNV-1a over the words.
fn digest(bits: &[u64]) -> u64 {
    let mut h = FnvHasher::default();
    bits.iter().for_each(|&b| h.write_u64(b));
    h.finish()
}

/// The six families whose inference path ISSUE 18 rewrote, with what the
/// commit before that rewrite (6a14478) answered at `BenchConfig::fast(9)`:
/// the FNV digest of its `estimate_batch` bits over all 308 sub-plans of
/// the workload, and its `model_size_bytes`. The kernels may be laid out
/// and ordered any way that keeps every operand order — these numbers
/// say they did. FLAT's digest is its own: the old joint tables summed
/// in `HashMap` iteration order, which differed from run to run in the
/// last place (see [`FLAT_PARENT_BITS`]); since the tables are sorted
/// it is one number.
const GOLDEN: [(EstimatorKind, u64, usize); 6] = [
    (EstimatorKind::Mscn, 0xef97b522c36d595f, 36484),
    (EstimatorKind::LwNn, 0xd2c3e2edd902b914, 23300),
    (EstimatorKind::LwXgb, 0xea736ccdf39a10d2, 8776),
    (EstimatorKind::BayesCard, 0x3f9cdc573751bd54, 48736),
    (EstimatorKind::DeepDb, 0x69740f2c8f69be43, 27192),
    (EstimatorKind::Flat, FLAT_DIGEST, 24632),
];

/// The four batched kinds whose hand-written per-item `estimate` ISSUE 20
/// replaced by the one-row batch, with what the commit before (3afc8f6)
/// answered at `BenchConfig::fast(9)`: the FNV digest of its per-item
/// `estimate` bits over the same 308 sub-plans (its `estimate_batch`
/// digest was the same number), and its `model_size_bytes`.
const ONE_ROW_GOLDEN: [(EstimatorKind, u64, usize); 4] = [
    (EstimatorKind::UaeQ, 0x05a7e306cf9783e3, 79364),
    (EstimatorKind::Uae, UAE_DIGEST, 91524),
    (EstimatorKind::NeuroCardE, 0xa50be62bd0c52106, 542036),
    (EstimatorKind::Sketch, 0x4ea19c27e648a7f8, 35200),
];

/// UAE's digest. Until `label_to_card` called `exp2` itself (ISSUE 21)
/// it was `2f64.powf(x)`, which LLVM rewrites to `exp2(x)` only when
/// optimizing, and a debug build rounded one of the 308 labels
/// differently (0xa60d6d2ff7034e26); this is the release number, now
/// the only one.
const UAE_DIGEST: u64 = 0xb22e1fe76ac7ba11;

/// FLAT's digest with sorted joint tables.
const FLAT_DIGEST: u64 = 0x46ecc7eba60328f7;

/// One run of FLAT at the parent commit, sub-plan by sub-plan (bits of
/// the `f64`s). The sorted tables may differ from it by summation order
/// only: 1e-12 relative.
#[rustfmt::skip]
const FLAT_PARENT_BITS: [u64; 308] = [
    0x4052bfffffffffff, 0x402a6f4de9bd37a8, 0x4020979038d61551, 0x4054400000000000,
    0x40248aede572a82a, 0x40687b81f8ea9920, 0x4023175fdef9dc47, 0x40106a1fc1b12998,
    0x400e82783e46822d, 0x4050adb6db6db6db, 0x402aa989a515273e, 0x4084800000000000,
    0x4042b93f0bfa8c36, 0x4027c3d63db720a8, 0x406c200be896c05c, 0x4005b477c8df0862,
    0x405ff68fe281c594, 0x400358abd8b0aa32, 0x403a052e650c3664, 0x4046886bca1af286,
    0x4064000000000000, 0x4084800000000000, 0x4043c00000000000, 0x4067000000000000,
    0x405850f79d2aa297, 0x4062265dfec056cd, 0x4080b9d863c2624b, 0x4043c00000000000,
    0x4090585bcdc8f755, 0x407455ed53e5a6d2, 0x4080b9d863c2624b, 0x40ab56bd9cd4ce3c,
    0x407455ed53e5a6d2, 0x40ab56bd9cd4ce3c, 0x4054400000000000, 0x4067000000000000,
    0x4075d00000000000, 0x4036000000000000, 0x4020000000000000, 0x4064000000000000,
    0x40655fffffffffff, 0x4075d00000000000, 0x4036000000000000, 0x4010000000000000,
    0x40b2790000000001, 0x4074457a6f4de9bd, 0x4034721642c8590a, 0x4067f61abb1dd0b4,
    0x400dbd37a6f4de9a, 0x4041eb2e43dafcea, 0x4005555555555555, 0x40b2790000000001,
    0x406644b7737624bd, 0x4040a7162073dd21, 0x4003d37a6f4de9bc, 0x403f1c71c71c71c6,
    0x40b12ae2c8590b22, 0x40a44adfe61384f8, 0x407e599e976c9690, 0x403ce9bd37a6f4dc,
    0x40a2dbd86d7918ca, 0x407c34add24a7b39, 0x407a58f5cfe9d4ce, 0x40787c6a029d7c07,
    0x402f4dc5ea417da9, 0x40405a1a5fefb927, 0x4064000000000000, 0x405ab263028ae4a1,
    0x4067000000000000, 0x4072700000000000, 0x4020000000000000, 0x400680555d056297,
    0x402dbdb207b37f7d, 0x40204c2eaa3c3a19, 0x405ab263028ae4a1, 0x4072700000000000,
    0x4010000000000000, 0x4024e56668998b43, 0x40166866d181d76e, 0x403d06053638ed8d,
    0x40204c2eaa3c3a19, 0x406566a7058435e2, 0x4002925b2328f817, 0x4041653b411f4509,
    0x4046aa82df43eff9, 0x40166866d181d76e, 0x403d06053638ed8d, 0x402a2118baabb0a0,
    0x3fc6acc67d8b7239, 0x403431017bf069ce, 0x4046aa82df43eff9, 0x4021f67960fda66f,
    0x4047442165349779, 0x3fbf2d149dec4d1e, 0x3fe430b5b66a6278, 0x3ff8a70983c2cf83,
    0x40522b78372675ef, 0x3fef890f205e8587, 0x3ff0f292f78806c5, 0x4015f37f52abf088,
    0x4021249305d17c7b, 0x4036800000000001, 0x4064000000000000, 0x40730e0d341489e9,
    0x3fa37343adeb4a8c, 0x40525d2edac2f7b2, 0x4064000000000000, 0x3f93a6c37fb5cf29,
    0x408f1ab683381339, 0x3fd0a479184e0176, 0x4054400000000000, 0x40393e72600d226f,
    0x407d063d024b7c56, 0x4036000000000000, 0x403775dc619ce6f4, 0x40650f7412d5fe1e,
    0x3fef8bd62384f094, 0x4066ad01fe7f83c6, 0x3fed5142d5e11ccb, 0x401c564387e0a6de,
    0x4054400000000000, 0x4067000000000000, 0x405c122615b50010, 0x4020000000000000,
    0x4064000000000000, 0x40655fffffffffff, 0x405c122615b50010, 0x4010000000000000,
    0x4097c5d5868e2555, 0x405a166e8642a5a0, 0x400dbd37a6f4de9a, 0x40270f5307d1a900,
    0x4097c5d5868e2555, 0x40256e3ddc22d8e2, 0x409617db4f22b62c, 0x4063876e3f9b819b,
    0x40622635c37615a9, 0x4054400000000000, 0x3f8ad4836b4f1116, 0x4064000000000000,
    0x4074c00000000000, 0x4036000000000000, 0x4075d00000000000, 0x3f88ef3ceaaf0bb3,
    0x4064000000000000, 0x405e1ce0c7ce0c7c, 0x3f40246e0951e08e, 0x40b2790000000000,
    0x3fb61b00a35a2d39, 0x3fb13addc82af688, 0x408a2324d12869f7, 0x3f3e00edea5dbffc,
    0x40b2790000000000, 0x3fe420cde749b51d, 0x3f6a99758da73bbc, 0x3f64bb94bed36a8f,
    0x40046ad723ad70ab, 0x40d82428f495c712, 0x3f98385a4264576e, 0x4032974c94466dbb,
    0x3fb89170a0491cb9, 0x3fe65ed95dd260f3, 0x4054400000000000, 0x4067000000000000,
    0x4064000000000000, 0x4075d00000000000, 0x4082f00000000000, 0x4036000000000000,
    0x4020000000000000, 0x40655fffffffffff, 0x4064000000000000, 0x4075d00000000000,
    0x4082f00000000000, 0x4036000000000000, 0x4010000000000000, 0x4092f327132ea731,
    0x4074457a6f4de9bd, 0x4081997a6f4de9bd, 0x40b2efd2f7fb10a8, 0x4034721642c8590a,
    0x4067f61abb1dd0b4, 0x4076baefc17da2a6, 0x400dbd37a6f4de9a, 0x4041eb2e43dafcea,
    0x405102503159721e, 0x4005555555555555, 0x40a1f8af7e04979b, 0x40af3495373d8569,
    0x40b1995095c3c2f5, 0x4062203ba30b3bc0, 0x406644b7737624bd, 0x40751fd0e74c693d,
    0x40b042a7ab0fedc1, 0x403a5d6e046d6e2e, 0x4040a7162073dd21, 0x404f9d57d62908f9,
    0x408862f28544a54d, 0x4003d37a6f4de9bc, 0x403f1c71c71c71c6, 0x404db05b05b05b06,
    0x40df344b03414033, 0x4093bdeb57049f92, 0x40a2ba403bbdab63, 0x40ae391bd16e4d62,
    0x406d86cd6101af7c, 0x407c0714b6ec6d8e, 0x4086a9de9a760e7c, 0x4031939ead9e4974,
    0x403ce9bd37a6f4dc, 0x404b975fb8c3e548, 0x4085a5ed097b425f, 0x40dacb43b34cc6f7,
    0x40b41798749c833c, 0x4069a1f21286d5c8, 0x407875f88f7c485b, 0x40841e6076b981da,
    0x40b1d6053df54a17, 0x40159ca1012ae1f2, 0x40320ad12073615a, 0x4082f00000000000,
    0x404f800000000001, 0x4078d00000000000, 0x4032ffffffffffff, 0x4020000000000000,
    0x4069400000000001, 0x40126b1eb7999a04, 0x405ea1cd1a145b9f, 0x4069efa6f4de9bd4,
    0x4052bf0642b7f940, 0x4007f94541e48577, 0x3fe66cfadc041cc9, 0x4072f3058e081b4f,
    0x4060683b967c176d, 0x4044f9edd76c8ca8, 0x406edebdc9b1bd3c, 0x4023bd3de4dcda6a,
    0x403b75db5bd00a7c, 0x400276f2b95414eb, 0x40158d8de2484ac1, 0x3fd26c9b26c9b26c,
    0x4053582a923f93f1, 0x4046787e2193b0c8, 0x4048f77933956aee, 0x3fffedc95cbc23c3,
    0x40569c2b91db4b6b, 0x3fddddfeeae52333, 0x4031befc799e4e40, 0x3fee57050f2d8899,
    0x4011b1648ddd6550, 0x40a13b64d0a270b5, 0x404abed053a85041, 0x40011a0d13fc8f5a,
    0x40324947639052f1, 0x3fdffeb5e8e29be9, 0x400cb46e677fe569, 0x3fc889b4d31ecfa1,
    0x402d22ba74beab01, 0x408799b1077a4c72, 0x403396c82323e3c1, 0x400ebff27100c556,
    0x3fca493a070431ac, 0x4007905edb7ba83f, 0x408c17073288b759, 0x4041f626d6396d7e,
    0x4020cd3e6734d8a2, 0x40093e20b219dd16, 0x407492e4a7bb7ef9, 0x405025d96ab2cc66,
    0x400b9b878ba41ecf, 0x404a8300a2b2dcb5, 0x405e3fffffffffff, 0x4020000000000000,
    0x3ff4234f72c234f7, 0x4054400000000000, 0x4067000000000000, 0x4065800000000000,
    0x40655fffffffffff, 0x4064545af4ff4438, 0x409306dbc772e028, 0x4054400000000000,
    0x4049ba83a83a83a7, 0x4084800000000000, 0x4020000000000000, 0x4047e929a8dd562c,
    0x4069da77e843ea06, 0x3ff0000000000000, 0x406806dbf5129818, 0x3fedbd37a6f4de9a,
    0x4039638e38e38e39, 0x403798590b21642c, 0x4054400000000000, 0x4025000000000000,
    0x4023842c8590b215, 0x404c4a6b83e85176, 0x4050e6d0dab6b72d, 0x4040026710b89308,
    0x403214109ecc0cff, 0x4067000000000000, 0x4082f00000000000, 0x4033a74956b2e758,
    0x4082f00000000000, 0x40502e9bb06dbd17, 0x4054400000000000, 0x3feaffffffffffff,
    0x4082f00000000000, 0x3fe917a6f4de9bd2, 0x4002dbf6f3de4724, 0x400186dbc4079df0,
];

#[test]
fn rewritten_families_answer_what_the_parent_answered() {
    let all = estimators();
    for (kind, golden, bytes) in GOLDEN.into_iter().chain(ONE_ROW_GOLDEN) {
        let est = &all.iter().find(|(k, _)| *k == kind).expect("built").1;
        let bits = ceb_estimate_bits(est.as_ref());
        assert_eq!(bits.len(), 308, "{}: sub-plans", kind.name());
        assert_eq!(
            digest(&bits),
            golden,
            "{}: digest {:#018x}",
            kind.name(),
            digest(&bits)
        );
        assert_eq!(
            est.model_size_bytes(),
            bytes,
            "{}: model bytes",
            kind.name()
        );
        if kind == EstimatorKind::Flat {
            for (i, (&new, &old)) in bits.iter().zip(&FLAT_PARENT_BITS).enumerate() {
                let (new, old) = (f64::from_bits(new), f64::from_bits(old));
                assert!(
                    (new - old).abs() <= 1e-12 * old.abs(),
                    "FLAT sub-plan {i}: {new} vs the parent's {old}"
                );
            }
        }
    }
}

/// What `ChaosEst::fault_for` decided at the commit before the serving
/// and estimator fault injectors shared one draw: the FNV digest, over
/// class sets `ALL`, `VALUES` and `[Panic]` × seeds 7 and 8 at rate 0.5,
/// of each sub-plan query's fault (`0` clean, `1 + ` its index in
/// `FaultClass::ALL`), for every sub-plan of [`random_queries`] 0..16.
const CHAOS_SCHEDULE_GOLDEN: (u64, usize) = (0x74ad691d2952c303, 309);

#[test]
fn chaos_schedule_matches_the_golden() {
    let queries: Vec<JoinQuery> = (0..16)
        .flat_map(random_queries)
        .flat_map(|q| subplans(&q))
        .map(|s| s.query)
        .collect();
    assert!(queries.len() >= 256, "{} queries", queries.len());
    let mut words = Vec::new();
    for classes in [
        FaultClass::ALL.to_vec(),
        FaultClass::VALUES.to_vec(),
        vec![FaultClass::Panic],
    ] {
        for seed in [7, 8] {
            let inner = build_estimator(
                EstimatorKind::Postgres,
                &bench().stats_db,
                &bench().stats_train,
                &bench().config.settings,
            )
            .est;
            let cfg = ChaosConfig {
                seed,
                rate: 0.5,
                classes: classes.clone(),
                ..ChaosConfig::default()
            };
            let est = ChaosEst::new(inner, cfg);
            words.extend(queries.iter().map(|q| {
                est.fault_for(q).map_or(0, |c| {
                    1 + FaultClass::ALL.iter().position(|&a| a == c).unwrap() as u64
                })
            }));
        }
    }
    assert_eq!(
        (digest(&words), queries.len()),
        CHAOS_SCHEDULE_GOLDEN,
        "digest {:#018x} over {} queries",
        digest(&words),
        queries.len()
    );
}

/// Same seed, same bits: two independent fits of each rewritten family
/// answer every sub-plan identically, and so do two independent
/// fit → `apply_inserts` sequences. FLAT used to fail the first half —
/// its joint tables summed in `HashMap` iteration order, and two fits in
/// one process differed in the last place on a few sub-plans.
#[test]
fn independent_fits_and_updates_agree_bit_for_bit() {
    use cardbench_datagen::stats::{temporal_split, SPLIT_DAY};
    use cardbench_datagen::stats_catalog;

    let b = bench();
    let sets = ceb_subplan_sets();
    let (stale, inserts) = temporal_split(&stats_catalog(&b.config.stats), SPLIT_DAY);
    assert!(inserts.iter().any(|t| t.row_count() > 0));
    for (kind, ..) in GOLDEN {
        let fit = |db: &Database| build_estimator(kind, db, &b.stats_train, &b.config.settings).est;
        let bits = |est: &dyn CardEst, db: &Database| -> Vec<u64> {
            sets.iter()
                .flat_map(|subs| est.estimate_batch(db, subs))
                .map(f64::to_bits)
                .collect()
        };
        let fitted = [(); 2].map(|()| bits(fit(&b.stats_db).as_ref(), &b.stats_db));
        assert!(fitted[0] == fitted[1], "{}: two fits differ", kind.name());

        let updated = [(); 2].map(|()| {
            let mut db = Database::new(stale.clone());
            let mut est = fit(&db);
            if !est.supports_update() {
                return Vec::new(); // LW-XGB
            }
            db.append_inserts(&inserts)
                .expect("the split keeps the schema");
            est.apply_inserts(&db, &inserts);
            bits(est.as_ref(), &db)
        });
        assert!(
            updated[0] == updated[1],
            "{}: two updates differ",
            kind.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// What `serve::coalesce` sends: one batch concatenated from the
    /// sub-plans of different parent queries, permuted and with
    /// duplicates. Every slot must hold the bits of its sub-plan
    /// estimated alone — a batch shares buffers and compiled plans, never
    /// arithmetic.
    #[test]
    fn batch_composition_never_moves_an_estimate(seed in 0u64..1000, order in 0u64..1000) {
        let mut batch: Vec<SubPlanQuery> = random_queries(seed).iter().flat_map(subplans).collect();
        let mut state = order;
        let mut next = |m: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % m
        };
        for _ in 0..batch.len() / 2 {
            let dup = batch[next(batch.len())].clone();
            batch.push(dup);
        }
        for i in (1..batch.len()).rev() {
            batch.swap(i, next(i + 1));
        }
        let db = &bench().stats_db;
        for (kind, est) in estimators() {
            if !GOLDEN.iter().chain(&ONE_ROW_GOLDEN).any(|(k, ..)| k == kind) {
                continue;
            }
            let together = est.estimate_batch(db, &batch);
            for (sub, t) in batch.iter().zip(&together) {
                let alone = est.estimate_batch(db, std::slice::from_ref(sub));
                prop_assert_eq!(alone[0].to_bits(), t.to_bits(), "{} {:?}", kind.name(), sub.mask);
            }
        }
    }

    /// Every registered estimator's batch path is bit-identical to its
    /// sequential path on random acyclic STATS queries. Vacuous for the
    /// ten kinds above, whose `estimate` is the one-row batch (the
    /// composition test is their guard); it still compares two
    /// implementations for the traditional methods and TrueCard.
    #[test]
    fn estimate_batch_bit_identical_for_all_kinds(seed in 0u64..1000) {
        for q in random_queries(seed) {
            let subs = subplans(&q);
            for (kind, est) in estimators() {
                assert_batch_matches(kind.name(), est.as_ref(), &subs);
            }
        }
    }

    /// Chaos value faults (NaN, ±inf, negative, zero) flow through the
    /// batch path unchanged: a faulted wrapper over a batching kind
    /// answers its batch, faulted slots and the inner batch's alike,
    /// bit for bit as it answers each sub-plan.
    #[test]
    fn estimate_batch_bit_identical_under_chaos_values(
        seed in 0u64..1000,
        chaos_seed in 0u64..1000,
    ) {
        let inner = &estimators()
            .iter()
            .find(|(k, _)| *k == EstimatorKind::BayesCard)
            .expect("built")
            .1;
        let cfg = ChaosConfig {
            seed: chaos_seed,
            rate: 0.6,
            classes: FaultClass::VALUES.to_vec(),
            ..ChaosConfig::default()
        };
        let est = ChaosEst::new(Box::new(Borrowed(inner.as_ref())), cfg);
        prop_assert!(est.batch_leverage());
        for q in random_queries(seed) {
            assert_batch_matches("Chaos", &est, &subplans(&q));
        }
    }

    /// The one-pass enumerator agrees bit-for-bit with per-mask exact
    /// execution on random acyclic STATS queries, and the bulk service
    /// API returns the same values.
    #[test]
    fn one_pass_enumeration_bit_identical_to_per_mask(seed in 0u64..1000) {
        let db = &bench().stats_db;
        let truth = TrueCardService::new();
        for q in random_queries(seed) {
            let masks = connected_subsets(&q);
            let one_pass = subplan_true_cards(db, &q).expect("enumeration succeeds");
            let bulk = truth
                .cardinalities_for_query(db, &q)
                .expect("bulk service succeeds");
            assert_eq!(one_pass.len(), masks.len());
            assert_eq!(bulk.len(), masks.len());
            for ((&mask, &(m1, c1)), &(m2, c2)) in
                masks.iter().zip(&one_pass).zip(&bulk)
            {
                assert_eq!(mask, m1);
                assert_eq!(mask, m2);
                let sub = SubPlanQuery::project(&q, mask);
                let exact = exact_cardinality(db, &sub.query).expect("exact succeeds");
                assert_eq!(
                    exact.to_bits(),
                    c1.to_bits(),
                    "mask {mask:?}: exact {exact} vs one-pass {c1}"
                );
                assert_eq!(exact.to_bits(), c2.to_bits());
            }
        }
    }
}
