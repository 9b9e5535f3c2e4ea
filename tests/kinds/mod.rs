//! The conformance table: what each kind of `EstimatorKind::ALL`, and
//! the `Feedback` wrapper over PostgreSQL and an empty store, guarantees.
//! `tests/infer_alloc.rs` checks the warm-allocation column, in a process
//! of its own; `tests/estimator_invariants.rs` the `ROWS` and `JOINS`
//! columns; `tests/conformance.rs` the others. Unless a column
//! says otherwise, its inputs are the 308 sub-plans of the STATS-CEB
//! workload of `BenchConfig::fast(9)`.

#![allow(dead_code)] // each test binary reads some of the columns

use cardbench::estimators::EstimatorKind::{self, *};

/// What `apply_inserts` promises. This column is the one statement of
/// which kinds update.
#[derive(Clone, Copy, PartialEq)]
pub enum Update {
    /// The kind does not update: `apply_inserts` leaves every answer
    /// bit-identical.
    No,
    /// Deterministic, and bit for bit a refit on the union.
    Refit,
    /// Deterministic; its drift from a refit is printed.
    Drift,
}

/// What warm `estimate_batch` calls allocate on a thread whose scratch
/// has seen the workload once.
#[derive(Clone, Copy)]
pub enum Alloc {
    /// Exactly the answer: one allocation per call and none large, over
    /// the 146 sub-plan sets of `BenchConfig::standard(7)`.
    Answer,
    /// At most this many over the 20 calls of `BenchConfig::fast(9)`: a
    /// ratchet, to be lowered as the kind moves to [`Alloc::Answer`].
    AtMost(u64),
}

/// Dropping a conjunct never lowers the estimate.
pub const DROP: u8 = 1;
/// Widening a range by one on each bounded side never lowers it.
pub const WIDEN: u8 = 2;
/// Reversing the table order moves it by at most 1e-9 relative.
pub const ORDER: u8 = 4;
/// Each unfiltered STATS table is estimated within 1.25× of its row
/// count (`BenchConfig::fast(42)`).
pub const ROWS: u8 = 8;
/// Each unfiltered 2-table workload join is estimated within q-error 3
/// (`BenchConfig::fast(43)`).
pub const JOINS: u8 = 16;
const LAWS: u8 = DROP | WIDEN | ORDER;

/// One kind's promises.
pub struct Row {
    pub kind: EstimatorKind,
    /// FNV-1a of the `estimate_batch` bits over the 308 sub-plans.
    pub digest: u64,
    pub model_bytes: usize,
    pub update: Update,
    pub alloc: Alloc,
    /// The [`DROP`] … [`JOINS`] promises the kind makes. An optimized
    /// build counts and prints the broken laws of the rest.
    pub promises: u8,
}

impl Row {
    /// One run from before the kind's sums were ordered: the answers may
    /// differ from it by summation order only, 1e-12 relative.
    pub fn parent_bits(&self) -> Option<&'static [u64; 308]> {
        match self.kind {
            MultiHist => Some(&MULTIHIST_PARENT_BITS),
            Flat => Some(&FLAT_PARENT_BITS),
            _ => None,
        }
    }

    /// Whether the row makes every promise in `p`.
    pub fn makes(&self, p: u8) -> bool {
        self.promises & p == p
    }
}

use Alloc::{Answer, AtMost};
use Update::{Drift, No, Refit};

/// TrueCard's `cardinalities_for_subplans` checks its input with a
/// `debug_assert!` that allocates.
#[rustfmt::skip]
const TRUECARD_ALLOCS: u64 = if cfg!(debug_assertions) { 33_715 } else { 32_933 };

/// The rows. Digests older than this table: MSCN, LW-NN, LW-XGB, BayesCard,
/// DeepDB, FLAT, UAE-Q, UAE, NeuroCard^E, Sketch and MultiHist; the other
/// five were recorded for it, and `Feedback` answers as PostgreSQL does.
#[rustfmt::skip]
pub static TABLE: [Row; 17] = [
    Row { kind: Postgres,    digest: 0xcfc8a86bdef9bc05, model_bytes: 8064,   update: Refit, alloc: AtMost(1_725),           promises: LAWS | ROWS },
    Row { kind: TrueCard,    digest: 0x835d874e0a66b7b5, model_bytes: 0,      update: Refit, alloc: AtMost(TRUECARD_ALLOCS), promises: LAWS | ROWS },
    Row { kind: MultiHist,   digest: 0xc9b58057148c0fe4, model_bytes: 8304,   update: No,    alloc: AtMost(3_210),           promises: LAWS | ROWS },
    Row { kind: UniSample,   digest: 0x27323d4fb4627a6b, model_bytes: 7216,   update: No,    alloc: AtMost(1_320),           promises: LAWS | ROWS },
    Row { kind: WjSample,    digest: 0x26bc82932fbc9c10, model_bytes: 0,      update: No,    alloc: AtMost(2_998),           promises: 0 },
    Row { kind: PessEst,     digest: 0xcb00ee58d266b7b5, model_bytes: 336,    update: Refit, alloc: AtMost(7_780),           promises: LAWS | ROWS },
    Row { kind: Mscn,        digest: 0xef97b522c36d595f, model_bytes: 36484,  update: Refit, alloc: Answer,                  promises: ORDER },
    Row { kind: LwXgb,       digest: 0xea736ccdf39a10d2, model_bytes: 8776,   update: No,    alloc: Answer,                  promises: ORDER },
    Row { kind: LwNn,        digest: 0xd2c3e2edd902b914, model_bytes: 23300,  update: Refit, alloc: Answer,                  promises: ORDER },
    Row { kind: UaeQ,        digest: 0x05a7e306cf9783e3, model_bytes: 79364,  update: No,    alloc: Answer,                  promises: ORDER },
    Row { kind: NeuroCardE,  digest: 0xa50be62bd0c52106, model_bytes: 542036, update: Drift, alloc: AtMost(665_654),         promises: 0 },
    Row { kind: BayesCard,   digest: 0x3f9cdc573751bd54, model_bytes: 48736,  update: Drift, alloc: Answer,                  promises: DROP | WIDEN | ROWS | JOINS },
    Row { kind: DeepDb,      digest: 0x69740f2c8f69be43, model_bytes: 27192,  update: Drift, alloc: Answer,                  promises: DROP | WIDEN | ROWS | JOINS },
    Row { kind: Flat,        digest: 0x46ecc7eba60328f7, model_bytes: 24632,  update: Drift, alloc: Answer,                  promises: DROP | WIDEN | ROWS | JOINS },
    Row { kind: Uae,         digest: 0xb22e1fe76ac7ba11, model_bytes: 91524,  update: No,    alloc: AtMost(1_417),           promises: ORDER },
    Row { kind: Sketch,      digest: 0x4ea19c27e648a7f8, model_bytes: 35200,  update: Refit, alloc: AtMost(1_811),           promises: DROP | ORDER | ROWS },
    Row { kind: Feedback,    digest: 0xcfc8a86bdef9bc05, model_bytes: 8064,   update: Refit, alloc: AtMost(3_277),           promises: LAWS | ROWS },
];

/// FLAT at the commit before its joint tables were sorted.
#[rustfmt::skip]
pub const FLAT_PARENT_BITS: [u64; 308] = [
    0x4052bfffffffffff, 0x402a6f4de9bd37a8, 0x4020979038d61551, 0x4054400000000000, 0x40248aede572a82a, 0x40687b81f8ea9920, 0x4023175fdef9dc47, 0x40106a1fc1b12998,
    0x400e82783e46822d, 0x4050adb6db6db6db, 0x402aa989a515273e, 0x4084800000000000, 0x4042b93f0bfa8c36, 0x4027c3d63db720a8, 0x406c200be896c05c, 0x4005b477c8df0862,
    0x405ff68fe281c594, 0x400358abd8b0aa32, 0x403a052e650c3664, 0x4046886bca1af286, 0x4064000000000000, 0x4084800000000000, 0x4043c00000000000, 0x4067000000000000,
    0x405850f79d2aa297, 0x4062265dfec056cd, 0x4080b9d863c2624b, 0x4043c00000000000, 0x4090585bcdc8f755, 0x407455ed53e5a6d2, 0x4080b9d863c2624b, 0x40ab56bd9cd4ce3c,
    0x407455ed53e5a6d2, 0x40ab56bd9cd4ce3c, 0x4054400000000000, 0x4067000000000000, 0x4075d00000000000, 0x4036000000000000, 0x4020000000000000, 0x4064000000000000,
    0x40655fffffffffff, 0x4075d00000000000, 0x4036000000000000, 0x4010000000000000, 0x40b2790000000001, 0x4074457a6f4de9bd, 0x4034721642c8590a, 0x4067f61abb1dd0b4,
    0x400dbd37a6f4de9a, 0x4041eb2e43dafcea, 0x4005555555555555, 0x40b2790000000001, 0x406644b7737624bd, 0x4040a7162073dd21, 0x4003d37a6f4de9bc, 0x403f1c71c71c71c6,
    0x40b12ae2c8590b22, 0x40a44adfe61384f8, 0x407e599e976c9690, 0x403ce9bd37a6f4dc, 0x40a2dbd86d7918ca, 0x407c34add24a7b39, 0x407a58f5cfe9d4ce, 0x40787c6a029d7c07,
    0x402f4dc5ea417da9, 0x40405a1a5fefb927, 0x4064000000000000, 0x405ab263028ae4a1, 0x4067000000000000, 0x4072700000000000, 0x4020000000000000, 0x400680555d056297,
    0x402dbdb207b37f7d, 0x40204c2eaa3c3a19, 0x405ab263028ae4a1, 0x4072700000000000, 0x4010000000000000, 0x4024e56668998b43, 0x40166866d181d76e, 0x403d06053638ed8d,
    0x40204c2eaa3c3a19, 0x406566a7058435e2, 0x4002925b2328f817, 0x4041653b411f4509, 0x4046aa82df43eff9, 0x40166866d181d76e, 0x403d06053638ed8d, 0x402a2118baabb0a0,
    0x3fc6acc67d8b7239, 0x403431017bf069ce, 0x4046aa82df43eff9, 0x4021f67960fda66f, 0x4047442165349779, 0x3fbf2d149dec4d1e, 0x3fe430b5b66a6278, 0x3ff8a70983c2cf83,
    0x40522b78372675ef, 0x3fef890f205e8587, 0x3ff0f292f78806c5, 0x4015f37f52abf088, 0x4021249305d17c7b, 0x4036800000000001, 0x4064000000000000, 0x40730e0d341489e9,
    0x3fa37343adeb4a8c, 0x40525d2edac2f7b2, 0x4064000000000000, 0x3f93a6c37fb5cf29, 0x408f1ab683381339, 0x3fd0a479184e0176, 0x4054400000000000, 0x40393e72600d226f,
    0x407d063d024b7c56, 0x4036000000000000, 0x403775dc619ce6f4, 0x40650f7412d5fe1e, 0x3fef8bd62384f094, 0x4066ad01fe7f83c6, 0x3fed5142d5e11ccb, 0x401c564387e0a6de,
    0x4054400000000000, 0x4067000000000000, 0x405c122615b50010, 0x4020000000000000, 0x4064000000000000, 0x40655fffffffffff, 0x405c122615b50010, 0x4010000000000000,
    0x4097c5d5868e2555, 0x405a166e8642a5a0, 0x400dbd37a6f4de9a, 0x40270f5307d1a900, 0x4097c5d5868e2555, 0x40256e3ddc22d8e2, 0x409617db4f22b62c, 0x4063876e3f9b819b,
    0x40622635c37615a9, 0x4054400000000000, 0x3f8ad4836b4f1116, 0x4064000000000000, 0x4074c00000000000, 0x4036000000000000, 0x4075d00000000000, 0x3f88ef3ceaaf0bb3,
    0x4064000000000000, 0x405e1ce0c7ce0c7c, 0x3f40246e0951e08e, 0x40b2790000000000, 0x3fb61b00a35a2d39, 0x3fb13addc82af688, 0x408a2324d12869f7, 0x3f3e00edea5dbffc,
    0x40b2790000000000, 0x3fe420cde749b51d, 0x3f6a99758da73bbc, 0x3f64bb94bed36a8f, 0x40046ad723ad70ab, 0x40d82428f495c712, 0x3f98385a4264576e, 0x4032974c94466dbb,
    0x3fb89170a0491cb9, 0x3fe65ed95dd260f3, 0x4054400000000000, 0x4067000000000000, 0x4064000000000000, 0x4075d00000000000, 0x4082f00000000000, 0x4036000000000000,
    0x4020000000000000, 0x40655fffffffffff, 0x4064000000000000, 0x4075d00000000000, 0x4082f00000000000, 0x4036000000000000, 0x4010000000000000, 0x4092f327132ea731,
    0x4074457a6f4de9bd, 0x4081997a6f4de9bd, 0x40b2efd2f7fb10a8, 0x4034721642c8590a, 0x4067f61abb1dd0b4, 0x4076baefc17da2a6, 0x400dbd37a6f4de9a, 0x4041eb2e43dafcea,
    0x405102503159721e, 0x4005555555555555, 0x40a1f8af7e04979b, 0x40af3495373d8569, 0x40b1995095c3c2f5, 0x4062203ba30b3bc0, 0x406644b7737624bd, 0x40751fd0e74c693d,
    0x40b042a7ab0fedc1, 0x403a5d6e046d6e2e, 0x4040a7162073dd21, 0x404f9d57d62908f9, 0x408862f28544a54d, 0x4003d37a6f4de9bc, 0x403f1c71c71c71c6, 0x404db05b05b05b06,
    0x40df344b03414033, 0x4093bdeb57049f92, 0x40a2ba403bbdab63, 0x40ae391bd16e4d62, 0x406d86cd6101af7c, 0x407c0714b6ec6d8e, 0x4086a9de9a760e7c, 0x4031939ead9e4974,
    0x403ce9bd37a6f4dc, 0x404b975fb8c3e548, 0x4085a5ed097b425f, 0x40dacb43b34cc6f7, 0x40b41798749c833c, 0x4069a1f21286d5c8, 0x407875f88f7c485b, 0x40841e6076b981da,
    0x40b1d6053df54a17, 0x40159ca1012ae1f2, 0x40320ad12073615a, 0x4082f00000000000, 0x404f800000000001, 0x4078d00000000000, 0x4032ffffffffffff, 0x4020000000000000,
    0x4069400000000001, 0x40126b1eb7999a04, 0x405ea1cd1a145b9f, 0x4069efa6f4de9bd4, 0x4052bf0642b7f940, 0x4007f94541e48577, 0x3fe66cfadc041cc9, 0x4072f3058e081b4f,
    0x4060683b967c176d, 0x4044f9edd76c8ca8, 0x406edebdc9b1bd3c, 0x4023bd3de4dcda6a, 0x403b75db5bd00a7c, 0x400276f2b95414eb, 0x40158d8de2484ac1, 0x3fd26c9b26c9b26c,
    0x4053582a923f93f1, 0x4046787e2193b0c8, 0x4048f77933956aee, 0x3fffedc95cbc23c3, 0x40569c2b91db4b6b, 0x3fddddfeeae52333, 0x4031befc799e4e40, 0x3fee57050f2d8899,
    0x4011b1648ddd6550, 0x40a13b64d0a270b5, 0x404abed053a85041, 0x40011a0d13fc8f5a, 0x40324947639052f1, 0x3fdffeb5e8e29be9, 0x400cb46e677fe569, 0x3fc889b4d31ecfa1,
    0x402d22ba74beab01, 0x408799b1077a4c72, 0x403396c82323e3c1, 0x400ebff27100c556, 0x3fca493a070431ac, 0x4007905edb7ba83f, 0x408c17073288b759, 0x4041f626d6396d7e,
    0x4020cd3e6734d8a2, 0x40093e20b219dd16, 0x407492e4a7bb7ef9, 0x405025d96ab2cc66, 0x400b9b878ba41ecf, 0x404a8300a2b2dcb5, 0x405e3fffffffffff, 0x4020000000000000,
    0x3ff4234f72c234f7, 0x4054400000000000, 0x4067000000000000, 0x4065800000000000, 0x40655fffffffffff, 0x4064545af4ff4438, 0x409306dbc772e028, 0x4054400000000000,
    0x4049ba83a83a83a7, 0x4084800000000000, 0x4020000000000000, 0x4047e929a8dd562c, 0x4069da77e843ea06, 0x3ff0000000000000, 0x406806dbf5129818, 0x3fedbd37a6f4de9a,
    0x4039638e38e38e39, 0x403798590b21642c, 0x4054400000000000, 0x4025000000000000, 0x4023842c8590b215, 0x404c4a6b83e85176, 0x4050e6d0dab6b72d, 0x4040026710b89308,
    0x403214109ecc0cff, 0x4067000000000000, 0x4082f00000000000, 0x4033a74956b2e758, 0x4082f00000000000, 0x40502e9bb06dbd17, 0x4054400000000000, 0x3feaffffffffffff,
    0x4082f00000000000, 0x3fe917a6f4de9bd2, 0x4002dbf6f3de4724, 0x400186dbc4079df0,
];

/// MultiHist at the commit before its cells were sorted by key.
#[rustfmt::skip]
pub const MULTIHIST_PARENT_BITS: [u64; 308] = [
    0x4052c00000000003, 0x402ad90b21642c87, 0x40271a4dc0719012, 0x4054400000000000, 0x401e39588f3e6d60, 0x406810c19b806fd1, 0x401c16af851f94f4, 0x401f9fc580a0e5c3,
    0x401d63c9a2abca65, 0x4050bfffffffffff, 0x40263b3cbcd99096, 0x4084800000000000, 0x40426c7c2bf41528, 0x40216347dfbf37f3, 0x40689ba781948b0f, 0x4001cedf1ad96e79,
    0x40398b8932975884, 0x3ffbdb3fec99bfd9, 0x401476631ad6133e, 0x4046e91840ac7691, 0x4064000000000000, 0x4084800000000000, 0x4043c00000000000, 0x4067000000000000,
    0x4056a0afa82bea0a, 0x4060d44f71e0a945, 0x4059c2218a2e49b5, 0x4043c00000000000, 0x40709f1f0e7f12a2, 0x404d247e92c11834, 0x4059c2218a2e49b5, 0x4065683d5f28b48b,
    0x404d247e92c11833, 0x4065683d5f28b48b, 0x4054400000000000, 0x4067000000000000, 0x4075d00000000000, 0x4036000000000000, 0x4020000000000000, 0x4064000000000000,
    0x4065600000000000, 0x4075d00000000000, 0x4036000000000000, 0x4010000000000000, 0x408c72c234f72c23, 0x4074457a6f4de9bd, 0x4034721642c8590b, 0x4044dd37a6f4de9c,
    0x400dbd37a6f4de9c, 0x401e590b21642c85, 0x3fde9bd37a6f4dea, 0x408c72c234f72c23, 0x404363d94912df93, 0x401c3424c7614533, 0x3fdc72353b860c95, 0x3fed07424c761453,
    0x408a703744b39f47, 0x405b361defe14b9d, 0x4033ca44515e0871, 0x3feafa3970cc5873, 0x405949f2153160b3, 0x40326452f823e93d, 0x4002edfe909cba2a, 0x4001979d466521e1,
    0x4030a2c3f35ba781, 0x40405d4e1bbd2f7c, 0x4064000000000000, 0x40592dbf1d3f49b5, 0x4067000000000000, 0x4072700000000000, 0x4020000000000000, 0x40196c798c69bd3d,
    0x40406e302614fdee, 0x4030c26e13be6a3a, 0x40592dbf1d3f49b5, 0x4072700000000000, 0x4010000000000000, 0x40291c1f8dd70d13, 0x40199cddc48d43be, 0x40408d76331ae104,
    0x4030c26e13be6a3a, 0x40642f1b4a3a62bc, 0x400183ff62424989, 0x4019a6f4de9bd37a, 0x40294bead5169513, 0x40199cddc48d43be, 0x40408d76331ae103, 0x403adeadb321fb01,
    0x3fd7514b3cdc6745, 0x400c150493cbaac3, 0x40294bead5169513, 0x4024882efe41f00a, 0x404a89c1adc2bf04, 0x3fc1d14c5c35bfd2, 0x3fe70799523ba85d, 0x3fe2b12aebeb1dea,
    0x4034474adb837e75, 0x3fd198fc67b6aa7c, 0x3fcc90f37802b224, 0x3ff276176dbf20b5, 0x3fdc36aaeea0aff0, 0x4036000000000000, 0x4064000000000000, 0x404cb15c73096f45,
    0x3fa2a541ae288c54, 0x40525d3a8cc480d5, 0x4064000000000000, 0x3f9ffa26484f3c9d, 0x4067f36e7bbf0cd9, 0x3fb4da4403bfd325, 0x4054400000000000, 0x40456fca372117af,
    0x407c0c6317f57fba, 0x4036000000000000, 0x4043ec10cc471a2f, 0x40645a28af0b1cae, 0x40148130ba4c2cea, 0x405405cd0e2f3371, 0x40130e52d9a82f4e, 0x402326f0a964cd08,
    0x4054400000000000, 0x4067000000000000, 0x4059884575c4b6d5, 0x4020000000000000, 0x4064000000000000, 0x4065600000000000, 0x4059884575c4b6d5, 0x4010000000000000,
    0x4070a65d4daee55b, 0x4057ba78346782f6, 0x400dbd37a6f4de9c, 0x4001c2f8aaf82625, 0x4070a65d4daee55b, 0x400081b7cb69663c, 0x406ef2703490356f, 0x40172a3f07e833f8,
    0x40158742ece9e264, 0x4054400000000000, 0x3f938c957211b945, 0x4064000000000000, 0x4074c00000000000, 0x4036000000000000, 0x4075d00000000000, 0x3f922affc1a983d5,
    0x4064000000000000, 0x405e1ce0c7ce0c7d, 0x3f62b2fe409684b1, 0x408c72c234f72c23, 0x3fa1f1944d7e55f5, 0x3f9b04472269f66b, 0x406dbdb4eb439a8e, 0x3f6160c81d6a7e1a,
    0x408c72c234f72c23, 0x3faaaee447ea3c11, 0x3f7129dbc48f1a91, 0x3f69d791f4655b03, 0x3fc985f8770e2f3c, 0x409526ebb490148b, 0x3f7985e57c70bf05, 0x3fd2fa2d63b2ba2a,
    0x3f9869e28823d424, 0x3fa226f3c38990af, 0x4054400000000000, 0x4067000000000000, 0x4064000000000000, 0x4075d00000000000, 0x4082f00000000000, 0x4036000000000000,
    0x4020000000000000, 0x4065600000000000, 0x4064000000000000, 0x4075d00000000000, 0x4082f00000000000, 0x4036000000000000, 0x4010000000000000, 0x40751c71c71c71c7,
    0x4074457a6f4de9bd, 0x4081997a6f4de9bd, 0x4091f5b21642c859, 0x4034721642c8590b, 0x4044dd37a6f4de9c, 0x40521d37a6f4de9c, 0x400dbd37a6f4de9c, 0x401e590b21642c85,
    0x402a590b21642c85, 0x3fde9bd37a6f4dea, 0x408405691eeaf9d1, 0x409161dae6076b98, 0x4090b0dbc3fe1074, 0x40443177f61b352d, 0x404363d94912df93, 0x4050d59680b9d472,
    0x40612dcbbc3fe107, 0x401d5f3a2027932b, 0x401c3424c7614533, 0x40287c7dd282a960, 0x4038fccb405cea39, 0x3fdc72353b860c95, 0x3fed07424c761453, 0x3ff933c7dd282a96,
    0x40a07c1b6c3d4c4c, 0x4053269112717484, 0x4060a06213ae0ddf, 0x405fee29fc81dcb2, 0x402bdb018f30a97c, 0x40382f1a4b2bb716, 0x403738d8b7a4436a, 0x3fec184ddbf9551d,
    0x3feafa3970cc5873, 0x3ff76bf2c95b96e1, 0x4007e6ac274dbea5, 0x406f893f976a22a9, 0x4046ef7411075f05, 0x3ffaa4f65c715432, 0x400721eca0f2298f, 0x4006365ffd91fdb3,
    0x4015f02c3ccf6606, 0x40149c0d1bf91517, 0x4034916872b020c4, 0x4082f00000000000, 0x404f800000000001, 0x4078d00000000000, 0x4033000000000000, 0x4020000000000000,
    0x4068900000000000, 0x3ff4eee79de430b9, 0x403f3b7f52affc67, 0x4069efa6f4de9bd5, 0x4060fdbd37a6f4df, 0x401a0590b21642ca, 0x3ff5e9bd37a6f4df, 0x405078eae5d43059,
    0x401fb90e68299c02, 0x4025632d730ec5e3, 0x407bfae2b8dcac4a, 0x40356cee18325435, 0x402c1286887803e0, 0x40120ae372b11e7e, 0x4007a3cf9b579779, 0x3fc21a21e00f7c60,
    0x4010c3cbe72d5b92, 0x4005b928796a680d, 0x403712a53478fb0c, 0x3ff1aaf9060112c6, 0x40471d2a98b64b8a, 0x3fcdc1a3686d98e3, 0x402376e0809982fc, 0x3fddcf35004605da,
    0x3fd38752753218f5, 0x403967ed1997b310, 0x40176f66cb54e0f2, 0x3fd1f2000b41a3de, 0x40030f671516070a, 0x3fae394371462176, 0x3fe00cf87d8bd008, 0x3f9894d4e6f65ce7,
    0x3ff0144a2773aefc, 0x402165c6892d7246, 0x3fe35c07010355a7, 0x3fc04d7f29462d2e, 0x3f78f7a70487d8dc, 0x3faa84bbf0d0bbe1, 0x4032c4c09dba123b, 0x3fecbe696834d30d,
    0x3fc8348ea89845f1, 0x3f8aef57a85daed2, 0x3fff02495da2b9f4, 0x3fda1cdf7745aa0f, 0x3f93fee527199df2, 0x3fa592494c44ade1, 0x405e092492492495, 0x4020000000000000,
    0x4004e4f80cb8727e, 0x4054400000000000, 0x4067000000000000, 0x40657fffffffffff, 0x4065600000000000, 0x4064545af4ff4437, 0x4075757c7462c801, 0x4054400000000000,
    0x4048de50d79435e4, 0x4084800000000000, 0x4020000000000000, 0x40471c8590b21642, 0x40662a532f7367af, 0x3ff14cbdcd9ec151, 0x4064996beab4fd94, 0x3ff013d75987045a,
    0x400ed6b684cd15d2, 0x400ca8ef3049b9d9, 0x4054400000000000, 0x4025000000000000, 0x4023842c8590b217, 0x404cc7a34acc60ed, 0x404eef9834fd334c, 0x40446e278d6c4ef7,
    0x403166334cc00662, 0x4067000000000000, 0x4082f00000000000, 0x40425da7ed755c12, 0x4082f00000000000, 0x405e3e669eaf2c7d, 0x4054400000000000, 0x3fc0c4c0478bbcec,
    0x4082f00000000000, 0x3fbf2aeaf4494bac, 0x3fdb9d0a8c140668, 0x3fd9a9991b399117,
];
