//! Property tests for launcher-routed NTT stage execution: on random inputs and
//! sizes, dispatching each stage through the virtual-GPU launcher (one thread per
//! butterfly) must compute exactly what the inline plan loops compute.

use moma_gpu::BufferPool;
use moma_mp::MulAlgorithm;
use moma_ntt::params::NttParams;
use moma_ntt::plan::{NttPlan, NttPlan64};
use moma_ntt::transform::butterfly_count;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Single-word path: launcher forward/inverse match the inline plan and
    /// compose to the identity, with fully reduced outputs.
    #[test]
    fn launcher64_matches_inline_plan(seed in any::<u64>(), log_n in 1u32..10) {
        let n = 1usize << log_n;
        let plan = NttPlan64::new(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % plan.ctx.q).collect();
        let mut inline = data.clone();
        let mut launched = data.clone();
        plan.forward(&mut inline);
        let pool = BufferPool::new();
        let stats = plan.forward_batch_on_launcher_pooled(&mut launched, &pool);
        prop_assert_eq!(&launched, &inline, "forward");
        prop_assert!(launched.iter().all(|&x| x < plan.ctx.q), "reduced");
        prop_assert_eq!(stats.threads as u64, butterfly_count(n) + n as u64);
        plan.inverse(&mut inline);
        plan.inverse_batch_on_launcher_pooled(&mut launched, &pool);
        prop_assert_eq!(&launched, &inline, "inverse");
        prop_assert_eq!(launched, data, "identity");
    }

    /// Multi-word path (2 limbs / 128 bits): launcher stages match the inline
    /// plan and compose to the identity.
    #[test]
    fn launcher_multiword_matches_inline_plan(seed in any::<u64>(), log_n in 1u32..7) {
        let n = 1usize << log_n;
        let params = NttParams::<2>::for_paper_modulus(n, 128, MulAlgorithm::Schoolbook);
        let plan = NttPlan::new(&params);
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<_> = (0..n).map(|_| params.ring.random_element(&mut rng)).collect();
        let mut inline = data.clone();
        let mut launched = data.clone();
        plan.forward(&mut inline);
        plan.forward_on_launcher(&mut launched);
        prop_assert_eq!(&launched, &inline, "forward");
        plan.inverse(&mut inline);
        plan.inverse_on_launcher(&mut launched);
        prop_assert_eq!(&launched, &inline, "inverse");
        prop_assert_eq!(launched, data, "identity");
    }
}
