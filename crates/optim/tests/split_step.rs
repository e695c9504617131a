//! A step split by parameter over owners is the whole step: each owner
//! runs `step_params` on its share of a model, copies its new weights
//! into the other owners' models, and after every step each model holds
//! the weights of a whole-model `step`, bitwise. The owners' states,
//! taken bank by bank from each parameter's owner, are the whole-model
//! state, and no owner writes a segment it does not own.

use ets_nn::{Layer, Mode, Param, ParamKind};
use ets_optim::{Adam, Lamb, Lars, Optimizer, RmsProp, Sgd, Shares, Sm3};
use ets_tensor::{Rng, Tensor};

/// Parameters of every kind LARS, LAMB and SM3 treat differently:
/// adapted and excluded, multi-axis and scalar, of uneven sizes.
#[derive(Clone)]
struct Model(Vec<Param>);

impl Model {
    fn new() -> Self {
        let mut rng = Rng::new(39);
        let mut param = |name: &str, dims: &[usize], kind| {
            let mut w = vec![0.0; dims.iter().product()];
            rng.fill_uniform(&mut w, -1.0, 1.0);
            Param::new(name, Tensor::from_vec(dims, w), kind)
        };
        Model(vec![
            param("w0", &[4, 3, 3], ParamKind::Weight),
            param("g0", &[4], ParamKind::BnGamma),
            param("b0", &[4], ParamKind::BnBeta),
            param("w1", &[6, 4], ParamKind::Weight),
            param("s", &[], ParamKind::Bias),
            param("w2", &[2, 6, 1, 1], ParamKind::Weight),
            param("bias", &[2], ParamKind::Bias),
        ])
    }

    /// Gradients of step `t`, the same on every copy of the model.
    fn load_grads(&mut self, t: u64) {
        let mut rng = Rng::new(100 + t);
        for p in &mut self.0 {
            rng.fill_uniform(p.grad.data_mut(), -0.1, 0.1);
        }
    }

    fn weight_bits(&self) -> Vec<Vec<u32>> {
        let bits = |p: &Param| p.value.data().iter().map(|v| v.to_bits()).collect();
        self.0.iter().map(bits).collect()
    }
}

impl Layer for Model {
    fn forward(&mut self, x: &Tensor, _m: Mode, _r: &mut Rng) -> Tensor {
        x.clone()
    }
    fn backward(&mut self, g: &Tensor) -> Tensor {
        g.clone()
    }
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for p in &mut self.0 {
            f(p);
        }
    }
}

fn check(make: fn() -> Box<dyn Optimizer>) {
    let name = make().name();
    let mut whole = Model::new();
    let mut whole_opt = make();
    let trajectory: Vec<_> = (0..3)
        .map(|t| {
            whole.load_grads(t);
            whole_opt.step(&mut whole, 0.05);
            whole.weight_bits()
        })
        .collect();
    let want = whole_opt.export_state();
    for world in [2, 3] {
        let shares = Shares::new(&mut Model::new(), world);
        let mut models = vec![Model::new(); world];
        let mut opts: Vec<_> = (0..world).map(|_| make()).collect();
        for (t, weights) in trajectory.iter().enumerate() {
            for (rank, (model, opt)) in models.iter_mut().zip(&mut opts).enumerate() {
                model.load_grads(t as u64);
                opt.step_params(model, 0.05, shares.owned(rank));
            }
            for rank in 0..world {
                for i in shares.owned(rank) {
                    let value = models[rank].0[i].value.clone();
                    for model in &mut models {
                        model.0[i].value = value.clone();
                    }
                }
            }
            for (rank, model) in models.iter().enumerate() {
                assert_eq!(
                    &model.weight_bits(),
                    weights,
                    "{name}: world {world} rank {rank} after step {t}"
                );
            }
        }
        let states: Vec<_> = opts.iter().map(|o| o.export_state()).collect();
        let params = whole.0.len();
        assert_eq!(states[0].banks.len(), want.banks.len());
        for (j, bank) in want.banks.iter().enumerate() {
            for (rank, state) in states.iter().enumerate() {
                let owned = shares.owned(rank).contains(&(j % params));
                let got = &state.banks[j];
                if owned {
                    assert_eq!(got, bank, "{name}: world {world} bank {j}");
                } else {
                    assert!(
                        got.iter().all(|&w| w == 0),
                        "{name}: world {world} rank {rank} wrote bank {j}, which it does not own"
                    );
                }
            }
        }
        for state in &states {
            assert_eq!(state.scalars, want.scalars, "{name}: world {world}");
        }
    }
}

#[test]
fn a_split_step_is_the_whole_step_for_every_optimizer() {
    check(|| Box::new(Sgd::new(0.9, 1e-4)));
    check(|| Box::new(RmsProp::efficientnet_default()));
    check(|| Box::new(Lars::new(0.9, 1e-5, 0.001)));
    check(|| Box::new(Adam::default_config(1e-4)));
    check(|| Box::new(Lamb::paper_default(1e-4)));
    check(|| Box::new(Sm3::new(0.9, 1e-5)));
}

/// The `world + 1` edges of `shares`: where each owner's run starts,
/// then where the last one ends.
fn edges(shares: &Shares, world: usize) -> Vec<usize> {
    (0..world)
        .map(|r| shares.owned(r).start)
        .chain([shares.owned(world - 1).end])
        .collect()
}

#[test]
fn the_cut_rises_and_covers_every_parameter() {
    // 36 + 4 + 4 + 24 + 1 + 12 + 2 = 83 elements. World 2 aims at 41
    // and cuts at 40 (after `g0`); world 3 aims at 27 and 55 and cuts
    // at 36 and 44.
    let mut model = Model::new();
    let cut = |world| edges(&Shares::new(&mut Model::new(), world), world);
    assert_eq!(cut(1), [0, 7]);
    assert_eq!(cut(2), [0, 2, 7]);
    assert_eq!(cut(3), [0, 1, 3, 7]);
    for world in 1..=8 {
        let shares = Shares::new(&mut model, world);
        let edges = edges(&shares, world);
        assert_eq!((edges[0], edges[world]), (0, 7));
        assert!(edges.windows(2).all(|w| w[0] <= w[1]), "{world}");
        for r in 1..world {
            assert_eq!(shares.owned(r - 1).end, shares.owned(r).start, "{world}");
        }
        assert_eq!(shares.elems().len(), world + 1);
        assert_eq!(shares.elems()[world], 83);
    }
}

#[test]
fn state_cuts_follow_the_parameter_edges() {
    // SM3 keeps Σ dims covers and a parameter-sized velocity, so its
    // state offsets differ from the weights'.
    let mut model = Model::new();
    let shares = Shares::new(&mut model, 2);
    let mut opt = Sm3::new(0.9, 0.0);
    assert_eq!(shares.state_cuts(&mut opt), [0, 0, 0], "no state yet");
    model.load_grads(0);
    opt.step(&mut model, 0.1);
    // w0: 4+3+3 covers + 36; g0: 4 + 4.
    let (w0, g0) = (10 + 36, 4 + 4);
    let total = w0 + g0 + (4 + 4) + (10 + 24) + (1 + 1) + (10 + 12) + (2 + 2);
    assert_eq!(shares.state_cuts(&mut opt), [0, w0 + g0, total]);
    let mut seen = 0;
    opt.visit_state(&mut |_, seg| seen += seg.len());
    assert_eq!(seen, total);
}
