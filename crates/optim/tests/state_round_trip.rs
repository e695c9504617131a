//! Optimizer state export/import must be bit-exact: resuming from a
//! snapshot and continuing must reproduce the uninterrupted trajectory
//! bitwise, for every optimizer. This is the substrate the trainer's
//! preemption recovery stands on.

use ets_nn::{Layer, Mode, Param, ParamKind};
use ets_optim::{Adam, Lamb, Lars, Optimizer, OptimizerState, RmsProp, Sgd, Sm3};
use ets_tensor::{Rng, Tensor};

/// A toy model with heterogeneous parameter kinds and shapes, so state
/// slots exercise multi-axis tensors, decayed and excluded params alike.
struct ToyModel(Vec<Param>);

impl ToyModel {
    fn new() -> Self {
        ToyModel(vec![
            Param::new(
                "w1",
                Tensor::from_vec([2, 3], vec![0.5, -0.25, 1.0, 0.75, -1.5, 0.125]),
                ParamKind::Weight,
            ),
            Param::new(
                "b1",
                Tensor::from_vec([3], vec![0.1, -0.2, 0.3]),
                ParamKind::Bias,
            ),
            Param::new(
                "gamma",
                Tensor::from_vec([2], vec![1.0, 1.0]),
                ParamKind::BnGamma,
            ),
        ])
    }

    /// Deterministic pseudo-gradients for step `t`.
    fn load_grads(&mut self, t: u64) {
        for (pi, p) in self.0.iter_mut().enumerate() {
            p.zero_grad();
            for (j, g) in p.grad.data_mut().iter_mut().enumerate() {
                let x = (t as f32 + 1.0) * 0.37 + pi as f32 * 1.13 + j as f32 * 0.71;
                *g = (x.sin() * 0.5) + 0.05;
            }
        }
    }

    fn weights_bits(&self) -> Vec<u32> {
        self.0
            .iter()
            .flat_map(|p| {
                p.value
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            })
            .collect()
    }
}

impl Layer for ToyModel {
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

/// FNV-1a over 32-bit words.
fn fnv(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        hash = (hash ^ w as u64).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// What the straight 6-step run leaves: the FNV-1a of the weight bits,
/// the length of every exported bank, and the FNV-1a of all banks.
/// Recorded before the optimizers moved onto one state store, whose
/// steps and bank order they pin; SM3's banks were recorded after, when
/// they became slot-major (its weights did not move).
struct Pin {
    weights: u64,
    bank_lens: &'static [usize],
    banks: u64,
}

fn check_round_trip(mut make: impl FnMut() -> Box<dyn Optimizer>, pin: Pin) {
    let name = make().name();
    // Uninterrupted run: 6 steps.
    let mut straight_model = ToyModel::new();
    let mut straight_opt = make();
    for t in 0..6 {
        straight_model.load_grads(t);
        straight_opt.step(&mut straight_model, 0.05);
    }
    let state = straight_opt.export_state();
    let lens: Vec<usize> = state.banks.iter().map(Vec::len).collect();
    assert_eq!(
        fnv(straight_model.weights_bits()),
        pin.weights,
        "{name}: weights"
    );
    assert_eq!(lens, pin.bank_lens, "{name}: bank lengths");
    assert_eq!(fnv(state.banks.concat()), pin.banks, "{name}: banks");

    // Interrupted run: 3 steps, snapshot, fresh optimizer, import, resume.
    let mut model = ToyModel::new();
    let mut opt = make();
    for t in 0..3 {
        model.load_grads(t);
        opt.step(&mut model, 0.05);
    }
    let snap = opt.export_state();
    let mut resumed = make();
    resumed.import_state(&snap, &mut model);
    // The re-export must equal the snapshot (import is lossless).
    assert_eq!(
        resumed.export_state(),
        snap,
        "{name}: import→export not a fixed point"
    );
    for t in 3..6 {
        model.load_grads(t);
        resumed.step(&mut model, 0.05);
    }

    assert_eq!(
        model.weights_bits(),
        straight_model.weights_bits(),
        "{name}: resumed trajectory diverged bitwise from uninterrupted run"
    );
}

#[test]
fn sgd_state_round_trips_bitwise() {
    check_round_trip(
        || Box::new(Sgd::new(0.9, 1e-4)),
        Pin {
            weights: 2316144963177278195,
            bank_lens: &[6, 3, 2],
            banks: 15119676897695589622,
        },
    );
}

#[test]
fn rmsprop_state_round_trips_bitwise() {
    check_round_trip(
        || Box::new(RmsProp::efficientnet_default()),
        Pin {
            weights: 6749110614470616276,
            bank_lens: &[6, 3, 2, 6, 3, 2],
            banks: 7643303872822641230,
        },
    );
}

#[test]
fn lars_state_round_trips_bitwise() {
    check_round_trip(
        || Box::new(Lars::paper_default()),
        Pin {
            weights: 7240975416567677881,
            bank_lens: &[6, 3, 2],
            banks: 5700484735844238086,
        },
    );
}

#[test]
fn lamb_state_round_trips_bitwise() {
    check_round_trip(
        || Box::new(Lamb::paper_default(1e-5)),
        Pin {
            weights: 6422211449135123197,
            bank_lens: &[6, 3, 2, 6, 3, 2],
            banks: 8337386359580858892,
        },
    );
}

#[test]
fn adam_state_round_trips_bitwise() {
    check_round_trip(
        || Box::new(Adam::default_config(1e-5)),
        Pin {
            weights: 9972538483404552256,
            bank_lens: &[6, 3, 2, 6, 3, 2],
            banks: 8337386359580858892,
        },
    );
}

#[test]
fn sm3_state_round_trips_bitwise() {
    check_round_trip(
        || Box::new(Sm3::new(0.9, 1e-5)),
        Pin {
            weights: 11812501444293788729,
            bank_lens: &[5, 3, 2, 6, 3, 2],
            banks: 15364919535245559354,
        },
    );
}

#[test]
fn fresh_optimizer_exports_empty_state() {
    let opt = Sgd::new(0.9, 0.0);
    assert!(opt.export_state().is_empty());
    let opt = Adam::default_config(0.0);
    let st = opt.export_state();
    // Adam always carries its step counter; banks appear only after a step.
    assert_eq!(st.scalars, vec![0]);
    assert!(st.banks.is_empty());
}

/// Three steps of `opt` on the toy model, exported.
fn snapshot(mut opt: impl Optimizer) -> OptimizerState {
    let mut model = ToyModel::new();
    for t in 0..3 {
        model.load_grads(t);
        opt.step(&mut model, 0.05);
    }
    opt.export_state()
}

#[test]
#[should_panic(expected = "optimizer state has 3 banks, but this optimizer keeps 2 per parameter")]
fn another_optimizers_state_is_refused() {
    let sgd = snapshot(Sgd::new(0.9, 1e-4));
    RmsProp::efficientnet_default().import_state(&sgd, &mut ToyModel::new());
}

#[test]
#[should_panic(expected = "bank 4 has 2 words, but slot 1 of parameter 1 needs 3")]
fn a_short_bank_is_refused() {
    let mut state = snapshot(RmsProp::efficientnet_default());
    state.banks[4].pop();
    RmsProp::efficientnet_default().import_state(&state, &mut ToyModel::new());
}
