//! Optimizer abstraction and the one store of optimizer state.
//!
//! Each optimizer is its hyper-parameters plus a per-parameter kernel.
//! Its mutable state lives in `Slots`: `K` flat `f32` buffers (RMSProp's
//! `ms` and `mom`, LARS's velocity, ...), each holding one segment per
//! parameter in `Layer::visit_params` order (which is stable), sized and
//! zeroed on the first step. `Slots::walk` is the only parameter loop.
//!
//! A step covers a range of parameters ([`Optimizer::step_params`]), so
//! a data-parallel job can split the update by parameter: each replica
//! runs the kernel on the parameters it owns ([`Shares`]) and keeps
//! state only for them. Every kernel is per-parameter (LARS' and LAMB's
//! norms, SM3's covers), so an owned parameter takes bitwise the step a
//! whole-model update gives it, and replicas that share one set of
//! weights hold those of a whole-model step once every owner has
//! written its own. The
//! segments a replica does not own stay as they were (zero, on pages the
//! allocator never touched): a checkpoint takes each parameter's state
//! from its owner.
//!
//! For checkpoint-based preemption recovery the trait also exposes
//! [`Optimizer::export_state`] / [`Optimizer::import_state`]: the full
//! slot state round-trips **bit-exactly** through [`OptimizerState`] (f32
//! words are stored as raw `u32` bits), so a resumed run replays the
//! identical trajectory the uninterrupted run would have taken. Like a
//! step, both cover a range of parameters
//! ([`Optimizer::export_state_params`], [`Optimizer::import_state_params`]),
//! so a replica snapshots and restores only the state it owns, in place.

use ets_nn::{Layer, Param};
use std::ops::Range;

/// A portable, bit-exact snapshot of an optimizer's mutable state.
///
/// - `scalars` — integer bookkeeping (e.g. Adam/LAMB's step counter `t`).
/// - `banks` — one flat f32 buffer per (slot, parameter) as raw `u32`
///   bit patterns, slot-major: with `n` parameters, bank `k·n + i` is
///   parameter `i`'s segment of slot `k`, in the optimizer's documented
///   slot order. Empty when the optimizer has not yet taken a step; the
///   banks of parameters outside an export's range are empty too.
///
/// Shapes are *not* stored: [`Optimizer::import_state`] recovers them from
/// the model it is handed and panics if a bank does not fit it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OptimizerState {
    /// Integer bookkeeping words (optimizer-specific meaning).
    pub scalars: Vec<u64>,
    /// Per-slot, per-parameter f32 data as raw bits (bit-exact round trip).
    pub banks: Vec<Vec<u32>>,
}

impl OptimizerState {
    /// True when nothing has been captured (fresh optimizer).
    pub fn is_empty(&self) -> bool {
        self.scalars.is_empty() && self.banks.is_empty()
    }
}

/// A gradient-based optimizer.
pub trait Optimizer: Send {
    /// Applies one update with the given learning rate to the parameters
    /// `params` (indices in `visit_params` order; an end past the last
    /// parameter stops there). The other parameters and their state are
    /// not touched. Gradients must already be populated (and averaged
    /// across replicas, if distributed).
    fn step_params(&mut self, model: &mut dyn Layer, lr: f32, params: Range<usize>);

    /// Applies one update to every parameter.
    fn step(&mut self, model: &mut dyn Layer, lr: f32) {
        self.step_params(model, lr, 0..usize::MAX);
    }

    /// Hands every state segment to `f` with its parameter's index,
    /// parameter-major (all of parameter 0's slots, then parameter 1's),
    /// so the state of a run of parameters is one run of segments. Hands
    /// out nothing before the first step.
    fn visit_state(&mut self, f: &mut dyn FnMut(usize, &mut [f32]));

    /// Diagnostic name ("rmsprop", "lars", ...).
    fn name(&self) -> &'static str;

    /// Captures the state of the parameters `params`, bit-exactly: the
    /// scalars and every bank, those of the other parameters empty.
    fn export_state_params(&self, params: Range<usize>) -> OptimizerState;

    /// Captures the full mutable state, bit-exactly.
    fn export_state(&self) -> OptimizerState {
        self.export_state_params(0..usize::MAX)
    }

    /// Restores the scalars and the state of the parameters `params` from
    /// a state captured by [`Optimizer::export_state_params`] over a range
    /// that covers them. The segments are written where they are (the
    /// buffers are sized, zeroed, only if they are not yet), and the
    /// other parameters' segments keep their bits. `model` supplies
    /// parameter shapes (the snapshot stores none); it must be the same
    /// architecture the state was exported from, and a state from another
    /// optimizer or model panics. Importing an empty state resets the
    /// optimizer to fresh.
    fn import_state_params(
        &mut self,
        state: &OptimizerState,
        model: &mut dyn Layer,
        params: Range<usize>,
    );

    /// Restores state captured by [`Optimizer::export_state`].
    fn import_state(&mut self, state: &OptimizerState, model: &mut dyn Layer) {
        self.import_state_params(state, model, 0..usize::MAX);
    }
}

/// A model's parameters split over `world` owners at parameter edges,
/// so that every parameter's kernel runs whole on one owner. Owner `r`
/// owns one contiguous run of `visit_params`, [`Shares::owned`]. With
/// `n` weight elements, edge `r` is the parameter edge nearest
/// `r·n/world` (the lower one on a tie), so the runs are as even as whole
/// parameters allow. One owner owns every parameter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shares {
    params: Vec<usize>,
    elems: Vec<usize>,
}

impl Shares {
    pub fn new(model: &mut dyn Layer, world: usize) -> Self {
        assert!(world >= 1, "a share needs at least one owner");
        // `offsets[i]`: where parameter `i` starts, then the total.
        let mut offsets = vec![0];
        model.visit_params(&mut |p| offsets.push(offsets[offsets.len() - 1] + p.numel()));
        let (count, n) = (offsets.len() - 1, offsets[offsets.len() - 1]);
        // `min_by_key` keeps the first of equally near edges: the lower.
        let nearest = |target: usize| (0..=count).min_by_key(|&i| offsets[i].abs_diff(target));
        let mut params: Vec<usize> = (0..world)
            .map(|r| nearest(r * n / world).unwrap_or(0))
            .collect();
        params.push(count);
        let elems = params.iter().map(|&i| offsets[i]).collect();
        Shares { params, elems }
    }

    /// The edges as offsets into the weights laid end to end: the cuts of
    /// a payload of every weight in `visit_params` order.
    pub fn elems(&self) -> &[usize] {
        &self.elems
    }

    /// The parameters `rank` owns.
    pub fn owned(&self, rank: usize) -> Range<usize> {
        self.params[rank]..self.params[rank + 1]
    }
}

/// `K` state slots over a model's parameters: slot `k` is one flat buffer
/// holding every parameter's segment, in `visit_params` order.
pub(crate) struct Slots<const K: usize> {
    /// Segment length in each slot for a parameter of the given shape.
    seg_lens: fn(&[usize]) -> [usize; K],
    bufs: [Vec<f32>; K],
    /// `ends[i][k]`: where parameter `i`'s segment of slot `k` ends.
    /// Empty until the slots are sized.
    ends: Vec<[usize; K]>,
}

impl<const K: usize> Slots<K> {
    /// Slots whose segments are each as long as their parameter.
    pub fn new() -> Self {
        Self::with_lens(|dims| [dims.iter().product(); K])
    }

    pub fn with_lens(seg_lens: fn(&[usize]) -> [usize; K]) -> Self {
        Slots {
            seg_lens,
            bufs: std::array::from_fn(|_| Vec::new()),
            ends: Vec::new(),
        }
    }

    /// Sizes every slot for `model`, zeroed.
    fn size(&mut self, model: &mut dyn Layer) {
        let (seg_lens, ends, mut end) = (self.seg_lens, &mut self.ends, [0; K]);
        ends.clear();
        model.visit_params(&mut |p| {
            for (e, len) in end.iter_mut().zip(seg_lens(p.dims())) {
                *e += len;
            }
            ends.push(end);
        });
        self.bufs = end.map(|len| vec![0.0; len]);
    }

    /// Calls `f` on every parameter in `params` with its segment of each
    /// slot, sizing the slots (for the whole model) on the first call.
    /// The segments of the other parameters are not touched. `model` must
    /// be the one the slots were sized for.
    pub fn walk(
        &mut self,
        model: &mut dyn Layer,
        params: Range<usize>,
        mut f: impl FnMut(&mut Param, [&mut [f32]; K]),
    ) {
        if self.ends.is_empty() {
            self.size(model);
        }
        const OTHER_MODEL: &str = "optimizer state was sized for another model";
        let (bufs, ends) = (&mut self.bufs, &self.ends);
        let (mut i, mut start) = (0, [0; K]);
        model.visit_params(&mut |p| {
            let end = *ends.get(i).expect(OTHER_MODEL);
            if params.contains(&i) {
                let mut k = 0;
                let segs = bufs.each_mut().map(|buf| {
                    let seg = &mut buf[start[k]..end[k]];
                    k += 1;
                    seg
                });
                f(p, segs);
            }
            (i, start) = (i + 1, end);
        });
        assert_eq!(i, ends.len(), "{OTHER_MODEL}");
    }

    /// [`Optimizer::visit_state`] over these slots.
    pub fn visit(&mut self, f: &mut dyn FnMut(usize, &mut [f32])) {
        let mut start = [0; K];
        for (i, end) in self.ends.iter().enumerate() {
            for (k, buf) in self.bufs.iter_mut().enumerate() {
                f(i, &mut buf[start[k]..end[k]]);
            }
            start = *end;
        }
    }

    /// Every segment as `(slot, range)`, slot-major: the bank order.
    fn segments(ends: &[[usize; K]]) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        (0..K).flat_map(move |k| {
            let starts = std::iter::once(0).chain(ends.iter().map(move |e| e[k]));
            starts.zip(ends).map(move |(start, end)| (k, start..end[k]))
        })
    }

    /// The state with `scalars` and one bank per segment, empty for the
    /// parameters outside `params`.
    pub fn export(&self, scalars: Vec<u64>, params: Range<usize>) -> OptimizerState {
        let n = self.ends.len();
        let banks = Self::segments(&self.ends)
            .enumerate()
            .map(|(j, (k, r))| match params.contains(&(j % n)) {
                true => self.bufs[k][r].iter().map(|v| v.to_bits()).collect(),
                false => Vec::new(),
            })
            .collect();
        OptimizerState { scalars, banks }
    }

    /// Loads the banks of the parameters `params` from `state`, which must
    /// be [`Slots::export`]'s layout for `model`, into the slots where
    /// they are, sizing them first only if they are unsized; an empty
    /// state resets the slots to fresh.
    pub fn import(&mut self, state: &OptimizerState, model: &mut dyn Layer, params: Range<usize>) {
        if state.banks.is_empty() {
            *self = Self::with_lens(self.seg_lens);
            return;
        }
        if self.ends.is_empty() {
            self.size(model);
        }
        let n = self.ends.len();
        assert_eq!(
            state.banks.len(),
            K * n,
            "optimizer state has {} banks, but this optimizer keeps {K} per parameter: \
             {} for a model of {n} parameters",
            state.banks.len(),
            K * n
        );
        for (j, ((k, r), bank)) in Self::segments(&self.ends).zip(&state.banks).enumerate() {
            if !params.contains(&(j % n)) {
                continue;
            }
            assert_eq!(
                bank.len(),
                r.len(),
                "optimizer state bank {j} has {} words, but slot {k} of parameter {} needs {}",
                bank.len(),
                j % n,
                r.len()
            );
            for (v, &bits) in self.bufs[k][r].iter_mut().zip(bank) {
                *v = f32::from_bits(bits);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ets_nn::{Mode, ParamKind};
    use ets_tensor::{Rng, Tensor};

    struct Params(Vec<Param>);
    impl Layer for Params {
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

    fn model() -> Params {
        Params(vec![
            Param::new("w", Tensor::zeros([2, 3]), ParamKind::Weight),
            Param::new("s", Tensor::scalar(0.0), ParamKind::Bias),
        ])
    }

    #[test]
    fn state_vec_grows_on_demand() {
        // Sized on the first walk, zeroed, one segment per slot and
        // parameter; the second walk sees what the first wrote.
        let mut slots: Slots<2> = Slots::with_lens(|d| [d.iter().product(), d.len()]);
        let mut seen = Vec::new();
        slots.walk(&mut model(), 0..2, |p, [a, b]| {
            seen.push((p.name.clone(), a.to_vec(), b.len()));
            a[0] = 1.0;
        });
        assert_eq!(
            seen,
            [
                ("w".to_string(), vec![0.0; 6], 2),
                ("s".to_string(), vec![0.0], 0)
            ]
        );
        slots.walk(&mut model(), 0..2, |_, [a, _]| assert_eq!(a[0], 1.0));
        assert_eq!(slots.export(vec![], 0..2).banks.len(), 4);
    }

    #[test]
    fn banks_round_trip_bit_exactly() {
        // Include values whose bit patterns are easy to corrupt through a
        // decimal detour: subnormals, negative zero, and an odd mantissa.
        let src = [1.0f32, -0.0, f32::MIN_POSITIVE / 2.0, 0.1 + 0.2, -3.5, 7.0];
        let mut slots: Slots<2> = Slots::new();
        slots.walk(&mut model(), 0..2, |p, [a, b]| {
            let off = if p.name == "w" { 0 } else { 5 };
            for (j, (x, y)) in a.iter_mut().zip(b).enumerate() {
                (*x, *y) = (src[(off + j) % 6], -src[j]);
            }
        });
        let state = slots.export(vec![7], 0..2);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let neg: Vec<f32> = src.iter().map(|x| -x).collect();
        assert_eq!(
            state.banks,
            [bits(&src), bits(&src[5..]), bits(&neg), bits(&neg[..1])]
        );
        let mut back: Slots<2> = Slots::new();
        back.import(&state, &mut model(), 0..2);
        assert_eq!(back.export(vec![7], 0..2), state);
    }

    #[test]
    fn empty_state_is_empty() {
        assert!(OptimizerState::default().is_empty());
        let s = OptimizerState {
            scalars: vec![1],
            banks: vec![],
        };
        assert!(!s.is_empty());
        // A fresh store exports no banks, and importing none resets it.
        let mut slots: Slots<1> = Slots::new();
        assert!(slots.export(vec![], 0..2).is_empty());
        slots.walk(&mut model(), 0..2, |_, _| {});
        slots.import(&OptimizerState::default(), &mut model(), 0..2);
        assert!(slots.export(vec![], 0..2).is_empty());
    }
}
