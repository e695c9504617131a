//! ABFT verify-mode behavior: bitwise neutrality on clean inputs,
//! detection + bitwise healing of injected output corruption, and the
//! silent-escape demonstration with the defense off.
//!
//! ABFT state (verify toggle, armed injection, counters) is process
//! global, so every test here serializes on one mutex — and this suite
//! lives in its own integration-test binary so no other suite's GEMMs
//! run in this process.

mod common;

use common::{all_descs, bits, rand_vec, run, Operands};
use ets_tensor::ops::abft;
use ets_tensor::ops::dispatch::GemmDesc;
use ets_tensor::ops::gemm_blocked::{gemm_blocked, MC, NC};
use std::sync::Mutex;

static ABFT_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    ABFT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Shapes on both sides of the parallel threshold, including multi-tile
/// grids and ragged tile edges.
const SHAPES: &[(usize, usize, usize)] = &[
    (5, 9, 7),
    (63, 40, 65),
    (MC + 1, 130, NC + 3),
    (2 * MC, 96, 2 * NC),
];

#[test]
fn verify_mode_is_bitwise_neutral_on_clean_inputs_for_every_descriptor() {
    let _g = lock();
    for &(m, k, n) in SHAPES {
        let ops = Operands::new(11, m, k, n);
        for desc in all_descs(m, k, n) {
            let off = run(gemm_blocked, desc, &ops);

            abft::set_verify(true);
            let verified_before = abft::tiles_verified();
            let detected_before = abft::corruptions_detected();
            let on = run(gemm_blocked, desc, &ops);
            abft::set_verify(false);

            assert_eq!(bits(&off), bits(&on), "{desc:?}: verify not neutral");
            assert!(
                abft::tiles_verified() > verified_before,
                "{desc:?}: no tiles verified"
            );
            assert_eq!(
                abft::corruptions_detected(),
                detected_before,
                "{desc:?}: false positive on clean inputs"
            );
        }
    }
}

#[test]
fn injected_corruption_is_detected_and_healed_bitwise() {
    let _g = lock();
    for bit in [20u8, 24, 30] {
        let (m, k, n) = (MC + 3, 96, NC + 5);
        let desc = GemmDesc::new(m, k, n);
        let (a, b) = (rand_vec(13, m * k), rand_vec(14, k * n));
        let mut clean = vec![0.0f32; m * n];
        gemm_blocked(desc, &a, &b, &mut clean);

        abft::set_verify(true);
        let detected_before = abft::corruptions_detected();
        let recomputed_before = abft::tiles_recomputed();
        abft::arm_inject(bit);
        let mut healed = vec![0.0f32; m * n];
        gemm_blocked(desc, &a, &b, &mut healed);
        abft::set_verify(false);

        assert!(
            !abft::injection_armed(),
            "bit {bit}: injection not consumed"
        );
        assert_eq!(
            abft::corruptions_detected(),
            detected_before + 1,
            "bit {bit}: corruption not detected"
        );
        assert_eq!(
            abft::tiles_recomputed(),
            recomputed_before + 1,
            "bit {bit}: tile not recomputed"
        );
        assert_eq!(
            bits(&clean),
            bits(&healed),
            "bit {bit}: healed output not bitwise identical to clean run"
        );
    }
}

#[test]
fn corruption_is_silent_without_verify_mode() {
    let _g = lock();
    let (m, k, n) = (MC + 3, 96, NC + 5);
    let desc = GemmDesc::new(m, k, n);
    let (a, b) = (rand_vec(15, m * k), rand_vec(16, k * n));
    let mut clean = vec![0.0f32; m * n];
    gemm_blocked(desc, &a, &b, &mut clean);

    assert!(!abft::verify_enabled());
    let detected_before = abft::corruptions_detected();
    abft::arm_inject(28);
    let mut corrupt = vec![0.0f32; m * n];
    gemm_blocked(desc, &a, &b, &mut corrupt);

    assert!(!abft::injection_armed(), "injection not consumed");
    assert_ne!(
        bits(&clean),
        bits(&corrupt),
        "with verify off the flip must silently land in the output"
    );
    assert_eq!(
        abft::corruptions_detected(),
        detected_before,
        "nothing may be detected with the defense off"
    );
}

#[test]
fn arm_take_semantics() {
    let _g = lock();
    assert!(!abft::injection_armed());
    abft::arm_inject(7);
    assert!(abft::injection_armed());
    // Consuming it via a (tiny, tile-path-forced) GEMM disarms it.
    let a = [1.0f32; 4];
    let b = [1.0f32; 4];
    let mut c = [0.0f32; 4];
    gemm_blocked(GemmDesc::new(2, 2, 2), &a, &b, &mut c);
    assert!(!abft::injection_armed());
}
