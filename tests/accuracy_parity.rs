//! Integration: the paper's Sec. IV-D validation — out-of-core execution
//! does not change the computation — checked on *real* training, end to
//! end across `karma-tensor` and `karma-runtime`.

use karma::runtime::{train, BlockPolicy, ExchangeSchedule, OocExecutor};
use karma::tensor::{small_cnn, SyntheticDataset};

fn data() -> SyntheticDataset {
    SyntheticDataset::classification(160, 1, 16, 4, 4242)
}

#[test]
fn ooc_training_is_bitwise_equal_to_in_core() {
    let data = data();
    let steps = 4;
    let batch = 16;

    let mut reference = small_cnn(4, 55);
    for s in 0..steps {
        let (x, y) = data.batch(s * batch, batch);
        reference.train_step(&x, &y, 0.05);
    }

    let mut ooc = small_cnn(4, 55);
    let exec = OocExecutor::new(
        vec![0, 2, 4, 6],
        vec![
            BlockPolicy::Swap,
            BlockPolicy::Recompute,
            BlockPolicy::Swap,
            BlockPolicy::Resident,
        ],
        usize::MAX / 2,
        ooc.len(),
    );
    let mut traffic = 0usize;
    for s in 0..steps {
        let (x, y) = data.batch(s * batch, batch);
        let (_, st) = exec.train_step(&mut ooc, &x, &y, 0.05);
        traffic += st.swapped_in_bytes + st.swapped_out_bytes;
    }
    assert!(traffic > 0, "the OOC run must actually swap");
    assert_eq!(ooc.snapshot(), reference.snapshot(), "bitwise parity");
}

#[test]
fn data_parallel_ooc_matches_large_batch_training() {
    let data = data();
    let workers = 4;
    let per_worker = 8;
    let steps = 3;

    let mut nets: Vec<_> = (0..workers).map(|_| small_cnn(4, 91)).collect();
    let exec = OocExecutor::new(
        vec![0, 3, 6],
        vec![BlockPolicy::Swap, BlockPolicy::Swap, BlockPolicy::Resident],
        usize::MAX / 2,
        nets[0].len(),
    );
    let xchg = ExchangeSchedule::per_block(exec.n_blocks());
    let report = train(&mut nets, &exec, &xchg, &data, per_worker, 0.05, steps);

    // Reference: plain large-batch training over the same samples.
    let mut reference = small_cnn(4, 91);
    for s in 0..steps {
        let (x, y) = data.batch(s * workers * per_worker, workers * per_worker);
        reference.train_step(&x, &y, 0.05);
    }
    let max_rel = report
        .final_snapshot
        .iter()
        .zip(&reference.snapshot())
        .map(|(a, b)| (a - b).abs() / b.abs().max(1e-3))
        .fold(0.0f32, f32::max);
    assert!(max_rel < 1e-3, "deviation {max_rel} beyond float round-off");
    // And the losses go down (training works, not just matches).
    assert!(report.losses.last().unwrap() <= report.losses.first().unwrap());
}

#[test]
fn budgeted_auto_policy_matches_reference_too() {
    let data = data();
    let net0 = small_cnn(4, 13);
    let (x, y) = data.batch(0, 16);
    let in_core = OocExecutor::in_core(net0.len());
    let (_, _, s) = in_core.grad_step(&net0, &x, &y, |_, _| {});

    // 70% of the in-core peak forces real eviction: no resident suffix
    // of blocks fits, so every block swaps.
    let budget = s.peak_near_bytes * 7 / 10;
    let exec = OocExecutor::new(
        vec![0, 2, 4, 6],
        vec![BlockPolicy::Swap; 4],
        budget,
        net0.len(),
    );

    let mut ooc = small_cnn(4, 13);
    let mut reference = small_cnn(4, 13);
    for step in 0..3 {
        let (x, y) = data.batch(step * 16, 16);
        let (_, st) = exec.train_step(&mut ooc, &x, &y, 0.05);
        assert!(st.peak_near_bytes <= budget, "budget violated");
        reference.train_step(&x, &y, 0.05);
    }
    assert_eq!(ooc.snapshot(), reference.snapshot());
}
