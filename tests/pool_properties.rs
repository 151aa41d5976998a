//! Property tests for the scoped worker pool: ordered reduction must hold
//! for arbitrary task/worker shapes, and a panicking task must surface as
//! a typed error — never abort the process or scramble the output order.
//! One worker must behave like many: the same results, the same errors.

use riskroute_par::{try_par_fold, try_par_map_collect, Parallelism, PoolError, FOLD_WAVE};
use riskroute_rng::StdRng;

fn par_map_collect<T: Sync, R: Send>(
    par: Parallelism,
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    try_par_map_collect(par, items, f).unwrap()
}

const CASES: usize = 40;

#[test]
fn par_map_collect_preserves_input_order_for_arbitrary_shapes() {
    let mut rng = StdRng::seed_from_u64(0x9a11e7);
    for case in 0..CASES {
        // Cover the degenerate shapes explicitly, then fuzz: empty input,
        // a single task, and task counts far above the worker count.
        let tasks = match case {
            0 => 0usize,
            1 => 1,
            2 => 1_000,
            _ => rng.gen_range(0..200usize),
        };
        let workers = match case {
            2 => 2usize, // tasks >> workers
            _ => rng.gen_range(1..12usize),
        };
        let items: Vec<u64> = (0..tasks).map(|_| rng.next_u64() >> 16).collect();
        let par = Parallelism::from_worker_count(workers);
        let out = par_map_collect(par, &items, |idx, &x| (idx, x.wrapping_mul(3)));
        assert_eq!(
            out.len(),
            items.len(),
            "case {case}: length must match input"
        );
        for (i, (idx, mapped)) in out.iter().enumerate() {
            assert_eq!(*idx, i, "case {case}: slot {i} holds another task's result");
            assert_eq!(
                *mapped,
                items[i].wrapping_mul(3),
                "case {case}: slot {i} value"
            );
        }
    }
}

#[test]
fn parallel_matches_sequential_for_random_shapes() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for case in 0..CASES {
        let tasks = rng.gen_range(0..150usize);
        let workers = rng.gen_range(2..9usize);
        let items: Vec<u64> = (0..tasks).map(|_| rng.next_u64()).collect();
        let f = |idx: usize, x: &u64| x.rotate_left(u32::try_from(idx % 64).unwrap_or(0));
        let sequential = par_map_collect(Parallelism::Sequential, &items, f);
        let parallel = par_map_collect(Parallelism::Threads(workers), &items, f);
        assert_eq!(
            sequential, parallel,
            "case {case}: {tasks} tasks x {workers} workers"
        );
    }
}

#[test]
fn panicking_task_surfaces_as_typed_pool_error() {
    let mut rng = StdRng::seed_from_u64(0xdead);
    for workers in [1usize, 2, 8] {
        let tasks = rng.gen_range(10..60usize);
        let poison = rng.gen_range(0..tasks);
        let items: Vec<usize> = (0..tasks).collect();
        let result =
            try_par_map_collect(Parallelism::from_worker_count(workers), &items, |_, &x| {
                assert_ne!(x, poison, "deliberate test panic");
                x
            });
        let Err(err) = result else {
            panic!("{workers} workers: a panicking task must poison the pool")
        };
        assert!(
            matches!(err, PoolError::WorkerPanicked { panicked } if panicked >= 1),
            "{workers} workers: expected WorkerPanicked, got {err:?}"
        );
        // The CLI maps this through the core taxonomy to exit code 7.
        let core: riskroute::Error = err.into();
        assert!(
            matches!(core, riskroute::Error::WorkerPanic { panicked } if panicked >= 1),
            "core error must keep the panic count, got {core:?}"
        );
        assert!(core.to_string().contains("worker pool poisoned"));
    }
}

#[test]
fn pool_survives_a_poisoned_run_and_stays_ordered_afterwards() {
    // A panic in one call must not leak state into the next: each call
    // owns its scope, so a fresh call right after a poisoning succeeds.
    let items: Vec<usize> = (0..64).collect();
    let par = Parallelism::Threads(4);
    let poisoned = try_par_map_collect(par, &items, |_, &x| {
        assert!(x != 17, "deliberate test panic");
        x
    });
    assert!(poisoned.is_err());
    let clean = try_par_map_collect(par, &items, |idx, &x| idx + x).unwrap();
    assert_eq!(clean, items.iter().map(|&x| 2 * x).collect::<Vec<_>>());
}

/// The worker counts every one-worker-vs-many table runs at.
const FOLD_MATRIX: [Parallelism; 3] = [
    Parallelism::Sequential,
    Parallelism::Threads(2),
    Parallelism::Threads(8),
];

/// An `f64` sum through the fold, skipping non-finite items the way the
/// provisioning scorer does: the one-worker unit adds into the caller's
/// total, a pooled unit into a `-0.0` part merged in input order.
fn fold_sum(par: Parallelism, items: &[f64], init: f64) -> f64 {
    let mut total = init;
    try_par_fold(
        par,
        items,
        &mut total,
        || -0.0,
        |&x, acc: &mut f64| {
            if x.is_finite() {
                *acc += x;
            }
        },
        |acc, part| *acc += part,
    )
    .unwrap();
    total
}

#[test]
fn fold_sum_is_bit_identical_at_every_worker_count() {
    let mut rng = StdRng::seed_from_u64(0xf01d);
    let long: Vec<f64> = (0..3 * FOLD_WAVE + 7)
        .map(|i| match i % 97 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => -0.0,
            _ => (rng.next_u64() >> 11) as f64 * 1e-9 - 4e6,
        })
        .collect();
    // (items, initial total): signed zeros, a skipped item at either end,
    // and a sum long enough to span several waves with float rounding.
    let table: [(&[f64], f64); 7] = [
        (&[], -0.0),
        (&[-0.0], -0.0),
        (&[-0.0, -0.0], -0.0),
        (&[0.0, -0.0], -0.0),
        (&[f64::NAN, -0.0], -0.0),
        (&[1e16, 1.0, -1e16, 1.0, f64::INFINITY], 0.0),
        (&long, 0.0),
    ];
    for (row, &(items, init)) in table.iter().enumerate() {
        let want = fold_sum(Parallelism::Sequential, items, init);
        let plain = items
            .iter()
            .filter(|x| x.is_finite())
            .fold(init, |acc, &x| acc + x);
        assert_eq!(
            want.to_bits(),
            plain.to_bits(),
            "row {row}: one worker is the plain loop"
        );
        for par in FOLD_MATRIX {
            let got = fold_sum(par, items, init);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "row {row} at {par}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn fold_panic_is_a_typed_error_at_every_worker_count() {
    let items: Vec<usize> = (0..FOLD_WAVE + 40).collect();
    for poison in [0, 77, FOLD_WAVE + 39] {
        for par in FOLD_MATRIX {
            let mut total = 0usize;
            let err = try_par_fold(
                par,
                &items,
                &mut total,
                || 0,
                |&x, acc: &mut usize| {
                    assert_ne!(x, poison, "deliberate test panic");
                    *acc += x;
                },
                |acc, part| *acc += part,
            )
            .unwrap_err();
            assert!(
                matches!(err, PoolError::WorkerPanicked { panicked } if panicked >= 1),
                "poison {poison} at {par}: expected WorkerPanicked, got {err:?}"
            );
        }
    }
}
