//! Host-speed calibration.
//!
//! On a shared host a core's speed drifts with its neighbours' load: the
//! same `riskroute route` takes 170 ms or 290 ms for tens of seconds at a
//! time, and so does any fixed piece of work measured beside it. The
//! benchmark therefore runs a fixed calibration loop on the core a unit
//! runs on, just before it, and reports every time scaled by
//! [`REFERENCE_MS`] / (the loop's time): the time the unit would have taken
//! on a core running the loop in [`REFERENCE_MS`]. The ratio of a unit's
//! time to the loop's time is what stays put while the host drifts.

use std::hint::black_box;
use std::time::Instant;

/// The calibration loop's wall time on an idle core of the reference host
/// (a 2-vCPU x86-64 VM at 2.1 GHz). On such a core, calibrated times equal
/// wall times.
pub const REFERENCE_MS: f64 = 12.5;

/// Table size and step count of the loop: xorshift-indexed loads and stores
/// over 4 MiB, a mix of arithmetic and cache misses like the engine's.
const TABLE: usize = 1 << 19;
const STEPS: usize = 6_000_000;

/// A reusable calibration loop (its table is allocated once).
pub struct Calibrator {
    table: Vec<u64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            table: (0..TABLE as u64).collect(),
        }
    }
}

impl Calibrator {
    /// Run the loop once; the factor turning wall time measured on this
    /// core now into calibrated time.
    pub fn factor(&mut self) -> f64 {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut acc = 0u64;
        let start = Instant::now();
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (TABLE - 1);
            acc = acc.wrapping_add(self.table[i]);
            self.table[i] = acc;
        }
        black_box(acc);
        REFERENCE_MS / (start.elapsed().as_secs_f64() * 1e3)
    }
}

/// How long an in-process workload runs between calibrations.
pub const SLICE_S: f64 = 0.25;

/// Unit latencies as the wall clock read them, each with the calibration
/// factor of the slice it ran in.
#[derive(Debug, Default)]
pub struct Samples {
    pub wall_ms: Vec<f64>,
    pub factors: Vec<f64>,
}

impl Samples {
    pub fn len(&self) -> usize {
        self.wall_ms.len()
    }

    /// Append `other`'s units.
    pub fn extend(&mut self, other: Samples) {
        self.wall_ms.extend(other.wall_ms);
        self.factors.extend(other.factors);
    }

    /// Deal the units round-robin into `n` sets: unit `i` goes to set
    /// `i % n`, which undoes taking turns between `n` kinds of unit.
    pub fn deal(self, n: usize) -> Vec<Samples> {
        let mut sets: Vec<Samples> = (0..n).map(|_| Samples::default()).collect();
        for (i, (ms, f)) in self.wall_ms.into_iter().zip(self.factors).enumerate() {
            sets[i % n].wall_ms.push(ms);
            sets[i % n].factors.push(f);
        }
        sets
    }

    /// The latencies in calibrated milliseconds.
    pub fn calibrated(&self) -> Vec<f64> {
        self.wall_ms
            .iter()
            .zip(&self.factors)
            .map(|(ms, f)| ms * f)
            .collect()
    }
}

/// A timed phase cut into slices. Each slice is scaled by the mean of the
/// calibrations taken when it opens and when it closes, so drift during
/// the slice is split evenly; calibrating takes no slice time.
pub struct Slices<F> {
    calibrate: F,
    slice_s: f64,
    opening: f64,
    opened: Instant,
    first_unit: usize,
    units: Samples,
    calibrated_s: f64,
}

impl<F: FnMut() -> Result<f64, String>> Slices<F> {
    /// Open the first slice. [`Self::next`] closes a slice once `slice_s`
    /// has passed (0: after every unit).
    pub fn start(slice_s: f64, mut calibrate: F) -> Result<Self, String> {
        let opening = calibrate()?;
        Ok(Slices {
            calibrate,
            slice_s,
            opening,
            opened: Instant::now(),
            first_unit: 0,
            units: Samples::default(),
            calibrated_s: 0.0,
        })
    }

    /// Call before each unit: closes the slice when it is due.
    pub fn next(&mut self) -> Result<(), String> {
        if self.units.len() > self.first_unit && self.opened.elapsed().as_secs_f64() >= self.slice_s
        {
            self.close()?;
        }
        Ok(())
    }

    /// Record a unit of the current slice.
    pub fn push(&mut self, wall_ms: f64) {
        self.units.wall_ms.push(wall_ms);
        self.units.factors.push(self.opening);
    }

    /// The factor the current slice opened with, for timings that cannot
    /// wait for its close.
    pub fn factor(&self) -> f64 {
        self.opening
    }

    /// Close the current slice now and open the next.
    pub fn close(&mut self) -> Result<(), String> {
        let wall_s = self.opened.elapsed().as_secs_f64();
        let closing = (self.calibrate)()?;
        let factor = (self.opening + closing) / 2.0;
        for f in &mut self.units.factors[self.first_unit..] {
            *f = factor;
        }
        self.calibrated_s += wall_s * factor;
        self.opening = closing;
        self.first_unit = self.units.len();
        self.opened = Instant::now();
        Ok(())
    }

    /// Close the phase: its units, and its calibrated time in seconds.
    pub fn finish(mut self) -> Result<(Samples, f64), String> {
        self.close()?;
        Ok((self.units, self.calibrated_s))
    }
}

/// Run `work`, scaled by the mean of the calibrations `calibrate` takes
/// before and after it: its output and its calibrated seconds.
pub fn timed<T>(
    mut calibrate: impl FnMut() -> Result<f64, String>,
    work: impl FnOnce() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let before = calibrate()?;
    let start = Instant::now();
    let out = work()?;
    let wall_s = start.elapsed().as_secs_f64();
    let after = calibrate()?;
    Ok((out, wall_s * (before + after) / 2.0))
}

/// `cpu_set_t` of glibc: a 1024-bit mask.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The cores this thread may run on.
fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable value of exactly the size passed,
    // laid out as glibc's `cpu_set_t`; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok((0..1024)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect())
}

/// Confine the calling thread, and the threads and children it starts from
/// now on, to one core.
fn pin_to(cpu: usize) -> Result<(), String> {
    if cpu >= 1024 {
        return Err(format!("cpu {cpu} is outside the affinity mask"));
    }
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live value of exactly the size passed, laid out
    // as glibc's `cpu_set_t`; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity({cpu}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Pin the calling thread to the first core it may run on, so the
/// calibration loop and the units it scales share that core.
pub fn pin_to_first() -> Result<(), String> {
    let cpus = allowed_cpus()?;
    pin_to(*cpus.first().ok_or("no core is allowed")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affinity_round_trips() {
        let cpus = allowed_cpus().expect("readable affinity");
        assert!(!cpus.is_empty());
        std::thread::spawn(move || {
            pin_to(cpus[0]).expect("pin to an allowed core");
            assert_eq!(allowed_cpus().expect("readable affinity"), vec![cpus[0]]);
        })
        .join()
        .expect("thread ran");
    }

    #[test]
    fn factor_is_positive_and_finite() {
        let f = Calibrator::default().factor();
        assert!(f.is_finite() && f > 0.0, "{f}");
    }
}
