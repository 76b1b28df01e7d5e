//! Machine-speed calibration of the end-to-end times.
//!
//! The benchmark's host shares its cores with other work, and how fast
//! they run for this process shifts by up to 1.6x from one second to the
//! next (NOTES.md "Steadiness"). While phases are timed, one sampler
//! thread per CPU wakes every [`PROBE_EVERY`] and times a short, fixed
//! computation on its CPU. A phase's time is then reported in
//! reference-machine seconds: its wall time scaled by how much slower
//! than [`PROBE_NOMINAL_S`] the probes ran on its CPUs meanwhile. A change
//! to the program moves the phase and leaves the probes alone; a change
//! in machine speed moves both.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A round figure for one [`probe_s`] on the 2-vCPU host NOTES.md
/// describes, where it reads 75 to 130 µs; calibrated times are the wall
/// times of a host whose probe takes exactly this long.
pub const PROBE_NOMINAL_S: f64 = 0.000_10;

/// How often each sampler times a probe.
const PROBE_EVERY: Duration = Duration::from_millis(20);

/// A phase with fewer probes than this inside it also counts the probes
/// up to [`PROBE_MARGIN`] either side of it.
const MIN_PROBES: usize = 9;
const PROBE_MARGIN: Duration = Duration::from_millis(100);

/// CPUs sampled at most.
const MAX_CPUS: usize = 8;

/// Probes kept per pacer. The buffer is allocated up front and never
/// grows, so the samplers allocate nothing while phases are measured and
/// the phases' allocation counts stay exact.
const MAX_PROBES: usize = 8192;

/// The buffers a probe works in, allocated before any phase is timed:
/// the samplers must allocate nothing while phases are measured, so that
/// the phases' allocation counts stay exact.
struct ProbeBuf {
    keys: Vec<u64>,
    table: Vec<u64>,
    text: String,
}

impl ProbeBuf {
    fn new() -> ProbeBuf {
        ProbeBuf {
            keys: vec![0; 1500],
            table: vec![0; 2048],
            text: String::with_capacity(64),
        }
    }
}

/// One probe: a little of each kind of work the pipeline does (floating
/// point, a sort, hashed inserts with text formatting) on a few pages of
/// memory, so it measures the CPU's speed and barely disturbs the caches
/// of the phase it interrupts.
fn probe_s(buf: &mut ProbeBuf) -> f64 {
    use std::fmt::Write;
    let t = Instant::now();
    let mut v = [1.0f64; 64];
    for k in 0..60 {
        for (i, e) in v.iter_mut().enumerate() {
            *e = (*e * 1.000_001 + (i + k) as f64).ln().exp() * 0.5;
        }
    }
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for key in buf.keys.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *key = x;
    }
    buf.keys.sort_unstable();
    buf.table.fill(0);
    let mask = buf.table.len() - 1;
    for &key in buf.keys.iter().step_by(3) {
        let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & mask;
        while buf.table[slot] != 0 {
            slot = (slot + 1) & mask;
        }
        buf.table[slot] = key | 1;
        buf.text.clear();
        let _ = write!(buf.text, "{key:x}");
    }
    black_box((v, &buf.table, &buf.text));
    t.elapsed().as_secs_f64()
}

/// A timed phase: its wall time, when it ran, and (once
/// [`Pacer::settle`] has run) the median probe time on its CPUs.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub wall_s: f64,
    pub reference_s: f64,
    start: Instant,
    end: Instant,
    /// Calibrated by every CPU's probes, not only the pacer's home CPU.
    spread: bool,
}

impl Timed {
    /// The phase's time in reference-machine seconds.
    pub fn calibrated_s(self) -> f64 {
        self.wall_s * PROBE_NOMINAL_S / self.reference_s
    }
}

type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

fn affinity() -> Option<CpuSet> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: the kernel writes at most `size` bytes into the mask; pid 0
    // is the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    (got == 0).then_some(mask)
}

fn set_affinity(mask: &CpuSet) -> bool {
    // SAFETY: the mask is a valid, fully initialised cpu set of the size
    // passed; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
}

fn only(cpu: usize) -> CpuSet {
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    mask
}

/// One probe result: the CPU it ran on, when it ended, how long it took.
type Probe = (usize, Instant, f64);

/// Times phases against the samplers' probes. The calling thread is held
/// on one CPU while the pacer lives, so a single-threaded phase and the
/// probes it is calibrated by meet the same CPU; [`Pacer::time_spread`]
/// gives a multi-threaded phase every CPU back and calibrates it by all
/// of them. Dropping the pacer stops and joins the samplers.
pub struct Pacer {
    all: Option<CpuSet>,
    home: Option<usize>,
    stop: Arc<AtomicBool>,
    probes: Arc<Mutex<Vec<Probe>>>,
    samplers: Vec<JoinHandle<()>>,
}

impl Pacer {
    pub fn new() -> Pacer {
        let all = affinity();
        let sampled: Vec<usize> = match &all {
            Some(mask) => (0..1024)
                .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
                .take(MAX_CPUS)
                .collect(),
            None => Vec::new(),
        };
        let stop = Arc::new(AtomicBool::new(false));
        let probes = Arc::new(Mutex::new(Vec::with_capacity(MAX_PROBES)));
        let ready = Arc::new(Barrier::new(sampled.len() + 1));
        let samplers = sampled
            .iter()
            .map(|&cpu| {
                let (stop, probes) = (Arc::clone(&stop), Arc::clone(&probes));
                let ready = Arc::clone(&ready);
                std::thread::spawn(move || {
                    let pinned = set_affinity(&only(cpu));
                    let mut buf = ProbeBuf::new();
                    ready.wait();
                    while pinned && !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(PROBE_EVERY);
                        let s = probe_s(&mut buf);
                        let mut probes = probes.lock().unwrap();
                        if probes.len() < MAX_PROBES {
                            probes.push((cpu, Instant::now(), s));
                        }
                    }
                })
            })
            .collect();
        ready.wait();
        let home = sampled.first().copied().filter(|&c| set_affinity(&only(c)));
        Pacer {
            all,
            home,
            stop,
            probes,
            samplers,
        }
    }

    /// Time a single-threaded phase.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> (R, Timed) {
        timed(f, false)
    }

    /// Time a phase that runs on more than one thread, with every CPU
    /// given back to it.
    pub fn time_spread<R>(&self, f: impl FnOnce() -> R) -> (R, Timed) {
        timed(
            || {
                if let (Some(all), Some(_)) = (&self.all, self.home) {
                    set_affinity(all);
                }
                let out = f();
                if let Some(h) = self.home {
                    set_affinity(&only(h));
                }
                out
            },
            true,
        )
    }

    /// Fill in the reference time of every phase timed so far. Waits
    /// until the samplers have probed past the last phase's margin.
    pub fn settle<'a>(&self, phases: impl IntoIterator<Item = &'a mut Timed>) {
        std::thread::sleep(PROBE_MARGIN + PROBE_EVERY);
        let probes = self.probes.lock().unwrap();
        for phase in phases {
            let on = |cpu: usize| phase.spread || self.home.is_none_or(|h| h == cpu);
            let within = |from: Instant, to: Instant| -> Vec<f64> {
                probes
                    .iter()
                    .filter(|&&(cpu, at, _)| on(cpu) && at >= from && at <= to)
                    .map(|&(_, _, s)| s)
                    .collect()
            };
            let mut times = within(phase.start, phase.end);
            if times.len() < MIN_PROBES {
                let from = phase.start.checked_sub(PROBE_MARGIN).unwrap_or(phase.start);
                times = within(from, phase.end + PROBE_MARGIN);
            }
            if times.is_empty() {
                times.push(probe_s(&mut ProbeBuf::new()));
            }
            phase.reference_s = crate::record::median(&times);
        }
    }
}

fn timed<R>(f: impl FnOnce() -> R, spread: bool) -> (R, Timed) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    let timed = Timed {
        wall_s: (end - start).as_secs_f64(),
        reference_s: f64::NAN,
        start,
        end,
        spread,
    };
    (out, timed)
}

impl Drop for Pacer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for s in self.samplers.drain(..) {
            let _ = s.join();
        }
        if let Some(all) = &self.all {
            set_affinity(all);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_get_a_reference_time_from_the_probes() {
        let pacer = Pacer::new();
        let (_, short) = pacer.time(|| probe_s(&mut ProbeBuf::new()));
        let (_, long) = pacer.time_spread(|| {
            let end = Instant::now() + Duration::from_millis(300);
            while Instant::now() < end {
                black_box(probe_s(&mut ProbeBuf::new()));
            }
        });
        let mut phases = [short, long];
        pacer.settle(phases.iter_mut());
        for phase in phases {
            assert!(phase.reference_s > 0.0 && phase.reference_s.is_finite());
            assert!(phase.calibrated_s() > 0.0 && phase.calibrated_s().is_finite());
        }
    }
}
