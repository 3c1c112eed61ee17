//! `dashbench` — the dashboard's end-to-end and per-layer benchmark.
//!
//! The benchmark stands up a simulated site ([`hpcdash::SimSite`]), serves
//! it on loopback, and drives it with one of three seeded traffic mixes
//! ([`workload::Workload`]). The untraced run ([`wire`]) measures what a
//! user sees; the traced run ([`traced`]) replays the same schedule
//! in-process with benchmark-side spans around each layer's public calls.
//! Every response is checked ([`check`]) and counted.
//!
//! Nothing here changes the program: layers are timed from outside and
//! their counters are read before and after.

pub mod check;
pub mod counters;
pub mod measure;
pub mod report;
pub mod traced;
pub mod wire;
pub mod workload;

/// SplitMix64: the benchmark's only randomness, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The machine's parallelism: the generator never opens more threads or
/// connections than this.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
