//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts: other tenants'
//! load slows every thread by up to about 1.5x, in spells that last
//! from seconds to many minutes, so a slow spell can cover whole runs
//! and no median inside a run removes it. Each run therefore interleaves
//! a fixed reference kernel — this file's own code, which no change to
//! the program touches — with its jobs, and reports every time metric
//! scaled to a host on which one kernel tick takes [`REFERENCE_MS`]:
//! each pass's times become `time × REFERENCE_MS / median tick` over
//! the ticks taken during that pass. A change to the program moves the
//! scaled times exactly as it moves the raw ones; a change of the
//! host's speed moves the ticks too and largely cancels. Each run
//! prints its raw figures and the factors beside the scaled ones.
//!
//! The kernel mixes what the flow spends its time on: integer and
//! floating-point arithmetic, a random walk over a 512 KiB table, and
//! a swap-move annealer over a small netlist. Ticks are taken between
//! jobs, outside every timed region, so the factor samples the host
//! across the whole run.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Median milliseconds of one tick on a quiet 2-vCPU host: the scale
/// that reported times refer to.
pub const REFERENCE_MS: f64 = 8.0;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

fn arithmetic(iters: u64) -> u64 {
    let (mut s, mut f, mut acc) = (0x1234_5678u64, 1.0f64, 0u64);
    for _ in 0..iters {
        let r = xorshift(&mut s);
        f = f * 0.999 + (r & 0xff) as f64 * 1e-3;
        if r & 3 == 0 {
            acc = acc.wrapping_add(r >> 3);
        } else {
            acc ^= r;
        }
    }
    acc ^ f.to_bits()
}

fn random_walk(len: usize, steps: usize) -> u64 {
    let mut s = 0x9E37u64;
    let mut next: Vec<u32> = (0..len as u32).collect();
    for i in (1..len).rev() {
        next.swap(i, (xorshift(&mut s) % (i as u64 + 1)) as usize);
    }
    let (mut i, mut acc) = (0usize, 0u64);
    for _ in 0..steps {
        i = next[i] as usize;
        acc = acc.wrapping_add(i as u64);
    }
    acc
}

fn anneal(cells: usize, moves: usize) -> u64 {
    let side = (cells as f64).sqrt() as i32 + 1;
    let mut s = 0xABCDu64;
    let mut pos: Vec<(i32, i32)> = (0..cells as i32).map(|i| (i % side, i / side)).collect();
    let pick = |s: &mut u64| (xorshift(s) % cells as u64) as usize;
    let nets: Vec<(usize, usize)> = (0..2 * cells)
        .map(|_| (pick(&mut s), pick(&mut s)))
        .collect();
    let mut pins: Vec<Vec<usize>> = vec![Vec::new(); cells];
    for (n, &(a, b)) in nets.iter().enumerate() {
        pins[a].push(n);
        pins[b].push(n);
    }
    let cost = |pos: &[(i32, i32)], c: usize| -> i64 {
        pins[c]
            .iter()
            .map(|&n| {
                let (p, q) = (pos[nets[n].0], pos[nets[n].1]);
                i64::from((p.0 - q.0).abs() + (p.1 - q.1).abs())
            })
            .sum()
    };
    let (mut t, mut kept) = (10.0f64, 0u64);
    for _ in 0..moves {
        let (a, b) = (pick(&mut s), pick(&mut s));
        let before = cost(&pos, a) + cost(&pos, b);
        pos.swap(a, b);
        let delta = (cost(&pos, a) + cost(&pos, b) - before) as f64;
        if delta > 0.0 && (xorshift(&mut s) & 0xffff) as f64 / 65536.0 >= (-delta / t).exp() {
            pos.swap(a, b);
        } else {
            kept += 1;
        }
        t *= 0.99999;
    }
    kept
}

/// One tick of the reference kernel.
fn kernel() -> u64 {
    arithmetic(black_box(600_000))
        ^ random_walk(black_box(1 << 17), 150_000)
        ^ anneal(black_box(4096), 25_000)
}

/// The ticks of one run, and the time they took.
#[derive(Debug, Default)]
pub struct HostSpeed {
    ticks_ms: RefCell<Vec<f64>>,
    spent_s: Cell<f64>,
}

impl HostSpeed {
    /// No ticks yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the reference kernel once and records its time. Call it
    /// between jobs, outside their timers; a [`Stopwatch`] leaves it out.
    pub fn tick(&self) {
        let t = Instant::now();
        black_box(kernel());
        let s = t.elapsed().as_secs_f64();
        self.ticks_ms.borrow_mut().push(s * 1e3);
        self.spent_s.set(self.spent_s.get() + s);
    }

    /// Median tick over [`REFERENCE_MS`]: above 1 when the host ran slow.
    /// 1 before the first tick.
    pub fn factor(&self) -> f64 {
        self.factor_since(0)
    }

    /// [`Self::factor`] over the ticks from the `first`th on.
    pub fn factor_since(&self, first: usize) -> f64 {
        let ticks = self.ticks_ms.borrow();
        match ticks.get(first..) {
            Some(t) if !t.is_empty() => median(t) / REFERENCE_MS,
            _ => 1.0,
        }
    }

    /// Number of ticks taken.
    pub fn ticks(&self) -> usize {
        self.ticks_ms.borrow().len()
    }

    /// Starts a wall-clock timer that leaves out the ticks taken while
    /// it runs.
    pub fn stopwatch(&self) -> Stopwatch<'_> {
        Stopwatch {
            speed: self,
            start: Instant::now(),
            spent_at_start: self.spent_s.get(),
        }
    }
}

/// A wall-clock timer that leaves out ticks (see [`HostSpeed::stopwatch`]).
pub struct Stopwatch<'a> {
    speed: &'a HostSpeed,
    start: Instant,
    spent_at_start: f64,
}

impl Stopwatch<'_> {
    /// Seconds since the start, less the ticks taken since.
    pub fn seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64() - (self.speed.spent_s.get() - self.spent_at_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn stopwatch_leaves_ticks_out() {
        let speed = HostSpeed::new();
        assert_eq!(speed.factor(), 1.0);
        let watch = speed.stopwatch();
        speed.tick();
        speed.tick();
        assert_eq!(speed.ticks(), 2);
        assert!(speed.factor() > 0.0);
        assert!(watch.seconds() < 1e-3, "{}", watch.seconds());
    }
}
