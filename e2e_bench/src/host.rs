//! Host-speed calibration.
//!
//! The shared 2-core machines this benchmark is sized for change speed by
//! up to 2× within seconds, and not uniformly: a neighbour's load slows
//! scanning and allocation-heavy code while a pure ALU loop or random
//! access into an L2-sized table keeps its speed. Medians inside one run
//! cannot remove that, because a whole run can fall into a slow or a fast
//! stretch. So every end-to-end time is measured next to a fixed
//! calibration kernel, which is benchmark code and not repository code,
//! and scaled to a fixed reference speed:
//! `reported = raw × reference_ms / kernel_ms`. A change to the repository
//! moves `raw` but not `kernel_ms`, so it shows in full.
//!
//! The kernel has two parts, because the two kinds of measured code follow
//! different ones. Its scan part (UTF-8 validation of the rest of a
//! buffer at every 64th byte) is what the db's JSON parser does on every
//! manifest read, and `CoverageDb::refresh` kept within ±5 % of a fixed
//! multiple of it while its own time moved by 2×. Its alloc part (a
//! `BTreeMap<String, _>` built from quoted keys) kept a compiled-simulator
//! build and replay within ±4 % in the same probe. Db times (queries, open)
//! are scaled by the scan part, campaign times by the alloc part.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Times of the kernel's two parts, in ms.
#[derive(Debug, Clone, Copy)]
pub struct Speed {
    pub scan_ms: f64,
    pub alloc_ms: f64,
}

/// The speed reported times are scaled to: the kernel's typical times
/// inside a benchmark run on the 2-core, 2.1 GHz Xeon container the
/// benchmark was tuned on, so that scaled and raw times agree there at a
/// typical host speed. Only ratios between runs on one machine matter.
pub const REFERENCE: Speed = Speed {
    scan_ms: 0.55,
    alloc_ms: 0.37,
};

/// Scale `raw` (any unit), measured while a kernel part took `part_ms`, to
/// that part's `reference_ms`.
pub fn to_reference(raw: f64, part_ms: f64, reference_ms: f64) -> f64 {
    raw * reference_ms / part_ms
}

/// The calibration kernel and its fixed input.
pub struct Kernel {
    text: Vec<u8>,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    pub fn new() -> Self {
        let mut text = String::from("{");
        let mut x = 1u64;
        for i in 0..600 {
            x = lcg(x);
            text.push_str(&format!(
                "\"top.inst{}.sig_{:x}\": {},",
                i % 37,
                x >> 40,
                x % 1000
            ));
        }
        text.push('}');
        Kernel {
            text: text.into_bytes(),
        }
    }

    fn scan(&self) -> u64 {
        let text = black_box(&self.text[..]);
        let mut acc = 0u64;
        for _ in 0..4 {
            for start in (0..text.len()).step_by(64) {
                acc += std::str::from_utf8(&text[start..]).map_or(0, str::len) as u64;
            }
        }
        acc
    }

    fn alloc(&self) -> u64 {
        let text = black_box(&self.text[..]);
        let mut acc = 0u64;
        for _ in 0..2 {
            let mut keys: BTreeMap<String, u64> = BTreeMap::new();
            let mut open = None;
            for (i, &b) in text.iter().enumerate() {
                if b == b'"' {
                    match open.take() {
                        None => open = Some(i + 1),
                        Some(s) => {
                            let key = String::from_utf8_lossy(&text[s..i]).into_owned();
                            *keys.entry(key).or_default() += 1;
                        }
                    }
                }
            }
            acc += keys.len() as u64;
        }
        acc
    }

    /// Each part timed once after an untimed run (so the kernel never pays
    /// for the caches the measured code left behind).
    pub fn sample(&self) -> Speed {
        let timed = |part: &dyn Fn() -> u64| {
            black_box(part());
            let t = Instant::now();
            black_box(part());
            t.elapsed().as_secs_f64() * 1e3
        };
        Speed {
            scan_ms: timed(&|| self.scan()),
            alloc_ms: timed(&|| self.alloc()),
        }
    }
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}
