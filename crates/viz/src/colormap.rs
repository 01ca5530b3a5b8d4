//! Color lookup tables for scalar fields.

use std::sync::OnceLock;

/// An RGB color, 8 bits per channel.
pub type Rgb = [u8; 3];

/// A named colormap: maps a normalized scalar in `[0, 1]` to RGB by linear
/// interpolation through fixed control points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Colormap {
    /// Dark blue → green → yellow, perceptually-ordered (viridis-like).
    Viridis,
    /// Black → red → yellow → white (classic "hot").
    Hot,
    /// Blue → white → red diverging map.
    CoolWarm,
    /// Plain grayscale.
    Gray,
}

impl Colormap {
    fn stops(self) -> &'static [Rgb] {
        match self {
            Colormap::Viridis => &[
                [68, 1, 84],
                [59, 82, 139],
                [33, 145, 140],
                [94, 201, 98],
                [253, 231, 37],
            ],
            Colormap::Hot => &[[0, 0, 0], [230, 0, 0], [255, 210, 0], [255, 255, 255]],
            Colormap::CoolWarm => &[[59, 76, 192], [221, 221, 221], [180, 4, 38]],
            Colormap::Gray => &[[0, 0, 0], [255, 255, 255]],
        }
    }

    /// Map normalized value `t` (clamped to `[0, 1]`) to a color.
    pub fn map(self, t: f64) -> Rgb {
        let stops = self.stops();
        let t = if t.is_nan() { 0.0 } else { t.clamp(0.0, 1.0) };
        let scaled = t * (stops.len() - 1) as f64;
        let lo = (scaled.floor() as usize).min(stops.len() - 2);
        let frac = scaled - lo as f64;
        let a = stops[lo];
        let b = stops[lo + 1];
        [
            lerp_u8(a[0], b[0], frac),
            lerp_u8(a[1], b[1], frac),
            lerp_u8(a[2], b[2], frac),
        ]
    }

    /// This colormap's exact step table, built on first use.
    pub(crate) fn table(self) -> &'static StepTable {
        static TABLES: [OnceLock<StepTable>; 4] = [
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
        ];
        TABLES[self as usize].get_or_init(|| StepTable::build(self))
    }
}

fn lerp_u8(a: u8, b: u8, t: f64) -> u8 {
    (a as f64 + (b as f64 - a as f64) * t)
        .round()
        .clamp(0.0, 255.0) as u8
}

/// Buckets of `[0, 1]` indexing a [`StepTable`].
const BUCKETS: usize = 4096;
/// Bit pattern of `1.0`; non-negative `f64`s order like their bit patterns.
const ONE: u64 = 0x3ff0_0000_0000_0000;

/// A run of `t` values sharing one colour, from `from` up to the next step.
struct Step {
    from: f64,
    color: Rgb,
}

/// [`Colormap::map`] tabulated exactly: the map is a step function of `t`,
/// so the table lists every point of `[0, 1]` where its value changes and
/// the colour from there on. [`StepTable::map`] returns the bytes
/// `Colormap::map` does for every `f64`; `Colormap::map` stays the oracle
/// the table is built from and tested against.
///
/// Why bisection finds every step: with round-to-nearest each operation in
/// `Colormap::map` is monotone in its argument, so within one segment of
/// the stops each channel is a monotone function of `t`, ending exactly on
/// the next segment's first value. A colour once left is therefore never
/// returned to before the segment ends, "differs from the current colour"
/// is a monotone predicate there, and bisection over `f64` bit patterns
/// finds the first `t` that satisfies it to the last ulp.
pub(crate) struct StepTable {
    /// Per bucket `b`, the step holding the smallest `t` with
    /// `bucket(t) == b`; the scan in `map` starts there.
    first: Vec<u16>,
    /// Ascending in `from`, closed by a sentinel at +inf.
    steps: Vec<Step>,
}

/// The smallest bit pattern in `(lo, hi]` whose `f64` satisfies the
/// monotone `pred`; `pred` is false at `lo`.
fn first_true(mut lo: u64, mut hi: u64, pred: impl Fn(f64) -> bool) -> Option<u64> {
    if !pred(f64::from_bits(hi)) {
        return None;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if pred(f64::from_bits(mid)) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// The bucket of `t` in `[0, 1]`; monotone in `t`. (`as u32` is the cheaper
/// saturating cast on x86-64: 1.5 ns of the ~8 ns a pixel costs.)
fn bucket(t: f64) -> usize {
    (t * BUCKETS as f64) as u32 as usize
}

impl StepTable {
    fn build(cm: Colormap) -> StepTable {
        let segments = cm.stops().len() - 1;
        let mut color = cm.map(0.0);
        let mut steps = vec![Step { from: 0.0, color }];
        let mut at = 0;
        for k in 1..=segments {
            // Search up to where segment `k` starts, the first `t` with
            // `floor(t * segments) >= k` (true at 1.0, so the fallback is
            // never taken); the last segment takes in 1.0.
            let end = if k == segments {
                ONE
            } else {
                first_true(0, ONE, |t| t * segments as f64 >= k as f64).unwrap_or(ONE)
            };
            while let Some(next) = first_true(at, end, |t| cm.map(t) != color) {
                at = next;
                let from = f64::from_bits(at);
                color = cm.map(from);
                steps.push(Step { from, color });
            }
            at = end;
        }
        // `bucket` is monotone, so every step before `first[b]` starts
        // below every `t` of bucket `b`.
        let mut first = Vec::with_capacity(BUCKETS + 1);
        let mut i = 0;
        for b in 0..=BUCKETS {
            while i + 1 < steps.len() && bucket(steps[i + 1].from) < b {
                i += 1;
            }
            first.push(i as u16);
        }
        steps.push(Step {
            from: f64::INFINITY,
            color: [0; 3],
        });
        StepTable { first, steps }
    }

    /// `max(0).min(1)`, not `clamp`, which passes NaN through: this sends
    /// NaN to 0 like `Colormap::map`'s `is_nan` branch (a `-0.0` that
    /// survives it maps like `+0.0`: `a ± 0.0 = a`).
    #[inline]
    #[allow(clippy::manual_clamp)]
    pub(crate) fn map(&self, t: f64) -> Rgb {
        let t = t.max(0.0).min(1.0);
        let mut i = usize::from(self.first[bucket(t)]);
        while t >= self.steps[i + 1].from {
            i += 1;
        }
        self.steps[i].color
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the in-crate tests run once per map and read a rendered
    /// color's brightness with.
    impl Colormap {
        /// Every colormap.
        pub(crate) const ALL: [Colormap; 4] = [
            Colormap::Viridis,
            Colormap::Hot,
            Colormap::CoolWarm,
            Colormap::Gray,
        ];

        /// Approximate perceived luminance of a color (Rec. 601 weights).
        pub(crate) fn luminance(c: Rgb) -> f64 {
            0.299 * c[0] as f64 + 0.587 * c[1] as f64 + 0.114 * c[2] as f64
        }
    }

    #[test]
    fn endpoints_hit_the_extreme_stops() {
        assert_eq!(Colormap::Gray.map(0.0), [0, 0, 0]);
        assert_eq!(Colormap::Gray.map(1.0), [255, 255, 255]);
        assert_eq!(Colormap::Viridis.map(0.0), [68, 1, 84]);
        assert_eq!(Colormap::Viridis.map(1.0), [253, 231, 37]);
    }

    #[test]
    fn out_of_range_and_nan_clamp() {
        assert_eq!(Colormap::Hot.map(-5.0), Colormap::Hot.map(0.0));
        assert_eq!(Colormap::Hot.map(7.0), Colormap::Hot.map(1.0));
        assert_eq!(Colormap::Hot.map(f64::NAN), Colormap::Hot.map(0.0));
    }

    #[test]
    fn midpoint_interpolates() {
        assert_eq!(Colormap::Gray.map(0.5), [128, 128, 128]);
    }

    #[test]
    fn sequential_maps_increase_in_luminance() {
        for cm in [Colormap::Viridis, Colormap::Hot, Colormap::Gray] {
            let mut prev = -1.0;
            for k in 0..=20 {
                let l = Colormap::luminance(cm.map(k as f64 / 20.0));
                assert!(
                    l >= prev - 3.0,
                    "{cm:?} not monotone-ish at {k}: {l} after {prev}"
                );
                prev = l;
            }
        }
    }

    fn assert_table_matches_oracle(cm: Colormap, t: f64) {
        assert_eq!(
            cm.table().map(t),
            cm.map(t),
            "{cm:?} at t = {t:e} (bits {:#018x})",
            t.to_bits()
        );
    }

    #[test]
    fn step_table_equals_map_on_a_dense_sweep_of_the_unit_interval() {
        const POINTS: u64 = 2_100_000;
        for cm in Colormap::ALL {
            for k in 0..=POINTS {
                assert_table_matches_oracle(cm, k as f64 / POINTS as f64);
            }
        }
    }

    #[test]
    fn step_table_equals_map_outside_the_unit_interval_and_at_its_edges() {
        let specials = [
            -1.0,
            2.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            1.0,
            1.0 - f64::EPSILON / 2.0,
            1.0 + f64::EPSILON,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MAX,
            f64::MIN,
        ];
        for cm in Colormap::ALL {
            for t in specials {
                assert_table_matches_oracle(cm, t);
            }
        }
    }

    #[test]
    fn step_table_equals_map_within_two_ulps_of_every_colour_change() {
        for cm in Colormap::ALL {
            let table = cm.table();
            let changes = &table.steps[1..table.steps.len() - 1];
            // Gray alone has 255 changes; no map can have more than one per
            // channel level per segment.
            assert!((255..=777).contains(&changes.len()), "{cm:?}");
            for step in changes {
                let bits = step.from.to_bits();
                assert_ne!(cm.map(step.from), cm.map(f64::from_bits(bits - 1)));
                for near in bits - 2..=bits + 2 {
                    assert_table_matches_oracle(cm, f64::from_bits(near));
                }
            }
            // The changes the table lists are all there are: walking a
            // coarse grid, the oracle's colour changes between two samples
            // exactly when a listed step lies between them.
            let mut listed = changes.iter().map(|s| s.from).peekable();
            let (mut prev, mut found) = (0.0, 0);
            for k in 1..=1 << 16 {
                let t = k as f64 / (1u64 << 16) as f64;
                let mut crossed = false;
                while listed.next_if(|from| *from <= t).is_some() {
                    crossed = true;
                    found += 1;
                }
                assert_eq!(
                    crossed,
                    cm.map(prev) != cm.map(t),
                    "{cm:?} in ({prev}, {t}]"
                );
                prev = t;
            }
            assert_eq!(found, changes.len());
        }
    }

    #[test]
    fn diverging_map_is_light_in_the_middle() {
        let mid = Colormap::luminance(Colormap::CoolWarm.map(0.5));
        let lo = Colormap::luminance(Colormap::CoolWarm.map(0.0));
        let hi = Colormap::luminance(Colormap::CoolWarm.map(1.0));
        assert!(mid > lo && mid > hi);
    }
}
