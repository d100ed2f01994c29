//! Deterministic randomness helpers for the generators.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Url;

/// Creates a seeded RNG. All generation in the workspace flows from
/// explicit seeds so every experiment is exactly reproducible.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Picks an index according to `weights` (need not be normalized).
///
/// # Panics
///
/// Panics if `weights` is empty or sums to zero.
pub fn pick_weighted(rng: &mut StdRng, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "weights must be non-empty");
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must sum to a positive value");
    scan_weighted(weights, rng.gen_range(0.0..total))
}

/// The subtractive scan behind a weighted pick: the index whose weight
/// interval holds `needle` (the last index if rounding runs past the
/// end).
fn scan_weighted(weights: &[f64], mut needle: f64) -> usize {
    for (i, w) in weights.iter().enumerate() {
        if needle < *w {
            return i;
        }
        needle -= w;
    }
    weights.len() - 1
}

/// The listing rotation every traffic source shares: base weights plus
/// additive boosts on some slots inside virtual-time windows (exchange
/// campaigns, ad-network flights). The effective weights and their
/// total are cached per set of active windows, so a pick is one draw
/// and one scan; it draws exactly what [`pick_weighted`] over the
/// per-step effective weights would, or `gen_range(0..len)` when the
/// total is not positive.
#[derive(Debug, Clone)]
pub struct Rotation {
    base: Vec<f64>,
    windows: Vec<Boost>,
    /// Which windows were active when `weights` was computed.
    active: Vec<bool>,
    weights: Vec<f64>,
    total: f64,
}

/// An additive boost on `slots` while the virtual time is in `span`.
#[derive(Debug, Clone)]
struct Boost {
    slots: Vec<usize>,
    span: Range<u64>,
    amount: f64,
}

impl Rotation {
    /// A rotation over slots with the given base weights.
    pub fn new(base: Vec<f64>) -> Self {
        Rotation { base, windows: Vec::new(), active: Vec::new(), weights: Vec::new(), total: 0.0 }
    }

    /// Appends a slot with base weight `weight`.
    pub fn push_slot(&mut self, weight: f64) {
        self.base.push(weight);
    }

    /// Adds `amount` to each of `slots` while the virtual time is in
    /// `span`. A slot's boosts are summed in the order added, then
    /// added to its base weight.
    pub fn add_window(&mut self, slots: Vec<usize>, span: Range<u64>, amount: f64) {
        self.windows.push(Boost { slots, span, amount });
    }

    /// Picks a slot at virtual time `t`. Panics if there are no slots.
    pub fn pick(&mut self, t: u64, rng: &mut StdRng) -> usize {
        self.refresh(t);
        if self.total <= 0.0 {
            rng.gen_range(0..self.base.len())
        } else {
            scan_weighted(&self.weights, rng.gen_range(0.0..self.total))
        }
    }

    /// Recomputes the cached weights unless they were computed for the
    /// same slots, windows and set of active windows.
    fn refresh(&mut self, t: u64) {
        let fresh = self.weights.len() == self.base.len()
            && self.active.len() == self.windows.len()
            && self.windows.iter().zip(&self.active).all(|(w, &on)| w.span.contains(&t) == on);
        if fresh {
            return;
        }
        self.active = self.windows.iter().map(|w| w.span.contains(&t)).collect();
        let on = || self.windows.iter().zip(&self.active).filter(|(_, &on)| on).map(|(w, _)| w);
        self.weights = (0..self.base.len())
            .map(|i| {
                let boost: f64 = on().filter(|w| w.slots.contains(&i)).map(|w| w.amount).sum();
                self.base[i] + boost
            })
            .collect();
        self.total = self.weights.iter().sum();
    }
}

/// Samples a heavy-tailed hit count in `[min, max]` using a bounded
/// Pareto-ish inverse-CDF. Shortened-URL hit counts in the paper span
/// 1.7k .. 4.45M, i.e. three orders of magnitude — a uniform draw in
/// log-space captures that spread.
pub fn heavy_tail(rng: &mut StdRng, min: u64, max: u64) -> u64 {
    assert!(min >= 1 && max > min, "need 1 <= min < max");
    let lo = (min as f64).ln();
    let hi = (max as f64).ln();
    let x = rng.gen_range(lo..hi);
    (x.exp() as u64).clamp(min, max)
}

/// `base` with a random tracking query `?key=<len chars>` seven times in
/// ten, else `base` itself. Traffic sources tag the URLs they serve this
/// way, which is why distinct URLs pile up per domain in the corpus.
pub fn tag_url(rng: &mut StdRng, base: &Url, key: &str, len: usize) -> Url {
    if rng.gen_bool(0.7) {
        base.with_path(&format!("{}?{key}={}", base.path(), path_token(rng, len)))
    } else {
        base.clone()
    }
}

/// Lower-case syllables used to mint plausible, clearly synthetic
/// domain names.
const SYLLABLES: [&str; 24] = [
    "zor", "mix", "tra", "vel", "net", "lux", "pix", "dro", "kal", "ben", "sto", "ria", "cli",
    "qua", "fen", "mar", "tek", "sol", "vix", "nom", "pra", "dul", "hit", "sur",
];

/// Generates a synthetic domain name (without TLD), 2–4 syllables.
pub fn domain_stem(rng: &mut StdRng) -> String {
    let n = rng.gen_range(2..=4);
    let mut s = String::new();
    for _ in 0..n {
        s.push_str(SYLLABLES[rng.gen_range(0..SYLLABLES.len())]);
    }
    s
}

/// Generates a short random path token (for shortener codes and page
/// paths).
pub fn path_token(rng: &mut StdRng, len: usize) -> String {
    const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
    (0..len).map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn seeded_is_deterministic() {
        let a: Vec<u32> = {
            let mut r = seeded(7);
            (0..5).map(|_| r.gen()).collect()
        };
        let b: Vec<u32> = {
            let mut r = seeded(7);
            (0..5).map(|_| r.gen()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_pick_respects_zero_weights() {
        let mut rng = seeded(1);
        for _ in 0..100 {
            let i = pick_weighted(&mut rng, &[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
    }

    #[test]
    fn weighted_pick_roughly_proportional() {
        let mut rng = seeded(2);
        let mut counts = [0usize; 2];
        for _ in 0..10_000 {
            counts[pick_weighted(&mut rng, &[3.0, 1.0])] += 1;
        }
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((2.4..3.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn weighted_pick_empty_panics() {
        pick_weighted(&mut seeded(0), &[]);
    }

    #[test]
    fn heavy_tail_in_range_and_spread() {
        let mut rng = seeded(3);
        let samples: Vec<u64> = (0..500).map(|_| heavy_tail(&mut rng, 1_000, 5_000_000)).collect();
        assert!(samples.iter().all(|&s| (1_000..=5_000_000).contains(&s)));
        let below_100k = samples.iter().filter(|&&s| s < 100_000).count();
        let above_1m = samples.iter().filter(|&&s| s > 1_000_000).count();
        // Log-uniform: both tails must be populated.
        assert!(below_100k > 50, "low tail {below_100k}");
        assert!(above_1m > 20, "high tail {above_1m}");
    }

    #[test]
    fn domain_stems_are_dns_safe() {
        let mut rng = seeded(4);
        for _ in 0..100 {
            let d = domain_stem(&mut rng);
            assert!(!d.is_empty());
            assert!(d.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn path_tokens_have_requested_length() {
        let mut rng = seeded(5);
        assert_eq!(path_token(&mut rng, 6).len(), 6);
        assert_eq!(path_token(&mut rng, 0).len(), 0);
    }

    /// A boost window over every slot whose key equals `target`, the way
    /// the traffic sources schedule campaigns and flights.
    #[derive(Debug, Clone)]
    struct Window {
        target: u8,
        span: Range<u64>,
        boost: f64,
    }

    #[derive(Debug, Clone)]
    enum Op {
        Draw(u64),
        Schedule(Window),
    }

    /// The per-step rotation every source ran before [`Rotation`]:
    /// rebuild the effective weights, sum them, then fall back to a
    /// uniform draw or call `pick_weighted`. Returns the weights, the
    /// index and whether an active window targets it.
    fn per_step_pick(
        keys: &[u8],
        base: &[f64],
        windows: &[Window],
        t: u64,
        rng: &mut StdRng,
    ) -> (Vec<f64>, usize, bool) {
        let active = |w: &Window| w.span.contains(&t);
        let weights: Vec<f64> = (0..keys.len())
            .map(|i| {
                let boost: f64 = windows
                    .iter()
                    .filter(|w| active(w) && w.target == keys[i])
                    .map(|w| w.boost)
                    .sum();
                base[i] + boost
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let idx =
            if total <= 0.0 { rng.gen_range(0..keys.len()) } else { pick_weighted(rng, &weights) };
        let boosted = windows.iter().any(|w| active(w) && w.target == keys[idx]);
        (weights, idx, boosted)
    }

    fn bits(weights: &[f64]) -> Vec<u64> {
        weights.iter().map(|w| w.to_bits()).collect()
    }

    fn weight() -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.0), 0.0f64..10.0, 0.0f64..1e-3]
    }

    fn op() -> impl Strategy<Value = Op> {
        let window = ((0u8..6, 0u64..120), (0u64..60, prop_oneof![Just(0.0), 0.0f64..50.0]))
            .prop_map(|((target, start), (len, boost))| Window {
                target,
                span: start..start + len,
                boost,
            });
        let draw = || (0u64..150).prop_map(Op::Draw);
        prop_oneof![draw(), draw(), draw(), window.prop_map(Op::Schedule)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The cached rotation draws exactly what the per-step rebuild
        /// did: bit-identical weights and total, the same index, the same
        /// boosted flag and the same RNG state after every draw — over
        /// zero weights and zero totals, windows on duplicate and unknown
        /// keys, times that jump back and forth, and windows scheduled
        /// between draws.
        #[test]
        fn rotation_matches_per_step_rebuild(
            slots in proptest::collection::vec((0u8..4, weight()), 1..12),
            zero_base in any::<bool>(),
            ops in proptest::collection::vec(op(), 1..80),
            seed in 0u64..1_000,
        ) {
            let mut keys: Vec<u8> = slots.iter().map(|s| s.0).collect();
            let mut base: Vec<f64> =
                slots.iter().map(|s| if zero_base { 0.0 } else { s.1 }).collect();
            let mut windows: Vec<Window> = Vec::new();
            let mut rotation = Rotation::new(base.clone());
            let mut old_rng = seeded(seed);
            let mut new_rng = seeded(seed);
            for op in ops {
                match op {
                    Op::Schedule(w) => {
                        // Unknown targets join with zero base weight.
                        if !keys.contains(&w.target) {
                            keys.push(w.target);
                            base.push(0.0);
                            rotation.push_slot(0.0);
                        }
                        let slots = (0..keys.len()).filter(|&i| keys[i] == w.target).collect();
                        rotation.add_window(slots, w.span.clone(), w.boost);
                        windows.push(w);
                    }
                    Op::Draw(t) => {
                        let (old_weights, old_idx, old_boosted) =
                            per_step_pick(&keys, &base, &windows, t, &mut old_rng);
                        let idx = rotation.pick(t, &mut new_rng);
                        let boosted =
                            windows.iter().any(|w| w.span.contains(&t) && w.target == keys[idx]);
                        prop_assert_eq!(bits(&rotation.weights), bits(&old_weights), "t = {}", t);
                        let old_total: f64 = old_weights.iter().sum();
                        prop_assert_eq!(rotation.total.to_bits(), old_total.to_bits());
                        prop_assert_eq!(idx, old_idx, "t = {}", t);
                        prop_assert_eq!(boosted, old_boosted);
                        prop_assert_eq!(&new_rng, &old_rng);
                    }
                }
            }
        }
    }
}
