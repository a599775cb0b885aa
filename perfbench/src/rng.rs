//! A small seeded generator (SplitMix64): every input the benchmark
//! sends is a pure function of `--seed`.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// A generator for one named stream of the same seed, so that the
    /// inputs of one connection do not depend on those of another.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut base = Rng::new(seed);
        for _ in 0..=stream {
            base.next_u64();
        }
        Rng::new(base.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// the small ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Shuffles in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Draws from a fixed multiset in a seeded order: every `cards.len()`
/// draws hold each card exactly once. Compared with independent draws,
/// the mix of a run no longer varies with the seed, only its order.
#[derive(Debug, Clone)]
pub struct Deck<T> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    /// A deck holding `count` copies of each item.
    pub fn new(composition: &[(usize, T)]) -> Self {
        let cards: Vec<T> = composition
            .iter()
            .flat_map(|&(count, item)| std::iter::repeat_n(item, count))
            .collect();
        let next = cards.len();
        Deck { cards, next }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> T {
        if self.next == self.cards.len() {
            rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}
