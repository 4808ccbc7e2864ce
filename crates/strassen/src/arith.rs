//! Strassen's arithmetic: Equation 7 as one coefficient table.
//!
//! Equation 7 is a bilinear algorithm for the 2 × 2 block product, given by
//! its ⟨U, V, W⟩ coefficients: product `M_r` multiplies a signed sum of A
//! quadrants (column `r` of `U`) by a signed sum of B quadrants (column `r`
//! of `V`), and C quadrant `q` is `Σ_r W[q][r] · M_r`. [`PRODUCTS`] is the
//! only place the seven products and four quadrant sums are written: the
//! walker, the task-graph plans, the cost and memory models and distributed
//! CAPS all read it.
//!
//! A product's *home* is the C quadrant it is Set into rather than added
//! to (M2 → C21, M3 → C12, M6 → C22, M7 → C11); the other three need
//! scratch. Each quadrant starts from its home product and then takes its
//! [`combine`] steps in order, so `C11 = ((M7 + M1) + M4) − M5`,
//! `C12 = M3 + M5`, `C21 = M2 + M4` and `C22 = ((M6 + M1) − M2) + M3`:
//! the association orders every bitwise-equality pin holds fixed.

use Form::{Add, One, Sub};
use Quad::{Q11, Q12, Q21, Q22};

/// A quadrant of a 2 × 2 block matrix: `Q11` top left, `Q12` top right,
/// `Q21` bottom left, `Q22` bottom right.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quad {
    Q11,
    Q12,
    Q21,
    Q22,
}

impl Quad {
    /// The four quadrants in row-major order: `ALL[q as usize] == q`.
    pub const ALL: [Quad; 4] = [Q11, Q12, Q21, Q22];
}

/// One term (`One`), or the sum (`Add`) or difference (`Sub`) of two.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Form<T> {
    One(T),
    Add(T, T),
    Sub(T, T),
}

impl<T> Form<T> {
    /// The same form over `f` of each term.
    pub fn map<U>(self, mut f: impl FnMut(T) -> U) -> Form<U> {
        match self {
            One(x) => One(f(x)),
            Add(x, y) => Add(f(x), f(y)),
            Sub(x, y) => Sub(f(x), f(y)),
        }
    }

    /// Elementwise passes forming it costs: one for a sum or difference.
    pub fn sums(&self) -> u64 {
        u64::from(!matches!(self, One(_)))
    }
}

/// One product of Equation 7 and where it goes in C.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Product {
    /// Its A operand: a column of `U`.
    pub a: Form<Quad>,
    /// Its B operand: a column of `V`.
    pub b: Form<Quad>,
    /// Its sign in each C quadrant, in [`Quad`] order: a column of `W`.
    pub c: [i8; 4],
    /// The quadrant it is Set into, if any.
    pub home: Option<Quad>,
}

impl Product {
    /// Elementwise passes forming both operands costs.
    pub fn sums(&self) -> u64 {
        self.a.sums() + self.b.sums()
    }
}

/// Equation 7, M1…M7 (the paper's Q5/Q6 typos corrected to Strassen's
/// original formulas).
#[rustfmt::skip]
pub const PRODUCTS: [Product; 7] = [
    // M1 = (A11 + A22)(B11 + B22)
    Product { a: Add(Q11, Q22), b: Add(Q11, Q22), c: [ 1, 0, 0,  1], home: None },
    // M2 = (A21 + A22) B11
    Product { a: Add(Q21, Q22), b: One(Q11),      c: [ 0, 0, 1, -1], home: Some(Q21) },
    // M3 = A11 (B12 − B22)
    Product { a: One(Q11),      b: Sub(Q12, Q22), c: [ 0, 1, 0,  1], home: Some(Q12) },
    // M4 = A22 (B21 − B11)
    Product { a: One(Q22),      b: Sub(Q21, Q11), c: [ 1, 0, 1,  0], home: None },
    // M5 = (A11 + A12) B22
    Product { a: Add(Q11, Q12), b: One(Q22),      c: [-1, 1, 0,  0], home: None },
    // M6 = (A21 − A11)(B11 + B12)
    Product { a: Sub(Q21, Q11), b: Add(Q11, Q12), c: [ 0, 0, 0,  1], home: Some(Q22) },
    // M7 = (A12 − A22)(B21 + B22)
    Product { a: Sub(Q12, Q22), b: Add(Q21, Q22), c: [ 1, 0, 0,  0], home: Some(Q11) },
];

/// The order products run or spawn in (indices into [`PRODUCTS`]): those
/// with a home in paper order, then the others — M2, M3, M6, M7, M1, M4,
/// M5. Position `i` is the walker's spawn index and distributed CAPS's
/// child `i`.
pub fn launch() -> impl Iterator<Item = usize> {
    let homed = |p: &usize| PRODUCTS[*p].home.is_some();
    (0..PRODUCTS.len())
        .filter(homed)
        .chain((0..PRODUCTS.len()).filter(move |p| !homed(p)))
}

/// One combine step: `C[quad] += M[product]`, or `−=` when `sub`
/// (`W = −1`); `product` indexes [`PRODUCTS`].
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    pub quad: Quad,
    pub product: usize,
    pub sub: bool,
}

/// The combine sequence: every nonzero of `W` that is not a home, in
/// (product, quadrant) order — C11 + M1, C22 + M1, C22 − M2, C22 + M3,
/// C11 + M4, C21 + M4, C11 − M5, C12 + M5. In this order a home quadrant
/// that is read (C21 for M2, C12 for M3) is read before any step writes
/// it, so the walker reads a home product straight out of its quadrant.
pub fn combine() -> impl Iterator<Item = Step> {
    PRODUCTS.iter().enumerate().flat_map(|(product, p)| {
        let step = move |quad: Quad| p.c[quad as usize] != 0 && p.home != Some(quad);
        Quad::ALL
            .into_iter()
            .filter(move |&q| step(q))
            .map(move |quad| Step {
                quad,
                product,
                sub: p.c[quad as usize] < 0,
            })
    })
}

/// The products feeding quadrant `q`, in M1…M7 order.
pub fn inputs(q: Quad) -> impl Iterator<Item = usize> {
    (0..PRODUCTS.len()).filter(move |&p| PRODUCTS[p].c[q as usize] != 0)
}

/// Operand sums over all seven products (10).
pub(crate) fn operand_sums() -> u64 {
    PRODUCTS.iter().map(Product::sums).sum()
}

/// Quadrant passes per recursion node: operand sums plus combine steps
/// (10 + 8 = 18).
pub(crate) fn node_passes() -> u64 {
    operand_sums() + combine().count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The signed coefficient vector of an operand over the four quadrants.
    fn coefficients(f: Form<Quad>) -> [i32; 4] {
        let mut v = [0; 4];
        match f {
            One(x) => v[x as usize] = 1,
            Add(x, y) => {
                v[x as usize] += 1;
                v[y as usize] += 1;
            }
            Sub(x, y) => {
                v[x as usize] += 1;
                v[y as usize] -= 1;
            }
        }
        v
    }

    /// The 64 Brent equations of ⟨2,2,2⟩: for A entry `(i, j)`, B entry
    /// `(k, l)` and C entry `(m, n)`,
    /// `Σ_r U[ij][r] · V[kl][r] · W[mn][r] = δ(j,k) δ(i,m) δ(l,n)`: the
    /// table computes `C_mn = Σ_j A_mj · B_jn` and nothing else.
    #[test]
    fn the_table_is_strassen() {
        let u = PRODUCTS.map(|p| coefficients(p.a));
        let v = PRODUCTS.map(|p| coefficients(p.b));
        let w = PRODUCTS.map(|p| p.c.map(i32::from));
        let mut equations = 0;
        for (ij, a) in Quad::ALL.iter().enumerate() {
            for (kl, b) in Quad::ALL.iter().enumerate() {
                for (mn, c) in Quad::ALL.iter().enumerate() {
                    let sum: i32 = (0..7).map(|r| u[r][ij] * v[r][kl] * w[r][mn]).sum();
                    let (i, j, k, l, m, n) = (ij / 2, ij % 2, kl / 2, kl % 2, mn / 2, mn % 2);
                    let want = i32::from(j == k && i == m && l == n);
                    assert_eq!(sum, want, "A{a:?} · B{b:?} in C{c:?}");
                    equations += 1;
                }
            }
        }
        assert_eq!(equations, 64);
    }

    #[test]
    fn homes_are_set_and_read_before_written() {
        // Each quadrant has exactly one home, and its product is Set there
        // with sign +1.
        for q in Quad::ALL {
            let homed: Vec<_> = PRODUCTS.iter().filter(|p| p.home == Some(q)).collect();
            assert_eq!(homed.len(), 1, "{q:?}");
            assert_eq!(homed[0].c[q as usize], 1, "{q:?}");
        }
        // Replaying the combine sequence, a home product is read out of its
        // quadrant before any step has written that quadrant.
        let mut written = [false; 4];
        for s in combine() {
            if let Some(h) = PRODUCTS[s.product].home {
                assert!(!written[h as usize], "{h:?} read after a write: {s:?}");
            }
            written[s.quad as usize] = true;
        }
    }

    #[test]
    fn derived_orders_and_counts() {
        assert_eq!(launch().collect::<Vec<_>>(), [1, 2, 5, 6, 0, 3, 4]);
        let steps: Vec<_> = combine()
            .map(|s| (s.quad, if s.sub { '-' } else { '+' }, s.product + 1))
            .collect();
        assert_eq!(
            steps,
            [
                (Q11, '+', 1),
                (Q22, '+', 1),
                (Q22, '-', 2),
                (Q22, '+', 3),
                (Q11, '+', 4),
                (Q21, '+', 4),
                (Q11, '-', 5),
                (Q12, '+', 5),
            ]
        );
        assert_eq!(PRODUCTS.map(|p| p.sums()), [2, 1, 1, 1, 1, 2, 2]);
        let steps = Quad::ALL.map(|q| combine().filter(|s| s.quad == q).count());
        assert_eq!(steps, [3, 1, 1, 3]);
        let fed = Quad::ALL.map(|q| inputs(q).collect::<Vec<_>>());
        assert_eq!(
            fed,
            [vec![0, 3, 4, 6], vec![2, 4], vec![1, 3], vec![0, 1, 2, 5]]
        );
        assert_eq!((operand_sums(), node_passes()), (10, 18));
    }
}
