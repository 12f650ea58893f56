//! Side-by-side reduction chains for the per-plane sums of batch norm and
//! global average pooling.
//!
//! A sum over one plane is a single dependency chain: every `acc += v`
//! waits for the previous add, so the loop runs at the adder's latency, a
//! fraction of its throughput. The planes of neighbouring channels are
//! independent, so [`LANES`] of them are walked in lock step, a
//! [`TILE`]-wide square of elements at a time: the compiler loads each
//! lane's run of the tile with one vector load and transposes in
//! registers, so one vector add advances all eight chains. Each chain
//! still adds its own plane's elements in index order — no sum is
//! reordered, and every lane produces the bits the one-plane-at-a-time
//! loop produced.

/// Planes reduced side by side.
pub(crate) const LANES: usize = 8;

/// Elements of each lane loaded at a time.
const TILE: usize = 4;

/// One input of a lane-wise reduction: a plane per lane.
pub(crate) type Lanes<'a> = [&'a [f32]; LANES];

/// `x` viewed as consecutive planes of `plane` elements: the `count`
/// (`1..=LANES`) planes starting at plane `first`, one per lane. A short
/// group points its spare lanes at its last plane — their results are
/// redundant and the caller drops them — so every group runs the same
/// branch-free eight-lane loop.
pub(crate) fn lanes(x: &[f32], first: usize, count: usize, plane: usize) -> Lanes<'_> {
    std::array::from_fn(|k| &x[(first + k.min(count - 1)) * plane..][..plane])
}

/// The index-order sum of every lane, seeded with `-0.0` — the additive
/// identity (`x + -0.0` is `x` for every `x`, `-0.0` included), which is
/// also what `Iterator::sum` starts from.
// Indexed loops here and in `fold_lanes`: element `j` of every lane, lane
// by lane, is the access pattern itself, not an iteration over one array.
#[allow(clippy::needless_range_loop)]
pub(crate) fn sum_lanes(rows: &Lanes<'_>, plane: usize) -> [f32; LANES] {
    // Spelled out rather than routed through `fold_lanes`: in this shape
    // the compiler finds a cheaper transpose (measured a third faster),
    // and global average pooling is nothing but this loop.
    let mut acc = [-0.0f32; LANES];
    let full = plane - plane % TILE;
    for i0 in (0..full).step_by(TILE) {
        let tile: [[f32; TILE]; LANES] = std::array::from_fn(|k| tile_of(rows[k], i0));
        for j in 0..TILE {
            for k in 0..LANES {
                acc[k] += tile[k][j];
            }
        }
    }
    for i in full..plane {
        for k in 0..LANES {
            acc[k] += rows[k][i];
        }
    }
    acc
}

/// Folds every lane in index order: lane `k`'s accumulator goes through
/// `acc = f(k, acc, [a[k][i], b[k][i], …])` for `i` in `0..plane`, one
/// element from each of the `N` inputs, starting from `init[k]`.
#[allow(clippy::needless_range_loop)]
pub(crate) fn fold_lanes<const N: usize, A: Copy>(
    inputs: [&Lanes<'_>; N],
    plane: usize,
    init: [A; LANES],
    f: impl Fn(usize, A, [f32; N]) -> A,
) -> [A; LANES] {
    let mut acc = init;
    let full = plane - plane % TILE;
    for i0 in (0..full).step_by(TILE) {
        let tiles: [[[f32; TILE]; LANES]; N] =
            std::array::from_fn(|s| std::array::from_fn(|k| tile_of(inputs[s][k], i0)));
        for j in 0..TILE {
            for k in 0..LANES {
                acc[k] = f(k, acc[k], std::array::from_fn(|s| tiles[s][k][j]));
            }
        }
    }
    for i in full..plane {
        for k in 0..LANES {
            acc[k] = f(k, acc[k], std::array::from_fn(|s| inputs[s][k][i]));
        }
    }
    acc
}

/// The `TILE` elements of `row` starting at `i0`.
fn tile_of(row: &[f32], i0: usize) -> [f32; TILE] {
    row[i0..i0 + TILE]
        .try_into()
        .expect("a TILE-long slice is a TILE-long array")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_fold_each_plane_in_index_order() {
        // Values whose sum depends on the order they are added in.
        let plane = 37;
        let x: Vec<f32> = (0..11 * plane)
            .map(|i| ((i * 7919) % 1013) as f32 * 1e-3 + if i % 5 == 0 { 1e4 } else { 0.0 })
            .collect();
        for (first, count) in [(0, 8), (3, 8), (8, 3), (10, 1)] {
            let rows = lanes(&x, first, count, plane);
            let sums = sum_lanes(&rows, plane);
            let folds = fold_lanes([&rows, &rows], plane, [0.5f32; LANES], |k, a, [u, v]| {
                a + u * v - k as f32
            });
            for k in 0..count {
                let p = &x[(first + k) * plane..][..plane];
                assert_eq!(sums[k].to_bits(), p.iter().sum::<f32>().to_bits());
                let want = p.iter().fold(0.5f32, |a, v| a + v * v - k as f32);
                assert_eq!(folds[k].to_bits(), want.to_bits());
            }
        }
        // An all-negative-zero plane keeps its sign, as `Iterator::sum` does.
        let z = [-0.0f32; 16];
        assert_eq!(
            sum_lanes(&lanes(&z, 0, 1, 16), 16)[0].to_bits(),
            (-0.0f32).to_bits()
        );
    }
}
