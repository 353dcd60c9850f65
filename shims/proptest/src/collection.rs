//! Collection strategies for the proptest shim.

use crate::strategy::Strategy;
use rand::{Rng, StdRng};
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::ops::Range;

/// Size specification for generated collections (the shim supports the
/// `usize` range form the workspace uses).
pub type SizeRange = Range<usize>;

/// Strategy for `Vec<T>` with a size drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: SizeRange) -> VecStrategy<S> {
    VecStrategy { element, size }
}

pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let n = sample_size(rng, &self.size);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// Strategy for `BTreeMap<K, V>`; key collisions shrink the map exactly as
/// they do in upstream proptest.
pub fn btree_map<K: Strategy, V: Strategy>(
    keys: K,
    values: V,
    size: SizeRange,
) -> BTreeMapStrategy<K, V> {
    BTreeMapStrategy { keys, values, size }
}

pub struct BTreeMapStrategy<K, V> {
    keys: K,
    values: V,
    size: SizeRange,
}

impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
where
    K::Value: Ord,
{
    type Value = BTreeMap<K::Value, V::Value>;
    fn generate(&self, rng: &mut StdRng) -> BTreeMap<K::Value, V::Value> {
        let n = sample_size(rng, &self.size);
        (0..n)
            .map(|_| (self.keys.generate(rng), self.values.generate(rng)))
            .collect()
    }
}

/// Strategy for `HashMap<K, V>`.
pub fn hash_map<K: Strategy, V: Strategy>(
    keys: K,
    values: V,
    size: SizeRange,
) -> HashMapStrategy<K, V> {
    HashMapStrategy { keys, values, size }
}

pub struct HashMapStrategy<K, V> {
    keys: K,
    values: V,
    size: SizeRange,
}

impl<K: Strategy, V: Strategy> Strategy for HashMapStrategy<K, V>
where
    K::Value: Eq + Hash,
{
    type Value = HashMap<K::Value, V::Value>;
    fn generate(&self, rng: &mut StdRng) -> HashMap<K::Value, V::Value> {
        let n = sample_size(rng, &self.size);
        (0..n)
            .map(|_| (self.keys.generate(rng), self.values.generate(rng)))
            .collect()
    }
}

fn sample_size(rng: &mut StdRng, size: &SizeRange) -> usize {
    if size.is_empty() {
        size.start
    } else {
        rng.gen_range(size.clone())
    }
}
