//! Bucketing of conflicting values on one data item.
//!
//! Section 3.2 of the paper: when measuring value distributions, values whose
//! difference falls within the attribute tolerance τ(A) are grouped together.
//! Starting from the dominant value v0, the buckets are
//! `(v0 - 3τ/2, v0 - τ/2], (v0 - τ/2, v0 + τ/2], (v0 + τ/2, v0 + 3τ/2], ...`
//! — i.e. each value lands in the bucket whose center `v0 + k·τ` it is
//! closest to.
//!
//! Every measurement (number of values, entropy, dominance factor) and every
//! fusion method operates on these buckets rather than on raw values.

use crate::ids::{AttrId, SourceId};
use crate::snapshot::Observation;
use crate::tolerance::ToleranceContext;
use crate::value::{Value, ValueKind};
use std::cmp::Ordering;
use std::collections::HashMap;

/// A group of tolerance-equivalent values on one data item, together with the
/// sources providing them.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueBucket {
    /// Representative value of the bucket (the most frequently provided exact
    /// value inside the bucket).
    pub representative: Value,
    /// Sources providing a value in this bucket, in ascending id order.
    pub providers: Vec<SourceId>,
}

impl ValueBucket {
    /// Number of sources providing this bucket's value.
    #[inline]
    pub fn support(&self) -> usize {
        self.providers.len()
    }
}

/// Bucketing configuration for one attribute: the absolute tolerance and the
/// similarity scale derived from a [`ToleranceContext`].
#[derive(Debug, Clone, Copy)]
pub struct Bucketing {
    /// Absolute tolerance τ(A).
    pub tolerance: f64,
    /// Scale used to normalize distances for similarity computations.
    pub similarity_scale: f64,
}

impl Bucketing {
    /// Bucketing parameters for `attr` under `ctx`.
    pub fn for_attr(ctx: &ToleranceContext, attr: AttrId) -> Self {
        Self {
            tolerance: ctx.tolerance(attr),
            similarity_scale: ctx.similarity_scale(attr),
        }
    }

    /// Group the `(source, value)` observations of one data item into buckets,
    /// sorted by descending support (ties broken by representative ordering so
    /// the result is deterministic). The first bucket is therefore the
    /// *dominant value* of the item.
    pub fn bucket(&self, observations: &[(SourceId, Value)]) -> Vec<ValueBucket> {
        if observations.is_empty() {
            return Vec::new();
        }
        let kind = observations[0].1.kind();
        let mut buckets = match kind {
            ValueKind::Text => self.bucket_text(observations),
            ValueKind::Number | ValueKind::Time => self.bucket_numeric(observations),
        };
        for b in &mut buckets {
            b.providers.sort_unstable();
        }
        buckets.sort_by(|a, b| {
            b.support()
                .cmp(&a.support())
                .then_with(|| compare_values(&a.representative, &b.representative))
        });
        buckets
    }

    fn bucket_text(&self, observations: &[(SourceId, Value)]) -> Vec<ValueBucket> {
        let mut groups: HashMap<String, Vec<SourceId>> = HashMap::new();
        let mut repr: HashMap<String, Value> = HashMap::new();
        for (src, v) in observations {
            let key = match v {
                Value::Text(s) => s.clone(),
                other => other.to_string(),
            };
            groups.entry(key.clone()).or_default().push(*src);
            repr.entry(key).or_insert_with(|| v.clone());
        }
        groups
            .into_iter()
            .map(|(key, providers)| ValueBucket {
                representative: repr.remove(&key).expect("representative recorded"),
                providers,
            })
            .collect()
    }

    fn bucket_numeric(&self, observations: &[(SourceId, Value)]) -> Vec<ValueBucket> {
        // Count exact duplicates to find the anchor (dominant raw value).
        let numeric: Vec<(SourceId, f64, &Value)> = observations
            .iter()
            .filter_map(|(s, v)| v.as_f64().map(|x| (*s, x, v)))
            .collect();
        if numeric.is_empty() {
            return Vec::new();
        }
        let anchor = dominant_raw_value(&numeric);

        if self.tolerance <= 0.0 {
            // Exact grouping on the raw numeric value.
            let mut groups: Vec<(f64, ValueBucket)> = Vec::new();
            for (src, x, v) in &numeric {
                match groups.iter_mut().find(|(gx, _)| gx == x) {
                    Some((_, b)) => b.providers.push(*src),
                    None => groups.push((
                        *x,
                        ValueBucket {
                            representative: (*v).clone(),
                            providers: vec![*src],
                        },
                    )),
                }
            }
            return groups.into_iter().map(|(_, b)| b).collect();
        }

        // Bucket index k = round((v - anchor) / τ): the bucket of center anchor + kτ.
        let mut groups: HashMap<i64, Vec<(SourceId, f64, &Value)>> = HashMap::new();
        for entry in &numeric {
            let k = ((entry.1 - anchor) / self.tolerance).round() as i64;
            groups.entry(k).or_default().push(*entry);
        }
        groups
            .into_values()
            .map(|members| {
                let representative = bucket_representative(&members);
                ValueBucket {
                    representative,
                    providers: members.into_iter().map(|(s, _, _)| s).collect(),
                }
            })
            .collect()
    }
}

/// The raw value provided by the most sources, used as the anchor v0 of the
/// bucket grid. Ties are broken by proximity to the median of all raw values
/// (then by the smaller value) so that the grid is centered where most of the
/// mass is and the result stays deterministic.
fn dominant_raw_value(numeric: &[(SourceId, f64, &Value)]) -> f64 {
    let raw: Vec<f64> = numeric.iter().map(|(_, x, _)| *x).collect();
    let med = crate::stats::median(&raw);
    let mut counts: Vec<(f64, usize)> = Vec::new();
    for (_, x, _) in numeric {
        match counts.iter_mut().find(|(v, _)| v == x) {
            Some((_, c)) => *c += 1,
            None => counts.push((*x, 1)),
        }
    }
    counts
        .into_iter()
        .max_by(|(va, ca), (vb, cb)| {
            let da = (va - med).abs();
            let db = (vb - med).abs();
            ca.cmp(cb)
                .then_with(|| db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal))
                .then_with(|| vb.partial_cmp(va).unwrap_or(std::cmp::Ordering::Equal))
        })
        .map(|(v, _)| v)
        .unwrap_or(0.0)
}

/// The most frequent exact value inside a bucket, cloned as the bucket
/// representative. Ties are broken by proximity to the bucket's median value
/// (then by the smaller value).
fn bucket_representative(members: &[(SourceId, f64, &Value)]) -> Value {
    let raw: Vec<f64> = members.iter().map(|(_, x, _)| *x).collect();
    let med = crate::stats::median(&raw);
    let mut counts: Vec<(f64, usize, &Value)> = Vec::new();
    for (_, x, v) in members {
        match counts.iter_mut().find(|(cx, _, _)| cx == x) {
            Some((_, c, _)) => *c += 1,
            None => counts.push((*x, 1, v)),
        }
    }
    counts
        .into_iter()
        .max_by(|(va, ca, _), (vb, cb, _)| {
            let da = (va - med).abs();
            let db = (vb - med).abs();
            ca.cmp(cb)
                .then_with(|| db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal))
                .then_with(|| vb.partial_cmp(va).unwrap_or(std::cmp::Ordering::Equal))
        })
        .map(|(_, _, v)| v.clone())
        .expect("bucket is non-empty")
}

fn compare_values(a: &Value, b: &Value) -> std::cmp::Ordering {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
        _ => a.to_string().cmp(&b.to_string()),
    }
}

/// Reusable scratch for bucketing a *stream* of data items without per-item
/// allocation.
///
/// [`Bucketing::bucket`] (and [`crate::Snapshot::buckets`] on top of it)
/// allocates a dozen-plus temporaries per item — on a paper-scale snapshot
/// that is ~150k allocations per preparation, the dominant allocation
/// traffic of the whole evaluation pipeline. A `Bucketer` owns all of those
/// temporaries plus a recycling pool for the output buckets' provider
/// vectors, so the warm-arena preparation path
/// (`fusion::ProblemBuilder::prepare`) re-buckets day after day with
/// near-zero steady-state allocation.
///
/// The output of [`bucket_into`](Self::bucket_into) is **identical** to
/// [`Bucketing::bucket`] on the same observations — same grouping, same
/// representatives (including first-seen tie-breaks), same ordering — which
/// a property test pins against random inputs.
#[derive(Debug, Default)]
pub struct Bucketer {
    /// `(source, raw value, observation index)` of the numeric observations,
    /// in observation order.
    numeric: Vec<(SourceId, f64, u32)>,
    /// Distinct raw values with counts and first-occurrence observation
    /// index, in first-seen order (anchor and representative elections).
    counts: Vec<(f64, usize, u32)>,
    /// Scratch for medians (sorted copy of the finite values).
    sorted: Vec<f64>,
    /// Raw values feeding a median.
    raw: Vec<f64>,
    /// First-seen distinct group keys (bucket-grid indices).
    group_keys: Vec<i64>,
    /// First-seen distinct exact values (zero-tolerance grouping).
    group_vals: Vec<f64>,
    /// Group index per numeric entry / per observation (text path).
    group_of: Vec<u32>,
    /// Observation index of each text group's first member.
    text_firsts: Vec<u32>,
    /// Recycled provider vectors.
    pool: Vec<Vec<SourceId>>,
}

impl Bucketer {
    /// An empty bucketer; buffers grow to the widest item seen and are then
    /// reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Group the observations of one data item into `out` (cleared first,
    /// its buckets' provider vectors recycled), producing exactly what
    /// [`Bucketing::bucket`] produces for the same `(source, value)` pairs:
    /// buckets sorted by descending support with deterministic ties,
    /// providers ascending.
    pub fn bucket_into(
        &mut self,
        cfg: &Bucketing,
        observations: &[Observation],
        out: &mut Vec<ValueBucket>,
    ) {
        for bucket in out.drain(..) {
            let mut providers = bucket.providers;
            providers.clear();
            self.pool.push(providers);
        }
        if observations.is_empty() {
            return;
        }
        match observations[0].value.kind() {
            ValueKind::Text => self.bucket_text_into(observations, out),
            ValueKind::Number | ValueKind::Time => self.bucket_numeric_into(cfg, observations, out),
        }
        for b in out.iter_mut() {
            b.providers.sort_unstable();
        }
        out.sort_by(|a, b| {
            b.support()
                .cmp(&a.support())
                .then_with(|| compare_values(&a.representative, &b.representative))
        });
    }

    fn bucket_numeric_into(
        &mut self,
        cfg: &Bucketing,
        observations: &[Observation],
        out: &mut Vec<ValueBucket>,
    ) {
        self.numeric.clear();
        for (i, o) in observations.iter().enumerate() {
            if let Some(x) = o.value.as_f64() {
                self.numeric.push((o.source, x, i as u32));
            }
        }
        if self.numeric.is_empty() {
            return;
        }

        self.group_of.clear();
        if cfg.tolerance <= 0.0 {
            // Exact grouping on the raw numeric value, first-seen order; the
            // representative is the first member's value.
            self.group_vals.clear();
            for &(_, x, _) in &self.numeric {
                let g = match self.group_vals.iter().position(|v| *v == x) {
                    Some(g) => g,
                    None => {
                        self.group_vals.push(x);
                        self.group_vals.len() - 1
                    }
                };
                self.group_of.push(g as u32);
            }
            for g in 0..self.group_vals.len() {
                let mut providers = self.pool.pop().unwrap_or_default();
                let mut first: Option<u32> = None;
                for (&(source, _, idx), &gi) in self.numeric.iter().zip(&self.group_of) {
                    if gi as usize == g {
                        first.get_or_insert(idx);
                        providers.push(source);
                    }
                }
                out.push(ValueBucket {
                    representative: observations[first.expect("non-empty group") as usize]
                        .value
                        .clone(),
                    providers,
                });
            }
            return;
        }

        // Anchor election (dominant_raw_value): distinct-value counts in
        // first-seen order, winner by count, then proximity to the median,
        // then the smaller value.
        self.raw.clear();
        self.raw.extend(self.numeric.iter().map(|&(_, x, _)| x));
        let med = median_into(&mut self.sorted, &self.raw);
        self.counts.clear();
        for &(_, x, _) in &self.numeric {
            match self.counts.iter_mut().find(|(v, _, _)| *v == x) {
                Some((_, c, _)) => *c += 1,
                None => self.counts.push((x, 1, 0)),
            }
        }
        let anchor = self.counts[max_count_index(&self.counts, med)].0;

        // Bucket index k = round((v - anchor) / τ), groups in first-seen
        // order (members stay in observation order within each group).
        self.group_keys.clear();
        for &(_, x, _) in &self.numeric {
            let k = ((x - anchor) / cfg.tolerance).round() as i64;
            let g = match self.group_keys.iter().position(|key| *key == k) {
                Some(g) => g,
                None => {
                    self.group_keys.push(k);
                    self.group_keys.len() - 1
                }
            };
            self.group_of.push(g as u32);
        }

        for g in 0..self.group_keys.len() {
            // Representative election (bucket_representative): most frequent
            // exact value of the group, ties by proximity to the group
            // median then the smaller value; the first member providing the
            // winning value is cloned.
            self.raw.clear();
            for (&(_, x, _), &gi) in self.numeric.iter().zip(&self.group_of) {
                if gi as usize == g {
                    self.raw.push(x);
                }
            }
            let group_med = median_into(&mut self.sorted, &self.raw);
            self.counts.clear();
            for (&(_, x, idx), &gi) in self.numeric.iter().zip(&self.group_of) {
                if gi as usize == g {
                    match self.counts.iter_mut().find(|(v, _, _)| *v == x) {
                        Some((_, c, _)) => *c += 1,
                        None => self.counts.push((x, 1, idx)),
                    }
                }
            }
            let representative_obs = self.counts[max_count_index(&self.counts, group_med)].2;

            let mut providers = self.pool.pop().unwrap_or_default();
            for (&(source, _, _), &gi) in self.numeric.iter().zip(&self.group_of) {
                if gi as usize == g {
                    providers.push(source);
                }
            }
            out.push(ValueBucket {
                representative: observations[representative_obs as usize].value.clone(),
                providers,
            });
        }
    }

    fn bucket_text_into(&mut self, observations: &[Observation], out: &mut Vec<ValueBucket>) {
        // Group by the exact key string the map-based path uses (the text
        // itself, or the display form for non-text values mixed into a text
        // item), first-seen order; the caller's final sort normalizes the
        // bucket order exactly like the map-based path.
        self.group_of.clear();
        self.text_firsts.clear();
        for (i, o) in observations.iter().enumerate() {
            let g = self
                .text_firsts
                .iter()
                .position(|&f| text_key_eq(&observations[f as usize].value, &o.value));
            match g {
                Some(g) => self.group_of.push(g as u32),
                None => {
                    self.text_firsts.push(i as u32);
                    self.group_of.push((self.text_firsts.len() - 1) as u32);
                }
            }
        }
        for (g, &first) in self.text_firsts.iter().enumerate() {
            let mut providers = self.pool.pop().unwrap_or_default();
            for (i, &gi) in self.group_of.iter().enumerate() {
                if gi as usize == g {
                    providers.push(observations[i].source);
                }
            }
            out.push(ValueBucket {
                representative: observations[first as usize].value.clone(),
                providers,
            });
        }
    }
}

/// Whether two values share the text-path grouping key (`Value::Text`
/// contents, display form otherwise) without materializing the key strings
/// for the all-text common case.
fn text_key_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Text(x), Value::Text(y)) => x == y,
        _ => a.to_string() == b.to_string(),
    }
}

/// [`crate::stats::median`] into a reusable sort buffer: same filtering of
/// non-finite values, same even/odd behavior, no allocation once warm.
fn median_into(sorted: &mut Vec<f64>, xs: &[f64]) -> f64 {
    sorted.clear();
    sorted.extend(xs.iter().copied().filter(|x| x.is_finite()));
    if sorted.is_empty() {
        return 0.0;
    }
    // `total_cmp` is a total order, so an unstable sort yields the same
    // sorted array as the stable sort `stats::median` uses, hence the same
    // median.
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Index of the winning `(value, count, _)` entry under the election
/// comparator shared by `dominant_raw_value` and `bucket_representative`:
/// highest count, ties to the value closest to `med`, then to the smaller
/// value — replicating `Iterator::max_by` (the *last* maximal element wins).
fn max_count_index(counts: &[(f64, usize, u32)], med: f64) -> usize {
    let mut best = 0usize;
    for candidate in 1..counts.len() {
        let (va, ca, _) = counts[best];
        let (vb, cb, _) = counts[candidate];
        let da = (va - med).abs();
        let db = (vb - med).abs();
        let ord = ca
            .cmp(&cb)
            .then_with(|| db.partial_cmp(&da).unwrap_or(Ordering::Equal))
            .then_with(|| vb.partial_cmp(&va).unwrap_or(Ordering::Equal));
        if ord != Ordering::Greater {
            best = candidate;
        }
    }
    best
}

/// Convenience wrapper: bucket the observations of one data item of attribute
/// `attr` under tolerance context `ctx`.
pub fn bucket_values(
    observations: &[(SourceId, Value)],
    attr: AttrId,
    ctx: &ToleranceContext,
) -> Vec<ValueBucket> {
    Bucketing::for_attr(ctx, attr).bucket(observations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tolerance::TolerancePolicy;

    fn obs(values: &[f64]) -> Vec<(SourceId, Value)> {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| (SourceId(i as u32), Value::number(*v)))
            .collect()
    }

    #[test]
    fn close_values_share_a_bucket() {
        let b = Bucketing {
            tolerance: 1.0,
            similarity_scale: 100.0,
        };
        let buckets = b.bucket(&obs(&[100.0, 100.4, 99.8, 105.0]));
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].support(), 3);
        assert_eq!(buckets[1].support(), 1);
        assert_eq!(buckets[0].representative, Value::number(100.0));
    }

    #[test]
    fn zero_tolerance_gives_exact_groups() {
        let b = Bucketing {
            tolerance: 0.0,
            similarity_scale: 1.0,
        };
        let buckets = b.bucket(&obs(&[1.0, 1.0, 1.000001, 2.0]));
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].support(), 2);
    }

    #[test]
    fn text_values_group_by_normalized_string() {
        let b = Bucketing {
            tolerance: 0.0,
            similarity_scale: 1.0,
        };
        let observations = vec![
            (SourceId(0), Value::text("B12")),
            (SourceId(1), Value::text("b12")),
            (SourceId(2), Value::text("C3")),
        ];
        let buckets = b.bucket(&observations);
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].support(), 2);
        assert_eq!(buckets[0].representative, Value::text("b12"));
    }

    #[test]
    fn dominant_bucket_comes_first_with_deterministic_ties() {
        let b = Bucketing {
            tolerance: 0.5,
            similarity_scale: 1.0,
        };
        // Two buckets of support 2: ordering must be deterministic (smaller repr first).
        let buckets = b.bucket(&obs(&[10.0, 10.0, 20.0, 20.0]));
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].support(), 2);
        assert_eq!(buckets[0].representative, Value::number(10.0));
    }

    #[test]
    fn empty_input_gives_no_buckets() {
        let b = Bucketing {
            tolerance: 1.0,
            similarity_scale: 1.0,
        };
        assert!(b.bucket(&[]).is_empty());
    }

    #[test]
    fn time_values_bucket_with_minute_tolerance() {
        let b = Bucketing {
            tolerance: 10.0,
            similarity_scale: 10.0,
        };
        let observations = vec![
            (SourceId(0), Value::time(600)),
            (SourceId(1), Value::time(604)),
            (SourceId(2), Value::time(630)),
        ];
        let buckets = b.bucket(&observations);
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].support(), 2);
    }

    #[test]
    fn convenience_function_uses_context() {
        use crate::schema::{AttrKind, DomainSchema};
        let mut schema = DomainSchema::new("stock");
        let a = schema.add_attribute("Last price", AttrKind::Numeric { scale: 100.0 }, false);
        let ctx = ToleranceContext::from_values(
            &schema,
            &[vec![Value::number(100.0), Value::number(101.0)]],
            TolerancePolicy::default(),
        );
        let buckets = bucket_values(
            &[
                (SourceId(0), Value::number(100.0)),
                (SourceId(1), Value::number(100.5)),
            ],
            a,
            &ctx,
        );
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].support(), 2);
    }

    fn observations_of(pairs: &[(SourceId, Value)]) -> Vec<Observation> {
        pairs
            .iter()
            .map(|(source, value)| Observation {
                source: *source,
                value: value.clone(),
            })
            .collect()
    }

    /// One warm bucketer, fed wildly different item shapes back to back,
    /// must reproduce `Bucketing::bucket` exactly on every one — the
    /// invariant the warm-arena preparation path rests on.
    #[test]
    fn bucketer_reuse_matches_one_shot_bucketing() {
        let numeric_cfg = Bucketing {
            tolerance: 1.0,
            similarity_scale: 100.0,
        };
        let zero_tol = Bucketing {
            tolerance: 0.0,
            similarity_scale: 1.0,
        };
        let items: Vec<(Bucketing, Vec<(SourceId, Value)>)> = vec![
            (numeric_cfg, obs(&[100.0, 100.4, 99.8, 105.0])),
            (numeric_cfg, vec![]),
            (zero_tol, obs(&[1.0, 1.0, 1.000001, 2.0])),
            (
                zero_tol,
                vec![
                    (SourceId(0), Value::text("B12")),
                    (SourceId(1), Value::text("b12")),
                    (SourceId(2), Value::text("C3")),
                ],
            ),
            (
                numeric_cfg,
                vec![
                    (SourceId(0), Value::time(600)),
                    (SourceId(1), Value::time(604)),
                    (SourceId(2), Value::time(630)),
                ],
            ),
            // Rounded values whose representative election must pick the
            // first-seen member of the winning exact value.
            (
                numeric_cfg,
                vec![
                    (SourceId(0), Value::rounded_number(8.0, 1.0)),
                    (SourceId(1), Value::number(8.0)),
                    (SourceId(2), Value::number(8.0)),
                ],
            ),
            (numeric_cfg, obs(&[10.0, 10.0, 20.0, 20.0])),
            (numeric_cfg, obs(&[42.0])),
        ];

        let mut bucketer = Bucketer::new();
        let mut out = Vec::new();
        for (cfg, pairs) in &items {
            let expected = cfg.bucket(pairs);
            bucketer.bucket_into(cfg, &observations_of(pairs), &mut out);
            assert_eq!(out, expected, "warm bucketer diverged on {pairs:?}");
        }
        // And a second sweep over the same items (fully warm buffers).
        for (cfg, pairs) in &items {
            bucketer.bucket_into(cfg, &observations_of(pairs), &mut out);
            assert_eq!(out, cfg.bucket(pairs));
        }
    }

    #[test]
    fn every_provider_appears_in_exactly_one_bucket() {
        let b = Bucketing {
            tolerance: 2.0,
            similarity_scale: 1.0,
        };
        let observations = obs(&[1.0, 2.0, 3.0, 7.0, 8.0, 20.0]);
        let buckets = b.bucket(&observations);
        let mut seen: Vec<SourceId> = buckets.iter().flat_map(|b| b.providers.clone()).collect();
        seen.sort_unstable();
        let mut expected: Vec<SourceId> = observations.iter().map(|(s, _)| *s).collect();
        expected.sort_unstable();
        assert_eq!(seen, expected);
    }
}
