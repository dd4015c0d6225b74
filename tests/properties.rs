//! Property-based tests (proptest) over the core data structures and
//! invariants: bucketing, tolerance, entropy, gold-standard judging, fusion
//! output validity, and generator determinism.

use deepweb_truth::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Build a one-attribute snapshot from arbitrary (source, value) pairs.
fn snapshot_from_values(values: &[f64]) -> Snapshot {
    let mut schema = DomainSchema::new("prop");
    schema.add_attribute("x", datamodel::AttrKind::Numeric { scale: 100.0 }, false);
    for i in 0..values.len() {
        schema.add_source(format!("s{i}"), false);
    }
    let mut builder = SnapshotBuilder::new(0);
    for (i, v) in values.iter().enumerate() {
        builder.add(SourceId(i as u32), ObjectId(0), AttrId(0), Value::number(*v));
    }
    builder.build(Arc::new(schema))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bucketing partitions the providers: every source appears in exactly
    /// one bucket, and bucket supports sum to the number of observations.
    #[test]
    fn bucketing_is_a_partition(values in prop::collection::vec(10.0f64..1000.0, 1..40)) {
        let snapshot = snapshot_from_values(&values);
        let item = ItemId::new(ObjectId(0), AttrId(0));
        let buckets = snapshot.buckets(item);
        let total: usize = buckets.iter().map(|b| b.support()).sum();
        prop_assert_eq!(total, values.len());
        let mut seen: Vec<SourceId> = buckets.iter().flat_map(|b| b.providers.clone()).collect();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), values.len());
        // Buckets are ordered by support.
        for w in buckets.windows(2) {
            prop_assert!(w[0].support() >= w[1].support());
        }
    }

    /// Values within the tolerance of each other always land in the same
    /// bucket when they are the only observations.
    #[test]
    fn close_pairs_share_a_bucket(base in 50.0f64..500.0, delta in 0.0f64..0.4) {
        let snapshot = snapshot_from_values(&[base, base * (1.0 + delta * 0.01)]);
        let buckets = snapshot.buckets(ItemId::new(ObjectId(0), AttrId(0)));
        prop_assert_eq!(buckets.len(), 1);
    }

    /// Entropy is non-negative and bounded by log2 of the number of buckets.
    #[test]
    fn entropy_bounds(counts in prop::collection::vec(1usize..50, 1..10)) {
        let e = datamodel::entropy(&counts);
        prop_assert!(e >= -1e-12);
        prop_assert!(e <= (counts.len() as f64).log2() + 1e-9);
    }

    /// Value similarity is symmetric, bounded by [0, 1], and maximal for the
    /// value itself.
    #[test]
    fn similarity_properties(a in -1e6f64..1e6, b in -1e6f64..1e6, scale in 0.1f64..1e4) {
        let va = Value::number(a);
        let vb = Value::number(b);
        let sab = va.similarity(&vb, scale);
        let sba = vb.similarity(&va, scale);
        prop_assert!((sab - sba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&sab));
        prop_assert!(va.similarity(&va, scale) >= sab - 1e-12);
    }

    /// Tolerance-aware matching is symmetric and reflexive.
    #[test]
    fn matching_is_symmetric(a in -1e6f64..1e6, b in -1e6f64..1e6, tol in 0.0f64..1e3) {
        let va = Value::number(a);
        let vb = Value::number(b);
        prop_assert!(va.matches(&va, 0.0));
        prop_assert_eq!(va.matches(&vb, tol), vb.matches(&va, tol));
    }

    /// Statistics helpers stay within their natural bounds.
    #[test]
    fn stats_bounds(xs in prop::collection::vec(-1e6f64..1e6, 1..50)) {
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean = datamodel::mean(&xs);
        let median = datamodel::median(&xs);
        prop_assert!(mean >= min - 1e-9 && mean <= max + 1e-9);
        prop_assert!(median >= min - 1e-9 && median <= max + 1e-9);
        prop_assert!(datamodel::stddev(&xs) >= 0.0);
    }

    /// The CSR layout of the prepared problem round-trips to exactly the
    /// nested candidate lists the old representation held: for every item,
    /// re-deriving candidates/providers/similarity/formatting links naively
    /// from the snapshot matches what the flat offset/array views return,
    /// and the per-source claim extents recount the providers.
    #[test]
    fn csr_problem_round_trips_to_nested_lists(
        values in prop::collection::vec(10.0f64..1000.0, 2..25),
        extra in prop::collection::vec(1.0f64..100.0, 0..10),
    ) {
        // Two attributes with uneven coverage so claim/provider extents vary.
        let mut schema = DomainSchema::new("prop");
        schema.add_attribute("x", datamodel::AttrKind::Numeric { scale: 100.0 }, false);
        schema.add_attribute("y", datamodel::AttrKind::Numeric { scale: 10.0 }, false);
        for i in 0..values.len() {
            schema.add_source(format!("s{i}"), false);
        }
        let mut builder = SnapshotBuilder::new(0);
        for (i, v) in values.iter().enumerate() {
            builder.add(SourceId(i as u32), ObjectId((i % 3) as u32), AttrId(0), Value::number(*v));
        }
        for (i, v) in extra.iter().enumerate() {
            builder.add(SourceId((i % values.len()) as u32), ObjectId(0), AttrId(1), Value::number(*v));
        }
        let snapshot = builder.build(std::sync::Arc::new(schema));
        let problem = FusionProblem::from_snapshot(&snapshot);

        let mut total_claims = 0usize;
        for item in problem.items() {
            // Naive nested reconstruction from the snapshot's buckets — the
            // exact structure the pre-CSR `Candidate` vectors held.
            let buckets = snapshot.buckets(item.id());
            let scale = snapshot.tolerance().similarity_scale(item.id().attr);
            prop_assert_eq!(item.num_candidates(), buckets.len());
            prop_assert_eq!(item.attr(), item.id().attr.index());
            let mut union: Vec<u32> = Vec::new();
            for (c, bucket) in buckets.iter().enumerate() {
                let cand = item.candidate(c);
                prop_assert_eq!(cand.value(), &bucket.representative);
                let naive_providers: Vec<u32> = bucket
                    .providers
                    .iter()
                    .filter_map(|s| problem.source_index(*s).map(|i| i as u32))
                    .collect();
                prop_assert_eq!(cand.providers(), &naive_providers[..]);
                union.extend_from_slice(&naive_providers);
                // Similarity links: same pairs, same order, above the 0.05
                // floor the problem documents.
                let naive_similar: Vec<(u32, f64)> = buckets
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != c)
                    .map(|(j, other)| (j as u32, bucket.representative.similarity(&other.representative, scale)))
                    .filter(|&(_, sim)| sim > 0.05)
                    .collect();
                prop_assert_eq!(cand.similar(), &naive_similar[..]);
                let naive_coarse: Vec<u32> = buckets
                    .iter()
                    .enumerate()
                    .filter(|&(j, other)| j != c && other.representative.subsumes(&bucket.representative))
                    .map(|(j, _)| j as u32)
                    .collect();
                prop_assert_eq!(cand.coarse_supporters(), &naive_coarse[..]);
            }
            union.sort_unstable();
            union.dedup();
            prop_assert_eq!(item.providers(), &union[..]);
            let naive_slots: usize = (0..buckets.len())
                .map(|c| item.candidate(c).providers().len())
                .sum();
            prop_assert_eq!(item.total_provider_slots(), naive_slots);
            total_claims += naive_slots;
        }
        // Claim CSR: per-source extents re-count every (item, candidate,
        // provider) slot exactly once, in item order.
        prop_assert_eq!(problem.num_claims(), total_claims);
        for (s, claims) in problem.claims_by_source().enumerate() {
            let mut last_item = 0u32;
            for &(i, c) in claims {
                prop_assert!(i >= last_item, "claims of source {} not item-ordered", s);
                last_item = i;
                let providers = problem.item(i as usize).candidate(c as usize).providers();
                prop_assert!(providers.contains(&(s as u32)));
            }
        }
    }

    /// The flat SoA per-attribute trust lookup matches the nested
    /// `Vec<Vec<f64>>` semantics for every (source, attribute) pair.
    #[test]
    fn soa_trust_matches_nested_semantics(
        rows in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 4..5), 1..12),
    ) {
        let num_sources = rows.len();
        let num_attrs = rows[0].len();
        let mut estimate = fusion::TrustEstimate::uniform(num_sources, num_attrs, 0.0, true);
        let pa = estimate.per_attr.as_mut().unwrap();
        for (s, row) in rows.iter().enumerate() {
            for (a, &v) in row.iter().enumerate() {
                pa.set(s, a, v);
            }
        }
        // Nested reference: plain Vec<Vec<f64>> indexed [source][attr].
        let nested: Vec<Vec<f64>> = rows.clone();
        for (s, nested_row) in nested.iter().enumerate() {
            prop_assert_eq!(estimate.per_attr.as_ref().unwrap().row(s), &nested_row[..]);
            for (a, &expected) in nested_row.iter().enumerate() {
                prop_assert_eq!(estimate.of(s, a), expected);
                prop_assert_eq!(estimate.per_attr.as_ref().unwrap().of(s, a), expected);
            }
        }
        // Overall lookups ignore the per-attr table only when it is absent.
        let overall_only = fusion::TrustEstimate::uniform(num_sources, num_attrs, 0.7, false);
        for s in 0..num_sources {
            for a in 0..num_attrs {
                prop_assert_eq!(overall_only.of(s, a), 0.7);
            }
        }
    }

    /// A warm `Bucketer` (the arena's allocation-free bucketing path)
    /// produces exactly the buckets `Snapshot::buckets` produces, item after
    /// item, across differently-shaped snapshots.
    #[test]
    fn warm_bucketing_matches_cold_bucketing(
        first in prop::collection::vec(10.0f64..1000.0, 1..30),
        second in prop::collection::vec(1.0f64..100.0, 1..10),
    ) {
        let snapshots = [snapshot_from_values(&first), snapshot_from_values(&second)];
        let mut bucketer = datamodel::Bucketer::new();
        let mut out = Vec::new();
        for snapshot in &snapshots {
            for (item, _) in snapshot.items() {
                snapshot.buckets_into(*item, &mut bucketer, &mut out);
                prop_assert_eq!(&out, &snapshot.buckets(*item));
            }
        }
    }

    /// A warm [`fusion::ProblemBuilder`] refill equals a fresh
    /// `FusionProblem::from_snapshot` — same CSR arrays, same offset tables,
    /// same claim order (`FusionProblem` equality compares all of them) —
    /// across consecutive differently-shaped snapshots, including the
    /// empty-day and single-source edge cases. This is the invariant that
    /// makes every warm-builder path bit-identical to a cold preparation.
    #[test]
    fn arena_refill_equals_fresh_preparation(
        first in prop::collection::vec(10.0f64..1000.0, 2..20),
        second in prop::collection::vec(10.0f64..1000.0, 1..8),
        third in prop::collection::vec(1.0f64..50.0, 1..2),
    ) {
        // Differently-shaped days: a wide snapshot, a narrower one, a
        // single-source one, and an empty one, refilled into ONE arena in
        // sequence (each shape both follows and precedes a different shape).
        let wide = snapshot_from_values(&first);
        let narrow = snapshot_from_values(&second);
        let single_source = snapshot_from_values(&third);
        let empty = snapshot_from_values(&[]);

        let mut builder = fusion::ProblemBuilder::new();
        for snapshot in [&wide, &empty, &narrow, &single_source, &wide, &empty] {
            let warm = builder.prepare(snapshot);
            let fresh = FusionProblem::from_snapshot(snapshot);
            prop_assert_eq!(warm, &fresh);
            prop_assert_eq!(warm.num_items(), fresh.num_items());
            prop_assert_eq!(warm.num_claims(), fresh.num_claims());
        }
        // The empty day prepares to a consistent zero-item problem.
        let empty_problem = builder.prepare(&empty);
        prop_assert_eq!(empty_problem.num_items(), 0);
        prop_assert_eq!(empty_problem.num_candidates(), 0);
        // And a single-source day round-trips its one claim list.
        let single_problem = builder.prepare(&single_source);
        prop_assert_eq!(single_problem.num_sources(), third.len());
        prop_assert_eq!(
            single_problem.claims_by_source().map(<[_]>::len).sum::<usize>(),
            single_problem.num_claims()
        );
    }

    /// Running any method through a warm builder and scratch (shared
    /// [`fusion::FusionScratch`], refilled problem) gives the same selection,
    /// trust, and round count as a cold run on a fresh problem — scratch
    /// reuse is stateless.
    #[test]
    fn warm_arena_runs_equal_cold_runs(
        first in prop::collection::vec(10.0f64..1000.0, 3..15),
        second in prop::collection::vec(10.0f64..1000.0, 2..10),
    ) {
        let snapshots = [snapshot_from_values(&first), snapshot_from_values(&second)];
        let mut builder = fusion::ProblemBuilder::new();
        let mut scratch = fusion::FusionScratch::new();
        for snapshot in &snapshots {
            let problem = builder.prepare(snapshot);
            let cold_problem = FusionProblem::from_snapshot(snapshot);
            for (_, method) in all_methods() {
                let warm =
                    method.run_with_scratch(problem, &FusionOptions::standard(), &mut scratch);
                let cold = method.run(&cold_problem, &FusionOptions::standard());
                prop_assert_eq!(&warm.selection, &cold.selection);
                prop_assert_eq!(&warm.trust.overall, &cold.trust.overall);
                prop_assert_eq!(warm.rounds, cold.rounds);
            }
        }
    }

    /// Every fusion method selects, for every item, one of the values that
    /// was actually provided (no invented values), and its trust estimates
    /// are finite.
    #[test]
    fn fusion_selects_provided_values(values in prop::collection::vec(10.0f64..1000.0, 2..25)) {
        let snapshot = snapshot_from_values(&values);
        let problem = FusionProblem::from_snapshot(&snapshot);
        let item = ItemId::new(ObjectId(0), AttrId(0));
        let provided: Vec<Value> = snapshot
            .observations(item)
            .iter()
            .map(|o| o.value.clone())
            .collect();
        let tolerance = snapshot.tolerance().tolerance(AttrId(0));
        for (_, method) in all_methods() {
            let result = method.run(&problem, &FusionOptions::standard());
            let selected = result.value_for(item).expect("item fused");
            prop_assert!(
                provided.iter().any(|v| v.matches(selected, tolerance.max(1e-9))),
                "{} selected a value nobody provided: {selected}",
                method.name()
            );
            for t in &result.trust.overall {
                prop_assert!(t.is_finite());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The generator is deterministic in its seed and always produces
    /// snapshots whose provenance covers every observation.
    #[test]
    fn generator_determinism_and_provenance(seed in 0u64..1000) {
        let config = stock_config(seed).scaled(0.01, 0.1);
        let a = generate(&config);
        let b = generate(&config);
        prop_assert_eq!(
            a.reference_snapshot().num_observations(),
            b.reference_snapshot().num_observations()
        );
        let prov = a.reference_provenance();
        prop_assert_eq!(prov.len(), a.reference_snapshot().num_observations());
        // Gold standard only contains values that judge as correct against
        // themselves.
        let day = a.collection.reference_day();
        for (item, value) in day.gold.iter() {
            prop_assert_eq!(day.gold.judge(&day.snapshot, *item, value), Some(true));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Copier-ring members only ever relay their direct ring source: every
    /// claim a member makes is also claimed by the previous ring member with
    /// the *identical* value (copiers copy or drop, never invent).
    #[test]
    fn ring_member_claims_mirror_their_ring_source(seed in 0u64..1000) {
        let world = datagen::Scenario::new("prop_ring")
            .with_seed(seed)
            .scaled_to(0.03)
            .over_days(1)
            .with_copier_ring(4, 0.3, 0.9)
            .build();
        let snapshot = world.domain.reference_snapshot();
        prop_assert_eq!(world.ring_sources.len(), 4);
        for pair in world.ring_sources.windows(2) {
            let (upstream, member) = (pair[0], pair[1]);
            let items = snapshot.items_of_source(member);
            prop_assert!(!items.is_empty(), "ring member {member:?} claims nothing");
            for item in items {
                let copied = snapshot.value_of(member, item).unwrap();
                let original = snapshot.value_of(upstream, item);
                prop_assert_eq!(
                    original, Some(copied),
                    "ring member {:?} deviates from its source {:?} on {:?}",
                    member, upstream, item
                );
            }
        }
    }

    /// Zipf coverage is monotone non-increasing in rank at the config level,
    /// and the realized worlds honour it: the top-third of the ranked sources
    /// make strictly more claims than the bottom third.
    #[test]
    fn zipf_coverage_is_heavy_tailed(seed in 0u64..1000, exponent in 0.6f64..1.8) {
        let scenario = datagen::Scenario::new("prop_zipf")
            .with_seed(seed)
            .scaled_to(0.03)
            .over_days(1)
            .with_zipf_coverage(exponent);
        let config = scenario.config();
        let world = scenario.build();
        let mut last = f64::INFINITY;
        for &s in &world.zipf_ranked {
            let cov = config.sources[s.index()].object_coverage;
            prop_assert!(cov <= last + 1e-12, "coverage not monotone at {:?}", s);
            last = cov;
        }
        let snapshot = world.domain.reference_snapshot();
        let claims = |sources: &[datamodel::SourceId]| -> usize {
            sources.iter().map(|&s| snapshot.items_of_source(s).len()).sum()
        };
        let third = world.zipf_ranked.len() / 3;
        prop_assert!(third > 0);
        let top = claims(&world.zipf_ranked[..third]);
        let bottom = claims(&world.zipf_ranked[world.zipf_ranked.len() - third..]);
        prop_assert!(
            top > bottom,
            "top-third claims {} not above bottom-third {}", top, bottom
        );
    }

    /// Quality flips are surgical and land on target: against a same-seed
    /// control world without the flip knob, the flipped sources' pre-flip
    /// days are *bit-identical* (identical claim and error counts), while
    /// from the flip day onwards their realized error rate jumps well above
    /// the control and at least to the flipped error budget
    /// (`1 - accuracy_after`; staleness compounds on top of it).
    #[test]
    fn quality_flip_matches_pre_and_post_error_rates(seed in 0u64..1000) {
        let flip_day = 2u32;
        let accuracy_after = 0.45f64;
        let base = datagen::Scenario::new("prop_flip")
            .with_seed(seed)
            .scaled_to(0.06)
            .over_days(4);
        let flipped = base.clone().with_quality_flips(6, flip_day, accuracy_after).build();
        let control = base.build();
        prop_assert_eq!(flipped.flipped_sources.len(), 6);

        // Aggregate (errors, claims) over the flipped sources for one day.
        let tally = |world: &datagen::ScenarioWorld, day: usize| -> (usize, usize) {
            let snapshot = &world.domain.collection.day(day).snapshot;
            let prov = &world.domain.provenance[day];
            let mut errors = 0;
            let mut claims = 0;
            for &s in &flipped.flipped_sources {
                for item in snapshot.items_of_source(s) {
                    claims += 1;
                    let p = prov.get(item, s).expect("claim has provenance");
                    if !p.outcome.is_correct() {
                        errors += 1;
                    }
                }
            }
            (errors, claims)
        };

        // Pre-flip days are untouched by the knob: same claim volume, same
        // error count, and the very same values as the control world.
        for day in 0..flip_day as usize {
            let (f_err, f_n) = tally(&flipped, day);
            let (c_err, c_n) = tally(&control, day);
            prop_assert!(f_n > 200, "too few claims to measure");
            prop_assert_eq!((f_err, f_n), (c_err, c_n), "pre-flip day {} disturbed", day);
            let f_snap = &flipped.domain.collection.day(day).snapshot;
            let c_snap = &control.domain.collection.day(day).snapshot;
            for &s in &flipped.flipped_sources {
                for item in f_snap.items_of_source(s) {
                    prop_assert_eq!(f_snap.value_of(s, item), c_snap.value_of(s, item));
                }
            }
        }

        // Post-flip days: rate jumps well above the control and reaches at
        // least the flipped error budget (day 1 is the pre-flip steady state
        // once stale errors can materialize).
        let (pre_err, pre_n) = tally(&flipped, 1);
        let pre_rate = pre_err as f64 / pre_n as f64;
        for day in flip_day as usize..4 {
            let (f_err, f_n) = tally(&flipped, day);
            let (c_err, c_n) = tally(&control, day);
            let post_rate = f_err as f64 / f_n as f64;
            let control_rate = c_err as f64 / c_n as f64;
            prop_assert!(
                post_rate >= 1.0 - accuracy_after - 0.05,
                "day {}: post-flip error rate {} below the flipped budget {}",
                day, post_rate, 1.0 - accuracy_after
            );
            prop_assert!(
                post_rate > control_rate + 0.15 && post_rate > pre_rate + 0.15,
                "day {}: post-flip rate {} too close to control {} / pre-flip {}",
                day, post_rate, control_rate, pre_rate
            );
            prop_assert!(post_rate < 0.95, "day {}: flip degenerated to all-errors", day);
        }
    }
}
