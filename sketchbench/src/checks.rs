//! Correctness checks. Each compares an output of the code under test with
//! a computation made apart from it (a brute-force count, an unsharded
//! sketch built without `serve`, the benchmark's own bookkeeping) or with a
//! property the method must have (linearity, unbiasedness). None compares
//! against a stored copy of an earlier run's output.

use geometry::HyperRect;
use serve::net::WireReply;
use sketch::{Estimate, SketchSet};

/// Two-sided critical value of the unbiasedness z-test: |z| above it fails.
/// A level of about 6e-5 per run, so a long series of runs of correct code
/// almost never trips it, while a 10% bias over a few hundred row estimates
/// gives |z| far above it.
pub const UNBIASED_Z_CRIT: f64 = 4.0;

/// The paper's join predicate written out independently of `geometry`: two
/// closed rectangles join iff in every dimension their intersection has
/// positive length.
fn rects_join<const D: usize>(a: &HyperRect<D>, b: &HyperRect<D>) -> bool {
    (0..D).all(|d| {
        let (x, y) = (a.range(d), b.range(d));
        x.lo() < y.hi() && y.lo() < x.hi()
    })
}

/// Brute-force join cardinality over all pairs.
pub fn brute_join_count<const D: usize>(r: &[HyperRect<D>], s: &[HyperRect<D>]) -> u64 {
    r.iter()
        .map(|a| s.iter().filter(|b| rects_join(a, b)).count() as u64)
        .sum()
}

/// The exact processor's count must equal the brute-force count.
pub fn check_truth(exact: u64, brute: u64) -> Result<(), String> {
    if exact == brute {
        Ok(())
    } else {
        Err(format!(
            "exact::rect_join_count gave {exact}, brute force {brute}"
        ))
    }
}

/// Linearity: after deleting and re-inserting objects, every counter and
/// the live count equal their values before the deletes.
pub fn check_linearity<const D: usize>(
    before: &SketchSet<D>,
    after: &SketchSet<D>,
) -> Result<(), String> {
    if before.len() != after.len() {
        return Err(format!(
            "live count {} after delete/re-insert, {} before",
            after.len(),
            before.len()
        ));
    }
    for inst in 0..before.schema().instances() {
        if before.instance_counters(inst) != after.instance_counters(inst) {
            return Err(format!(
                "instance {inst}: counters differ after delete/re-insert"
            ));
        }
    }
    Ok(())
}

/// The z statistic of `samples` against `truth`: (mean − truth) / (s / √n).
pub fn unbiased_z(samples: &[f64], truth: f64) -> f64 {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean - truth) / (var / n).sqrt()
}

/// Two-sided unbiasedness test of independent estimates of `truth`.
pub fn check_unbiased(samples: &[f64], truth: f64) -> Result<(), String> {
    if samples.len() < 10 {
        return Err(format!(
            "unbiasedness test needs at least 10 estimates, got {}",
            samples.len()
        ));
    }
    let z = unbiased_z(samples, truth);
    if z.is_finite() && z.abs() <= UNBIASED_Z_CRIT {
        Ok(())
    } else {
        Err(format!(
            "estimates biased: z = {z:.2} against truth {truth} (|z| must be <= {UNBIASED_Z_CRIT})"
        ))
    }
}

/// Bitwise equality of a wire estimate and an in-process one: the boosted
/// value and every row mean, compared as `f64` bit patterns.
fn same_bits(value: f64, row_means: &[f64], expected: &Estimate) -> bool {
    value.to_bits() == expected.value.to_bits()
        && row_means.len() == expected.row_means.len()
        && row_means
            .iter()
            .zip(&expected.row_means)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// What one wire reply turned out to be.
#[derive(Debug, PartialEq, Eq)]
pub enum ReplyCheck {
    /// An estimate bit-identical to one of the admissible answers.
    Match,
    /// Not an estimate (shed or per-query error): a failed operation.
    Failed,
}

/// Checks one reply against the answers it may legally carry (one per
/// store state the query may have seen). A non-estimate reply is a failed
/// operation, not a wrong answer; an estimate matching none of `admissible`
/// is wrong.
pub fn check_reply(reply: &WireReply, admissible: &[&Estimate]) -> Result<ReplyCheck, String> {
    match reply {
        WireReply::Estimate { value, row_means } => {
            if admissible.iter().any(|e| same_bits(*value, row_means, e)) {
                Ok(ReplyCheck::Match)
            } else {
                Err(format!(
                    "wire estimate {value} matches none of the {} admissible answers",
                    admissible.len()
                ))
            }
        }
        WireReply::Error { .. } | WireReply::Partial { .. } => Ok(ReplyCheck::Failed),
    }
}

/// Checks a frame's replies: one per query, each admissible. Returns the
/// number of failed (non-estimate) replies.
pub fn check_frame(replies: &[WireReply], admissible: &[Vec<&Estimate>]) -> Result<u64, String> {
    if replies.len() != admissible.len() {
        return Err(format!(
            "frame carried {} replies for {} queries",
            replies.len(),
            admissible.len()
        ));
    }
    let mut failed = 0;
    for (reply, ok) in replies.iter().zip(admissible) {
        if check_reply(reply, ok)? == ReplyCheck::Failed {
            failed += 1;
        }
    }
    Ok(failed)
}

/// The store's live count must equal inserts minus deletes.
pub fn check_live_count(store_len: i64, inserted: i64, deleted: i64) -> Result<(), String> {
    if store_len == inserted - deleted {
        Ok(())
    } else {
        Err(format!(
            "store holds {store_len} objects, stream inserted {inserted} and deleted {deleted}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::rect2;
    use rand::{Rng, SeedableRng};
    use serve::net::WireErrorCode;
    use sketch::estimators::SketchConfig;
    use sketch::{EndpointStrategy, RangeQuery, RangeStrategy, SpatialJoin};

    fn rects(seed: u64, n: usize) -> Vec<HyperRect<2>> {
        datagen::SyntheticSpec::paper(n, 10, 0.5, seed).generate()
    }

    #[test]
    fn truth_check_rejects_a_wrong_exact_count() {
        let (r, s) = (rects(1, 300), rects(2, 300));
        let brute = brute_join_count(&r, &s);
        assert!(brute > 0);
        assert!(check_truth(exact::rect_join_count(&r, &s), brute).is_ok());
        assert!(check_truth(brute + 1, brute).is_err());
        assert!(check_truth(brute - 1, brute).is_err());
    }

    #[test]
    fn brute_force_follows_the_positive_length_predicate() {
        // Touching edges do not join; a unit-length overlap does.
        let a = [rect2(0, 10, 0, 10)];
        assert_eq!(brute_join_count(&a, &[rect2(10, 20, 0, 10)]), 0);
        assert_eq!(brute_join_count(&a, &[rect2(9, 20, 9, 20)]), 1);
    }

    #[test]
    fn linearity_check_rejects_a_perturbed_counter() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let join = SpatialJoin::<2>::new(
            &mut rng,
            SketchConfig::new(8, 3),
            [10, 10],
            EndpointStrategy::Transform,
        );
        let data = rects(4, 200);
        let mut sk = join.new_sketch_r();
        sk.insert_slice(&data).unwrap();
        let before = sk.clone();
        sk.delete_slice(&data[..50]).unwrap();
        sk.insert_slice(&data[..50]).unwrap();
        assert!(check_linearity(&before, &sk).is_ok());
        // Re-inserting a different object keeps the count but not the
        // counters.
        sk.delete_slice(&data[..1]).unwrap();
        sk.insert_slice(&data[1..2]).unwrap();
        assert!(check_linearity(&before, &sk).is_err());
        // A missing re-insert changes the live count.
        let mut short = before.clone();
        short.delete_slice(&data[..1]).unwrap();
        assert!(check_linearity(&before, &short).is_err());
    }

    #[test]
    fn unbiasedness_test_rejects_a_perturbed_estimate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        // Noisy unbiased estimates of 1000 with 20% relative spread.
        let samples: Vec<f64> = (0..300)
            .map(|_| 1000.0 * (1.0 + 0.2 * (rng.gen::<f64>() * 2.0 - 1.0) * 1.7))
            .collect();
        assert!(check_unbiased(&samples, 1000.0).is_ok());
        let biased: Vec<f64> = samples.iter().map(|x| x * 1.1).collect();
        assert!(check_unbiased(&biased, 1000.0).is_err());
        assert!(check_unbiased(&samples, 1100.0).is_err());
        assert!(check_unbiased(&samples[..5], 1000.0).is_err());
    }

    fn estimate() -> Estimate {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let rq = RangeQuery::<2>::new(
            &mut rng,
            SketchConfig::new(8, 3),
            [10, 10],
            RangeStrategy::Transform,
        );
        let mut sk = rq.new_sketch();
        sk.insert_slice(&rects(7, 100)).unwrap();
        rq.estimate(&sk, &rect2(100, 600, 100, 600)).unwrap()
    }

    #[test]
    fn reply_check_rejects_altered_and_perturbed_estimates() {
        let e = estimate();
        let good = WireReply::Estimate {
            value: e.value,
            row_means: e.row_means.clone(),
        };
        assert_eq!(check_reply(&good, &[&e]), Ok(ReplyCheck::Match));
        let perturbed = WireReply::Estimate {
            value: e.value * (1.0 + 1e-12),
            row_means: e.row_means.clone(),
        };
        assert!(check_reply(&perturbed, &[&e]).is_err());
        let mut rows = e.row_means.clone();
        rows[1] = f64::from_bits(rows[1].to_bits() ^ 1);
        let altered = WireReply::Estimate {
            value: e.value,
            row_means: rows,
        };
        assert!(check_reply(&altered, &[&e]).is_err());
        // A reply matching the other admissible state passes.
        let other = Estimate {
            value: e.value + 1.0,
            row_means: e.row_means.clone(),
        };
        let moved = WireReply::Estimate {
            value: other.value,
            row_means: other.row_means.clone(),
        };
        assert_eq!(check_reply(&moved, &[&e, &other]), Ok(ReplyCheck::Match));
        assert!(check_reply(&moved, &[&e]).is_err());
        let shed = WireReply::Error {
            code: WireErrorCode::Overloaded,
            message: String::new(),
        };
        assert_eq!(check_reply(&shed, &[&e]), Ok(ReplyCheck::Failed));
    }

    #[test]
    fn frame_check_rejects_a_dropped_reply() {
        let e = estimate();
        let reply = WireReply::Estimate {
            value: e.value,
            row_means: e.row_means.clone(),
        };
        let admissible = vec![vec![&e], vec![&e]];
        assert_eq!(
            check_frame(&[reply.clone(), reply.clone()], &admissible),
            Ok(0)
        );
        assert!(check_frame(std::slice::from_ref(&reply), &admissible).is_err());
        let shed = WireReply::Error {
            code: WireErrorCode::Overloaded,
            message: String::new(),
        };
        assert_eq!(check_frame(&[reply, shed], &admissible), Ok(1));
    }

    #[test]
    fn live_count_check_rejects_a_lost_update() {
        assert!(check_live_count(90, 100, 10).is_ok());
        assert!(check_live_count(91, 100, 10).is_err());
    }
}
