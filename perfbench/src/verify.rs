//! Output checks.  Every check returns `Err(reason)` on a wrong output;
//! the workload counts it as a failed operation in `error_rate`.

use kcenter_core::evaluate::covering_radius;
use kcenter_core::{FirstCenter, GonzalezConfig, GonzalezCoresetConfig, SequentialSolver};
use kcenter_data::DatasetSpec;
use kcenter_metric::{Distance, Euclidean, MetricSpace, PointId, VecSpace};
use kcenter_serve::{CenterSnapshot, SnapshotAnswer};

/// 64-bit FNV-1a.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digest of a center set, order included.
pub fn digest_ids(ids: &[PointId]) -> u64 {
    let bytes: Vec<u8> = ids
        .iter()
        .flat_map(|&id| (id as u64).to_le_bytes())
        .collect();
    fnv64(&bytes)
}

/// How a program reported its covering radius.
pub enum Reported<'a> {
    /// As an `f64`, to be matched bit for bit.
    Value(f64),
    /// As the CLI prints it, `{:.6}`.
    Text(&'a str),
}

/// Checks a k-center solution: `k` distinct, valid center ids, a reported
/// radius equal to `evaluate::covering_radius` recomputed here, and, when
/// given, the center-set digest of the other runs of the workload.
/// Returns the recomputed radius and the digest.
pub fn check_solution<S: MetricSpace + ?Sized>(
    space: &S,
    k: usize,
    centers: &[PointId],
    reported: Reported,
    expected_digest: Option<u64>,
) -> Result<(f64, u64), String> {
    check_ids(centers, k, space.len())?;
    let radius = covering_radius(space, centers);
    match reported {
        Reported::Value(r) if r.to_bits() != radius.to_bits() => {
            return Err(format!(
                "reported radius {r:e} but the centers cover at {radius:e}"
            ))
        }
        Reported::Text(t) if t != format!("{radius:.6}") => {
            return Err(format!(
                "printed radius {t} but the centers cover at {radius:.6}"
            ))
        }
        _ => {}
    }
    let digest = digest_ids(centers);
    match expected_digest {
        Some(d) if d != digest => Err(format!(
            "center set digest {digest:#018x} differs from the workload's {d:#018x}"
        )),
        _ => Ok((radius, digest)),
    }
}

fn check_ids(ids: &[PointId], k: usize, n: usize) -> Result<(), String> {
    if ids.len() != k {
        return Err(format!("{} centers, expected {k}", ids.len()));
    }
    if let Some(&bad) = ids.iter().find(|&&id| id >= n) {
        return Err(format!("center id {bad} out of range (n = {n})"));
    }
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != k {
        return Err("repeated center ids".into());
    }
    Ok(())
}

/// Index and distance of the center of `ids` nearest to `q`, by brute
/// force over the source rows (ties to the lower index).
pub fn brute_nearest(source: &VecSpace, ids: &[PointId], q: &[f64]) -> (usize, f64) {
    let mut best = (0, f64::INFINITY);
    for (i, &id) in ids.iter().enumerate() {
        let d = Euclidean.distance_slices(source.row(id), q);
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

/// Checks a published snapshot: an intact digest, full coverage, and `k`
/// distinct valid centers of a source of `n` points.
pub fn check_snapshot(snap: &CenterSnapshot<Euclidean>, k: usize, n: usize) -> Result<(), String> {
    if !snap.verify() {
        return Err(format!("snapshot v{} fails its digest", snap.version()));
    }
    if snap.covered_fraction() != 1.0 {
        return Err(format!(
            "snapshot v{} covers {} of the source",
            snap.version(),
            snap.covered_fraction()
        ));
    }
    check_ids(snap.center_ids(), k, n)
}

/// Checks one query answer against a brute-force nearest center over the
/// snapshot's `center_ids()`.
pub fn check_answer(
    snap: &CenterSnapshot<Euclidean>,
    source: &VecSpace,
    q: &[f64],
    got: &SnapshotAnswer,
) -> Result<(), String> {
    let (index, distance) = brute_nearest(source, snap.center_ids(), q);
    let right = got.index == index
        && got.center == snap.center_ids()[index]
        && got.distance.to_bits() == distance.to_bits()
        && got.version == snap.version()
        && got.radius_bound.to_bits() == snap.radius_bound().to_bits();
    if right {
        Ok(())
    } else {
        Err(format!(
            "snapshot v{} answered center #{} (point {}) at {:e}; brute force says #{index} \
             (point {}) at {distance:e}",
            snap.version(),
            got.index,
            got.center,
            got.distance,
            snap.center_ids()[index]
        ))
    }
}

/// Feeds the checks deliberately wrong outputs and shows each is counted
/// as an error, and that the intact outputs pass.  Returns a one-line
/// summary, or what the checks let through.
pub fn self_test() -> Result<String, String> {
    let k = 5;
    let space = VecSpace::from_flat(
        DatasetSpec::Gau {
            n: 2000,
            k_prime: k,
        }
        .generate_flat(7),
    );
    let sol = GonzalezConfig::new(k)
        .solve(&space)
        .map_err(|e| e.to_string())?;
    let (_, digest) = check_solution(&space, k, &sol.centers, Reported::Value(sol.radius), None)
        .map_err(|e| format!("self-test: intact solution rejected: {e}"))?;

    let mut perturbed = sol.centers.clone();
    perturbed[0] = (0..space.len())
        .find(|p| !sol.centers.contains(p))
        .expect("more points than centers");
    let wrong_radius = f64::from_bits(sol.radius.to_bits() + 1);

    let coreset = GonzalezCoresetConfig::new(50)
        .build(&space)
        .map_err(|e| e.to_string())?;
    let csol = coreset
        .solve(k, SequentialSolver::Gonzalez, FirstCenter::default())
        .map_err(|e| e.to_string())?;
    let intact = CenterSnapshot::from_solution(1, 1, &coreset, &csol);
    let mut swapped = csol.clone();
    swapped.centers.rotate_left(1);
    let swapped = CenterSnapshot::from_solution(1, 1, &coreset, &swapped);
    let mut partial = csol.clone();
    partial.covered_fraction = 0.5;
    let partial = CenterSnapshot::from_solution(1, 1, &coreset, &partial);

    // Query at every center's own row: an intact snapshot answers each at
    // distance 0; one whose ids and rows disagree cannot.
    let answers_ok = |snap: &CenterSnapshot<Euclidean>| {
        check_snapshot(snap, k, space.len())?;
        csol.centers.iter().try_for_each(|&c| {
            let q = space.row(c);
            let got = snap.query(q).ok_or("no answer")?;
            check_answer(snap, &space, q, &got)
        })
    };
    answers_ok(&intact).map_err(|e| format!("self-test: intact snapshot rejected: {e}"))?;

    let cases: [(&str, Result<(), String>); 4] = [
        (
            "perturbed center set",
            check_solution(
                &space,
                k,
                &perturbed,
                Reported::Value(sol.radius),
                Some(digest),
            )
            .map(drop),
        ),
        (
            "wrong radius",
            check_solution(&space, k, &sol.centers, Reported::Value(wrong_radius), None).map(drop),
        ),
        ("snapshot with swapped center ids", answers_ok(&swapped)),
        ("snapshot claiming partial coverage", answers_ok(&partial)),
    ];
    let missed: Vec<&str> = cases
        .iter()
        .filter(|(_, r)| r.is_ok())
        .map(|(name, _)| *name)
        .collect();
    if missed.is_empty() {
        Ok(format!(
            "{} wrong outputs fed, {} counted as errors; intact outputs accepted",
            cases.len(),
            cases.len()
        ))
    } else {
        Err(format!("self-test: checks accepted: {}", missed.join(", ")))
    }
}
