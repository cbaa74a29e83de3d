//! Placement policies: which host receives an arriving tenant.
//!
//! A policy sees only aggregate per-host state — vCPUs already placed
//! and an interference signal (steal-time EWMA from the previous
//! epochs' runs) — mirroring what a real placement controller can
//! observe without trusting the tenants. All tie-breaks are by host
//! index (lowest for first-fit and worst-fit, highest for
//! interference-aware), so placement traces are deterministic.
//!
//! Two implementations answer the same query: the O(hosts) linear scan
//! on a `&[HostState]` slice ([`PlacementPolicy::place`], the reference
//! semantics) and the indexed [`PlacementIndex`] the campaign actually
//! uses, which keeps per-policy candidate structures (a min-used segment
//! tree for first-fit, ordered sets for worst-fit and
//! interference-aware) so a 1000-host fleet places in O(log hosts)
//! instead of rescanning the fleet per arrival. The equivalence tests at
//! the bottom of this module pin both to identical decisions.

use std::cmp::Reverse;
use std::collections::BTreeSet;

/// Aggregate per-host state the policies decide on.
#[derive(Debug, Clone, Default)]
pub struct HostState {
    /// vCPUs of currently placed tenants.
    pub used_vcpus: usize,
    /// Exponentially weighted steal-time fraction observed on this host
    /// over past epochs (0 = idle or interference-free).
    pub steal_ewma: f64,
}

/// The placement policies the campaign compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Lowest-index host with room: packs tenants densely.
    FirstFit,
    /// Most-free host: spreads tenants evenly.
    WorstFit,
    /// Least-interfered host with room: spreads away from hosts whose
    /// steal-EWMA says their tenants are fighting (adversary-avoiding).
    InterferenceAware,
}

impl PlacementPolicy {
    /// Stable small id for seed derivation.
    pub fn id(self) -> u8 {
        match self {
            PlacementPolicy::FirstFit => 0,
            PlacementPolicy::WorstFit => 1,
            PlacementPolicy::InterferenceAware => 2,
        }
    }

    /// Label for table columns.
    pub fn label(self) -> &'static str {
        match self {
            PlacementPolicy::FirstFit => "first-fit",
            PlacementPolicy::WorstFit => "worst-fit",
            PlacementPolicy::InterferenceAware => "interf-aware",
        }
    }

    /// Picks a host for a tenant needing `need` vCPUs under a per-host
    /// vCPU `capacity` (pCPUs × overcommit). Returns `None` when the
    /// fleet is full (the arrival is rejected).
    pub fn place(self, hosts: &[HostState], capacity: usize, need: usize) -> Option<usize> {
        let fits = |h: &HostState| h.used_vcpus + need <= capacity;
        match self {
            PlacementPolicy::FirstFit => hosts.iter().position(fits),
            PlacementPolicy::WorstFit => hosts
                .iter()
                .enumerate()
                .filter(|(_, h)| fits(h))
                // max_by_key returns the *last* max; enumerate in reverse
                // so ties resolve to the lowest index.
                .rev()
                .max_by_key(|(_, h)| capacity - h.used_vcpus)
                .map(|(i, _)| i),
            PlacementPolicy::InterferenceAware => hosts
                .iter()
                .enumerate()
                .filter(|(_, h)| fits(h))
                .rev()
                // Least steal first; break steal ties by most-free.
                // `min_by` keeps the *first* minimum, so over the
                // reversed iterator full ties resolve to the highest
                // index. Total order via bit patterns is safe: EWMAs are
                // finite and non-negative.
                .min_by(|(_, a), (_, b)| {
                    a.steal_ewma
                        .total_cmp(&b.steal_ewma)
                        .then(a.used_vcpus.cmp(&b.used_vcpus))
                })
                .map(|(i, _)| i),
        }
    }
}

/// Maps a steal EWMA to an order-preserving integer key: for the finite,
/// non-negative values the campaign produces, `f64::to_bits` is monotone,
/// so ordering bit keys equals `total_cmp` on the floats. Values at or
/// below zero (including `-0.0`) collapse to key 0.
fn steal_key(ewma: f64) -> u64 {
    if ewma <= 0.0 {
        0
    } else {
        ewma.to_bits()
    }
}

/// Indexed candidate structure answering every [`PlacementPolicy`] query
/// without scanning the fleet.
///
/// Maintains, in parallel:
///
/// * a **min-used segment tree** over host index — first-fit descends it
///   to the lowest-index host with room in O(log hosts);
/// * an ordered `(used, host)` set — worst-fit reads its first element
///   (most-free, ties to the lowest index);
/// * an ordered `(steal key, used, Reverse(host))` set —
///   interference-aware takes the first *fitting* element (least steal,
///   then most-free, then — matching the reference scan's tie-break —
///   highest index; typically the first few entries).
///
/// Decisions are identical to the linear reference scan — the module
/// tests drive both against random fleets and assert equality.
#[derive(Debug, Clone)]
pub struct PlacementIndex {
    /// Per-host vCPU capacity (pCPUs × overcommit).
    capacity: usize,
    used: Vec<usize>,
    steal: Vec<f64>,
    /// Min-used segment tree: `seg[1]` is the root, leaves start at
    /// `base`; hosts beyond the fleet pad with `usize::MAX`.
    seg: Vec<usize>,
    base: usize,
    by_free: BTreeSet<(usize, usize)>,
    by_steal: BTreeSet<(u64, usize, Reverse<usize>)>,
}

impl PlacementIndex {
    /// An empty fleet of `hosts` hosts with per-host vCPU `capacity`.
    pub fn new(hosts: usize, capacity: usize) -> Self {
        let base = hosts.next_power_of_two().max(1);
        let mut seg = vec![usize::MAX; 2 * base];
        for h in 0..hosts {
            seg[base + h] = 0;
        }
        for i in (1..base).rev() {
            seg[i] = seg[2 * i].min(seg[2 * i + 1]);
        }
        PlacementIndex {
            capacity,
            used: vec![0; hosts],
            steal: vec![0.0; hosts],
            seg,
            base,
            by_free: (0..hosts).map(|h| (0, h)).collect(),
            by_steal: (0..hosts).map(|h| (0, 0, Reverse(h))).collect(),
        }
    }

    /// Number of hosts indexed.
    pub fn hosts(&self) -> usize {
        self.used.len()
    }

    /// Per-host vCPU capacity the index was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// vCPUs currently placed on `host`.
    pub fn used(&self, host: usize) -> usize {
        self.used[host]
    }

    /// `host`'s current steal EWMA.
    pub fn steal(&self, host: usize) -> f64 {
        self.steal[host]
    }

    /// Re-keys `host` across all three structures.
    fn rekey(&mut self, host: usize, new_used: usize, new_steal: f64) {
        let (old_used, old_steal) = (self.used[host], self.steal[host]);
        self.by_free.remove(&(old_used, host));
        self.by_steal
            .remove(&(steal_key(old_steal), old_used, Reverse(host)));
        self.used[host] = new_used;
        self.steal[host] = new_steal;
        self.by_free.insert((new_used, host));
        self.by_steal
            .insert((steal_key(new_steal), new_used, Reverse(host)));
        let mut i = self.base + host;
        self.seg[i] = new_used;
        while i > 1 {
            i /= 2;
            self.seg[i] = self.seg[2 * i].min(self.seg[2 * i + 1]);
        }
    }

    /// Records a placement of `vcpus` on `host`.
    pub fn add_tenant(&mut self, host: usize, vcpus: usize) {
        self.rekey(host, self.used[host] + vcpus, self.steal[host]);
    }

    /// Records a departure of `vcpus` from `host`.
    pub fn remove_tenant(&mut self, host: usize, vcpus: usize) {
        let u = self.used[host];
        assert!(u >= vcpus, "departure exceeds placed vCPUs on host {host}");
        self.rekey(host, u - vcpus, self.steal[host]);
    }

    /// Updates `host`'s steal EWMA (the telemetry feedback path).
    pub fn set_steal(&mut self, host: usize, ewma: f64) {
        self.rekey(host, self.used[host], ewma);
    }

    /// Picks a host for a tenant needing `need` vCPUs — same contract and
    /// identical decisions as [`PlacementPolicy::place`] over equivalent
    /// [`HostState`]s.
    pub fn place(&self, policy: PlacementPolicy, need: usize) -> Option<usize> {
        let limit = self.capacity.checked_sub(need)?;
        match policy {
            PlacementPolicy::FirstFit => {
                if self.seg[1] > limit {
                    return None;
                }
                let mut i = 1;
                while i < self.base {
                    i = if self.seg[2 * i] <= limit {
                        2 * i
                    } else {
                        2 * i + 1
                    };
                }
                Some(i - self.base)
            }
            PlacementPolicy::WorstFit => match self.by_free.first() {
                Some(&(used, host)) if used <= limit => Some(host),
                _ => None,
            },
            PlacementPolicy::InterferenceAware => self
                .by_steal
                .iter()
                .find(|&&(_, used, _)| used <= limit)
                .map(|&(_, _, Reverse(host))| host),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_sim::SimRng;

    fn hosts(used: &[usize], steal: &[f64]) -> Vec<HostState> {
        used.iter()
            .zip(steal)
            .map(|(&used_vcpus, &steal_ewma)| HostState {
                used_vcpus,
                steal_ewma,
            })
            .collect()
    }

    #[test]
    fn first_fit_packs_lowest_index() {
        let h = hosts(&[4, 2, 0], &[0.0, 0.0, 0.0]);
        assert_eq!(PlacementPolicy::FirstFit.place(&h, 4, 2), Some(1));
    }

    #[test]
    fn worst_fit_spreads_to_most_free() {
        let h = hosts(&[4, 2, 0], &[0.0, 0.0, 0.0]);
        assert_eq!(PlacementPolicy::WorstFit.place(&h, 4, 2), Some(2));
    }

    #[test]
    fn worst_fit_breaks_ties_low_index() {
        let h = hosts(&[2, 2, 2], &[0.0, 0.0, 0.0]);
        assert_eq!(PlacementPolicy::WorstFit.place(&h, 4, 2), Some(0));
    }

    #[test]
    fn interference_aware_avoids_noisy_hosts() {
        let h = hosts(&[2, 2, 2], &[0.4, 0.05, 0.4]);
        assert_eq!(PlacementPolicy::InterferenceAware.place(&h, 4, 2), Some(1));
    }

    #[test]
    fn interference_aware_breaks_steal_ties_by_free_space() {
        let h = hosts(&[2, 0], &[0.1, 0.1]);
        assert_eq!(PlacementPolicy::InterferenceAware.place(&h, 4, 2), Some(1));
    }

    #[test]
    fn full_fleet_rejects() {
        let h = hosts(&[4, 3], &[0.0, 0.0]);
        for p in [
            PlacementPolicy::FirstFit,
            PlacementPolicy::WorstFit,
            PlacementPolicy::InterferenceAware,
        ] {
            assert_eq!(p.place(&h, 4, 2), None);
        }
    }

    const ALL_POLICIES: [PlacementPolicy; 3] = [
        PlacementPolicy::FirstFit,
        PlacementPolicy::WorstFit,
        PlacementPolicy::InterferenceAware,
    ];

    /// The index must make exactly the decision the linear reference scan
    /// makes, at every point of a randomized churn trace.
    #[test]
    fn index_matches_linear_scan_over_random_churn() {
        let (n, capacity, need) = (13, 6, 2);
        let mut rng = SimRng::seed_from(42);
        let mut idx = PlacementIndex::new(n, capacity);
        let mut mirror = vec![HostState::default(); n];
        for step in 0..600 {
            // Random churn: placements, departures, telemetry updates.
            match rng.index(3) {
                0 => {
                    let h = rng.index(n);
                    if mirror[h].used_vcpus + need <= capacity {
                        idx.add_tenant(h, need);
                        mirror[h].used_vcpus += need;
                    }
                }
                1 => {
                    let h = rng.index(n);
                    if mirror[h].used_vcpus >= need {
                        idx.remove_tenant(h, need);
                        mirror[h].used_vcpus -= need;
                    }
                }
                _ => {
                    let h = rng.index(n);
                    let s = rng.unit_f64() * 0.8;
                    idx.set_steal(h, s);
                    mirror[h].steal_ewma = s;
                }
            }
            for p in ALL_POLICIES {
                assert_eq!(
                    idx.place(p, need),
                    p.place(&mirror, capacity, need),
                    "{} diverged at step {step}",
                    p.label()
                );
            }
        }
    }

    #[test]
    fn index_handles_degenerate_shapes() {
        // Empty fleet: everything rejects.
        let idx = PlacementIndex::new(0, 4);
        for p in ALL_POLICIES {
            assert_eq!(idx.place(p, 2), None);
        }
        // Need exceeding capacity: rejected, not underflowed.
        let idx = PlacementIndex::new(3, 4);
        for p in ALL_POLICIES {
            assert_eq!(idx.place(p, 5), None);
        }
        // Single host.
        let mut idx = PlacementIndex::new(1, 4);
        assert_eq!(idx.place(PlacementPolicy::FirstFit, 2), Some(0));
        idx.add_tenant(0, 4);
        assert_eq!(idx.place(PlacementPolicy::FirstFit, 2), None);
    }

    #[test]
    fn steal_key_orders_like_total_cmp_on_campaign_values() {
        let vals = [0.0, -0.0, 1e-300, 0.1, 0.5, 0.99, 1.0];
        for &a in &vals {
            for &b in &vals {
                let bits = steal_key(a).cmp(&steal_key(b));
                // -0.0 collapses onto 0.0 by design; everything else must
                // match total_cmp.
                let norm = |x: f64| if x == 0.0 { 0.0 } else { x };
                assert_eq!(bits, norm(a).total_cmp(&norm(b)), "{a} vs {b}");
            }
        }
    }
}
