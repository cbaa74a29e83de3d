//! Placement policies: which host receives an arriving tenant.
//!
//! A policy sees only aggregate per-host state — vCPUs already placed
//! and an interference signal (steal-time EWMA from the previous
//! epochs' runs) — mirroring what a real placement controller can
//! observe without trusting the tenants. All tie-breaks are by host
//! index (lowest for first-fit and worst-fit, highest for
//! interference-aware), so placement traces are deterministic.
//!
//! [`PlacementIndex`] answers every policy from one segment tree over
//! the hosts, so a 1000-host fleet places in O(log hosts) instead of
//! rescanning the fleet per arrival. The tests at the bottom of this
//! module keep that O(hosts) scan as the reference semantics and drive
//! both through random churn, asserting identical decisions.

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

/// A host's place in the interference-aware order, packed so that one
/// integer compare decides it: the steal key in the high 64 bits, then
/// `used` (least first, so most free), then `u32::MAX − host`, so that a
/// full tie goes to the highest index. [`PlacementIndex::new`] checks
/// that `used` and `host` fit in 32 bits.
type SpreadKey = u128;

fn spread_key(steal: f64, used: usize, host: usize) -> SpreadKey {
    (u128::from(steal_key(steal)) << 64) | ((used as u128) << 32) | u128::from(!(host as u32))
}

/// The host a [`SpreadKey`] belongs to.
fn spread_host(key: SpreadKey) -> usize {
    !(key as u32) as usize
}

/// The key of a host without room and of every padding leaf. It sorts
/// above every real key, whose steal key is the bit pattern of a finite
/// float and so below `u64::MAX`.
const NO_ROOM: SpreadKey = u128::MAX;

/// One segment tree over the hosts that answers every
/// [`PlacementPolicy`] for tenants of one fixed size.
///
/// Each node keeps two aggregates of the hosts below it:
///
/// * the **least `used`** — first-fit descends to the lowest index whose
///   `used` fits under `capacity − need`, worst-fit to the lowest index
///   whose `used` equals the root's least;
/// * the **least interference-aware key among hosts with room** — the
///   least `(steal, used, highest index)`, packed into one integer; the
///   root's is the interference-aware pick. A host without room and
///   each padding leaf carry a sentinel above every real key.
///
/// Because "has room" depends on the tenant size, `need` is fixed when
/// the index is built; a campaign places tenants of exactly one size.
/// Every update — an arrival, a departure or a host's telemetry —
/// re-keys one leaf and its path to the root, and none allocates.
#[derive(Debug, Clone)]
pub struct PlacementIndex {
    /// vCPUs of one tenant.
    need: usize,
    /// The most vCPUs a host may hold and still take a tenant,
    /// `capacity − need`; `None` when a tenant outgrows a host.
    limit: Option<usize>,
    /// Per-host steal EWMA.
    steal: Vec<f64>,
    /// First leaf: host `h` is node `base + h`, and node 1 is the root.
    base: usize,
    /// Least `used` below each node; a leaf holds its host's `used`, a
    /// padding leaf `usize::MAX`.
    min_used: Vec<usize>,
    /// Least [`SpreadKey`] among the hosts with room below each node,
    /// [`NO_ROOM`] where none has room.
    best: Vec<SpreadKey>,
}

impl PlacementIndex {
    /// An empty fleet of `hosts` hosts with per-host vCPU `capacity`,
    /// taking tenants of `need` vCPUs each.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` or `capacity` does not fit in 32 bits.
    pub fn new(hosts: usize, capacity: usize, need: usize) -> Self {
        assert!(
            u32::try_from(hosts).is_ok() && u32::try_from(capacity).is_ok(),
            "hosts and capacity must fit in 32 bits"
        );
        let base = hosts.next_power_of_two();
        let mut min_used = vec![usize::MAX; 2 * base];
        min_used[base..base + hosts].fill(0);
        let mut index = PlacementIndex {
            need,
            limit: capacity.checked_sub(need),
            steal: vec![0.0; hosts],
            base,
            min_used,
            best: vec![NO_ROOM; 2 * base],
        };
        for h in 0..hosts {
            index.best[base + h] = index.key(h);
        }
        for i in (1..base).rev() {
            index.pull(i);
        }
        index
    }

    /// `host`'s interference-aware key, from its leaf's `used`.
    fn key(&self, host: usize) -> SpreadKey {
        let used = self.min_used[self.base + host];
        match self.limit {
            Some(limit) if used <= limit => spread_key(self.steal[host], used, host),
            _ => NO_ROOM,
        }
    }

    /// Recomputes node `i`'s aggregates from its children.
    fn pull(&mut self, i: usize) {
        self.min_used[i] = self.min_used[2 * i].min(self.min_used[2 * i + 1]);
        self.best[i] = self.best[2 * i].min(self.best[2 * i + 1]);
    }

    /// Sets `host`'s `used` and re-keys its path to the root.
    fn set_used(&mut self, host: usize, used: usize) {
        let mut i = self.base + host;
        self.min_used[i] = used;
        self.best[i] = self.key(host);
        while i > 1 {
            i /= 2;
            self.pull(i);
        }
    }

    /// Records a tenant placed on `host`.
    pub fn add_tenant(&mut self, host: usize) {
        self.set_used(host, self.min_used[self.base + host] + self.need);
    }

    /// Records a tenant leaving `host`.
    pub fn remove_tenant(&mut self, host: usize) {
        let used = self.min_used[self.base + host];
        assert!(
            used >= self.need,
            "departure exceeds placed vCPUs on host {host}"
        );
        self.set_used(host, used - self.need);
    }

    /// `host`'s current steal EWMA.
    pub fn steal(&self, host: usize) -> f64 {
        self.steal[host]
    }

    /// Updates `host`'s steal EWMA (the telemetry feedback path) and
    /// re-keys its path to the root.
    pub fn set_steal(&mut self, host: usize, ewma: f64) {
        self.steal[host] = ewma;
        self.set_used(host, self.min_used[self.base + host]);
    }

    /// The lowest host index whose `used` is at most `bound`, which the
    /// root's least `used` must be.
    fn first_within(&self, bound: usize) -> usize {
        let mut i = 1;
        while i < self.base {
            i = if self.min_used[2 * i] <= bound {
                2 * i
            } else {
                2 * i + 1
            };
        }
        i - self.base
    }

    /// Picks a host for the next tenant under `policy`. Returns `None`
    /// when no host has room (the arrival is rejected).
    pub fn place(&self, policy: PlacementPolicy) -> Option<usize> {
        let limit = self.limit?;
        let least = self.min_used[1];
        if least > limit {
            return None;
        }
        Some(match policy {
            PlacementPolicy::FirstFit => self.first_within(limit),
            PlacementPolicy::WorstFit => self.first_within(least),
            PlacementPolicy::InterferenceAware => spread_host(self.best[1]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_sim::SimRng;

    /// Aggregate per-host state the reference scan decides on.
    #[derive(Debug, Clone, Default)]
    struct HostState {
        /// vCPUs of currently placed tenants.
        used_vcpus: usize,
        /// Steal-time EWMA (0 = idle or interference-free).
        steal_ewma: f64,
    }

    impl PlacementPolicy {
        /// The reference semantics: an O(hosts) scan picking a host for a
        /// tenant needing `need` vCPUs under a per-host vCPU `capacity`.
        fn place(self, hosts: &[HostState], capacity: usize, need: usize) -> Option<usize> {
            let fits = |h: &HostState| h.used_vcpus + need <= capacity;
            match self {
                PlacementPolicy::FirstFit => hosts.iter().position(fits),
                PlacementPolicy::WorstFit => hosts
                    .iter()
                    .enumerate()
                    .filter(|(_, h)| fits(h))
                    // max_by_key returns the *last* max; enumerate in
                    // reverse so ties resolve to the lowest index.
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
                    // index. EWMAs are finite and non-negative.
                    .min_by(|(_, a), (_, b)| {
                        a.steal_ewma
                            .total_cmp(&b.steal_ewma)
                            .then(a.used_vcpus.cmp(&b.used_vcpus))
                    })
                    .map(|(i, _)| i),
            }
        }
    }

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
    /// makes, at every step of random churn: placements, departures and
    /// whole-fleet telemetry updates, on fleets from one host to the
    /// benchmark's 1000, with a tenant that fills a host and one that
    /// fits nowhere.
    #[test]
    fn index_matches_linear_scan_over_random_churn() {
        // (hosts, capacity, need)
        let shapes = [
            (1, 6, 2),
            (2, 6, 2),
            (13, 6, 2),
            (64, 6, 2),
            (1000, 6, 2),
            (13, 4, 4),
            (13, 3, 4),
        ];
        let mut full_ties = 0;
        for (salt, &(n, capacity, need)) in shapes.iter().enumerate() {
            // Telemetry gives every host of one residue class the same
            // fraction, drawn from a few values including 0, so equal and
            // zero EWMAs persist; `n` classes give each host its own.
            for (mode, classes) in [1, 3, n].into_iter().enumerate() {
                let mut rng = SimRng::seed_from(42).fork((3 * salt + mode) as u64);
                let mut idx = PlacementIndex::new(n, capacity, need);
                let mut mirror = vec![HostState::default(); n];
                for step in 0..3 * n.max(200) {
                    match rng.index(8) {
                        // Placements, at a policy's pick or anywhere with
                        // room, so that the fleet fills.
                        0..=3 => {
                            let h = match idx.place(ALL_POLICIES[rng.index(3)]) {
                                Some(h) if rng.chance(0.5) => h,
                                _ => rng.index(n),
                            };
                            if mirror[h].used_vcpus + need <= capacity {
                                idx.add_tenant(h);
                                mirror[h].used_vcpus += need;
                            }
                        }
                        4..=6 => {
                            let h = rng.index(n);
                            if mirror[h].used_vcpus >= need {
                                idx.remove_tenant(h);
                                mirror[h].used_vcpus -= need;
                            }
                        }
                        // End-of-epoch telemetry, as the campaign feeds it.
                        _ => {
                            let vals: Vec<f64> = (0..classes)
                                .map(|_| [0.0, 0.0, 0.25, 0.5, rng.unit_f64()][rng.index(5)])
                                .collect();
                            for (h, m) in mirror.iter_mut().enumerate() {
                                m.steal_ewma = 0.5 * m.steal_ewma + 0.5 * vals[h % classes];
                                idx.set_steal(h, m.steal_ewma);
                            }
                        }
                    }
                    for p in ALL_POLICIES {
                        let pick = idx.place(p);
                        assert_eq!(
                            pick,
                            p.place(&mirror, capacity, need),
                            "{} diverged at step {step} on {n} hosts, {classes} classes",
                            p.label()
                        );
                        if let Some(h) = pick {
                            assert!(h < n, "{} picked padding leaf {h}", p.label());
                            assert!(mirror[h].used_vcpus + need <= capacity);
                        }
                    }
                    if let Some(h) = idx.place(PlacementPolicy::InterferenceAware) {
                        let tied = |m: &HostState| {
                            m.used_vcpus == mirror[h].used_vcpus
                                && m.steal_ewma == mirror[h].steal_ewma
                        };
                        full_ties += usize::from(mirror[..h].iter().any(tied));
                    }
                }
            }
        }
        assert!(
            full_ties > 0,
            "no full interference-aware tie was exercised"
        );
    }

    #[test]
    fn index_handles_degenerate_shapes() {
        // Empty fleet: everything rejects.
        let idx = PlacementIndex::new(0, 4, 2);
        for p in ALL_POLICIES {
            assert_eq!(idx.place(p), None);
        }
        // Need exceeding capacity: rejected, not underflowed.
        let idx = PlacementIndex::new(3, 4, 5);
        for p in ALL_POLICIES {
            assert_eq!(idx.place(p), None);
        }
        // Single host.
        let mut idx = PlacementIndex::new(1, 4, 2);
        assert_eq!(idx.place(PlacementPolicy::FirstFit), Some(0));
        idx.add_tenant(0);
        idx.add_tenant(0);
        assert_eq!(idx.place(PlacementPolicy::FirstFit), None);
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
