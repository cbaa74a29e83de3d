//! Multi-threaded server presets (§5.3): a SPECjbb2005-like closed-loop
//! warehouse model and an Apache-`ab`-like open-loop request model.

use crate::bundle::{OpenLoop, WorkloadBundle};
use crate::program::ProgramBuilder;
use irs_sim::SimTime;
use irs_sync::{SyncSpace, WaitMode};

/// JVM safepoint cadence for [`specjbb`]: how often the epoch deadline
/// gathers every warehouse thread (GC/deopt/bias-revocation pace of a
/// busy heap).
pub const SPECJBB_SAFEPOINT_PERIOD: SimTime = SimTime::from_millis(65);

/// SPECjbb2005-like closed loop: `warehouses` threads each processing
/// back-to-back transactions (the paper sets warehouses = vCPUs for a
/// one-to-one mapping). Each transaction computes ~3 ms and touches a
/// shared lock briefly ("SPECjbb performs little synchronization").
///
/// Latency of the `RequestStart`→`RequestDone` span models the "new order
/// transaction" latency of Fig 8(b).
///
/// The JVM's stop-the-world safepoints — the carrier of the paper's
/// Fig 8(a) *throughput* gain — are modelled by a *time-anchored* gang
/// epoch: each thread polls at the top of every transaction, the poll is
/// free until the wall-clock deadline (every
/// [`SPECJBB_SAFEPOINT_PERIOD`]) comes due, and then the whole gang
/// rendezvouses — every thread stalls until the last participant reaches
/// its next poll. A vCPU preempted mid-transaction therefore holds *all*
/// warehouses at the safepoint for the length of its preemption, exactly
/// the amplification SMP interference inflicts on a real JVM. Unlike a
/// work-anchored barrier epoch, threads do **not** run equal transaction
/// counts between safepoints — whoever got more CPU commits more
/// transactions, so the model does not lockstep throughput to the most
/// interfered vCPU.
pub fn specjbb(warehouses: usize) -> WorkloadBundle {
    assert!(warehouses > 0, "specjbb needs at least one warehouse");
    let mut space = SyncSpace::new();
    let lock = space.new_lock(WaitMode::Block);
    let safepoint = space.new_epoch(
        SPECJBB_SAFEPOINT_PERIOD.as_nanos(),
        warehouses,
        WaitMode::Block,
    );
    let threads = (0..warehouses)
        .map(|_| {
            ProgramBuilder::new()
                .forever(|b| {
                    b.safepoint_poll(safepoint)
                        .request_start()
                        .compute_us(3_000, 0.4)
                        .lock(lock)
                        .compute_us(20, 0.1)
                        .unlock(lock)
                        .request_done()
                })
                .build()
        })
        .collect();
    WorkloadBundle::server("specjbb", threads, space, 0.4, None)
}

/// Front-end work per request in [`serving_tiers`] (µs).
const FRONT_US: u64 = 300;
/// Back-end work per request in [`serving_tiers`] (µs).
const BACK_US: u64 = 700;

/// Multi-tier latency-SLO service: `frontends` threads each drive their
/// own deterministic open-loop Poisson arrival source (`AwaitArrival`),
/// do the request's front-end work, and hand it through a bounded queue
/// to `backends` threads that finish it (`RequestDone`).
///
/// The latency of a request is anchored at its *scheduled arrival
/// instant*: a frontend running behind its arrival schedule does not slow
/// the clock down (no coordinated omission), and the stamp rides the
/// queue item across tiers, so `RequestDone` measures true end-to-end
/// service latency including all queueing.
///
/// `offered_load` sets the aggregate arrival rate as a fraction of the
/// service capacity (the slower tier bounds it).
pub fn serving_tiers(frontends: usize, backends: usize, offered_load: f64) -> WorkloadBundle {
    assert!(frontends > 0 && backends > 0, "both tiers need threads");
    assert!(
        offered_load > 0.0 && offered_load < 1.0,
        "offered load must be in (0, 1) for a stable open loop"
    );
    let front_cap = frontends as f64 * 1e6 / FRONT_US as f64;
    let back_cap = backends as f64 * 1e6 / BACK_US as f64;
    let rate_rps = front_cap.min(back_cap) * offered_load;
    // Each frontend owns an independent arrival stream carrying an equal
    // share of the load.
    let mean_ns = (frontends as f64 * 1e9 / rate_rps).round() as u64;

    let mut space = SyncSpace::new();
    let queue = space.new_channel(256);
    let mut threads = Vec::with_capacity(frontends + backends);
    for _ in 0..frontends {
        let arrival = space.new_arrival(mean_ns);
        threads.push(
            ProgramBuilder::new()
                .forever(|b| {
                    b.await_arrival(arrival)
                        .compute_us(FRONT_US, 0.3)
                        .push(queue)
                })
                .build(),
        );
    }
    for _ in 0..backends {
        threads.push(
            ProgramBuilder::new()
                .forever(|b| b.pop(queue).compute_us(BACK_US, 0.3).request_done())
                .build(),
        );
    }
    WorkloadBundle::server("serving", threads, space, 0.3, None)
}

/// Apache-`ab`-like open loop: `workers` independent threads popping
/// requests from a shared accept queue (no synchronization between
/// requests, matching "threads servicing client requests are independent").
/// Requests arrive on the instants of a Poisson arrival process in the
/// bundle's space, as the serving tiers' do.
///
/// The paper uses 1000 connections against `MaxClient` 512, i.e. far more
/// threads than vCPUs — which is why IRS helps `ab` little (§5.3): the
/// guest balancer already spreads this many threads by interference level.
///
/// `offered_load` sets the arrival rate as a fraction of the service
/// capacity of `capacity_vcpus` vCPUs.
pub fn apache_ab(workers: usize, capacity_vcpus: usize, offered_load: f64) -> WorkloadBundle {
    assert!(workers > 0, "ab needs at least one worker");
    assert!(capacity_vcpus > 0);
    assert!(
        offered_load > 0.0 && offered_load < 1.0,
        "offered load must be in (0, 1) for a stable open loop"
    );
    let service_us = 2_000u64;
    let mut space = SyncSpace::new();
    let accept_queue = space.new_channel(4096);
    let capacity_rps = capacity_vcpus as f64 * 1e6 / service_us as f64;
    let arrival = space.new_arrival((1e9 / (capacity_rps * offered_load)).round() as u64);
    let threads = (0..workers)
        .map(|_| {
            ProgramBuilder::new()
                .forever(|b| {
                    b.pop(accept_queue)
                        .compute_us(service_us, 0.3)
                        .request_done()
                })
                .build()
        })
        .collect();
    WorkloadBundle::server(
        "ab",
        threads,
        space,
        0.2,
        Some(OpenLoop {
            channel: accept_queue,
            arrival,
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::WorkloadKind;

    #[test]
    fn specjbb_shape() {
        let b = specjbb(4);
        assert_eq!(b.kind, WorkloadKind::Server);
        assert_eq!(b.n_threads(), 4);
        assert!(b.open_loop.is_none(), "closed loop has no arrival process");
        // The safepoint epoch exists and is balanced: one poll per thread.
        assert_eq!(b.space.n_epochs(), 1);
        assert_eq!(
            b.space.epoch_ref(irs_sync::EpochId(0)).participants(),
            4,
            "every warehouse participates in the safepoint"
        );
        for t in &b.threads {
            assert_eq!(t.epochs_polled(), vec![irs_sync::EpochId(0)]);
        }
    }

    #[test]
    fn serving_tiers_shape() {
        let mut b = serving_tiers(2, 2, 0.6);
        assert_eq!(b.kind, WorkloadKind::Server);
        assert_eq!(b.n_threads(), 4);
        assert!(b.open_loop.is_none(), "arrivals live in the DSL now");
        assert_eq!(b.space.n_arrivals(), 2, "one stream per frontend");
        // Backends bound capacity: 2 × (1e6/700) ≈ 2857 rps; at 0.6 load
        // split over 2 frontends each stream carries ~857 rps → ~1167 µs
        // between arrivals, on average. The gaps are exponential (Poisson
        // arrivals), so their standard deviation equals their mean; a
        // fixed gap would have none and a uniform one about 0.58 of it.
        let a = b.space.arrival(irs_sync::ArrivalId(0));
        a.reseed(irs_sim::SimRng::seed_from(1));
        let n = 10_000;
        let mut last = a.next_arrival_ns();
        let gaps: Vec<f64> = (0..n)
            .map(|_| {
                let at = a.next_arrival_ns();
                let gap = (at - last) as f64;
                last = at;
                gap
            })
            .collect();
        let mean = gaps.iter().sum::<f64>() / n as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / n as f64;
        let us = mean / 1_000.0;
        assert!((1_100.0..=1_250.0).contains(&us), "got {us} µs");
        let cv = var.sqrt() / mean;
        assert!((0.95..=1.05).contains(&cv), "gap CV {cv}, not Poisson");
    }

    #[test]
    #[should_panic(expected = "stable open loop")]
    fn serving_overload_is_rejected() {
        serving_tiers(2, 2, 1.0);
    }

    #[test]
    fn ab_shape_and_rate() {
        let mut b = apache_ab(512, 4, 0.6);
        assert_eq!(b.n_threads(), 512);
        let ol = b.open_loop.expect("ab is open loop");
        assert_eq!(b.check(), Ok(()), "the source names its own space");
        // Capacity 2000 rps × 0.6 = 1200 rps → ~833 µs inter-arrival.
        let a = b.space.arrival(ol.arrival);
        a.reseed(irs_sim::SimRng::seed_from(1));
        let n = 10_000;
        let first = a.next_arrival_ns();
        let mut last = first;
        for _ in 0..n {
            last = a.next_arrival_ns();
        }
        let us = (last - first) as f64 / n as f64 / 1_000.0;
        assert!((800.0..=870.0).contains(&us), "got {us} µs");
    }

    #[test]
    #[should_panic(expected = "stable open loop")]
    fn overload_is_rejected() {
        apache_ab(8, 4, 1.5);
    }
}
