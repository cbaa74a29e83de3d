//! Ablations of the design choices DESIGN.md §5 calls out:
//!
//! 1. the Fig 4 pingpong-avoidance tagging,
//! 2. the migrator's idle-first target rule,
//! 3. the SA delay budget,
//! 4. the §6 pull-based oracle.

use crate::{mean_makespans, mean_pair, Opts};
use irs_core::{runner, Scenario, Strategy, System, SystemConfig};
use irs_guest::GuestSaConfig;
use irs_metrics::{improvement_pct, Series, Table};
use irs_sim::SimTime;

/// A fig5-style run constructor; `sa` overrides the measured guest's SA
/// configuration.
fn fig5_run(
    bench: &'static str,
    n_inter: usize,
    strategy: Strategy,
    sa: Option<GuestSaConfig>,
) -> impl Fn(u64) -> System + Sync {
    move |seed| {
        let mut s = Scenario::fig5_style(bench, n_inter, strategy, seed);
        s.vms[0].sa_override = sa.clone();
        System::new(s)
    }
}

/// IRS improvement (%) over vanilla with the shipped IRS (`with`) and one
/// variant (`without`), for every bench at 1 and 2 interfered vCPUs. Each
/// cell runs vanilla, IRS and the variant once, all in one batch.
fn variant_table(
    title: &str,
    labels: [&str; 2],
    benches: &[&'static str],
    (strategy, sa): (Strategy, Option<GuestSaConfig>),
    opts: Opts,
) -> Table {
    let mut ctors = Vec::new();
    for &bench in benches {
        for n_inter in [1usize, 2] {
            ctors.push(fig5_run(bench, n_inter, Strategy::Vanilla, None));
            ctors.push(fig5_run(bench, n_inter, Strategy::Irs, None));
            ctors.push(fig5_run(bench, n_inter, strategy, sa.clone()));
        }
    }
    let means = mean_makespans(opts, &ctors);
    let mut table = Table::new(title);
    let mut with = Series::new(labels[0]);
    let mut without = Series::new(labels[1]);
    let mut cells = means.chunks(3);
    for &bench in benches {
        for n_inter in [1usize, 2] {
            let m = cells.next().expect("three runs per cell");
            let label = format!("{bench} {n_inter}-inter.");
            with.point(label.clone(), improvement_pct(m[0], m[1]));
            without.point(label, improvement_pct(m[0], m[2]));
        }
    }
    table.add(with);
    table.add(without);
    table
}

/// Ablation 1: IRS with and without the Fig 4 pingpong-avoidance tagging,
/// on blocking workloads (the fix targets wake-up migration of waiters).
pub fn ablate_pingpong(opts: Opts) -> Table {
    variant_table(
        "Ablation — Fig 4 pingpong tagging (IRS improvement %, blocking)",
        ["tagging on", "tagging off"],
        &["streamcluster", "fluidanimate", "facesim", "bodytrack"],
        (
            Strategy::Irs,
            Some(GuestSaConfig {
                pingpong_tagging: false,
                ..GuestSaConfig::default()
            }),
        ),
        opts,
    )
}

/// Ablation 2: the migrator's idle-first fast path versus pure `rt_avg`
/// ranking.
pub fn ablate_idle_first(opts: Opts) -> Table {
    variant_table(
        "Ablation — migrator idle-first rule (IRS improvement %, blocking)",
        ["idle-first", "rt_avg only"],
        &["streamcluster", "blackscholes", "facesim"],
        (
            Strategy::Irs,
            Some(GuestSaConfig {
                idle_first: false,
                ..GuestSaConfig::default()
            }),
        ),
        opts,
    )
}

/// Ablation 3: sweep of the SA processing delay the guest imposes on the
/// hypervisor's schedule path (paper §3.1: 20–26 µs measured; larger
/// budgets delay every preemption).
pub fn ablate_sa_delay(opts: Opts) -> Table {
    let mut table =
        Table::new("Ablation — SA delay budget sweep (IRS improvement %, streamcluster)");
    let delays = [0u64, 22, 100, 200, 400];
    let mut ctors = Vec::new();
    for n_inter in [1usize, 2] {
        ctors.push(fig5_run("streamcluster", n_inter, Strategy::Vanilla, None));
        for delay_us in delays {
            let sa = GuestSaConfig {
                round_delay: SimTime::from_micros(delay_us),
                ..GuestSaConfig::default()
            };
            ctors.push(fig5_run("streamcluster", n_inter, Strategy::Irs, Some(sa)));
        }
    }
    let means = mean_makespans(opts, &ctors);
    for (n_inter, m) in [1usize, 2].into_iter().zip(means.chunks(1 + delays.len())) {
        let mut series = Series::new(format!("{n_inter}-inter."));
        for (delay_us, &makespan) in delays.into_iter().zip(&m[1..]) {
            series.point(format!("{delay_us}us"), improvement_pct(m[0], makespan));
        }
        table.add(series);
    }
    table
}

/// Ablation 4: the §6 pull-based oracle versus the shipped push-based IRS.
pub fn ablate_pull(opts: Opts) -> Table {
    variant_table(
        "Ablation — §6 pull-based oracle vs push-based IRS (improvement %)",
        ["IRS (push)", "IRS-pull (oracle)"],
        &["streamcluster", "fluidanimate", "blackscholes", "facesim"],
        (Strategy::IrsPull, None),
        opts,
    )
}

/// Extension: hypervisor slice-length sensitivity (KVM uses ~6 ms, Xen
/// 30 ms, VMware ~50 ms — §3.1). Vanilla's LHP cost scales with the slice;
/// IRS's cost does not, so the IRS advantage should grow with the slice.
pub fn ablate_slice(opts: Opts) -> Table {
    let mut table =
        Table::new("Extension — hypervisor slice length sweep (streamcluster, 2-inter)");
    let slices = [
        ("6ms (KVM)", 6u64),
        ("30ms (Xen)", 30),
        ("50ms (VMware)", 50),
    ];
    let mut ctors = Vec::new();
    for (_, slice_ms) in slices {
        for strategy in [Strategy::Vanilla, Strategy::Irs] {
            ctors.push(move |seed| {
                System::new(
                    Scenario::fig5_style("streamcluster", 2, strategy, seed)
                        .time_slice(SimTime::from_millis(slice_ms)),
                )
            });
        }
    }
    let means = mean_makespans(opts, &ctors);
    let mut vanilla = Series::new("vanilla makespan (ms)");
    let mut irs = Series::new("IRS makespan (ms)");
    let mut gain = Series::new("IRS improvement (%)");
    for ((label, _), m) in slices.into_iter().zip(means.chunks(2)) {
        vanilla.point(label, m[0]);
        irs.point(label, m[1]);
        gain.point(label, improvement_pct(m[0], m[1]));
    }
    table.add(vanilla);
    table.add(irs);
    table.add(gain);
    table
}

/// Extension: paravirtual spin-then-halt on the spinning NPB waiters
/// (§5.1 enables pv spinlocks but OpenMP's user-level spinning bypasses
/// them; this asks what happens if the waiters *did* halt).
pub fn ablate_pv_spin(opts: Opts) -> Table {
    let mut table =
        Table::new("Extension — paravirtual spin-then-halt on spinning waiters (makespan ms)");
    let strategies = [Strategy::Vanilla, Strategy::Irs];
    let cells: Vec<(&str, usize)> = ["MG", "CG", "UA"]
        .into_iter()
        .flat_map(|bench| [1usize, 2].map(|n_inter| (bench, n_inter)))
        .collect();
    let budget = Some(SimTime::from_micros(100));
    let mut ctors = Vec::new();
    for strategy in strategies {
        for &(bench, n_inter) in &cells {
            for pv_spin in [None, budget] {
                ctors.push(move |seed| {
                    let cfg = SystemConfig {
                        pv_spin,
                        ..SystemConfig::default()
                    };
                    System::with_config(Scenario::fig5_style(bench, n_inter, strategy, seed), cfg)
                });
            }
        }
    }
    let mut means = mean_makespans(opts, &ctors).into_iter();
    for strategy in strategies {
        let mut plain = Series::new(format!("{strategy}, user spin"));
        let mut pv = Series::new(format!("{strategy}, pv spin-halt"));
        for &(bench, n_inter) in &cells {
            let label = format!("{bench} {n_inter}-inter.");
            plain.point(label.clone(), means.next().expect("user-spin run"));
            pv.point(label, means.next().expect("pv-spin run"));
        }
        table.add(plain);
        table.add(pv);
    }
    table
}

/// Extension: strict (gang) co-scheduling — the VMware ESX 2.x baseline of
/// §2.1. Immune to LHP/LWP by construction, but the small co-located VM's
/// slot idles every other pCPU: CPU fragmentation, measured directly.
pub fn ablate_strict_co(opts: Opts) -> Table {
    let mut table = Table::new(
        "Extension — strict co-scheduling vs vanilla/IRS (1 hog; fragmentation visible)",
    );
    let strategies = [Strategy::Vanilla, Strategy::Irs, Strategy::StrictCo];
    let benches = ["streamcluster", "MG"];
    let mut ctors = Vec::new();
    for strategy in strategies {
        for bench in benches {
            ctors.push(move |seed| System::new(Scenario::fig5_style(bench, 1, strategy, seed)));
        }
    }
    // Measured makespan (ms) and machine idle (%) per run.
    let mut cells = runner::grid(opts.base_seed, opts.seeds, opts.jobs, &ctors, |r| {
        let total_cpu: f64 = r.vms.iter().map(|v| v.cpu_time.as_secs_f64()).sum();
        let idle = (1.0 - total_cpu / (4.0 * r.elapsed.as_secs_f64())) * 100.0;
        (r.measured().makespan_ms(), idle)
    })
    .into_iter();
    for strategy in strategies {
        let mut makespan = Series::new(format!("{strategy} makespan (ms)"));
        let mut idle = Series::new(format!("{strategy} machine idle (%)"));
        for (bench, runs) in benches.into_iter().zip(cells.by_ref()) {
            let (ms, idle_pct) = mean_pair(&runs);
            makespan.point(bench, ms);
            idle.point(bench, idle_pct);
        }
        table.add(makespan);
        table.add(idle);
    }
    table
}
