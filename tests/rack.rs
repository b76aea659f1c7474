//! The §5.2 rack driver (`snap_repro::rack`): the arrival schedule is
//! exact, unbiased and shared, and both stacks run the same workload
//! over the same mesh through the same window.

use snap_repro::core::group::SchedulingMode;
use snap_repro::rack::{run, schedule, RackParams, RackResult, Stack};
use snap_repro::sim::Nanos;

/// A rack small enough for a debug build: 4 hosts × 2 jobs, 8 RPCs of
/// 100 kB and 10 probes per host in 10 ms.
fn small(stack: Stack) -> RackParams {
    RackParams {
        hosts: 4,
        jobs_per_host: 2,
        rpc_bytes: 100_000,
        rpc_per_sec_per_host: 800.0,
        prober_qps: 1_000.0,
        stack,
        duration: Nanos::from_millis(10),
        ..RackParams::default()
    }
}

fn both_stacks() -> [Stack; 2] {
    [Stack::Tcp, Stack::Pony(SchedulingMode::Spreading, None)]
}

/// Everything a `RackResult` reports, comparable.
fn fingerprint(r: &RackResult) -> impl PartialEq + std::fmt::Debug {
    (
        (
            r.cpu_per_host.to_bits(),
            r.delivered_gbps.to_bits(),
            r.rpcs,
            r.bulk_issued,
        ),
        (r.probes_issued, r.probes_unanswered, r.job_conns),
        (
            r.prober.count(),
            r.prober.median(),
            r.prober.p99(),
            r.prober.max(),
        ),
        r.tcp_mean_streams.map(f64::to_bits),
    )
}

#[test]
fn schedule_is_exact_in_window_sorted_and_never_to_self() {
    let p = RackParams {
        rpc_per_sec_per_host: 1_000.0,
        prober_qps: 200.0,
        duration: Nanos::from_millis(50),
        ..RackParams::default()
    };
    let from = Nanos::from_micros(50);
    let arrivals = schedule(&p, from);
    for host in 0..p.hosts {
        let of = |bulk: bool| {
            arrivals
                .iter()
                .filter(|a| a.host == host && a.job.is_some() == bulk)
                .count()
        };
        assert_eq!(
            (of(true), of(false)),
            (50, 10),
            "host {host}: rate x duration, exactly"
        );
    }
    for a in &arrivals {
        assert!(
            from <= a.due && a.due < from + p.duration,
            "{a:?} outside the window"
        );
        assert!(a.peer != a.host && a.peer < p.hosts, "{a:?}");
        assert!(a.job.is_none_or(|j| j < p.jobs_per_host), "{a:?}");
    }
    let key = |a: &snap_repro::rack::Arrival| (a.due, a.host, a.job.is_none());
    assert!(
        arrivals.windows(2).all(|w| key(&w[0]) <= key(&w[1])),
        "not sorted"
    );
    assert_eq!(
        arrivals,
        schedule(&p, from),
        "the schedule is a function of the seed"
    );
    assert_ne!(
        arrivals,
        schedule(
            &RackParams {
                seed: 7,
                ..p.clone()
            },
            from
        )
    );
}

#[test]
fn schedule_peers_are_uniform_over_the_other_hosts() {
    // 6 hosts x 17 000 bulk arrivals: 102 000 draws, 3 400 expected per
    // (host, peer) cell.
    let p = RackParams {
        rpc_per_sec_per_host: 340_000.0,
        prober_qps: 0.0,
        duration: Nanos::from_millis(50),
        ..RackParams::default()
    };
    let mut cells = vec![vec![0u64; p.hosts]; p.hosts];
    for a in schedule(&p, Nanos::ZERO) {
        cells[a.host][a.peer] += 1;
    }
    for (host, row) in cells.iter().enumerate() {
        let total: u64 = row.iter().sum();
        assert_eq!((total, row[host]), (17_000, 0));
        for (peer, &n) in row.iter().enumerate().filter(|&(peer, _)| peer != host) {
            let share = n as f64 / total as f64 * (p.hosts - 1) as f64;
            assert!(
                (0.95..=1.05).contains(&share),
                "{host} -> {peer}: {share:.3} of a fair share"
            );
        }
    }
}

#[test]
fn both_stacks_run_the_same_workload_and_finish_it() {
    let scheduled = schedule(&small(Stack::Tcp), Nanos::ZERO);
    let bulk = scheduled.iter().filter(|a| a.job.is_some()).count() as u64;
    let probes = scheduled.len() as u64 - bulk;
    assert_eq!((bulk, probes), (32, 40));
    for stack in both_stacks() {
        let p = small(stack);
        let r = run(&p);
        let name = format!("{:?}", p.stack);
        assert_eq!((r.bulk_issued, r.probes_issued), (bulk, probes), "{name}");
        assert_eq!(
            r.job_conns,
            4 * 3 * 2,
            "{name}: one job connection per (host, peer, job)"
        );
        // Low load: nothing is left behind by the end of the drain.
        assert_eq!(r.rpcs, r.bulk_issued, "{name}");
        assert_eq!(r.probes_unanswered, 0, "{name}");
        assert_eq!(
            r.prober.count() + r.probes_unanswered,
            r.probes_issued,
            "{name}"
        );
        let window_bytes = r.delivered_gbps * 1e9 / 8.0 * p.duration.as_secs_f64();
        assert!(window_bytes > 0.0, "{name}");
        assert!(
            window_bytes <= (r.bulk_issued * p.rpc_bytes) as f64,
            "{name}: {window_bytes}"
        );
        assert!(r.cpu_per_host > 0.0, "{name}");
        assert_eq!(
            r.tcp_mean_streams.is_some(),
            matches!(p.stack, Stack::Tcp),
            "{name}"
        );

        // Same seed, same result; another seed, another.
        assert_eq!(fingerprint(&run(&p)), fingerprint(&r), "{name}");
        let other = run(&RackParams {
            seed: 7,
            ..p.clone()
        });
        assert_ne!(fingerprint(&other), fingerprint(&r), "{name}");
    }
}

#[test]
fn other_rack_shapes_run_on_both_stacks() {
    for (hosts, jobs_per_host) in [(5, 3), (3, 1)] {
        for stack in both_stacks() {
            let p = RackParams {
                hosts,
                jobs_per_host,
                ..small(stack)
            };
            let r = run(&p);
            assert_eq!(r.job_conns, hosts * (hosts - 1) * jobs_per_host, "{p:?}");
            assert_eq!(
                (r.bulk_issued, r.probes_issued),
                (8 * hosts as u64, 10 * hosts as u64)
            );
            assert_eq!((r.rpcs, r.probes_unanswered), (r.bulk_issued, 0), "{p:?}");
        }
    }
}
