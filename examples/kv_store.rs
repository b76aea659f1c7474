//! A distributed key-value lookup service built on one-sided ops —
//! the workload class behind Fig. 8 and §5.4.
//!
//! The server shares two regions: a bucket-indexed *indirection table*
//! and a *value heap*. Clients resolve keys entirely with one-sided
//! operations: a plain remote read needs two round trips (pointer,
//! then value), while Pony's custom **indirect read** resolves the
//! pointer server-side in one round trip — "compared to a basic remote
//! read, an indirect read effectively doubles the achievable operation
//! rate and halves the latency" (§3.2). The batched form amortizes
//! further. The lookup strategies live in `snap_apps::kv::onesided`;
//! this example wires them to a testbed.
//!
//! ```sh
//! cargo run --example kv_store
//! ```

use snap_repro::apps::kv::onesided;
use snap_repro::isolation::QuotaPolicy;
use snap_repro::pony::client::OpStatus;
use snap_repro::shm::region::AccessMode;
use snap_repro::sim::Nanos;
use snap_repro::testbed::{Testbed, TestbedConfig};

const BUCKETS: u64 = 1024;
const VALUE_LEN: u32 = 64;

fn main() {
    let mut tb = Testbed::new(TestbedConfig {
        admission: true,
        ..TestbedConfig::default()
    });
    let mut client = tb.pony_app(0, "analytics", |_| {});
    let _server = tb.pony_app(1, "kvserver", |_| {});
    let conn = tb.connect(0, "analytics", 1, "kvserver");

    // Server-side data layout: value heap + indirection table.
    let layout = onesided::install(&tb.hosts[1].regions, "kvserver", BUCKETS, VALUE_LEN);

    // --- Strategy 1: pointer chase with two plain reads -----------
    let bucket = 7u64;
    let v = onesided::lookup_ptr_chase(tb.as_pump(), &mut client, conn, &layout, bucket)
        .expect("pointer chase completed");
    assert_eq!(v[0], onesided::expected_byte(bucket));
    println!("pointer-chase lookup (2 plain reads): value ok");

    // --- Strategy 2: one indirect read -----------------------------
    let v = onesided::lookup_indirect(tb.as_pump(), &mut client, conn, &layout, bucket)
        .expect("indirect read completed");
    assert_eq!(v[0], onesided::expected_byte(bucket));
    println!("indirect read (1 round trip): value ok");

    // --- Strategy 3: batched indirect reads, sustained -------------
    // "Many of the operations use a custom batched indirect read
    // operation ... a batch of eight indirections" (§5.4).
    let report = onesided::batched_lookups(
        tb.as_pump(),
        &mut client,
        conn,
        &layout,
        Nanos::from_millis(50),
        16,
        8,
    );
    let wall = report.elapsed.as_secs_f64();
    println!(
        "batched indirect reads: {} lookups in {:.1} ms -> {:.2}M lookups/sec",
        report.lookups,
        wall * 1e3,
        report.lookups as f64 / wall / 1e6
    );

    // --- Strategy 4: runtime quotas from the operator's seat --------
    // The client pins a 64 KiB result cache, then an operator tightens
    // its memory budget below that at runtime through the admission
    // controller. The container goes under Hard pressure and new ops get
    // `Busy` back-pressure — refused before entering the transport, so
    // nothing is half-sent. Raising the budget (also at runtime) heals
    // it immediately.
    tb.hosts[0]
        .regions
        .register_with("analytics", vec![0u8; 64 << 10], AccessMode::ReadWrite);
    let adm = tb.hosts[0].admission.clone().expect("admission enabled");
    adm.set_policy("analytics", QuotaPolicy::with_mem(32_000, 48_000))
        .expect("soft <= hard");
    let (throttled, _) = onesided::lookup_status(tb.as_pump(), &mut client, conn, &layout, 3)
        .expect("lookup completed");
    println!("lookup under a 48 KB hard budget (64 KiB pinned): {throttled:?}");
    assert_eq!(throttled, OpStatus::Busy, "hard pressure pushes back");
    adm.set_policy("analytics", QuotaPolicy::with_mem(100_000, 200_000))
        .expect("soft <= hard");
    let (healed, _) = onesided::lookup_status(tb.as_pump(), &mut client, conn, &layout, 3)
        .expect("lookup completed");
    println!("lookup after the operator raised the budget: {healed:?}");
    assert_eq!(healed, OpStatus::Ok, "budget raise applies immediately");
    println!("\nquota table:\n{}", adm.table());
}
