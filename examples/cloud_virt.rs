//! Cloud network virtualization on Snap — the Andromeda-style engine
//! family (§1, §2.1): guest VMs on different hosts exchanging packets
//! through per-host virtualization engines with flow-table routing,
//! encapsulation, tenant isolation, and a control-plane slow path.
//!
//! ```sh
//! cargo run --example cloud_virt
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use snap_repro::core::group::{GroupConfig, GroupHandle, SchedulingMode};
use snap_repro::core::virt::{Route, VirtAddr, VirtEngine};
use snap_repro::nic::fabric::{FabricConfig, FabricHandle};
use snap_repro::nic::nic::NicConfig;
use snap_repro::nic::packet::Packet;
use snap_repro::sched::machine::Machine;
use snap_repro::shm::account::CpuAccountant;
use snap_repro::sim::{Nanos, Sim};

const ENGINE_KEYS: [u64; 2] = [0xE0, 0xE1];

fn main() {
    let mut sim = Sim::new();
    let fabric = FabricHandle::new(FabricConfig::default());

    // Two physical hosts, each with a Snap process hosting a
    // virtualization engine on a dedicated core.
    let mut groups: Vec<GroupHandle> = Vec::new();
    let mut engines = Vec::new();
    for h in 0..2u32 {
        let host = fabric.add_host(NicConfig::default());
        let machine = Rc::new(RefCell::new(Machine::new(8, h as u64 + 1)));
        let group = GroupHandle::new(
            GroupConfig::new(format!("virt-host{h}"), SchedulingMode::Dedicated { cores: vec![0] }),
            machine,
            CpuAccountant::new(),
        );
        group.start(&mut sim);
        // The engine owns an rx queue whose interrupt wakes it.
        let (id, _) = group.add_engine_on_queue(&fabric, host, |queue| {
            let (name, key) = (format!("andromeda-{h}"), ENGINE_KEYS[h as usize]);
            Box::new(VirtEngine::new(name, host, key, queue, fabric.clone()))
        });
        groups.push(group);
        engines.push(id);
    }

    // Tenant 42 runs one VM per host; tenant 99 runs a VM on host 0.
    let vm_a = VirtAddr { tenant: 42, vip: 1 };
    let vm_b = VirtAddr { tenant: 42, vip: 2 };
    let intruder = VirtAddr { tenant: 99, vip: 1 };
    let with_virt = |groups: &Vec<GroupHandle>, h: usize, id, f: &mut dyn FnMut(&mut VirtEngine)| {
        groups[h].with_engine(id, |e| f(e.as_any().downcast_mut::<VirtEngine>().unwrap()));
    };

    let mut a_rings = None;
    let mut b_rings = None;
    let mut intruder_tx = None;
    with_virt(&groups, 0, engines[0], &mut |e| {
        a_rings = Some(e.attach_guest(vm_a, 256));
        intruder_tx = Some(e.attach_guest(intruder, 256).0);
    });
    with_virt(&groups, 1, engines[1], &mut |e| {
        b_rings = Some(e.attach_guest(vm_b, 256));
    });
    let (a_tx, _a_rx) = a_rings.unwrap();
    let (_b_tx, b_rx) = b_rings.unwrap();

    // VM A addresses VM B by virtual address (packed in the rss_hash,
    // standing in for the inner L3 header).
    let addressed_to = |to: VirtAddr, len: usize| {
        let mut p = Packet::new(0, 0, Bytes::from(vec![0xABu8; len]));
        p.rss_hash = ((to.tenant as u64) << 32) | to.vip as u64;
        p
    };

    // First packet: no route yet — the flow table misses and the
    // control plane is asked to resolve (the Hoverboard slow path).
    a_tx.inject(sim.now(), addressed_to(vm_b, 512));
    groups[0].wake(&mut sim, engines[0]);
    sim.run_until(Nanos::from_millis(1));
    let mut misses = Vec::new();
    with_virt(&groups, 0, engines[0], &mut |e| {
        misses = e.take_pending_misses();
    });
    println!("flow misses awaiting control plane: {misses:?}");

    // Control plane installs the route between the engine's passes (a
    // mailbox call in a full deployment; the group's `with_engine` here).
    with_virt(&groups, 0, engines[0], &mut |e| {
        e.install_route(vm_b, Route { host: 1, engine_key: ENGINE_KEYS[1] });
    });

    // Traffic now flows, encapsulated across the fabric.
    for _ in 0..20 {
        a_tx.inject(sim.now(), addressed_to(vm_b, 512));
    }
    // A different tenant trying to reach VM B is dropped at the source.
    intruder_tx
        .unwrap()
        .inject(sim.now(), addressed_to(vm_b, 512));
    groups[0].wake(&mut sim, engines[0]);
    sim.run_until(Nanos::from_millis(2));

    let mut delivered = Vec::new();
    b_rx.drain(usize::MAX, &mut delivered);
    println!("VM B received {} packets of 512 B", delivered.len());
    assert_eq!(delivered.len(), 20);

    with_virt(&groups, 0, engines[0], &mut |e| {
        let s = e.stats();
        println!(
            "host 0 engine: encapped {} (hits {}, misses {}), isolation drops {}",
            s.encapped, s.hits, s.misses, s.isolation_drops
        );
        assert_eq!(s.isolation_drops, 1, "cross-tenant packet stopped");
    });
    with_virt(&groups, 1, engines[1], &mut |e| {
        println!("host 1 engine: decapped {}", e.stats().decapped);
    });
    println!("cloud virtualization example complete");
}
